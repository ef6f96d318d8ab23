"""Command-line front end.

Commands: synthesize, verify, phase, export-path, noise. Angle arguments
accept plain radians or pi-literals such as ``pi/4``, ``-pi/3``, ``2pi/3``.
Exit codes: 0 success/PASS, 1 semantic failure (FAIL, non-cyclic state),
2 input error or a failed write to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import re
import sys

from . import schedule_io
from .records import ConditionalSchedule, single_loop_schedule

VERIFY_THRESHOLD = 1e-10

_PI_LITERAL = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+(\.\d+)?)?pi(/(?P<den>\d+(\.\d+)?))?$"
)


class CliError(Exception):
    """Input error; maps to exit code 2."""


def _is_number(text: str) -> bool:
    """Whether parse_angle reads text as a number or a pi-literal, pi/0 included."""
    try:
        float(text)
    except ValueError:
        return bool(_PI_LITERAL.match(text.strip()))
    return True


def parse_angle(text: str) -> float:
    """Parse radians, allowing pi-literals like 'pi', '3pi/4', '-pi/3'.

    A NaN or infinite value is returned as it is: the field rule of the
    library call that takes the angle rejects it and names the field.
    """
    m = _PI_LITERAL.match(text.strip())
    if not m:
        try:
            return float(text)
        except ValueError:
            raise CliError(f"cannot parse angle {text!r}") from None
    coef, den = float(m.group("coef") or 1), float(m.group("den") or 1)
    if den == 0:
        raise CliError(f"angle {text!r} has a zero denominator")
    value = math.pi * coef / den
    return -value if m.group("sign") == "-" else value


def _load(path):
    try:
        return schedule_io.load_schedule(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except schedule_io.ScheduleParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write(path, text: str) -> None:
    """Write text to the file at path as UTF-8 with "\n" line ends."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_single_qubit(path, what: str):
    """Load a single-qubit schedule; what ("noise sweeps are", ...) starts the error."""
    sched = _load(path)
    if isinstance(sched, ConditionalSchedule):
        raise CliError(f"{what} defined for single-qubit schedules")
    return sched


def _initial_state(args):
    """The plus-branch state at the --chi and --phi arguments."""
    from .core import state_from_angles

    return state_from_angles(parse_angle(args.chi), parse_angle(args.phi), "plus")


def _resolve(name: str):
    """The function at "module.function" in this package, importing its module."""
    module, _, function = name.partition(".")
    return getattr(importlib.import_module(f".{module}", __package__), function)


# What a target name means: (reference gate, whether it takes an angle, the
# propagator of a single-qubit schedule). A two-qubit schedule always gets
# two_qubit_unitary. Functions are named, not bound, so that a command
# imports numpy and the gate modules only once it computes a gate.
_TARGETS = {
    "u_chi": ("gates.u_chi", True, "core.schedule_unitary"),
    "u2": ("twoqubit.u2_natural", False, "core.schedule_unitary"),
    "u2_prime": ("twoqubit.u2_line_selective", False, "core.schedule_unitary"),
    "controlled_u": (
        "twoqubit.controlled_u_reference", True, "twoqubit.line_selective_unitary"
    ),
}


def _target(spec: str):
    """Reference gate of a named target, and the propagator its schedule gets."""
    name, colon, arg = spec.partition(":")
    if name not in _TARGETS:
        raise CliError(f"unknown target {spec!r}")
    reference, takes_angle, propagator = _TARGETS[name]
    if takes_angle and not arg:
        raise CliError(f"target {name} needs an angle, e.g. {name}:pi/4")
    if colon and not takes_angle:
        raise CliError(f"target {name} takes no angle")
    angle = (parse_angle(arg),) if takes_angle else ()
    return _resolve(reference)(*angle), _resolve(propagator)


def cmd_synthesize(args) -> tuple[int, str]:
    sched = single_loop_schedule(parse_angle(args.chi), args.omega, args.omega2)
    _write(args.out, schedule_io.serialize_schedule(sched))
    return 0, f"wrote {args.out}\n"


def cmd_verify(args) -> tuple[int, str]:
    sched = _load(args.schedule)
    target, propagator = _target(args.target)
    if isinstance(sched, ConditionalSchedule):
        propagator = _resolve("twoqubit.two_qubit_unitary")
    from .gates import compare_gates

    actual = propagator(sched)
    if actual.shape != target.shape:
        raise CliError(
            f"schedule produces a {actual.shape[0]}x{actual.shape[0]} gate but "
            f"target {args.target!r} is {target.shape[0]}x{target.shape[0]}"
        )
    report = compare_gates(actual, target)
    passed = report.max_entry_deviation <= VERIFY_THRESHOLD
    return 0 if passed else 1, (f"max_entry_deviation {report.max_entry_deviation:.12e}\n"
                                f"trace_fidelity {report.trace_fidelity:.12f}\n"
                                f"{'PASS' if passed else 'FAIL'}\n")


def cmd_phase(args) -> tuple[int, str]:
    sched = _load_single_qubit(args.schedule, "phase reports are")
    from . import phases

    try:
        decomp = phases.geometric_phase(sched, _initial_state(args))
    except phases.NonCyclicError:
        print("initial state not cyclic", file=sys.stderr)
        return 1, ""
    return 0, (f"total {decomp.total:.12g}\ndynamical {decomp.dynamical:.12g}\n"
               f"geometric {decomp.geometric:.12g}\n")


def cmd_export_path(args) -> tuple[int, str]:
    sched = _load_single_qubit(args.schedule, "path export is")
    from .phases import sample_path

    path = sample_path(sched, _initial_state(args), args.samples)
    # The bytes np.savetxt(fmt="%.17g", delimiter=",") writes, in one pass.
    rows = map("%.17g,%.17g,%.17g,%.17g\n".__mod__, zip(path.t.tolist(), *path.r.T.tolist()))
    _write(args.out, "".join(["t,x,y,z\n", *rows]))
    return 0, f"wrote {len(path.t)} samples to {args.out}\n"


def cmd_noise(args) -> tuple[int, str]:
    sched = _load_single_qubit(args.schedule, "noise sweeps are")
    from . import noise

    target, _ = _target(args.target)
    if target.shape != (2, 2):
        raise CliError("noise sweeps need a single-qubit target (u_chi:...)")
    spec = noise.NoiseSpec(
        sigma_omega=args.sigma_omega,
        sigma_tau=args.sigma_tau,
        trials=args.trials,
        seed=args.seed,
    )
    result = noise.fidelity_sweep(sched, target, spec)
    rows = map("%d,%.17g\n".__mod__, enumerate(result.fidelities))
    summary = f"mean,{result.mean:.17g}\nmin,{result.minimum:.17g}\nstd,{result.std:.17g}\n"
    return 0, "".join(["trial,fidelity\n", *rows, summary])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "--phi -pi/3" as "--phi=-pi/3".

    argparse takes a token that starts with "-" for an option unless it is a
    plain negative number such as -1 or -.5, so -pi/3, -1e-3 or -inf after
    an option would leave that option without its value.
    """

    def __init__(self, *args, parents=(), **kwargs):
        self.value_options = set()  # option strings that take one value
        super().__init__(*args, parents=parents, **kwargs)
        for parent in parents:
            self.value_options |= parent.value_options

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            if args[i - 1] in self.value_options and args[i][:1] == "-" and _is_number(args[i]):
                args[i - 1 : i + 1] = [f"{args[i - 1]}={args[i]}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoloop",
        description="Single-loop geometric quantum gate toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Arguments that commands share; a command lists its parents' arguments first.
    file = _Parser(add_help=False)
    file.add_argument("schedule", help="schedule file")
    state = _Parser(add_help=False, parents=[file])
    state.add_argument("--chi", required=True, help="initial-state polar angle")
    state.add_argument("--phi", default="0", help="initial-state azimuth")

    p = sub.add_parser("synthesize", help="write a single-loop schedule file")
    p.add_argument("--chi", required=True, help="loop angle in [0, pi/2] (radians)")
    p.add_argument("--omega", type=float, required=True, help="z-segment frequency")
    p.add_argument("--omega2", type=float, required=True, help="x/-y segment frequency")
    p.add_argument("--out", required=True, help="output schedule file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", parents=[file],
                       help="compare a schedule's gate to a named target")
    p.add_argument(
        "--target",
        required=True,
        help="u_chi:ANGLE | u2 | u2_prime | controlled_u:ANGLE",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("phase", parents=[state], help="total/dynamical/geometric phase report")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("export-path", parents=[state], help="write the Bloch trajectory as CSV")
    p.add_argument("--samples", type=int, default=100, help="samples per segment")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_export_path)

    p = sub.add_parser("noise", parents=[file], help="Monte Carlo control-error fidelity sweep")
    p.add_argument("--target", required=True, help="target gate, e.g. u_chi:pi/4")
    p.add_argument("--sigma-omega", type=float, default=0.0)
    p.add_argument("--sigma-tau", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, out = args.func(args)  # each cmd_* returns its exit code and stdout text
        try:
            if out:  # even an empty write to a full device fails
                sys.stdout.write(out)
                sys.stdout.flush()
        except OSError as exc:  # a full disk, a closed pipe
            # Point stdout's descriptor at os.devnull: what stdout still buffers
            # flushes there, so no later flush fails. No descriptor: OSError.
            with contextlib.suppress(OSError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise CliError(f"cannot write stdout: {exc}") from exc
        return code
    except (CliError, ValueError) as exc:
        # The library raises ValueError only to reject an input value.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: main(), then exit once stdout and stderr are flushed.

    os._exit skips interpreter teardown (module cleanup, the final garbage
    collection and atexit hooks), which a command that loads numpy would
    otherwise spend after its output is written. Every file a command writes
    is closed before main() returns. If a flush fails, sys.exit lets teardown
    report the failure as a plain sys.exit(main()) would.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
