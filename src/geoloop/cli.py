"""Command-line front end.

Commands: synthesize, verify, phase, export-path, noise. Angle arguments
accept plain radians or pi-literals such as ``pi/4``, ``-pi/3``, ``2pi/3``.
Exit codes: 0 success/PASS, 1 semantic failure (FAIL, non-cyclic state),
2 input error.
"""

from __future__ import annotations

import argparse
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


def parse_angle(text: str) -> float:
    """Parse radians, allowing pi-literals like 'pi', '3pi/4', '-pi/3'."""
    m = _PI_LITERAL.match(text.strip())
    if m:
        value = math.pi
        if m.group("coef"):
            value *= float(m.group("coef"))
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0:
                raise CliError(f"angle {text!r} has a zero denominator")
            value /= den
        if m.group("sign") == "-":
            value = -value
    else:
        try:
            value = float(text)
        except ValueError:
            raise CliError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise CliError(f"angle {text!r} is not finite")
    return value


def _load(path):
    try:
        return schedule_io.load_schedule(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except schedule_io.ScheduleParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


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


def cmd_synthesize(args) -> int:
    sched = single_loop_schedule(parse_angle(args.chi), args.omega, args.omega2)
    try:
        schedule_io.save_schedule(sched, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
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
    verdict = "PASS" if report.max_entry_deviation <= VERIFY_THRESHOLD else "FAIL"
    print(f"max_entry_deviation {report.max_entry_deviation:.12e}")
    print(f"trace_fidelity {report.trace_fidelity:.12f}")
    print(verdict)
    return 0 if verdict == "PASS" else 1


def cmd_phase(args) -> int:
    sched = _load_single_qubit(args.schedule, "phase reports are")
    from . import phases

    try:
        decomp = phases.geometric_phase(sched, _initial_state(args))
    except phases.NonCyclicError:
        print("initial state not cyclic", file=sys.stderr)
        return 1
    print(f"total {decomp.total:.12g}")
    print(f"dynamical {decomp.dynamical:.12g}")
    print(f"geometric {decomp.geometric:.12g}")
    return 0


def cmd_export_path(args) -> int:
    sched = _load_single_qubit(args.schedule, "path export is")
    from .phases import sample_path

    path = sample_path(sched, _initial_state(args), args.samples)
    # The bytes np.savetxt(fmt="%.17g", delimiter=",") writes, in one pass.
    rows = map("%.17g,%.17g,%.17g,%.17g\n".__mod__, zip(path.t.tolist(), *path.r.T.tolist()))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,x,y,z\n")
            fh.write("".join(rows))
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(path.t)} samples to {args.out}")
    return 0


def cmd_noise(args) -> int:
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
    print("trial,fidelity")
    sys.stdout.write("".join(map("%d,%.17g\n".__mod__, enumerate(result.fidelities))))
    print(f"mean,{result.mean:.17g}")
    print(f"min,{result.minimum:.17g}")
    print(f"std,{result.std:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoloop",
        description="Single-loop geometric quantum gate toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="write a single-loop schedule file")
    p.add_argument("--chi", required=True, help="loop angle in [0, pi/2] (radians)")
    p.add_argument("--omega", type=float, required=True, help="z-segment frequency")
    p.add_argument("--omega2", type=float, required=True, help="x/-y segment frequency")
    p.add_argument("--out", required=True, help="output schedule file")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="compare a schedule's gate to a named target")
    p.add_argument("schedule", help="schedule file")
    p.add_argument(
        "--target",
        required=True,
        help="u_chi:ANGLE | u2 | u2_prime | controlled_u:ANGLE",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("phase", help="total/dynamical/geometric phase report")
    p.add_argument("schedule", help="schedule file")
    p.add_argument("--chi", required=True, help="initial-state polar angle")
    p.add_argument("--phi", default="0", help="initial-state azimuth")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("export-path", help="write the Bloch trajectory as CSV")
    p.add_argument("schedule", help="schedule file")
    p.add_argument("--chi", required=True, help="initial-state polar angle")
    p.add_argument("--phi", default="0", help="initial-state azimuth")
    p.add_argument("--samples", type=int, default=100, help="samples per segment")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_export_path)

    p = sub.add_parser("noise", help="Monte Carlo control-error fidelity sweep")
    p.add_argument("schedule", help="schedule file")
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
        return args.func(args)
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
