"""Command-line front end.

Commands: synthesize, verify, phase, export-path, noise. Angle arguments
accept plain radians or pi-literals such as ``pi/4``, ``-pi/3``, ``2pi/3``.
Exit codes: 0 success/PASS, 1 semantic failure (FAIL, non-cyclic state),
2 input error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import gates, noise, phases, schedule_io
from .core import Schedule, schedule_unitary, state_from_angles
from .twoqubit import (
    ConditionalSchedule,
    controlled_u_reference,
    two_qubit_unitary,
    u2_line_selective,
    u2_natural,
)

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
            value /= float(m.group("den"))
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


def _target_unitary(spec: str, sched) -> np.ndarray:
    """Resolve a named verification target against the loaded schedule."""
    name, _, arg = spec.partition(":")
    if name == "u_chi":
        if not arg:
            raise CliError("target u_chi needs an angle, e.g. u_chi:pi/4")
        return gates.u_chi(parse_angle(arg))
    if name == "u2":
        return u2_natural()
    if name == "u2_prime":
        return u2_line_selective()
    if name == "controlled_u":
        if not arg:
            raise CliError("target controlled_u needs an angle")
        return controlled_u_reference(parse_angle(arg))
    raise CliError(f"unknown target {spec!r}")


def _actual_unitary(sched, target_name: str) -> np.ndarray:
    """Propagator of the schedule in the dimension the target expects."""
    if isinstance(sched, ConditionalSchedule):
        return two_qubit_unitary(sched)
    if target_name.startswith("controlled_u"):
        # A single-qubit loop run line-selectively realizes the controlled gate.
        cond = ConditionalSchedule(
            steps=sched.segments, mode="line_selective", label=sched.label
        )
        return two_qubit_unitary(cond)
    return schedule_unitary(sched)


def cmd_synthesize(args) -> int:
    chi = parse_angle(args.chi)
    if not 0.0 <= chi <= math.pi / 2:
        raise CliError("chi out of range [0, pi/2]")
    sched = gates.single_loop_schedule(chi, args.omega, args.omega2)
    try:
        schedule_io.save_schedule(sched, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    sched = _load(args.schedule)
    target = _target_unitary(args.target, sched)
    actual = _actual_unitary(sched, args.target)
    if actual.shape != target.shape:
        raise CliError(
            f"schedule produces a {actual.shape[0]}x{actual.shape[0]} gate but "
            f"target {args.target!r} is {target.shape[0]}x{target.shape[0]}"
        )
    report = gates.compare_gates(actual, target)
    verdict = "PASS" if report.max_entry_deviation <= VERIFY_THRESHOLD else "FAIL"
    print(f"max_entry_deviation {report.max_entry_deviation:.12e}")
    print(f"trace_fidelity {report.trace_fidelity:.12f}")
    print(verdict)
    return 0 if verdict == "PASS" else 1


def cmd_phase(args) -> int:
    sched = _load(args.schedule)
    if isinstance(sched, ConditionalSchedule):
        raise CliError("phase reports are defined for single-qubit schedules")
    initial = state_from_angles(parse_angle(args.chi), parse_angle(args.phi), "plus")
    try:
        decomp = phases.geometric_phase(sched, initial)
    except phases.NonCyclicError:
        print("initial state not cyclic", file=sys.stderr)
        return 1
    print(f"total {decomp.total:.12g}")
    print(f"dynamical {decomp.dynamical:.12g}")
    print(f"geometric {decomp.geometric:.12g}")
    return 0


def cmd_export_path(args) -> int:
    sched = _load(args.schedule)
    if isinstance(sched, ConditionalSchedule):
        raise CliError("path export is defined for single-qubit schedules")
    if args.samples < 2:
        raise CliError("samples must be >= 2")
    initial = state_from_angles(parse_angle(args.chi), parse_angle(args.phi), "plus")
    path = phases.sample_path(sched, initial, args.samples)
    rows = np.column_stack((path.times(), path.points()))
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,x,y,z\n")
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(rows)} samples to {args.out}")
    return 0


def cmd_noise(args) -> int:
    sched = _load(args.schedule)
    if isinstance(sched, ConditionalSchedule):
        raise CliError("noise sweeps are defined for single-qubit schedules")
    target = _target_unitary(args.target, sched)
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
    for i, f in enumerate(result.fidelities):
        print(f"{i},{f:.17g}")
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


if __name__ == "__main__":
    sys.exit(main())
