"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Every op checks its own result against a closed form at the repository's
tolerances and raises ``CheckFailed`` when a check fails. The reference
matrices below are written out here rather than taken from geoloop, so a
defect that moves both a gate and its library reference still fails.

An op calls geoloop's named layer functions through ``api`` (see
tracing.py); helpers such as ``u_chi`` or ``state_from_angles`` and every
check call the library directly, so in a traced run their time is the op's
self time.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from geoloop import core, gates, noise, phases, schedule_io, twoqubit

GATE_TOL = 1e-12  # gate entries, unitarity, recomputed fidelities
PHASE_TOL = 1e-10  # total/dynamical/geometric phase parts
AREA_TOL = 1e-4  # |gamma_geo + Omega/2|, the bound of acceptance criterion 3
HALF_PI = math.pi / 2

U2_NATURAL = np.array(
    [[-1j, 0, 0, 0], [0, 1j, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=complex
)
U2_LINE_SELECTIVE = np.diag([-1j, 1j, 1, 1]).astype(complex)


class CheckFailed(Exception):
    """An op's result disagrees with its closed form."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def u_chi_ref(chi: float) -> np.ndarray:
    c, s = math.cos(chi), math.sin(chi)
    return np.array([[-1j * c, -1j * s], [-1j * s, 1j * c]], dtype=complex)


def controlled_u_ref(chi: float) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    u[:2, :2] = u_chi_ref(chi)
    return u


def max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def check_gate(api, name: str, actual, library_ref, own_ref) -> None:
    """compare_gates against the library's reference, plus an own-reference check."""
    report = api.compare_gates(actual, library_ref)
    api.peak("gates.compare_gates.max_dev", report.max_entry_deviation)
    require(report.max_entry_deviation <= GATE_TOL, f"{name}: entry deviation")
    require(report.unitarity_defect <= GATE_TOL, f"{name}: unitarity defect")
    require(max_dev(actual, own_ref) <= GATE_TOL, f"{name}: closed form")


def check_loop_phases(decomp) -> None:
    """The single-loop cyclic state gains a pure geometric phase of -pi/2."""
    require(abs(decomp.total + HALF_PI) <= PHASE_TOL, "total phase")
    require(abs(decomp.dynamical) <= PHASE_TOL, "dynamical phase")
    require(abs(decomp.geometric + HALF_PI) <= PHASE_TOL, "geometric phase")


def moving_segments(sched) -> int:
    return sum(1 for seg in sched.segments if seg.duration > 0)


class Certify:
    """One op certifies the gate set at one random (chi, omega, omega2, J)."""

    cycle = 1

    def __init__(self, seed: int, workdir: Path, **_):
        rng = np.random.default_rng([seed, 1])
        n = 1024
        self.params = list(
            zip(
                rng.uniform(0.0, HALF_PI, n).tolist(),
                rng.uniform(0.2, 5.0, n).tolist(),
                rng.uniform(0.2, 5.0, n).tolist(),
                rng.uniform(0.05, 2.0, n).tolist(),
                rng.uniform(1.0, 6.0, n).tolist(),
                rng.uniform(0.5, 3.0, n).tolist(),
            )
        )

    def op(self, i: int, api) -> None:
        chi, omega, omega2, j, omega_a, omega_b = self.params[i % len(self.params)]
        sched = api.single_loop_schedule(chi, omega, omega2)
        check_gate(api, "U(chi)", api.schedule_unitary(sched), gates.u_chi(chi),
                   u_chi_ref(chi))
        check_gate(api, "controlled U(chi)", api.controlled_u(chi, omega, omega2),
                   twoqubit.controlled_u_reference(chi), controlled_u_ref(chi))
        nmr = twoqubit.NmrParams(omega_a, omega_b, j).with_matched_accessory()
        for mode, library_ref, own_ref in (
            ("natural", twoqubit.u2_natural(), U2_NATURAL),
            ("line_selective", twoqubit.u2_line_selective(), U2_LINE_SELECTIVE),
        ):
            u = api.two_qubit_unitary(twoqubit.two_qubit_schedule(omega, nmr, mode))
            check_gate(api, f"U2 {mode}", u, library_ref, own_ref)
        state = core.state_from_angles(chi, 0.0, "plus")
        check_loop_phases(api.geometric_phase(sched, state))
        text = api.serialize_schedule(sched)
        api.add("schedule_io.serialize_schedule.bytes", len(text))
        require(api.parse_schedule(text) == sched, "serialize/parse round trip")
        api.add("schedule_io.parse_schedule.bytes", len(text))


class Trajectory:
    """One op cross-checks the geometric phase against the enclosed area.

    Random chi alternate with the edge values, where the area estimate is
    least accurate, so its known residual stays visible. Each edge value
    comes twice in a row, so the traced and the untraced cycles of a traced
    run (which alternate) both see every edge.
    """

    cycle = 2
    EDGES = (0.0, 1e-4, HALF_PI - 1e-3, HALF_PI)

    def __init__(self, seed: int, workdir: Path, samples: int = 10_000, **_):
        rng = np.random.default_rng([seed, 2])
        self.samples = samples
        self.params = [
            (
                float(rng.uniform(0.0, HALF_PI)) if k % 2 == 0 else self.EDGES[k // 4 % 4],
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.5, 2.0)),
            )
            for k in range(64)
        ]

    def inputs(self, i: int):
        chi, omega, omega2 = self.params[i % len(self.params)]
        return (
            gates.single_loop_schedule(chi, omega, omega2),
            core.state_from_angles(chi, 0.0, "plus"),
        )

    def op(self, i: int, api) -> None:
        chi, omega, omega2 = self.params[i % len(self.params)]
        sched = api.single_loop_schedule(chi, omega, omega2)
        state = core.state_from_angles(chi, 0.0, "plus")
        decomp = api.geometric_phase(sched, state)
        check_loop_phases(decomp)
        path = api.sample_path(sched, state, self.samples)
        n = len(path.samples)
        api.add("phases.sample_path.points", n)
        require(n == 1 + moving_segments(sched) * (self.samples - 1), "path point count")
        first, last = path.samples[0][1].as_array(), path.samples[-1][1].as_array()
        require(max_dev(first, last) <= phases.PATH_CLOSURE_TOL, "path closure")
        require(max_dev(first, core.bloch_vector(state).as_array()) <= GATE_TOL,
                "path start")
        area = api.solid_angle(path)
        residual = abs(phases.wrap_phase(decomp.geometric + area / 2))
        api.peak("phases.solid_angle.max_residual", residual)
        require(residual <= AREA_TOL, "geometric phase = -area/2")


class Sweep:
    """One op is one Monte Carlo fidelity sweep over a single schedule."""

    LEVELS = (1e-3, 1e-2, 5e-2, 0.0)
    cycle = len(LEVELS)

    def __init__(self, seed: int, workdir: Path, trials: int = 2000, **_):
        rng = np.random.default_rng([seed, 3])
        self.trials = trials
        self.seed = seed
        self.loops = []
        for chi in rng.uniform(0.0, HALF_PI, 3):
            sched = gates.single_loop_schedule(float(chi), *rng.uniform(0.5, 2.0, 2).tolist())
            self.loops.append((sched, gates.u_chi(float(chi))))
        self.picks = rng.integers(0, trials, 256)

    def inputs(self, i: int):
        sched, target = self.loops[i // self.cycle % len(self.loops)]
        sigma = self.LEVELS[i % self.cycle]
        spec = noise.NoiseSpec(
            sigma_omega=sigma, sigma_tau=sigma, trials=self.trials,
            seed=(self.seed << 20) + i,
        )
        return sched, target, spec

    def op(self, i: int, api) -> None:
        sched, target, spec = self.inputs(i)
        result = api.fidelity_sweep(sched, target, spec)
        api.add("noise.fidelity_sweep.trials", len(result.fidelities))
        fid = np.asarray(result.fidelities)
        require(len(fid) == spec.trials, "trial count")
        require(fid.min() >= 0.0 and fid.max() <= 1.0 + GATE_TOL, "fidelity range")
        if spec.sigma_omega == 0.0:
            require(np.max(np.abs(fid - 1.0)) <= GATE_TOL, "unperturbed fidelity")
        for k in (0, spec.trials - 1, int(self.picks[i % len(self.picks)])):
            u = core.schedule_unitary(noise.perturb_schedule(sched, spec, k))
            expect = abs(np.trace(target.conj().T @ u)) / 2
            require(abs(fid[k] - expect) <= GATE_TOL, f"trial {k} fidelity")


MALFORMED_EXIT = 2  # `verify` on a file with an unknown field is an input error


class Cli:
    """One op is one `geoloop` subcommand run as its own process.

    A cycle synthesizes a schedule file, verifies it against two targets,
    reports its phases, exports its path, sweeps it for noise and verifies a
    malformed file.
    """

    KINDS = ("synthesize", "verify", "verify", "phase", "export-path", "noise", "verify")
    cycle = len(KINDS)
    SAMPLES = 200
    TRIALS = 100

    def __init__(self, seed: int, workdir: Path, root: Path, **_):
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.params = [
            (float(rng.uniform(0.0, HALF_PI)), float(rng.uniform(0.5, 2.0)),
             float(rng.uniform(0.5, 2.0)))
            for _ in range(64)
        ]
        self.loop = workdir / "loop.json"
        self.csv = workdir / "path.csv"
        self.malformed = workdir / "malformed.json"
        text = schedule_io.serialize_schedule(gates.single_loop_schedule(1.0, 1.0, 1.0))
        self.malformed.write_text(text.replace('"label"', '"colour": "red",\n  "label"'))
        self.env = {**os.environ, "PYTHONPATH": "src"}

    def command(self, i: int) -> list[str]:
        chi, omega, omega2 = self.params[i // self.cycle % len(self.params)]
        loop, x = str(self.loop), repr(chi)
        return [
            ["synthesize", "--chi", x, "--omega", repr(omega), "--omega2", repr(omega2),
             "--out", loop],
            ["verify", loop, "--target", f"u_chi:{x}"],
            ["verify", loop, "--target", f"controlled_u:{x}"],
            ["phase", loop, "--chi", x],
            ["export-path", loop, "--chi", x, "--samples", str(self.SAMPLES),
             "--out", str(self.csv)],
            ["noise", loop, "--target", f"u_chi:{x}", "--sigma-tau", "0.01",
             "--trials", str(self.TRIALS), "--seed", str(i)],
            ["verify", str(self.malformed), "--target", f"u_chi:{x}"],
        ][i % self.cycle]

    def op(self, i: int, api) -> None:
        args = self.command(i)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "geoloop.cli", *args],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        api.span(f"cli.{args[0]}", t0, time.perf_counter())
        self.check(i, proc, api)

    def check(self, i: int, proc, api) -> None:
        chi, omega, omega2 = self.params[i // self.cycle % len(self.params)]
        kind, out = i % self.cycle, proc.stdout.splitlines()
        if kind == 6:
            require(proc.returncode == MALFORMED_EXIT, "malformed file exit code")
            require("unknown field 'colour'" in proc.stderr, "malformed file message")
            return
        require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr}")
        if kind == 0:
            expect = schedule_io.serialize_schedule(
                gates.single_loop_schedule(chi, omega, omega2)
            )
            require(self.loop.read_text() == expect, "synthesized file")
        elif kind in (1, 2):
            require(out[-1] == "PASS", "verify verdict")
            require(float(out[0].split()[1]) <= GATE_TOL, "verify deviation")
        elif kind == 3:
            parts = dict(line.split() for line in out)
            require(abs(float(parts["total"]) + HALF_PI) <= PHASE_TOL, "total phase")
            require(abs(float(parts["dynamical"])) <= PHASE_TOL, "dynamical phase")
            require(abs(float(parts["geometric"]) + HALF_PI) <= PHASE_TOL,
                    "geometric phase")
        elif kind == 4:
            rows = self.csv.read_text().splitlines()
            moving = moving_segments(gates.single_loop_schedule(chi, omega, omega2))
            require(rows[0] == "t,x,y,z", "csv header")
            require(len(rows) == 2 + moving * (self.SAMPLES - 1), "csv row count")
            first = np.array(rows[1].split(","), dtype=float)[1:]
            last = np.array(rows[-1].split(","), dtype=float)[1:]
            require(max_dev(first, last) <= phases.PATH_CLOSURE_TOL, "csv path closure")
            api.add("cli.export-path.out_bytes", self.csv.stat().st_size)
        elif kind == 5:
            require(out[0] == "trial,fidelity" and len(out) == 4 + self.TRIALS,
                    "noise row count")
            fid = np.array([row.split(",")[1] for row in out[1:-3]], dtype=float)
            require(fid.min() >= 0.0 and fid.max() <= 1.0 + GATE_TOL, "fidelity range")


WORKLOADS = {"certify": Certify, "trajectory": Trajectory, "sweep": Sweep, "cli": Cli}
