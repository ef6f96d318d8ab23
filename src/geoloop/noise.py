"""Monte Carlo control-error sweeps over drive schedules.

Exploratory harness: each trial multiplies every segment's frequency and
duration by independent Gaussian factors (1 + eps) and reports the
global-phase-blind trace fidelity against a target gate. The model is a
choice of this library, not a quantitative reproduction of any published
robustness analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ControlSegment, Schedule, drive_arrays, ordered_product, su2

# Trials propagated together by fidelity_sweep. Blocks keep a sweep's
# temporaries near 100 kB however many trials it runs, while still
# amortizing numpy's per-call cost over hundreds of trials.
TRIAL_BLOCK = 128


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian error levels, trial count, and RNG seed."""

    sigma_omega: float = 0.0
    sigma_tau: float = 0.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sigma_omega < 0 or self.sigma_tau < 0:
            raise ValueError("sigmas must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    """Per-trial fidelities and their summary statistics."""

    fidelities: tuple[float, ...]
    mean: float
    minimum: float
    std: float
    spec: NoiseSpec


def _perturbed_drives(
    sched: Schedule, spec: NoiseSpec, trials
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed (omega, tau) of every segment for the given trial indices.

    omega -> omega * (1 + sigma_omega * eps), tau -> tau * (1 + sigma_tau *
    delta), clamped at zero so segment invariants survive large draws. Trial
    i draws (eps, delta) per segment, in that order, from its own stream
    default_rng([seed, i]), so a trial depends only on (seed, i); with both
    sigmas zero nothing is drawn. Both arrays have shape
    (len(trials), len(sched)).
    """
    omega = np.array([seg.omega for seg in sched], dtype=float)
    tau = np.array([seg.duration for seg in sched], dtype=float)
    draws = np.zeros((len(trials), len(sched), 2))
    if spec.sigma_omega != 0.0 or spec.sigma_tau != 0.0:
        seed = spec.seed & 0xFFFFFFFFFFFFFFFF
        for row, trial in zip(draws, trials):
            np.random.default_rng([seed, trial]).standard_normal(out=row)
    omega = np.maximum(omega * (1.0 + spec.sigma_omega * draws[..., 0]), 0.0)
    tau = np.maximum(tau * (1.0 + spec.sigma_tau * draws[..., 1]), 0.0)
    return omega, tau


def perturb_schedule(sched: Schedule, spec: NoiseSpec, trial_index: int) -> Schedule:
    """Deterministic perturbed copy of the schedule for one trial.

    omega -> omega * (1 + eps), tau -> tau * (1 + delta) with independent
    Gaussian eps, delta per segment; axes are untouched. The stream depends
    only on (seed, trial_index). It is the schedule that trial trial_index
    of ``fidelity_sweep`` propagates.
    """
    omega, tau = _perturbed_drives(sched, spec, [trial_index])
    segments = tuple(
        ControlSegment(seg.axis, w, t)
        for seg, w, t in zip(sched, omega[0].tolist(), tau[0].tolist())
    )
    return Schedule(segments=segments, label=sched.label)


def fidelity_sweep(sched: Schedule, target: np.ndarray, spec: NoiseSpec) -> SweepResult:
    """Trace fidelity |tr(target^dag U)| / 2 over perturbed realizations.

    Trials are propagated in blocks: one ``su2`` call per block over its
    (trials, segments) angles, then one product step per segment across
    the block's trials.
    """
    target_dag = np.asarray(target, dtype=complex).conj().T
    dim = target_dag.shape[0]
    axes, _ = drive_arrays(sched.segments)
    fidelities = np.empty(spec.trials)
    for start in range(0, spec.trials, TRIAL_BLOCK):
        block = range(start, min(start + TRIAL_BLOCK, spec.trials))
        omega, tau = _perturbed_drives(sched, spec, block)
        # Segment-major, so each product step multiplies the whole block.
        steps = su2(axes, omega * tau).swapaxes(0, 1)
        overlap = np.trace(target_dag @ ordered_product(steps), axis1=-2, axis2=-1)
        fidelities[block.start:block.stop] = np.abs(overlap) / dim
    return SweepResult(
        fidelities=tuple(fidelities.tolist()),
        mean=float(fidelities.mean()),
        minimum=float(fidelities.min()),
        std=float(fidelities.std()),
        spec=spec,
    )
