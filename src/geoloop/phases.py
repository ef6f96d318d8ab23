"""Phase bookkeeping for cyclic evolutions.

Splits the total phase of a cyclic evolution into its dynamical part
(the time integral of -<H>) and its geometric remainder, samples the
Bloch-sphere trajectory, and cross-checks the geometric phase against
minus half the enclosed solid angle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    BlochVector,
    QubitState,
    Schedule,
    bloch_points,
    drive_arrays,
    propagate,
    su2,
)

DEFAULT_CYCLIC_TOL = 1e-9
PATH_CLOSURE_TOL = 1e-6


class NonCyclicError(ValueError):
    """Initial state does not return to itself (up to phase); phase undefined."""


class OpenPathError(ValueError):
    """Bloch path does not close, so no enclosed area exists."""


@dataclass(frozen=True)
class PhaseDecomposition:
    """Total, dynamical, and geometric phase of one cyclic evolution.

    total and geometric are reduced to (-pi, pi]; the identity
    total = dynamical + geometric holds mod 2*pi.
    """

    total: float
    dynamical: float
    geometric: float


@dataclass(frozen=True, eq=False)
class BlochPath:
    """Time-stamped Bloch-sphere trajectory, stored as two arrays.

    t holds the sample times, shape (n,); r holds the Bloch vectors, shape
    (n, 3), with r[i] reached at time t[i]. Both are stored read-only.
    """

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).view()
        r = np.asarray(self.r, dtype=float).view()
        if t.ndim != 1 or r.shape != (len(t), 3):
            raise ValueError(
                f"need times of shape (n,) and points of shape (n, 3), "
                f"got {t.shape} and {r.shape}"
            )
        t.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)

    def points(self) -> np.ndarray:
        return self.r

    def times(self) -> np.ndarray:
        return self.t

    @property
    def samples(self) -> "PathSamples":
        """The path as a read-only sequence of (time, BlochVector) pairs."""
        return PathSamples(self)


class PathSamples(Sequence):
    """Lazy (time, BlochVector) view of a BlochPath; builds entries on read."""

    def __init__(self, path: BlochPath):
        self._t = path.t
        self._r = path.r

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return float(self._t[index]), BlochVector(*self._r[index].tolist())


def wrap_phase(theta: float) -> float:
    """Reduce a phase to the branch (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    if w == -math.pi:
        w = math.pi
    return w


def is_cyclic(sched: Schedule, initial: QubitState, tol: float = DEFAULT_CYCLIC_TOL) -> bool:
    """True iff the evolution returns the state to itself up to a phase."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    final = propagate(sched, initial)
    return abs(initial.inner(final)) >= 1.0 - tol


def total_phase(sched: Schedule, initial: QubitState) -> float:
    """Phase arg<initial|final> of a cyclic evolution, in (-pi, pi]."""
    final = propagate(sched, initial)
    overlap = initial.inner(final)
    if not abs(overlap) >= 1.0 - DEFAULT_CYCLIC_TOL:  # NaN-safe
        raise NonCyclicError(
            f"initial state is not cyclic (|overlap| = {abs(overlap):.6g})"
        )
    return wrap_phase(float(np.angle(overlap)))


def dynamical_phase(sched: Schedule, initial: QubitState) -> float:
    """-sum_k <psi_k|H_k|psi_k> tau_k over the schedule.

    <H> is conserved within each constant-H segment, so this segment sum
    equals the continuous-time integral exactly. With H_k = (omega_k/2)
    n_k . sigma, <H_k> = (omega_k/2) n_k . r_k, where r_k is the Bloch
    vector entering segment k, so the sum is -1/2 sum_k theta_k n_k . r_k
    with theta_k = omega_k tau_k. Defined for any evolution, cyclic or not.
    """
    axes, theta = drive_arrays(sched.segments)
    spinors = np.empty((len(theta), 2), dtype=complex)
    vec = initial.as_vector()
    for k, u in enumerate(su2(axes, theta)):
        spinors[k] = vec
        vec = u @ vec
    n_dot_r = np.sum(axes * bloch_points(spinors), axis=1)
    # 0.0 - x keeps an exactly zero phase unsigned, as the report prints it.
    return 0.0 - 0.5 * float(theta @ n_dot_r)


def geometric_phase(sched: Schedule, initial: QubitState) -> PhaseDecomposition:
    """Total/dynamical/geometric split of a cyclic evolution."""
    total = total_phase(sched, initial)
    dyn = dynamical_phase(sched, initial)
    return PhaseDecomposition(
        total=total, dynamical=dyn, geometric=wrap_phase(total - dyn)
    )


def sample_path(
    sched: Schedule, initial: QubitState, samples_per_segment: int
) -> BlochPath:
    """Bloch trajectory with exact boundary points.

    Interior points come from closed-form partial-segment propagation, one
    ``su2`` call per segment. Each segment with nonzero duration contributes
    samples_per_segment - 1 new points, so the path has
    1 + (moving segments) * (samples_per_segment - 1) samples in total.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    # Zero-duration segments add no samples: times must stay strictly
    # increasing and the points would be duplicates.
    moving = sum(1 for seg in sched if seg.duration > 0)
    per_segment = samples_per_segment - 1
    fracs = np.arange(1, samples_per_segment) / per_segment
    times = np.empty(1 + moving * per_segment)
    spinors = np.empty((len(times), 2), dtype=complex)
    times[0] = 0.0
    spinors[0] = initial.as_vector()
    start = 1
    t0 = 0.0
    for seg in sched:
        if seg.duration > 0:
            stop = start + per_segment
            partial = seg.duration * fracs
            times[start:stop] = t0 + partial
            # The last fraction is exactly 1, so the segment's final spinor
            # is the entry spinor of the next segment.
            spinors[start:stop] = su2(seg.axis, seg.omega * partial) @ spinors[start - 1]
            start = stop
        t0 += seg.duration
    return BlochPath(t=times, r=bloch_points(spinors))


def _triangle_excess(a_side: np.ndarray, b_side: np.ndarray, c_side: np.ndarray):
    """Spherical excess via l'Huilier, vectorized over triangles."""
    s = 0.5 * (a_side + b_side + c_side)
    prod = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a_side))
        * np.tan(0.5 * (s - b_side))
        * np.tan(0.5 * (s - c_side))
    )
    return 4.0 * np.arctan(np.sqrt(np.clip(prod, 0.0, None)))


def _fan_origin(pts: np.ndarray) -> np.ndarray:
    """Fan point for the triangle decomposition.

    Fanning from the first sample breaks down whenever the path crosses its
    antipode (the chi = 0 loop runs pole to pole), so the fan is anchored at
    the normalized sample centroid, which sits away from the path for the
    loops handled here.
    """
    mean = pts.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm > 1e-9:
        return mean / norm
    # Centroid degenerates for balanced paths (e.g. a full great circle);
    # use the pole of the plane spanned by the first distinct chords.
    for i in range(1, len(pts)):
        cross = np.cross(pts[i] - pts[0], pts[(i + 1) % len(pts)] - pts[0])
        if np.linalg.norm(cross) > 1e-9:
            return cross / np.linalg.norm(cross)
    return pts[0]


def solid_angle(path: BlochPath) -> float:
    """Signed solid angle enclosed by a closed Bloch path, in (-2*pi, 2*pi].

    Sums l'Huilier spherical-triangle excesses fanned from an interior
    anchor point, each weighted by its orientation sign (counterclockwise
    seen from outside the sphere counts positive).
    """
    pts = path.points()
    if len(pts) < 2 or np.max(np.abs(pts[0] - pts[-1])) > PATH_CLOSURE_TOL:
        raise OpenPathError("path is not closed to within the closure tolerance")
    # Drop consecutive duplicates (zero-motion dwell segments).
    keep = np.r_[True, np.max(np.abs(np.diff(pts, axis=0)), axis=1) > 1e-15]
    pts = pts[keep]
    if len(pts) < 3:
        return 0.0

    p0 = _fan_origin(pts)
    pa = pts[:-1]
    pb = pts[1:]

    def arc(u, v):
        dots = np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)
        return np.arccos(dots)

    side_a = arc(pa, pb)
    side_b = arc(pb, p0[None, :])
    side_c = arc(p0[None, :], pa)
    excess = _triangle_excess(side_a, side_b, side_c)
    signs = np.sign(np.einsum("i,ji->j", p0, np.cross(pa, pb)))
    omega = float(np.sum(signs * excess))
    # Fold into (-2*pi, 2*pi]; a single loop cannot enclose more than the sphere.
    if omega > 2.0 * math.pi:
        omega -= 4.0 * math.pi
    elif omega <= -2.0 * math.pi:
        omega += 4.0 * math.pi
    return omega
