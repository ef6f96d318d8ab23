"""Phase bookkeeping for cyclic evolutions.

Splits the total phase of a cyclic evolution into its dynamical part
(the time integral of -<H>) and its geometric remainder, samples the
Bloch-sphere trajectory, and cross-checks the geometric phase against
minus half the enclosed solid angle.
"""

from __future__ import annotations

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
    wrap_phase,
)

DEFAULT_CYCLIC_TOL = 1e-9
PATH_CLOSURE_TOL = 1e-6
# Edges per block in solid_angle. Blocks keep its complex temporaries near
# 64 kB, which malloc serves from its heap. Whole-path temporaries (640 kB
# at 40k points) are mapped fresh on every call, and their page faults
# cost more than the arithmetic.
AREA_BLOCK = 4096


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
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("path times and points must be finite")
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

    Each segment rotates the Bloch vector about its axis n by theta =
    omega * t. Interior points come from the closed (Rodrigues) form
    r(theta) = (1, cos theta, sin theta) . ((n.r0) n, r0 - (n.r0) n, n x r0)
    of the segment's entry point r0, one matrix product per segment. Each
    segment with nonzero duration contributes samples_per_segment - 1 new
    points, so the path has 1 + (moving segments) * (samples_per_segment - 1)
    samples in total.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    # Zero-duration segments add no samples: times must stay strictly
    # increasing and the points would be duplicates.
    moving = sum(1 for seg in sched if seg.duration > 0)
    per_segment = samples_per_segment - 1
    fracs = np.arange(1, samples_per_segment) / per_segment
    times = np.empty(1 + moving * per_segment)
    points = np.empty((len(times), 3))
    coeffs = np.ones((per_segment, 3))  # rows (1, cos theta, sin theta)
    times[0] = 0.0
    points[0] = bloch_points(initial.as_vector())
    start = 1
    t0 = 0.0
    for seg in sched:
        if seg.duration > 0:
            stop = start + per_segment
            partial = seg.duration * fracs
            times[start:stop] = t0 + partial
            # The last fraction is exactly 1, so the segment's final point
            # is the entry point of the next segment.
            r0 = points[start - 1]
            n = np.asarray(seg.axis)
            along = (n @ r0) * n
            theta = seg.omega * partial
            np.cos(theta, out=coeffs[:, 1])
            np.sin(theta, out=coeffs[:, 2])
            basis = np.array([along, r0 - along, np.cross(n, r0)])
            np.matmul(coeffs, basis, out=points[start:stop])
            start = stop
        t0 += seg.duration
    return BlochPath(t=times, r=points)


def _edge_phase_sum(chain: np.ndarray) -> float:
    """Sum of arg <psi_k|psi_k+1> over consecutive points of a chain.

    Each point is lifted to an unnormalized spinor with the pole chart that
    is regular there: (1 + z, x + iy) north, (x - iy, 1 - z) south. arg
    ignores positive scale, and a closed product does not depend on the
    charts.
    """
    x, y, z = chain.T
    north = z >= 0
    up = np.where(north, 1.0 + z, x - 1j * y)
    down = np.where(north, x + 1j * y, 1.0 - z)
    overlaps = up[:-1].conj() * up[1:] + down[:-1].conj() * down[1:]
    return float(np.sum(np.angle(overlaps)))


def solid_angle(path: BlochPath) -> float:
    """Signed solid angle enclosed by a closed Bloch path, in (-2*pi, 2*pi].

    The area of the geodesic polygon through the samples, from its Bargmann
    invariant Omega = 2 arg prod_k <psi_k|psi_k+1>, the last sample wrapping
    to the first (Samuel & Bhandari, PRL 60, 2339 (1988)). Counterclockwise
    seen from outside the sphere counts positive, and a self-crossing path
    counts each region once per winding. Exact, with no anchor point, for
    every closed polygon whose consecutive samples are not antipodal (an
    antipodal pair has no unique geodesic between them).
    """
    pts = path.points()
    if len(pts) < 2 or not np.max(np.abs(pts[0] - pts[-1])) <= PATH_CLOSURE_TOL:
        raise OpenPathError("path is not closed to within the closure tolerance")
    total = _edge_phase_sum(pts[[-1, 0]])
    for start in range(0, len(pts) - 1, AREA_BLOCK):
        total += _edge_phase_sum(pts[start:start + AREA_BLOCK + 1])
    # A single loop cannot enclose more than the sphere.
    return 2.0 * wrap_phase(total)
