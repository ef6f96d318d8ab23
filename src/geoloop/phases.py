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
    su2,
    wrap_phase,
)

# An evolution is cyclic when |<initial|final>| >= 1 - CYCLIC_TOL.
CYCLIC_TOL = 1e-9
PATH_CLOSURE_TOL = 1e-6
# Rows per block in sample_path and edges per block in solid_angle. Each
# scratch buffer then stays at or below 96 kB, under malloc's 128 kB mmap
# threshold, so malloc serves and reuses it from its heap. Whole-path
# temporaries (hundreds of kB at 10k samples per segment) are mapped fresh
# on every call, and their page faults cost more than the arithmetic.
PATH_BLOCK = 4096
# Smallest edge overlap |<psi_k|psi_k+1>|^2 = (1 + r_k.r_k+1)/2 that
# solid_angle accepts. The overlap is cos^2 of half the angle between the
# two samples, so 1e-12 means within about 2e-6 rad of antipodal. An exact
# antipodal pair has no unique geodesic, and rounding (~1e-16 in each
# coordinate) decides which one a nominal antipode gets: a half turn
# sampled at its two ends gives overlaps of 0.0 or -3.3e-16. The threshold
# sits far above that noise and far below any usefully sampled path (a
# quarter-turn edge has overlap 0.5).
MIN_EDGE_OVERLAP = 1e-12


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


def _follow(sched: Schedule, initial: QubitState) -> tuple[complex, float]:
    """<initial|final> and the dynamical phase, from one pass through the schedule.

    The dynamical phase is -sum_k <psi_k|H_k|psi_k> tau_k. <H> is conserved
    within each constant-H segment, so this segment sum equals the
    continuous-time integral exactly. With H_k = (omega_k/2) n_k . sigma,
    <H_k> = (omega_k/2) n_k . r_k, where r_k is the Bloch vector entering
    segment k, so the sum is -1/2 sum_k theta_k n_k . r_k with theta_k =
    omega_k tau_k.
    """
    axes, theta = drive_arrays(sched.segments)
    spinors = np.empty((len(theta), 2), dtype=complex)
    start = vec = initial.as_vector()
    for k, u in enumerate(su2(axes, theta)):
        spinors[k] = vec
        vec = u @ vec
    n_dot_r = np.sum(axes * bloch_points(spinors), axis=1)
    # 0.0 - x keeps an exactly zero phase unsigned, as the report prints it.
    return complex(np.vdot(start, vec)), 0.0 - 0.5 * float(theta @ n_dot_r)


def _cyclic(overlap: complex) -> bool:
    """The cyclic test on <initial|final>; False for a NaN overlap."""
    return abs(overlap) >= 1.0 - CYCLIC_TOL


def is_cyclic(sched: Schedule, initial: QubitState) -> bool:
    """True iff the evolution returns the state to itself up to a phase."""
    return _cyclic(_follow(sched, initial)[0])


def total_phase(sched: Schedule, initial: QubitState) -> float:
    """Phase arg<initial|final> of a cyclic evolution, in (-pi, pi]."""
    return geometric_phase(sched, initial).total


def dynamical_phase(sched: Schedule, initial: QubitState) -> float:
    """-sum_k <psi_k|H_k|psi_k> tau_k over the schedule (see ``_follow``).

    Defined for any evolution, cyclic or not.
    """
    return _follow(sched, initial)[1]


def geometric_phase(sched: Schedule, initial: QubitState) -> PhaseDecomposition:
    """Total/dynamical/geometric split of a cyclic evolution, from one pass.

    Raises NonCyclicError if the state does not return to itself.
    """
    overlap, dyn = _follow(sched, initial)
    if not _cyclic(overlap):
        raise NonCyclicError(
            f"initial state is not cyclic (|overlap| = {abs(overlap):.6g})"
        )
    total = wrap_phase(float(np.angle(overlap)))
    return PhaseDecomposition(total=total, dynamical=dyn, geometric=wrap_phase(total - dyn))


def sample_path(
    sched: Schedule, initial: QubitState, samples_per_segment: int
) -> BlochPath:
    """Bloch trajectory with exact boundary points.

    Each segment rotates the Bloch vector about its axis n by theta =
    omega * t. Interior points come from the closed (Rodrigues) form
    r(theta) = (1, cos theta, sin theta) . ((n.r0) n, r0 - (n.r0) n, n x r0)
    of the segment's entry point r0, one matrix product per block of
    PATH_BLOCK rows. Each segment with nonzero duration contributes
    samples_per_segment - 1 new points, so the path has
    1 + (moving segments) * (samples_per_segment - 1) samples in total.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    # Zero-duration segments add no samples: times must stay strictly
    # increasing and the points would be duplicates.
    moving = sum(1 for seg in sched if seg.duration > 0)
    per_segment = samples_per_segment - 1
    times = np.empty(1 + moving * per_segment)
    points = np.empty((len(times), 3))
    times[0] = 0.0
    points[0] = bloch_points(initial.as_vector())
    # The block buffers are gone by the time BlochPath checks the arrays.
    _fill_segments(sched, per_segment, times, points)
    return BlochPath(t=times, r=points)


def _fill_segments(
    sched: Schedule, per_segment: int, times: np.ndarray, points: np.ndarray
) -> None:
    """Write every moving segment's samples after the first row, in blocks.

    Sample j of a segment (1 <= j <= per_segment) sits at the fraction
    j / per_segment of its duration. The block's slice of times holds that
    fraction, then the elapsed time, then the absolute time: the IEEE
    operations of the whole-segment form, so no point depends on the block
    size.
    """
    # numpy multiplies a one-row block by gemv, not gemm, and the two can give
    # a zero coordinate opposite signs. So only a one-row segment gets a
    # one-row block, and a one-row tail is done as the last two rows.
    block = min(max(PATH_BLOCK, 2), per_segment)
    steps = np.arange(1.0, block + 1)
    theta = np.empty(block)
    coeffs = np.ones((block, 3))  # rows (1, cos theta, sin theta)
    start = 1
    t0 = 0.0
    for seg in sched:
        if seg.duration > 0:
            # The last fraction is exactly 1, so the segment's final point
            # is the entry point of the next segment.
            r0 = points[start - 1]
            n = np.asarray(seg.axis)
            along = (n @ r0) * n
            # n x r0 in np.cross's operations, without its per-call cost
            (nx, ny, nz), (x, y, z) = seg.axis, r0.tolist()
            cross = (ny * z - nz * y, nz * x - nx * z, nx * y - ny * x)
            basis = np.array([along, r0 - along, cross])
            for lo in range(0, per_segment, block):
                if lo == per_segment - 1 and lo > 0:
                    lo -= 1  # a one-row tail
                m = min(block, per_segment - lo)
                rows = slice(start + lo, start + lo + m)
                t = times[rows]
                np.add(steps[:m], lo, out=t)
                t /= per_segment
                t *= seg.duration
                np.multiply(t, seg.omega, out=theta[:m])
                t += t0
                np.cos(theta[:m], out=coeffs[:m, 1])
                np.sin(theta[:m], out=coeffs[:m, 2])
                np.matmul(coeffs[:m], basis, out=points[rows])
            start += per_segment
        t0 += seg.duration


def _chain_phase(chain: np.ndarray, first: int, south: bool, buf: np.ndarray):
    """Sum of arg <psi_k|psi_k+1> over the edges of a chain of points.

    Both ends of an edge are lifted in the pole chart of the edge's own
    hemisphere: north, (1 + z, x + iy), where s = z_k + z_k+1 >= 0, and
    south, (x - iy, 1 - z), otherwise. The overlap is then real arithmetic,
    1 + |s| + r_k.r_k+1 (which is >= |s|) plus i (r_k x r_k+1)_z, the
    imaginary part, and so the phase, negated in the south chart. The south
    lift is e^{-i phi} times the north lift (times a positive scale), so
    where consecutive edges switch chart at a point k, phi_k =
    atan2(y_k, x_k) is subtracted (north to south) or added (south to
    north) to keep one lift per point.

    first is the index of chain[0] in the path, for the error message, and
    south the chart of the edge that enters chain[0]. buf is scratch space
    of shape (3, >= len(chain) - 1). Returns the sum and the chart of the
    chain's last edge.
    """
    m = len(chain) - 1
    x, y, z = chain.T
    dot, re, im = buf[:, :m]
    np.multiply(x[:-1], x[1:], out=dot)
    np.multiply(y[:-1], y[1:], out=re)
    dot += re
    np.multiply(z[:-1], z[1:], out=re)
    dot += re
    k = int(np.argmin(dot))
    overlap = (1.0 + dot[k]) / 2
    if not overlap >= MIN_EDGE_OVERLAP:
        k += first
        raise ValueError(
            f"samples {k} and {k + 1} are nearly antipodal (edge {k} overlap "
            f"{overlap:.3g} < {MIN_EDGE_OVERLAP:g}): no unique geodesic joins "
            "them; sample the path more finely"
        )
    np.add(z[:-1], z[1:], out=re)
    souths = re < 0
    np.abs(re, out=re)
    re += 1.0
    re += dot
    np.multiply(x[:-1], y[1:], out=im)
    np.multiply(y[:-1], x[1:], out=dot)
    im -= dot
    np.arctan2(im, re, out=im)  # each edge's phase in the north chart's sign
    total = float(np.sum(im)) - 2.0 * float(im @ souths)
    entering = np.empty_like(souths)  # the chart of the edge entering each point
    entering[0] = south
    entering[1:] = souths[:-1]
    at = np.flatnonzero(entering != souths)
    if at.size:
        phi = np.arctan2(y[at], x[at])
        total -= float(np.sum(np.where(souths[at], phi, -phi)))
    return total, bool(souths[-1])


def solid_angle(path: BlochPath) -> float:
    """Signed solid angle enclosed by a closed Bloch path, in (-2*pi, 2*pi].

    The area of the geodesic polygon through the samples, from its Bargmann
    invariant Omega = 2 arg prod_k <psi_k|psi_k+1>, the last sample wrapping
    to the first (Samuel & Bhandari, PRL 60, 2339 (1988)). Counterclockwise
    seen from outside the sphere counts positive, and a self-crossing path
    counts each region once per winding. Exact, with no anchor point, for
    every closed polygon whose consecutive samples are not antipodal. An
    antipodal pair has no unique geodesic between them: an edge k (from
    sample k to k + 1) whose overlap (1 + r_k.r_k+1)/2 falls below
    MIN_EDGE_OVERLAP raises ValueError.
    """
    pts = path.points()
    if len(pts) < 2 or not np.max(np.abs(pts[0] - pts[-1])) <= PATH_CLOSURE_TOL:
        raise OpenPathError("path is not closed to within the closure tolerance")
    buf = np.empty((3, min(PATH_BLOCK, len(pts) - 1)))
    closing = pts[[-1, 0]]
    south = bool(closing[0, 2] + closing[1, 2] < 0)  # the edge entering pts[0]
    parts = []
    for start in range(0, len(pts) - 1, PATH_BLOCK):
        phase, south = _chain_phase(pts[start:start + PATH_BLOCK + 1], start, south, buf)
        parts.append(phase)
    parts.append(_chain_phase(closing, len(pts) - 1, south, buf)[0])
    # fsum keeps the block sums' rounding from growing with the block count.
    # A single loop cannot enclose more than the sphere.
    return 2.0 * wrap_phase(math.fsum(parts))
