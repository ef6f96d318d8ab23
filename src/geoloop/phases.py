"""Phase bookkeeping for cyclic evolutions.

Splits the total phase of a cyclic evolution into its dynamical part
(the time integral of -<H>) and its geometric remainder, samples the
Bloch-sphere trajectory, and cross-checks the geometric phase against
minus half the enclosed solid angle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import BlochVector, QubitState, bloch_points, drive_arrays, su2, wrap_phase
from .records import InvalidFieldError, Schedule, _Record, _setfield, as_int, check_type

# An evolution is cyclic when |<initial|final>| >= 1 - CYCLIC_TOL.
CYCLIC_TOL = 1e-9
PATH_CLOSURE_TOL = 1e-6
# Rows per block in sample_path and edges per block in solid_angle. Each
# scratch buffer then stays at or below 96 kB, under malloc's 128 kB mmap
# threshold, so malloc serves and reuses it from its heap. Whole-path
# temporaries (hundreds of kB at 10k samples per segment) are mapped fresh
# on every call, and their page faults cost more than the arithmetic.
PATH_BLOCK = 4096
# Most rows sample_path returns: t and r take 32 bytes a row, so 512 MiB.
MAX_PATH_ROWS = 2**24
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


class PhaseDecomposition(_Record):
    """Total, dynamical, and geometric phase of one cyclic evolution.

    total and geometric are reduced to (-pi, pi]; the identity
    total = dynamical + geometric holds mod 2*pi.
    """

    __slots__ = ("total", "dynamical", "geometric")
    total: float
    dynamical: float
    geometric: float

    def __init__(self, total: float, dynamical: float, geometric: float):
        _setfield(self, "total", total)
        _setfield(self, "dynamical", dynamical)
        _setfield(self, "geometric", geometric)


class BlochPath(_Record):
    """Time-stamped Bloch-sphere trajectory, stored as two arrays.

    t holds the sample times, shape (n,); r holds the Bloch vectors, shape
    (n, 3), with r[i] reached at time t[i]. Both are stored read-only.
    Paths compare and hash by identity, not by value.
    """

    __slots__ = ("t", "r")
    t: np.ndarray
    r: np.ndarray

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, t: np.ndarray, r: np.ndarray):
        t = np.asarray(t, dtype=float).view()
        r = np.asarray(r, dtype=float).view()
        if t.ndim != 1 or r.shape != (len(t), 3):
            raise ValueError(
                f"need times of shape (n,) and points of shape (n, 3), "
                f"got {t.shape} and {r.shape}"
            )
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("path times and points must be finite")
        t.flags.writeable = False
        r.flags.writeable = False
        _setfield(self, "t", t)
        _setfield(self, "r", r)

    def __reduce__(self):  # through __init__, so a copy's arrays are read-only too
        return self.__class__, (self.t, self.r)

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
    check_type("sched", sched, Schedule)
    check_type("initial", initial, QubitState)
    axes, theta = drive_arrays(sched.segments)
    spinors = np.empty((len(theta), 2), dtype=complex)
    start = vec = initial.as_vector()
    for k, u in enumerate(su2(axes, theta)):
        spinors[k] = vec
        vec = u @ vec
    n_dot_r = np.add.reduce(axes * bloch_points(spinors), 1)  # np.sum without its wrapper
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
    total = wrap_phase(float(np.arctan2(overlap.imag, overlap.real)))  # np.angle
    return PhaseDecomposition(total=total, dynamical=dyn, geometric=wrap_phase(total - dyn))


def sample_path(
    sched: Schedule, initial: QubitState, samples_per_segment: int
) -> BlochPath:
    """Bloch trajectory with exact boundary points.

    Each segment with nonzero duration, axis n and entry point r turns the
    Bloch vector to (1, cos theta, sin theta) . B after the angle theta =
    omega * t, with the Rodrigues basis B = ((n.r) n, r - (n.r) n, n x r).
    It adds samples_per_segment - 1 points, sample j at the fraction j /
    (samples_per_segment - 1) of its duration: the path has 1 + (moving
    segments) * (samples_per_segment - 1) samples in total. A path of more
    than MAX_PATH_ROWS samples raises InvalidFieldError naming
    samples_per_segment, before anything is allocated.

    One loop fills every row. Each segment's last two rows (one when
    samples_per_segment is 2) come first, in schedule order: each segment
    builds its basis from the row the previous one ended on and starts at
    that row's time. The other rows follow in blocks of PATH_BLOCK, whose
    scratch stays under malloc's mmap threshold, and the segments of one
    exact (omega, duration) share each block's angles and their cos and
    sin. numpy multiplies a one-row block by gemv, not gemm, and the two
    can sign a zero coordinate differently, so a block has one row only
    when its segment does: the last body block may run into the end rows
    and write them again with the same bits. The fraction, then the elapsed
    time, then the absolute time are the IEEE operations of the
    whole-segment form, so no point depends on the block size or on which
    segments share a shape.
    """
    check_type("sched", sched, Schedule)
    check_type("initial", initial, QubitState)
    per_segment = as_int("samples_per_segment", samples_per_segment, 2) - 1
    # Zero-duration segments add no samples: times must stay strictly
    # increasing and the points would be duplicates.
    moving = []  # (segment, [its index]) of each moving segment, in schedule order
    shapes = {}  # (omega, duration) -> (one such segment, their indices)
    t0 = 0.0
    for seg in sched:
        if seg.duration > 0:
            key = seg.omega.hex(), seg.duration.hex()  # exact bits: omega -0.0 is not 0.0
            shapes.setdefault(key, (seg, []))[1].append(len(moving))
            moving.append((seg, [len(moving)]))
        t0 += seg.duration
    if not math.isfinite(t0):  # every time is at most this sum
        raise ValueError("the schedule's total duration overflows")
    rows = 1 + len(moving) * per_segment
    if rows > MAX_PATH_ROWS:
        message = f"samples_per_segment gives {rows} path rows, more than {MAX_PATH_ROWS}"
        raise InvalidFieldError("samples_per_segment", message)
    times = np.empty(rows)
    points = np.empty((len(times), 3))
    times[0] = 0.0
    points[0] = bloch_points(initial.as_vector())
    if not moving:
        return BlochPath(t=times, r=points)
    bases = np.empty((len(moving), 3, 3))
    ends = max(per_segment - 2, 0)  # the end rows' offset; every body block starts before it
    block = min(max(PATH_BLOCK, 2), per_segment)
    theta = np.empty(block)
    coeffs = np.ones((block, 3))  # rows (1, cos theta, sin theta)
    for lo, groups in [(ends, moving)] + [(lo, shapes.values()) for lo in range(0, ends, block)]:
        m = min(block, per_segment - lo)
        fraction = np.arange(lo + 1.0, lo + m + 1.0)  # exact integers
        fraction /= per_segment
        for seg, ks in groups:
            rows = [slice(1 + k * per_segment + lo, 1 + k * per_segment + lo + m) for k in ks]
            np.multiply(fraction, seg.duration, out=theta[:m])  # the elapsed times
            for k, r in zip(ks, rows):  # each starts at the time the one before ended
                np.add(theta[:m], times[k * per_segment], out=times[r])
            theta[:m] *= seg.omega
            np.cos(theta[:m], out=coeffs[:m, 1])
            np.sin(theta[:m], out=coeffs[:m, 2])
            for k, r in zip(ks, rows):
                if lo == ends:  # the end rows: first the basis, from the entry point r
                    # numpy's dot, for its rounding, then the rows in Python floats:
                    # the IEEE operations of (n.r) n, r - (n.r) n and np.cross,
                    # without numpy's per-call cost.
                    dot = float(np.asarray(seg.axis) @ points[k * per_segment])
                    (nx, ny, nz), (x, y, z) = seg.axis, points[k * per_segment].tolist()
                    ax, ay, az = dot * nx, dot * ny, dot * nz
                    bases[k, 0] = ax, ay, az
                    bases[k, 1] = x - ax, y - ay, z - az
                    bases[k, 2] = ny * z - nz * y, nz * x - nx * z, nx * y - ny * x
                np.matmul(coeffs[:m], bases[k], out=points[r])
        del fraction  # before the next block's, so that one block's is alive at a time
    del theta, coeffs  # before BlochPath's checks allocate their own buffers
    return BlochPath(t=times, r=points)


def _chain_phase(
    w: np.ndarray, z: np.ndarray, first: int, south: bool, scratch: Sequence[np.ndarray]
):
    """Sum of arg <psi_k|psi_k+1> over the edges of a chain of points.

    Both ends of an edge are lifted in the pole chart of the edge's own
    hemisphere: north, (1 + z, x + iy), where s = z_k + z_k+1 >= 0, and
    south, (x - iy, 1 - z), otherwise. The overlap is then real arithmetic,
    1 + |s| + r_k.r_k+1 (which is >= |s|) plus i (r_k x r_k+1)_z, the
    imaginary part negated in the south chart. Each point's (x, y) comes as
    one complex w = x + iy, so one product conj(w_k) w_k+1 gives
    x_k x_k+1 + y_k y_k+1 as its real part and (r_k x r_k+1)_z as its
    imaginary part. The south lift is e^{-i phi} times the north lift
    (times a positive scale), so at each point k where consecutive edges
    switch chart, phi_k = arg w_k is subtracted (north to south) or added
    (south to north) to keep one lift per point. The switches come from
    comparing each edge's chart with the next one's, and at the chain's
    first point with south, the chart of the edge entering it.

    w (complex) and z hold the chain's points, first the index of its
    first point in the path, for the error message. scratch holds five
    arrays of one entry per edge: a complex one, two floats and two bools.
    Returns the sum and the chart of the chain's last edge.
    """
    pair, dot, re, souths, switch = scratch
    np.conjugate(w[:-1], out=pair)
    pair *= w[1:]
    np.multiply(z[:-1], z[1:], out=dot)
    dot += pair.real
    overlap = (1.0 + np.minimum.reduce(dot)) / 2
    if not overlap >= MIN_EDGE_OVERLAP:
        k = int(np.argmin(dot)) + first
        raise ValueError(
            f"samples {k} and {k + 1} are nearly antipodal (edge {k} overlap "
            f"{overlap:.3g} < {MIN_EDGE_OVERLAP:g}): no unique geodesic joins "
            "them; sample the path more finely"
        )
    np.add(z[:-1], z[1:], out=re)
    np.less(re, 0.0, out=souths)
    np.abs(re, out=re)
    re += 1.0
    re += dot
    # arctan2 reads a contiguous copy of the imaginary parts faster than the
    # view; the copy goes where the spent dot products were.
    phase = dot
    np.copyto(phase, pair.imag)
    np.negative(phase, out=phase, where=souths)
    np.arctan2(phase, re, out=phase)  # each edge's phase in its own chart
    total = float(np.add.reduce(phase))
    np.not_equal(souths[1:], souths[:-1], out=switch[1:])
    switch[0] = souths.item(0) != south  # Python bools: no numpy scalars
    (at,) = switch.nonzero()  # np.flatnonzero without its wrappers
    if at.size:
        phi = np.arctan2(w.imag[at], w.real[at])  # np.angle
        np.negative(phi, out=phi, where=souths[at])
        total += float(np.add.reduce(phi))
    return total, souths.item(-1)


@np.errstate(over="raise", invalid="raise")  # caught below, as a ValueError
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
    MIN_EDGE_OVERLAP raises ValueError. A one-point path, the identity
    evolution's, is closed and encloses 0.

    The points are read as unit vectors, and their norms are not checked:
    off the sphere, the result is not an area. Coordinates so large that
    the edge sums overflow raise ValueError, without a warning.
    """
    check_type("path", path, BlochPath)
    # Rows laid out (x, y, z), so that each (x, y) reads as one complex.
    pts = np.ascontiguousarray(path.r)
    try:
        if not len(pts) or not np.max(np.abs(pts[0] - pts[-1])) <= PATH_CLOSURE_TOL:
            raise OpenPathError("path is not closed to within the closure tolerance")
        edges = len(pts) - 1
        block = max(min(PATH_BLOCK, edges), 1)  # a column at least, for the closing edge
        scratch = (np.empty(block, dtype=complex), *np.empty((2, block)),
                   *np.empty((2, block), dtype=bool))
        closing = pts[[-1, 0]]
        south = bool(closing[0, 2] + closing[1, 2] < 0)  # the edge entering pts[0]
        w, z = pts[:, :2].view(complex)[:, 0], pts[:, 2]
        parts = []
        for start in range(0, edges, PATH_BLOCK):
            stop = min(start + PATH_BLOCK, edges)
            part = scratch if stop - start == block else [a[:stop - start] for a in scratch]
            phase, south = _chain_phase(w[start:stop + 1], z[start:stop + 1], start, south, part)
            parts.append(phase)
        w, z = closing[:, :2].view(complex)[:, 0], closing[:, 2]
        parts.append(_chain_phase(w, z, edges, south, [a[:1] for a in scratch])[0])
    except FloatingPointError:  # only coordinates far off the unit sphere overflow
        raise ValueError("the edge sums overflow: points far off the unit sphere") from None
    # fsum keeps the block sums' rounding from growing with the block count.
    # A single loop cannot enclose more than the sphere.
    return 2.0 * wrap_phase(math.fsum(parts))
