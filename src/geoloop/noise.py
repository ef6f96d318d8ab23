"""Monte Carlo control-error sweeps over drive schedules.

Exploratory harness: each trial multiplies every segment's frequency and
duration by independent Gaussian factors (1 + eps) and reports the
global-phase-blind trace fidelity against a target gate. The model is a
choice of this library, not a quantitative reproduction of any published
robustness analysis.

NoiseSpec is an immutable record, like the schedules; SweepResult is a
frozen dataclass, since perfbench/selftest.py changes one with
dataclasses.replace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import IDENTITY_2, as_matrix, drive_arrays, su2, unitarity_defect
from .records import (
    ControlSegment,
    InvalidFieldError,
    Schedule,
    _Record,
    _setfield,
    _shown,
    as_int,
    as_nonnegative,
    check_type,
)

# Trials drawn and propagated together by fidelity_sweep. The streams'
# array arithmetic (_fast_draws) costs 0.1-0.3 ms a call however few
# trials it covers, so blocks amortize it and numpy's per-call cost over
# hundreds of trials, while keeping a sweep's temporaries under 0.5 MB
# however many trials it runs (a test checks it).
TRIAL_BLOCK = 512
# Trials whose seed words _block_draws hashes in one _seed_words call. The
# hash costs about 55 us a call however few trials it covers, and a
# chunk's words take 64 kB.
_SEED_CHUNK = 4 * TRIAL_BLOCK
# Largest unitarity defect of a sweep's target: the tolerance gates are
# certified to, so a fidelity cannot exceed 1 by more than about this.
TARGET_UNITARITY_TOL = 1e-12

# Longest schedule whose draws _block_draws computes as array arithmetic.
# A draw misses the ziggurat's fast path, leaving its trial to numpy, about
# 1.5% of the time: at 12 segments (24 draws) numpy draws 30% of the
# trials again, and from about 16 segments the arithmetic costs more than
# the Generators it saves.
_FAST_SEGMENTS = 12
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Most trials a NoiseSpec allows. A sweep peaks at about 48 bytes a trial
# (the float64 fidelities, their tolist() list and the tuple of floats), so
# 2**23 trials take about 400 MB, within the 512 MiB of phases.MAX_PATH_ROWS.
# It also keeps every trial index inside one 32-bit seed word (_seed_words).
MAX_TRIALS = 2**23


class NoiseSpec(_Record):
    """Relative Gaussian error levels, trial count, and RNG seed.

    Sigmas are finite floats >= 0; trials and seed are ints, trials in [1, MAX_TRIALS].
    """

    __slots__ = ("sigma_omega", "sigma_tau", "trials", "seed")
    sigma_omega: float
    sigma_tau: float
    trials: int
    seed: int

    def __init__(
        self, sigma_omega: float = 0.0, sigma_tau: float = 0.0, trials: int = 1, seed: int = 0
    ):
        _setfield(self, "sigma_omega", as_nonnegative("sigma_omega", sigma_omega))
        _setfield(self, "sigma_tau", as_nonnegative("sigma_tau", sigma_tau))
        _setfield(self, "trials", as_int("trials", trials, 1))
        _setfield(self, "seed", as_int("seed", seed))
        if not self.trials <= MAX_TRIALS:
            message = f"trials must be <= {MAX_TRIALS}, got {_shown(trials)}"
            raise InvalidFieldError("trials", message)


@dataclass(frozen=True)
class SweepResult:
    """Per-trial fidelities and their summary statistics."""

    fidelities: tuple[float, ...]
    mean: float
    minimum: float
    std: float
    spec: NoiseSpec


def _noisy(spec: NoiseSpec, segments: int) -> bool:
    """Whether trials draw: only when the schedule has a segment and a sigma is nonzero.

    Otherwise every trial propagates the unperturbed schedule.
    """
    return segments > 0 and (spec.sigma_omega != 0.0 or spec.sigma_tau != 0.0)


def _check_types(sched: Schedule, spec: NoiseSpec) -> None:
    """Raise TypeError unless sched is a Schedule and spec a NoiseSpec."""
    check_type("sched", sched, Schedule)
    check_type("spec", spec, NoiseSpec)


def _perturbed_drives(
    sched: Schedule, spec: NoiseSpec, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed (omega, tau) of every segment of sched from standard normal draws.

    draws has shape (trials, len(sched), 2) and holds each segment's (eps,
    delta): omega -> omega * (1 + sigma_omega * eps), tau -> tau * (1 +
    sigma_tau * delta), clamped at zero so segment invariants survive large
    draws. Both arrays returned have shape (trials, len(sched)). A draw
    whose angle omega * tau overflows raises ValueError, not a warning.
    """
    omega = np.array([seg.omega for seg in sched], dtype=float)
    tau = np.array([seg.duration for seg in sched], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        omega = np.maximum(omega * (1.0 + spec.sigma_omega * draws[..., 0]), 0.0)
        tau = np.maximum(tau * (1.0 + spec.sigma_tau * draws[..., 1]), 0.0)
        if not np.isfinite(omega * tau).all():
            raise ValueError("a perturbed rotation angle omega * tau is not finite")
    return omega, tau


def perturb_schedule(sched: Schedule, spec: NoiseSpec, trial_index: int) -> Schedule:
    """Deterministic perturbed copy of the schedule for one trial.

    omega -> omega * (1 + sigma_omega * eps), tau -> tau * (1 + sigma_tau *
    delta), clamped at zero, with independent Gaussian eps, delta per
    segment; axes are untouched. The trial draws (eps, delta) per segment,
    in that order, from its own stream default_rng([seed, trial_index])
    (seed taken mod 2**64), so it depends only on (seed, trial_index). A
    trial draws only when the schedule has a segment and a sigma is
    nonzero; otherwise no stream is built and the copy equals sched. It is
    the schedule that trial trial_index of ``fidelity_sweep`` propagates.
    trial_index must be an int >= 0, or InvalidFieldError names it.
    """
    _check_types(sched, spec)
    trial_index = as_int("trial_index", trial_index, 0)  # an int, as SeedSequence takes
    draws = np.zeros((1, len(sched), 2))
    if _noisy(spec, len(sched)):
        rng = np.random.default_rng([spec.seed & _MASK64, trial_index])
        rng.standard_normal(out=draws[0])
    omega, tau = _perturbed_drives(sched, spec, draws)
    segments = tuple(
        ControlSegment(seg.axis, w, t)
        for seg, w, t in zip(sched, omega[0].tolist(), tau[0].tolist())
    )
    return Schedule(segments=segments, label=sched.label)


def predicted_infidelity(sched: Schedule, spec: NoiseSpec) -> float:
    """Leading-order mean infidelity 1 - E[F] of a sweep against the unperturbed gate.

    A trial scales segment k's angle theta_k = omega_k tau_k by (1 +
    sigma_omega eps_k)(1 + sigma_tau delta_k), which to first order rotates
    the gate by v = sum_k dtheta_k m_k about the axes m_k carried through
    the later segments; the fidelity is then about 1 - |v|^2 / 8. The draws
    are independent, so the cross terms vanish in expectation and
    E[1 - F] = (sigma_omega^2 + sigma_tau^2 + sigma_omega^2 sigma_tau^2)
    sum_k theta_k^2 / 8 + O(sigma^4), whatever the axes; the zero clamp is
    ignored. The angles come from ``drive_arrays``, not from the sweep's
    own perturbation code, so this checks the sweep independently.
    """
    _check_types(sched, spec)
    _, theta = drive_arrays(sched.segments)
    var_omega, var_tau = spec.sigma_omega**2, spec.sigma_tau**2
    return (var_omega + var_tau + var_omega * var_tau) * float(theta @ theta) / 8


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of ``calls`` successive SeedSequence hashmixes.

    The running constant advances before it multiplies, so call k xors with
    init * mult**k and multiplies by init * mult**(k + 1), mod 2**32. The
    constants advance as Python ints: numpy uint32 scalars would warn on
    overflow.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return (
        np.array(consts[:-1], dtype=np.uint32)[:, None],
        np.array(consts[1:], dtype=np.uint32)[:, None],
    )


# SeedSequence's hash (NumPy NEP 19, numpy.random.bit_generator): a pool of
# 4 words filled by 4 hashmixes and mixed by 12 more, then 8 output words
# from a second hash chain.
_POOL = 4
_HASH_POOL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on uint32 words; value itself is not changed."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _seed_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """PCG64 seed words of the streams default_rng([seed, i]), one row per trial i.

    Row i equals SeedSequence([seed, i]).generate_state(4, np.uint64): the
    same hash, run on all trials at once as uint32 array arithmetic. seed
    is in [0, 2**64) and trial indices in [0, 2**32), so the entropy is
    seed's one word (two above 2**32 - 1) followed by the trial index.
    """
    words = [seed] if seed <= _MASK32 else [seed & _MASK32, seed >> 32]
    pool = np.zeros((_POOL, len(trials)), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = trials
    xor, mult = _HASH_POOL
    pool = _hashmix(pool, xor[:_POOL], mult[:_POOL])
    for src in range(_POOL):
        # Round src hashes word src once per other word, in order.
        dst = [k for k in range(_POOL) if k != src]
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        hashed = _hashmix(pool[src], xor[calls], mult[calls])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ mixed >> 16
    # The 8 output words read the pool twice over.
    xor, mult = _HASH_OUT
    out = _hashmix(pool, xor.reshape(2, _POOL, 1), mult.reshape(2, _POOL, 1))
    out = out.reshape(2 * _POOL, -1)
    # uint64 word k is little-endian (out[2k], out[2k + 1]).
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _seed_rows_type() -> type:
    """ISeedSequence handing each PCG64 built from it the next row of words.

    Built on first use so that importing the package does not import
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedRows(ISeedSequence):
        def __init__(self, rows: np.ndarray):
            # PCG64 reads each row's memory directly: rows must be C-contiguous.
            self._rows = iter(np.ascontiguousarray(rows, dtype=np.uint64))

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("SeedRows only holds PCG64's 4 uint64 seed words")
            return next(self._rows)

    return SeedRows


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """(width, bound): numpy's ziggurat widths wi and checked lower bounds of its ki.

    numpy's standard_normal, a 256-layer ziggurat (Marsaglia & Tsang,
    J. Stat. Softw. 5(8), 2000), reads a 64-bit output r as layer = r &
    0xff, a sign in bit 8 and rabs = r >> 9 (52 bits). When rabs <
    ki[layer] it returns +-rabs * wi[layer], having consumed r alone;
    otherwise it consumes more outputs. No table value is written here:
    both are read from numpy, once per process (about 1 ms), by three
    standard_normal calls on an MT19937 whose key holds the untempered
    words of chosen outputs.

    - Layer 1's fast path is empty (ki[1] = 0), so its bound stays 0. An
      output of layer 1 at rabs = 1, then an output of 0, passes numpy's
      wedge test: the first call reads wi[1] from that normal, and keeps
      it only if exactly those 2 outputs were consumed.
    - The second reads wi[layer] at rabs = 1 for every other layer.
    - With the layers' edges x = wi * 2**52, ki[layer] is about 2**52 *
      x[layer - 1] / x[layer], where layer 0 (the base strip) takes
      x[-1] = x[255], the tail's start. A few units less is a candidate.
    - The third call keeps a candidate only if numpy returns
      (bound - 1) * wi[layer] for it.

    If the first call's check fails, layer 2 has no candidate and gets
    bound 0. If the second or third consumed more than one output per
    normal, every bound is 0.
    """
    from numpy.random import MT19937, Generator

    bitgen = MT19937(0)

    def normals(outputs: np.ndarray, count: int) -> tuple[np.ndarray, bool]:
        # numpy's mt19937_next64 takes the high word first; tempering is inverted here.
        key = np.zeros(624, dtype=np.uint32)
        y = outputs.astype(">u8").view(">u4").astype(np.uint32)
        y ^= y >> 18
        y ^= y << 15 & 0xEFC60000
        x = y
        for _ in range(4):  # each pass inverts 7 more bits
            x = y ^ (x << 7 & 0x9D2C5680)
        key[: len(y)] = x ^ x >> 11 ^ x >> 22
        bitgen.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
        values = Generator(bitgen).standard_normal(count)
        return values, bitgen.state["state"]["pos"] == len(y)

    width, bound = np.zeros(256), np.zeros(256, dtype=np.int64)
    wedge, whole = normals(np.array([1 | 1 << 9, 0], dtype=np.uint64), 1)
    width[1] = wedge[0] if whole else 0.0
    layers = np.append(0, np.arange(2, 256))
    width[layers], whole = normals(layers | 1 << 9, len(layers))
    with np.errstate(divide="ignore", invalid="ignore"):  # width[-1] is width[255]
        candidate = np.floor(width[layers - 1] / width[layers] * 2**52) - 4
    keep = whole & (candidate >= 1) & (candidate < 2**52)
    layers, rabs = layers[keep], candidate[keep].astype(np.int64) - 1
    values, whole = normals(layers | rabs << 9, len(layers))
    bound[layers] = (rabs + 1) * (whole & (values == rabs * width[layers]))
    return width, bound


# numpy's PCG64 (O'Neill, 2014): a 128-bit LCG stepped before each output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _lcg_jumps(outputs: int) -> np.ndarray:
    """[P, Q]: PCG64's state before output k is P[k] * initstate + Q[k] * inc.

    numpy's pcg64_set_seed leaves state (initstate + inc) * M + inc, and
    each output first steps state -> state * M + inc, so P[k] = M**(k + 2)
    and Q[k] = M**(k + 2) + ... + M + 1, mod 2**128. Each is a (hi, lo)
    pair of uint64 words of shape (outputs, 1). Computed once per process
    and output count; the array is read-only, since every caller shares it.
    """
    power, total, rows = _PCG_MULT, _PCG_MULT + 1, []
    for _ in range(outputs):
        power = power * _PCG_MULT % 2**128
        total = (total + power) % 2**128
        rows.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
    jumps = np.array(rows, dtype=np.uint64).T.reshape(2, 2, outputs, 1)
    jumps.flags.writeable = False
    return jumps


def _fast_draws(words: np.ndarray, jumps: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Fill draws from the ziggurat's fast path; return which trials it vouches for.

    words are ``_seed_words`` rows, jumps ``_lcg_jumps(draws[0].size)``.
    Row i's first draws[0].size PCG64 outputs go through numpy's fast path,
    bit for bit; a trial with an output at or past ``_ziggurat_tables``'
    bound is marked False, and its row of draws is left to numpy. The
    128-bit states hi:lo = P * initstate + Q * inc and the outputs are
    computed in place, in four (outputs, trials) uint64 buffers.
    """
    width, bound = _ziggurat_tables()
    hi, lo, s, t = np.zeros((4, jumps.shape[2], len(words)), dtype=np.uint64)
    w0, w1, w2, w3 = words.T
    for (a_hi, a_lo), (b_hi, b_lo) in zip(jumps, ((w0, w1), (w2 << 1 | w3 >> 63, w3 << 1 | 1))):
        a0, a1, b0, b1 = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
        # hi:lo += a * b. The high word of a_lo * b_lo comes from the 32-bit
        # halves without overflow: t is the middle word, whose high half carries.
        np.multiply(a1, b0, out=t)
        t += np.right_shift(np.multiply(a0, b0, out=s), 32, out=s)
        hi += np.right_shift(t, 32, out=s)
        t &= _MASK32
        t += np.multiply(a0, b1, out=s)
        hi += np.right_shift(t, 32, out=t)
        for x, y in ((a1, b1), (a_hi, b_lo), (a_lo, b_hi)):
            hi += np.multiply(x, y, out=s)
        lo += np.multiply(a_lo, b_lo, out=s)
        hi += lo < s
    # XSL-RR: each output is rotr(hi ^ lo, hi >> 58).
    lo ^= hi
    hi >>= 58
    np.left_shift(lo, np.bitwise_and(np.subtract(64, hi, out=s), 63, out=s), out=s)
    lo >>= hi
    lo |= s
    layer = np.bitwise_and(lo, 0xFF, out=t).view(np.int64)
    rabs = np.bitwise_and(np.right_shift(lo, 9, out=s), 2**52 - 1, out=s).view(np.int64)
    fast = (rabs < bound[layer]).all(axis=0)
    normals = np.multiply(rabs, width[layer], out=hi.view(np.float64))
    hi |= np.bitwise_and(np.left_shift(lo, 55, out=lo), 2**63, out=lo)  # the sign bit
    draws.reshape(len(words), -1)[...] = normals.T
    return fast


def _block_draws(spec: NoiseSpec, segments: int, trials: int):
    """Yield (trial slice, draws) for every TRIAL_BLOCK of trials 0 .. trials - 1.

    draws[i] holds trial i's (eps, delta) per segment, in that order: the
    standard normals of a PCG64 seeded exactly as default_rng([seed, i]),
    which is what ``perturb_schedule`` draws, or zeros when trials do not
    draw (``_noisy``: no segment, or both sigmas zero). The streams' seed
    words are hashed _SEED_CHUNK trials at a time, and each block slices
    its rows from its chunk. Up to _FAST_SEGMENTS segments, ``_fast_draws``
    computes each block's streams and their normals as array arithmetic,
    and a trial it cannot vouch for (about 11% of them at 4 segments) is
    drawn again by a numpy Generator, so every bit comes either from a
    checked fast path or from numpy. Longer schedules leave every trial to
    numpy.
    """
    noisy = _noisy(spec, segments)
    jumps = _lcg_jumps(2 * segments) if noisy and segments <= _FAST_SEGMENTS else None
    for start in range(0, trials, TRIAL_BLOCK):
        stop = min(start + TRIAL_BLOCK, trials)
        draws = np.zeros((stop - start, segments, 2))
        if noisy:
            from numpy.random import PCG64, Generator

            if start % _SEED_CHUNK == 0:
                end = min(start + _SEED_CHUNK, trials)
                chunk = _seed_words(spec.seed & _MASK64, np.arange(start, end))
            words = chunk[start % _SEED_CHUNK :][: stop - start]
            slow = np.arange(stop - start)
            if jumps is not None:
                slow = np.flatnonzero(~_fast_draws(words, jumps, draws))
            rows = _seed_rows_type()(words[slow])
            for i in slow:
                Generator(PCG64(rows)).standard_normal(out=draws[i])
        yield slice(start, stop), draws


def _block_product(steps: np.ndarray, z_axis: list[bool]) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] over a block, equal in value to ``ordered_product``.

    steps has shape (segments, trials, 2, 2) and the result (trials, 2, 2),
    with no segments the identity for every trial. z_axis[k] says segment
    k's axis has x and y exactly zero, so its steps are diagonal. Such a step
    scales the rows of the running product, and while the running product
    is itself diagonal, its diagonal scales the columns of the next step.
    Every entry of a product with a diagonal factor has a single nonzero
    term, so matmul adds only exact zeros to it: the elementwise forms give
    the same values, up to the sign of a zero entry. Other steps keep
    matmul, whose sums the elementwise forms would not reproduce bit for bit.
    """
    if len(steps) == 0:
        return np.broadcast_to(IDENTITY_2, steps.shape[1:])
    u, diagonal = steps[0], z_axis[0]
    for step, z_step in zip(steps[1:], z_axis[1:]):
        if z_step:
            u = np.diagonal(step, axis1=-2, axis2=-1)[..., None] * u
        elif diagonal:
            u = step * np.diagonal(u, axis1=-2, axis2=-1)[..., None, :]
        else:
            u = step @ u
        diagonal = diagonal and z_step
    return u


def _block_traces(target_dag: np.ndarray, u: np.ndarray) -> np.ndarray:
    """tr(target_dag @ u[i]) for every i, with the bits of the stacked product.

    ``target_dag @ u`` makes one zgemm call per 2x2 trial; this makes one
    per block. It multiplies the columns of every u[i] and of -1j * u[i]
    (an exact scaling) by target_dag. In BLAS's column-major terms that is
    a product with two rows, as each trial's own is, so each entry runs
    through the same kernel chain of fused multiply-adds, with the factors'
    roles exchanged. The exchange leaves the real part's chain as it was,
    and the real part of target_dag @ (-1j * u[i]) is the imaginary part's
    chain. The layout target_dag @ [u_0 | u_1 | ...] runs the kernel's
    vectorized path instead, which changes about 40% of the product's
    words for a general target. zgemm's arithmetic depends on the CPU and
    the BLAS build; tests/test_noise.py checks these bits.
    """
    trials = len(u)
    columns = np.empty((2, trials, 2, 2), dtype=complex)
    columns[0] = u.transpose(0, 2, 1)  # row j of columns[0, i] is column j of u[i]
    np.multiply(columns[0], -1j, out=columns[1])
    products = (columns.reshape(-1, 2) @ target_dag.T).real
    parts = products[0::2, 0] + products[1::2, 1]
    traces = np.empty(trials, dtype=complex)
    traces.real, traces.imag = parts[:trials], parts[trials:]
    return traces


def fidelity_sweep(sched: Schedule, target: np.ndarray, spec: NoiseSpec) -> SweepResult:
    """Trace fidelity |tr(target^dag U)| / 2 over perturbed realizations.

    sched must be a Schedule, spec a NoiseSpec and target an array of
    numbers, or TypeError is raised. target is a finite 2x2 gate, unitary
    to TARGET_UNITARITY_TOL; any other target raises ValueError. Trial i propagates
    ``perturb_schedule(sched, spec, i)``, bit for bit, but the seeds of its
    streams are hashed _SEED_CHUNK trials at a time rather than by one
    SeedSequence per trial, and ``_block_draws`` computes the normals as
    array arithmetic (numpy's PCG64 and its ziggurat's fast path), leaving
    to a numpy Generator only the trials that arithmetic cannot vouch for. Trials are
    propagated in blocks of TRIAL_BLOCK: one ``su2`` call per block, then
    ``_block_product`` and ``_block_traces``, which keep the
    bits of ``core.ordered_product`` and of the stacked product target^dag
    @ U. An elementwise trace would save only 1-2% of a sweep and changes
    bits, which waits on ROADMAP item 5. A trial draws only when the
    schedule has a segment and a sigma is nonzero (``_noisy``); otherwise
    every trial propagates the unperturbed schedule, so the sweep propagates
    trial 0 alone and repeats its fidelity; the fidelities and their
    statistics are the same, bit for bit, as if every trial ran.
    """
    _check_types(sched, spec)
    target = as_matrix("target", target)
    if target.shape != (2, 2):
        raise ValueError(f"target must be a 2x2 gate, got shape {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError(f"target must be finite, got {target.tolist()}")
    defect = unitarity_defect(target)
    if not defect <= TARGET_UNITARITY_TOL:
        raise ValueError(
            f"target is not unitary: unitarity defect {defect:.3g} > {TARGET_UNITARITY_TOL:g}"
        )
    target_dag = target.conj().T
    axes, _ = drive_arrays(sched.segments)
    z_axis = ((axes[:, 0] == 0.0) & (axes[:, 1] == 0.0)).tolist()
    noisy = _noisy(spec, len(sched))
    fidelities = np.empty(spec.trials if noisy else 1)
    for block, draws in _block_draws(spec, len(sched), len(fidelities)):
        omega, tau = _perturbed_drives(sched, spec, draws)
        # Segment-major, so each product step multiplies the whole block.
        steps = su2(axes, omega * tau).swapaxes(0, 1)
        u = _block_product(steps, z_axis)
        del steps  # freed before the traces' temporaries
        fidelities[block] = np.abs(_block_traces(target_dag, u)) / 2
    if not noisy:
        fidelities = np.full(spec.trials, fidelities[0])
    return SweepResult(
        fidelities=tuple(fidelities.tolist()),
        mean=float(fidelities.mean()),
        minimum=float(fidelities.min()),
        std=float(fidelities.std()),
        spec=spec,
    )
