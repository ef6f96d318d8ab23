import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoloop import noise
from geoloop.core import ControlSegment, Schedule, ordered_product, schedule_unitary, su2
from geoloop.gates import single_loop_schedule, u_chi
from geoloop.noise import (
    MAX_TRIALS,
    TRIAL_BLOCK,
    NoiseSpec,
    _block_draws,
    _block_product,
    _block_traces,
    _fast_draws,
    _lcg_jumps,
    _perturbed_drives,
    _seed_words,
    _ziggurat_tables,
    fidelity_sweep,
    perturb_schedule,
    predicted_infidelity,
)
from geoloop.records import InvalidFieldError

LOOP = single_loop_schedule(math.pi / 4, 1.0, 1.0)


class TestPerturbSchedule:
    def test_zero_sigma_unchanged(self):
        spec = NoiseSpec(sigma_omega=0.0, sigma_tau=0.0, trials=1, seed=9)
        assert perturb_schedule(LOOP, spec, 0) == LOOP

    def test_deterministic_per_trial(self):
        spec = NoiseSpec(sigma_omega=0.02, sigma_tau=0.01, trials=5, seed=1234)
        a = perturb_schedule(LOOP, spec, 3)
        b = perturb_schedule(LOOP, spec, 3)
        assert a == b
        assert a != perturb_schedule(LOOP, spec, 4)

    def test_matches_per_segment_draw_loop(self):
        # Reference: trial i draws eps then delta for each segment in turn
        # from default_rng([seed, i]); seeded sweeps depend on this order.
        spec = NoiseSpec(sigma_omega=0.02, sigma_tau=0.01, trials=5, seed=1234)
        for trial in range(5):
            rng = np.random.default_rng([spec.seed, trial])
            expected = []
            for seg in LOOP:
                omega = seg.omega * (1.0 + spec.sigma_omega * rng.standard_normal())
                tau = seg.duration * (1.0 + spec.sigma_tau * rng.standard_normal())
                expected.append((omega, tau))
            got = perturb_schedule(LOOP, spec, trial)
            assert [(s.omega, s.duration) for s in got] == expected

    def test_empty_schedule_builds_no_stream(self, monkeypatch):
        # No segment draws, whatever the sigmas: no default_rng is built.
        def no_stream(*args):
            raise AssertionError("an empty schedule draws nothing")

        monkeypatch.setattr(np.random, "default_rng", no_stream)
        spec = NoiseSpec(0.1, 0.1, 1, 3)
        assert perturb_schedule(Schedule(label="x"), spec, 0) == Schedule(label="x")

    def test_axes_untouched(self):
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=1, seed=7)
        got = perturb_schedule(LOOP, spec, 0)
        assert [s.axis for s in got] == [s.axis for s in LOOP]

    def test_duration_spread_matches_sigma(self):
        sigma = 0.01
        spec = NoiseSpec(sigma_tau=sigma, trials=10_000, seed=55)
        durations = np.array(
            [perturb_schedule(LOOP, spec, k).segments[1].duration for k in range(10_000)]
        )
        nominal = LOOP.segments[1].duration
        assert abs(durations.std() - sigma * nominal) <= 0.15 * sigma * nominal

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_omega=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(trials=0)

    def test_trials_fit_the_32_bit_seed_word(self):
        # A trial index is one 32-bit word of its stream's seed, and the cap
        # keeps a sweep's memory bounded. No sweep runs at the cap.
        assert MAX_TRIALS <= 2**32
        assert NoiseSpec(trials=MAX_TRIALS).trials == MAX_TRIALS
        with pytest.raises(InvalidFieldError) as exc:
            NoiseSpec(trials=MAX_TRIALS + 1)
        assert exc.value.field == "trials"

    def test_rejects_overflowing_perturbed_angle(self):
        spec = NoiseSpec(sigma_omega=1e308)
        draws = np.full((1, len(LOOP), 2), 2.0)
        with pytest.raises(ValueError, match="not finite"):
            _perturbed_drives(LOOP, spec, draws)
        # A draw that overflows downwards is clamped at zero, like any other.
        omega, tau = _perturbed_drives(LOOP, spec, -draws)
        assert omega.tolist() == [[0.0] * len(LOOP)]
        assert tau.tolist() == [[seg.duration for seg in LOOP]]

    @pytest.mark.parametrize("field", ["sigma_omega", "sigma_tau"])
    def test_names_a_sigma_beyond_the_float_range(self, field):
        with pytest.raises(ValueError, match=f"^{field} is an integer beyond") as exc:
            fidelity_sweep(LOOP, u_chi(math.pi / 4), NoiseSpec(**{field: 10**400, "trials": 2}))
        assert exc.value.field == field

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
    def test_counts_must_be_integers(self, field, bad):
        # 2.5 trials used to pass the spec and fail inside fidelity_sweep.
        with pytest.raises(ValueError, match=f"^{field} must be an integer") as exc:
            NoiseSpec(**{field: bad})
        assert exc.value.field == field

    def test_numpy_integers_are_counts(self):
        spec = NoiseSpec(trials=np.int64(3), seed=np.uint64(2**64 - 1))
        assert len(fidelity_sweep(LOOP, u_chi(math.pi / 4), spec).fidelities) == 3

    def test_fields_are_stored_as_built_in_numbers(self):
        spec = NoiseSpec(np.float32(0.5), 1, np.int64(3), np.uint64(2**64 - 1))
        values = [spec.sigma_omega, spec.sigma_tau, spec.trials, spec.seed]
        assert [type(value) for value in values] == [float, float, int, int]
        assert spec == NoiseSpec(0.5, 1.0, 3, 2**64 - 1)

    @pytest.mark.parametrize("values, field, message", [
        (dict(sigma_omega=-0.1), "sigma_omega", "sigma_omega must be finite and >= 0, got -0.1"),
        (dict(sigma_tau=math.nan), "sigma_tau", "sigma_tau must be finite and >= 0, got nan"),
        (dict(sigma_omega=math.inf, sigma_tau=-1), "sigma_omega",
         "sigma_omega must be finite and >= 0, got inf"),
        (dict(trials=0), "trials", "trials must be >= 1, got 0"),
        (dict(trials=MAX_TRIALS + 1), "trials", "trials must be <= 8388608, got 8388609"),
        (dict(trials=2**32 + 1), "trials", "trials must be <= 8388608, got 4294967297"),
        (dict(trials=10**5000), "trials",
         "trials must be <= 8388608, got <integer beyond the int-string limit>"),
    ])
    def test_range_errors_name_the_field(self, values, field, message):
        with pytest.raises(InvalidFieldError) as exc:
            NoiseSpec(**values)
        assert (exc.value.field, str(exc.value)) == (field, message)

    @pytest.mark.parametrize("field", ["sigma_omega", "sigma_tau"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sigma(self, field, bad):
        # NaN fails every comparison, so "sigma < 0" alone lets it through.
        with pytest.raises(ValueError):
            NoiseSpec(**{field: bad})


class TestFidelitySweep:
    def test_zero_sigma_is_exact(self):
        spec = NoiseSpec(trials=20, seed=0)
        result = fidelity_sweep(LOOP, schedule_unitary(LOOP), spec)
        assert all(abs(f - 1.0) <= 1e-12 for f in result.fidelities)

    def test_bounds(self):
        spec = NoiseSpec(sigma_omega=0.2, sigma_tau=0.2, trials=300, seed=2)
        result = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        assert all(0.0 <= f <= 1.0 + 1e-12 for f in result.fidelities)

    def test_small_noise_high_fidelity(self):
        spec = NoiseSpec(sigma_tau=0.01, trials=1000, seed=42)
        result = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        assert result.mean >= 0.99

    def test_monotone_in_sigma(self):
        means = []
        for sigma in (0.0, 0.01, 0.05, 0.1):
            spec = NoiseSpec(sigma_omega=sigma, sigma_tau=sigma, trials=400, seed=77)
            means.append(fidelity_sweep(LOOP, u_chi(math.pi / 4), spec).mean)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_continuity_at_tiny_sigma(self):
        spec = NoiseSpec(sigma_omega=1e-6, sigma_tau=1e-6, trials=200, seed=5)
        result = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        assert 1.0 - result.mean <= 1e-8

    def test_bit_reproducible(self):
        spec = NoiseSpec(sigma_omega=0.03, sigma_tau=0.02, trials=100, seed=99)
        a = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        b = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        assert a == b

    @pytest.mark.parametrize(
        "sigma_omega, sigma_tau", [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (0.02, 0.01), (1.0, 1.0)]
    )
    def test_every_trial_matches_perturbed_schedule(self, sigma_omega, sigma_tau):
        # The trials cross the sweep's internal trial blocks.
        spec = NoiseSpec(
            sigma_omega=sigma_omega, sigma_tau=sigma_tau, trials=TRIAL_BLOCK + 88, seed=31
        )
        target = u_chi(0.3)
        result = fidelity_sweep(LOOP, target, spec)
        assert len(result.fidelities) == spec.trials
        for i, fid in enumerate(result.fidelities):
            u = schedule_unitary(perturb_schedule(LOOP, spec, i))
            assert abs(fid - abs(np.trace(target.conj().T @ u)) / 2) <= 1e-14

    def test_clamps_large_draws_at_zero(self):
        spec = NoiseSpec(sigma_omega=3.0, sigma_tau=3.0, trials=200, seed=4)
        drives = [(s.omega, s.duration) for i in range(200) for s in perturb_schedule(LOOP, spec, i)]
        assert min(min(d) for d in drives) == 0.0

    def test_empty_schedule_is_identity_every_trial(self):
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=5, seed=1)
        result = fidelity_sweep(Schedule(), np.eye(2), spec)
        assert result.fidelities == (1.0,) * 5

    def test_empty_schedule_reads_the_target_trace_every_trial(self, monkeypatch):
        # 513 noisy trials: a whole block of the broadcast identity, then one.
        # No segment draws, so no stream is seeded or built.
        def no_stream(*args):
            raise AssertionError("an empty schedule draws nothing")

        monkeypatch.setattr(noise, "_seed_words", no_stream)
        monkeypatch.setattr(np.random, "PCG64", no_stream)
        target = np.diag(np.exp([-0.4j, 0.7j]))
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=TRIAL_BLOCK + 1, seed=3)
        expected = abs(np.trace(target.conj().T)) / 2
        result = fidelity_sweep(Schedule(), target, spec)
        assert [f.hex() for f in result.fidelities] == [expected.hex()] * spec.trials

    def test_empty_schedule_propagates_one_trial(self, monkeypatch):
        # Its trials cannot differ, so a noisy sweep over two blocks calls su2 once.
        calls = []

        def counted_su2(*args):
            calls.append(args)
            return su2(*args)

        monkeypatch.setattr(noise, "su2", counted_su2)
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=TRIAL_BLOCK + 1, seed=3)
        result = fidelity_sweep(Schedule(), np.eye(2), spec)
        assert len(calls) == 1
        assert result.fidelities == (1.0,) * spec.trials

    def test_single_segment_sweep(self):
        seg = ControlSegment((0, 1, 0), 1.0, 0.5)
        spec = NoiseSpec(sigma_tau=0.1, trials=3, seed=2)
        result = fidelity_sweep(Schedule(segments=(seg,)), np.eye(2), spec)
        for i, fid in enumerate(result.fidelities):
            u = schedule_unitary(perturb_schedule(Schedule(segments=(seg,)), spec, i))
            assert abs(fid - abs(np.trace(u)) / 2) <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3), (3, 2), (2,), ()])
    def test_target_must_be_a_2x2_gate(self, shape):
        # A sweep propagates one qubit; any other target would give a number
        # that is not a fidelity, or numpy's matmul error.
        for sched in (LOOP, Schedule()):
            with pytest.raises(ValueError, match=r"^target must be a 2x2 gate, got shape"):
                fidelity_sweep(sched, np.ones(shape), NoiseSpec(trials=2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_target_must_be_finite(self, bad):
        # A NaN target gave NaN fidelities; an inf one warned inside matmul.
        target = u_chi(0.3)
        target[1, 0] = bad
        for sched in (LOOP, Schedule()):
            with pytest.raises(ValueError, match=r"^target must be finite"):
                fidelity_sweep(sched, target, NoiseSpec(trials=2))

    @pytest.mark.parametrize("scale", [3.0, 0.0, 1.0 + 1e-11])
    def test_target_must_be_unitary(self, scale):
        # 3 I gave "fidelities" of 3.0.
        with pytest.raises(ValueError, match=r"^target is not unitary: unitarity defect"):
            fidelity_sweep(Schedule(), scale * np.eye(2), NoiseSpec(trials=2))

    def test_target_within_the_gate_tolerance(self):
        target = (1.0 + 1e-13) * u_chi(0.3)  # unitarity defect about 2e-13
        result = fidelity_sweep(LOOP, target, NoiseSpec(sigma_tau=0.01, trials=3, seed=1))
        assert len(result.fidelities) == 3

    def test_sweep_temporaries_stay_under_half_a_megabyte(self):
        # TRIAL_BLOCK's promise, at the benchmark's 2000 trials of the paper
        # loop; the first sweep loads numpy.random and the ziggurat tables.
        spec = NoiseSpec(sigma_omega=0.02, sigma_tau=0.01, trials=2000, seed=7)
        fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        tracemalloc.start()
        try:
            fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 500_000

    def test_summary_statistics(self):
        spec = NoiseSpec(sigma_tau=0.05, trials=50, seed=3)
        result = fidelity_sweep(LOOP, u_chi(math.pi / 4), spec)
        arr = np.array(result.fidelities)
        assert result.mean == pytest.approx(arr.mean())
        assert result.minimum == pytest.approx(arr.min())
        assert result.std == pytest.approx(arr.std())


# Trial indices around the sweep's block boundaries and at the 32-bit limit.
TRIAL_INDICES = [0, TRIAL_BLOCK - 1, TRIAL_BLOCK, 1999, 2**32 - 1]


def seed_sequence_words(seed, trial):
    return np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)


class TestBatchedSeeding:
    """fidelity_sweep hashes the default_rng([seed, i]) seeds in batches."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-(2**65), 2**65))
    @example(0)
    @example(1)
    @example(2**32 - 1)
    @example(2**32)
    @example(2**63)
    @example(2**64 - 1)
    @example(-5)
    def test_seed_words_match_seed_sequence(self, seed):
        seed &= 2**64 - 1
        got = _seed_words(seed, np.array(TRIAL_INDICES))
        expected = np.array([seed_sequence_words(seed, i) for i in TRIAL_INDICES])
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "seed", [0, -5, 2**32 - 1, 2**32, 2**40, 2**63, 2**64 - 1, 2**64 + 3]
    )
    def test_sweep_draws_match_default_rng(self, seed):
        # Every draw of every trial, across a trial block, whose seeds are
        # hashed together, and of trials the ziggurat's fast path leaves to
        # numpy: each is its stream's normals, bit for bit.
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=TRIAL_BLOCK + 40, seed=seed)
        words = _seed_words(seed & (2**64 - 1), np.arange(spec.trials))
        left_to_numpy = 0
        for segments in range(8):
            draws = np.concatenate([d for _, d in _block_draws(spec, segments, spec.trials)])
            assert draws.shape == (spec.trials, segments, 2)
            for trial in range(spec.trials):
                rng = np.random.default_rng([seed & (2**64 - 1), trial])
                expected = rng.standard_normal((segments, 2))
                assert draws[trial].tobytes() == expected.tobytes(), (segments, trial)
            if segments:  # an empty schedule draws nothing
                fast = _fast_draws(words, _lcg_jumps(2 * segments), np.empty_like(draws))
                left_to_numpy += np.count_nonzero(~fast)
            if segments == 4:
                # About 11%: a numpy whose tables fail the reader's checks
                # shows here, not as a silent slowdown.
                assert np.count_nonzero(~fast) <= 0.15 * spec.trials
        assert left_to_numpy > 0

    @pytest.mark.parametrize("seed", [7, 2**64 - 1])
    def test_draws_across_seed_chunks_match_default_rng(self, seed, monkeypatch):
        # Seed words are hashed 4 * TRIAL_BLOCK trials at a time, and each
        # block slices its rows: every trial of a second, partial chunk is
        # still its own stream, for a seed of one 32-bit word and of two.
        hashed = []
        seed_words = noise._seed_words
        monkeypatch.setattr(noise, "_seed_words", lambda s, t: hashed.append(t) or seed_words(s, t))
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=4 * TRIAL_BLOCK + 88, seed=seed)
        draws = np.concatenate([d for _, d in _block_draws(spec, len(LOOP), spec.trials)])
        for trial in range(spec.trials):
            expected = np.random.default_rng([seed, trial]).standard_normal((len(LOOP), 2))
            assert draws[trial].tobytes() == expected.tobytes(), trial
        assert [t.tolist() for t in hashed] == [
            list(range(4 * TRIAL_BLOCK)), list(range(4 * TRIAL_BLOCK, spec.trials))
        ]

    def test_lcg_jumps_are_computed_once_and_read_only(self):
        jumps = _lcg_jumps(6)
        assert _lcg_jumps(6) is jumps
        with pytest.raises(ValueError):
            jumps[0, 0, 0, 0] = 0

    @pytest.mark.parametrize("segments", [noise._FAST_SEGMENTS, noise._FAST_SEGMENTS + 1])
    def test_long_schedules_leave_every_trial_to_numpy(self, segments, monkeypatch):
        # Past _FAST_SEGMENTS most trials would miss the fast path, so no
        # trial takes it; the draws are the same either side.
        calls = []
        fast_draws = noise._fast_draws
        monkeypatch.setattr(noise, "_fast_draws", lambda *a: calls.append(a) or fast_draws(*a))
        spec = NoiseSpec(sigma_omega=0.1, sigma_tau=0.1, trials=40, seed=9)
        draws = np.concatenate([d for _, d in _block_draws(spec, segments, spec.trials)])
        for trial in range(spec.trials):
            expected = np.random.default_rng([9, trial]).standard_normal((segments, 2))
            assert draws[trial].tobytes() == expected.tobytes()
        assert len(calls) == (segments <= noise._FAST_SEGMENTS)

    def test_ziggurat_tables_match_numpy_fast_path(self):
        # Independent of the MT19937 reader: a PCG64 set through its public
        # state so that its next output is chosen. A state whose high word
        # is 0 makes XSL-RR output its low word as it is, and advance(-1)
        # steps back one, so that the next output is that state's.
        from numpy.random import PCG64, Generator

        width, bound = _ziggurat_tables()
        assert bound[1] == 0  # layer 1 has no fast path
        assert np.count_nonzero(bound) == 255
        bitgen = PCG64(0)
        for k, layer in enumerate(np.flatnonzero(bound).tolist()):
            sign, rabs = k % 2, int(bound[layer]) - 1
            output = rabs << 9 | sign << 8 | layer
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": output, "inc": 2 * k + 1},
                            "has_uint32": 0, "uinteger": 0}
            bitgen.advance(-1)
            value = Generator(bitgen).standard_normal()
            assert bitgen.state["state"]["state"] == output  # one output consumed
            assert value == (-1) ** sign * (rabs * width[layer]), layer

    def test_blocks_tile_the_sweep(self):
        spec = NoiseSpec(sigma_tau=0.1, trials=2 * TRIAL_BLOCK + 1, seed=3)
        blocks = [block for block, _ in _block_draws(spec, len(LOOP), spec.trials)]
        covered = [i for block in blocks for i in range(spec.trials)[block]]
        assert covered == list(range(spec.trials))
        assert max(b.stop - b.start for b in blocks) == TRIAL_BLOCK

    def test_perturb_schedule_beyond_32_bit_trial_index(self):
        spec = NoiseSpec(sigma_omega=0.02, sigma_tau=0.01, trials=1, seed=1234)
        trial = 2**32 + 5
        draws = np.random.default_rng([spec.seed, trial]).standard_normal((len(LOOP), 2))
        got = perturb_schedule(LOOP, spec, trial)
        expected = [
            (seg.omega * (1.0 + spec.sigma_omega * eps),
             seg.duration * (1.0 + spec.sigma_tau * delta))
            for seg, (eps, delta) in zip(LOOP, draws)
        ]
        assert [(s.omega, s.duration) for s in got] == expected


# (axis, duration) of the segment kinds the block product must handle: z
# rotations either way, with a -0.0 component and of zero duration, and
# axes that are not z, one of them only 1e-9 off it.
PRODUCT_SEGMENTS = [
    ((0.0, 0.0, 1.0), 0.9),
    ((0.0, 0.0, -1.0), 1.3),
    ((-0.0, 0.0, 1.0), 0.7),
    ((0.0, 0.0, 1.0), 0.0),
    ((1.0, 0.0, 0.0), 1.1),
    ((0.6, 0.0, 0.8), 0.4),
    ((1e-9, 0.0, 1.0), 0.8),
]


def product_schedules(max_segments):
    """Every schedule of up to max_segments PRODUCT_SEGMENTS kinds, in every order."""
    for n in range(max_segments + 1):
        for combo in itertools.product(PRODUCT_SEGMENTS, repeat=n):
            yield Schedule(segments=tuple(ControlSegment(a, 2.0, t) for a, t in combo))


class TestBlockProduct:
    """z steps are applied as diagonal scalings, with the values of ordered_product."""

    def test_equals_ordered_product(self):
        draws = np.random.default_rng(8).standard_normal((40, 4))
        for sched in product_schedules(4):
            axes = np.array([seg.axis for seg in sched]).reshape(-1, 3)
            theta = np.array([seg.omega * seg.duration for seg in sched])
            steps = su2(axes, theta * (1.0 + 0.3 * draws[:, : len(sched)])).swapaxes(0, 1)
            z_axis = [seg.axis[:2] == (0.0, 0.0) for seg in sched]
            got = _block_product(steps, z_axis)
            # == rather than bits: a zero entry's sign may differ.
            assert (got == ordered_product(steps)).all(), sched

    def test_sweep_bits_match_ordered_product(self, monkeypatch):
        spec = NoiseSpec(sigma_omega=0.05, sigma_tau=0.02, trials=12, seed=6)
        target = u_chi(0.3)
        schedules = list(product_schedules(3))

        def bits(sched):
            result = fidelity_sweep(sched, target, spec)
            values = result.fidelities + (result.mean, result.minimum, result.std)
            return [value.hex() for value in values]

        got = [bits(sched) for sched in schedules]
        monkeypatch.setattr(
            noise,
            "_block_product",
            lambda steps, _: np.broadcast_to(ordered_product(steps), steps.shape[1:]),
        )
        assert got == [bits(sched) for sched in schedules]


def random_unitaries(rng, count):
    """count random 2x2 unitaries with general complex entries, shape (count, 2, 2)."""
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    return np.linalg.qr(z)[0]


class TestBlockTraces:
    """One zgemm call per block gives the traces of the stacked product, bit for bit.

    zgemm's arithmetic depends on the CPU and the BLAS build, so on a new
    host these tests are the first to show a product that rounds apart.
    """

    @staticmethod
    def assert_stacked_traces(target_dag, u):
        product = target_dag @ u
        expected = product[..., 0, 0] + product[..., 1, 1]
        got = _block_traces(target_dag, u)
        # == rather than bits for the traces (a zero part's sign may differ);
        # the fidelities read off them must keep every bit.
        assert (got == expected).all()
        assert (np.abs(got) / 2).tobytes() == (np.abs(expected) / 2).tobytes()

    def test_random_blocks_and_targets(self):
        # General unitary targets, and the u_chi targets the CLI uses, whose
        # entries are all imaginary.
        rng = np.random.default_rng(22)
        for case in range(60):
            trials = int(rng.integers(1, 601))
            target = random_unitaries(rng, 1)[0] if case % 2 else u_chi(rng.uniform(-4, 4))
            self.assert_stacked_traces(target.conj().T, random_unitaries(rng, trials))

    @pytest.mark.parametrize("sched", [
        Schedule(),
        Schedule(segments=(ControlSegment((0, 0, 1), 1.0, 0.5),
                           ControlSegment((0, 0, -1), 2.0, 0.3))),
        LOOP,
    ], ids=["empty", "all-z", "paper-loop"])
    def test_each_block_product_shape(self, sched):
        # _block_product's three shapes: the identity of an empty schedule
        # for every trial, a diagonal stack from z steps only, and a general
        # stack.
        rng = np.random.default_rng(23)
        axes = np.array([seg.axis for seg in sched], dtype=float).reshape(-1, 3)
        theta = np.array([seg.omega * seg.duration for seg in sched])
        z_axis = [seg.axis[:2] == (0.0, 0.0) for seg in sched]
        for trials in (1, TRIAL_BLOCK, 600):
            draws = 1.0 + 0.05 * rng.standard_normal((trials, len(sched)))
            u = _block_product(su2(axes, theta * draws).swapaxes(0, 1), z_axis)
            assert u.shape == (trials, 2, 2)
            for target in (random_unitaries(rng, 1)[0], u_chi(0.3)):
                self.assert_stacked_traces(target.conj().T, u)


# Schedules of the pinned sweep grid: paper loops, a loop with other axes
# and a zero-duration segment, and the empty schedule.
PINNED_SCHEDULES = [
    LOOP,
    single_loop_schedule(1.1, 0.7, 1.6),
    Schedule(segments=(
        ControlSegment((0.6, 0.0, 0.8), 1.3, 0.4),
        ControlSegment((0.0, -0.8, 0.6), 0.9, 0.0),
        ControlSegment((-0.48, 0.6, 0.64), 2.0, 0.75),
    )),
    Schedule(),
]
PINNED_SIGMAS = [(0.0, 0.0), (0.03, 0.0), (0.0, 0.02), (0.05, 0.01), (1.5, 1.5)]
PINNED_TRIALS = [1, TRIAL_BLOCK, TRIAL_BLOCK + 1]
PINNED_SEEDS = [0, 7, 2**32 + 5, 2**64 - 1]


def test_sweep_bits_pinned():
    # sha256 of float.hex of every fidelity, mean, minimum and std over the
    # grid, recorded before noiseless sweeps propagated a single trial.
    digest = hashlib.sha256()
    grid = itertools.product(PINNED_SCHEDULES, PINNED_SIGMAS, PINNED_TRIALS)
    for case, (sched, (sigma_omega, sigma_tau), trials) in enumerate(grid):
        seed = PINNED_SEEDS[case % len(PINNED_SEEDS)]
        spec = NoiseSpec(sigma_omega, sigma_tau, trials, seed)
        result = fidelity_sweep(sched, u_chi(0.3), spec)
        values = result.fidelities + (result.mean, result.minimum, result.std)
        digest.update(" ".join(map(float.hex, values)).encode() + b"\n")
    assert digest.hexdigest() == "ca8025b86967fdafe1c8aa9bd0badce4a2fcaff39f82ed3a11fd45c78a7c26d1"


@pytest.mark.parametrize("sched", PINNED_SCHEDULES)
def test_noiseless_sweep_propagates_the_unperturbed_gate(sched, monkeypatch):
    def no_stream(*args):
        raise AssertionError("a noiseless sweep draws nothing")

    monkeypatch.setattr(np.random, "PCG64", no_stream)
    target = u_chi(0.3)
    expected = abs(np.trace(target.conj().T @ schedule_unitary(sched))) / 2
    spec = NoiseSpec(trials=TRIAL_BLOCK + 3, seed=5)
    result = fidelity_sweep(sched, target, spec)
    assert [f.hex() for f in result.fidelities] == [expected.hex()] * spec.trials


class TestPredictedInfidelity:
    """The sweep's mean infidelity against its leading-order closed form."""

    # Paper loops, loops about other axes, and one with a zero-duration segment.
    CASES = [
        (LOOP, (1e-2, 1e-2)),
        (single_loop_schedule(0.2, 0.7, 1.6), (1e-3, 1e-2)),
        (single_loop_schedule(math.pi / 2, 1.3, 0.5), (0.0, 5e-3)),
        (PINNED_SCHEDULES[2], (1e-2, 0.0)),
        (Schedule(segments=(
            ControlSegment((0.0, 0.6, -0.8), 2.2, 0.9),
            ControlSegment((0.8, 0.0, 0.6), 1.5, 1.1),
            ControlSegment((-0.36, 0.48, 0.8), 0.7, 2.0),
            ControlSegment((0.0, 0.0, 1.0), 3.0, 0.6),
            ControlSegment((1.0, 0.0, 0.0), 0.5, 1.0),
        )), (1e-2, 1e-2)),
        (Schedule(segments=(
            ControlSegment((0.0, 1.0, 0.0), 1.7, 0.8),
            ControlSegment((0.6, -0.8, 0.0), 2.5, 0.0),
            ControlSegment((0.0, 0.8, 0.6), 0.9, 1.4),
        )), (5e-3, 1e-2)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_mean_infidelity_within_standard_errors(self, case):
        sched, (sigma_omega, sigma_tau) = self.CASES[case]
        spec = NoiseSpec(sigma_omega, sigma_tau, trials=10_000, seed=600 + case)
        result = fidelity_sweep(sched, schedule_unitary(sched), spec)
        infidelity = 1.0 - np.array(result.fidelities)
        stderr = infidelity.std() / math.sqrt(spec.trials)
        assert abs(infidelity.mean() - predicted_infidelity(sched, spec)) <= 4 * stderr

    @pytest.mark.parametrize("chi", [0.0, 0.4, math.pi / 4, math.pi / 2])
    def test_paper_loop_total_rotation(self, chi):
        # The paper's loop turns by pi/2, pi, pi/2 and pi - 2 chi, so
        # sum theta_k^2 = 3 pi^2 / 2 + (pi - 2 chi)^2, whatever the omegas.
        spec = NoiseSpec(0.03, 0.02)
        factor = (0.03**2 + 0.02**2 + 0.03**2 * 0.02**2) / 8
        expected = factor * (1.5 * math.pi**2 + (math.pi - 2 * chi) ** 2)
        got = predicted_infidelity(single_loop_schedule(chi, 0.8, 1.9), spec)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_no_rotation_no_infidelity(self):
        assert predicted_infidelity(Schedule(), NoiseSpec(0.1, 0.1)) == 0.0
        assert predicted_infidelity(LOOP, NoiseSpec()) == 0.0
