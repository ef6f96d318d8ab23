import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import (
    ControlSegment,
    QubitState,
    Schedule,
    schedule_unitary,
    segment_unitary,
    state_from_angles,
)
from geoloop import core, phases
from geoloop.gates import single_loop_schedule
from geoloop.records import InvalidFieldError
from geoloop.phases import (
    BlochPath,
    NonCyclicError,
    OpenPathError,
    dynamical_phase,
    geometric_phase,
    is_cyclic,
    sample_path,
    solid_angle,
    total_phase,
    wrap_phase,
)
from geoloop.core import BlochVector

from helpers import PAULI, quadrature_dynamical_phase, unit_axes

TOL = 1e-12
CHI_GRID = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]

# Random schedules with dwell (omega = 0) and zero-duration segments.
schedules = st.lists(
    st.builds(
        ControlSegment,
        axis=unit_axes,
        omega=st.one_of(st.just(0.0), st.floats(0, 3)),
        duration=st.one_of(st.just(0.0), st.floats(0, 2)),
    ),
    max_size=6,
).map(lambda segs: Schedule(segments=tuple(segs)))
initial_states = st.builds(
    state_from_angles,
    st.floats(0, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from(["plus", "minus"]),
)


def loop_and_state(chi, omega=1.0, omega2=1.0):
    return single_loop_schedule(chi, omega, omega2), state_from_angles(chi, 0.0, "plus")


def reference_path(sched, initial, samples_per_segment):
    """Point-by-point path: one segment_unitary per sample, Bloch vectors
    as Pauli expectation values."""
    times = [0.0]
    states = [initial.as_vector()]
    vec = initial.as_vector()
    t0 = 0.0
    for seg in sched:
        if seg.duration > 0:
            for k in range(1, samples_per_segment):
                frac = k / (samples_per_segment - 1)
                partial = ControlSegment(seg.axis, seg.omega, seg.duration * frac)
                states.append(segment_unitary(partial) @ vec)
                times.append(t0 + seg.duration * frac)
        vec = segment_unitary(seg) @ vec
        t0 += seg.duration
    points = [[(v.conj() @ p @ v).real for p in PAULI] for v in states]
    return np.array(times), np.array(points)


def whole_segment_path(sched, initial, samples_per_segment):
    """The Rodrigues path with whole-segment arrays (one coefficient array and
    one np.cross per segment): the form sample_path fills block by block."""
    per_segment = samples_per_segment - 1
    moving = sum(1 for seg in sched if seg.duration > 0)
    fracs = np.arange(1, samples_per_segment) / per_segment
    times = np.empty(1 + moving * per_segment)
    points = np.empty((len(times), 3))
    coeffs = np.ones((per_segment, 3))
    times[0] = 0.0
    points[0] = phases.bloch_points(initial.as_vector())
    start, t0 = 1, 0.0
    for seg in sched:
        if seg.duration > 0:
            stop = start + per_segment
            partial = seg.duration * fracs
            times[start:stop] = t0 + partial
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
    return times, points


# sha256 of every pinned_path_cases() path's times and points, recorded
# before sample_path filled its blocks across segments (see
# test_path_bits_pinned).
PINNED_PATH_DIGEST = "0b6ce5417c5698e38ab1272fcc2e4ba1a9c3dd089ee9b0a22740a700fc6e482e"
EXACT_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


def pinned_path_cases():
    """(schedule, state, samples) of every path test_path_bits_pinned hashes.

    First the paper loops, edge chi included, at 2 and 3 samples and at
    whole PATH_BLOCK blocks with a one- and a two-row tail. Then 120 seeded
    random schedules whose segments often reuse an earlier segment's
    (omega, duration) on another axis, with zero durations, dwells
    (omega = 0) and, in the first, omega = -0.0 next to omega = 0.0 at one
    duration.
    """
    for chi in (0.0, 1e-6, 1e-4, math.pi / 4, math.pi / 2 - 1e-3, math.pi / 2):
        for omega, omega2 in ((1.0, 1.0), (0.7, 1.3)):
            for samples in (2, 3, 4097, 4098, 10_000):
                yield (*loop_and_state(chi, omega, omega2), samples)
    rng = np.random.default_rng(16)
    for k in range(120):
        shapes = [(-0.0, 0.8), (0.0, 0.8)] if k == 0 else []
        segments = []
        for j in range(5 if k == 0 else int(rng.integers(1, 7))):
            if k == 0:
                omega, duration = shapes[j % 2]
            elif shapes and rng.random() < 0.5:
                omega, duration = shapes[int(rng.integers(len(shapes)))]
            else:
                omega = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.1, 3.0))
                duration = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 2.0))
                shapes.append((omega, duration))
            if rng.random() < 0.3:
                axis = EXACT_AXES[int(rng.integers(len(EXACT_AXES)))]
            else:
                v = rng.normal(size=3)
                axis = tuple((v / np.linalg.norm(v)).tolist())
            segments.append(ControlSegment(axis, omega, duration))
        state = state_from_angles(
            float(rng.uniform(0.0, math.pi)),
            float(rng.uniform(-math.pi, math.pi)),
            "plus" if rng.random() < 0.5 else "minus",
        )
        if k % 10 == 9:
            samples = int(rng.choice([2, 3, 4097, 4098]))
        else:
            samples = int(rng.integers(2, 60))
        yield Schedule(segments=tuple(segments)), state, samples


# solid_angle of every pinned_path_cases() path (closed by repeating its
# first point when it does not close), recorded before the edge sum folded
# the south chart's sign into the imaginary parts; None where an edge is
# nearly antipodal. Omega is not bit-pinned: a new summation order may move
# it by a few ulps, so test_omega_matches_recorded_values allows 1e-14.
PINNED_PATH_OMEGA = [
    None, 3.141592653589793, 3.141592653589793, 3.141592653589793,
    3.141592653589793, None, 3.141592653589793, 3.141592653589793,
    3.141592653589793, 3.141592653589793, None, 3.141592653589793,
    3.141592653589793, 3.141592653589793, 3.141592653589793, None,
    3.141592653589793, 3.141592653589793, 3.141592653589793, 3.141592653589793,
    None, 3.141592653589793, 3.141592653589793, 3.141592653589793,
    3.141592653589793, None, 3.141592653589793, 3.141592653589793,
    3.141592653589793, 3.141592653589793, None, 3.141592653589793,
    3.141592653589793, 3.141592653589793, 3.141592653589793, None,
    3.1415926535897922, 3.1415926535897922, 3.1415926535897927, 3.141592653589794,
    None, 3.1415926535897922, 3.1415926535897927, 3.1415926535897896,
    3.14159265358979, None, 3.141592653589792, 3.1415926535897936,
    3.141592653589788, 3.1415926535897905, None, 3.1415926535897927,
    3.141592653589793, 3.1415926535897927, 3.1415926535897936, None,
    3.1415926535897922, 3.141592653589794, 3.141592653589791, 3.141592653589791,
    -1.7543998964690737e-18, -0.08392237420010194, 6.946012662887034e-16, -0.06661021830317582,
    0.054439933136831264, 0.25382456622649685, 0.1440013733843155, 0.0013705654235610862,
    5.1252788411535677e-17, 0.0, -0.5539695382638944, -1.3214687913488792,
    3.2408080438122404, -2.833725605822256, 0.0001346499711282166, -3.5006409833671697,
    -1.2001520127309235, 1.508825339417931, -0.24909690621065633, -1.7184102938488242,
    1.811890350357785e-17, -1.7265881328825313e-16, 0.051610214001349033, 0.0,
    0.0, 7.530021954992445e-17, 0.0, -3.349274981413095,
    -1.0135778733969449e-17, -1.1051260841382167, 4.893574659197302, 1.2011520723230955,
    -1.4022043656895383e-16, 0.0, -1.3318283318279418, -0.41146407952533814,
    0.10698901443997097, -2.530964622287681e-16, -0.0002616757390876273, -0.01898737797427144,
    0.9039098885468242, 0.25378961221432966, -0.1641349965137724, -0.2601670261251501,
    0.008319663307246108, 0.8000121681798107, -1.5459157051875652, 0.05252342962303153,
    0.0, 0.5527805770835933, 0.6603612231928215, -0.2986504045581181,
    -2.8178797722877325, 0.11298555287754034, 0.02545500478384484, -3.197770528432816,
    3.4590762793826784, -5.832758594501978, -0.44396475714726086, -0.018577552526640367,
    -0.05456209751934871, 5.67062317417866, 0.27681805558764294, 0.0,
    0.22894816349382946, 0.16828598088589675, -0.6117805465089117, 0.727975435143478,
    0.433721941833219, 1.2137396587712061e-05, -0.00029499623210221815, -0.33463373398272334,
    0.6906345576769786, 3.4974831860546836, -1.6137923219371415, 3.1686223326556378,
    4.171593712223537, 0.02604537519724935, 0.08390569568836964, -1.0460841036772126,
    0.029042393871771113, -1.6468473462962465, -0.12896345150309307, 0.6196494646988981,
    -3.162033557011614, -1.1518017465720312, 0.02660071932433067, -0.37993491857766504,
    -0.2428550797627636, 0.010920593421864758, 0.00013140307919467034, 0.03474806025746208,
    0.33241603398841424, 0.24068481304822598, -6.079426537909053, -0.0146221193257429,
    0.0021267257852200516, 0.0, -0.4679373952977449, 0.0,
    0.0, -1.6756077823384385, 0.0017335535227264508, -0.04002967099634161,
    2.930905871631272, -0.009620338813747159, 0.0, 2.87641484728809,
    -0.7669625170498966, 0.0039885996887724096, 0.022991003600913773, 0.024716247217069706,
    0.0, -0.000857546390879713, -0.592293170946905, 0.9246547941556189,
    0.002868332641482285, -0.023960409202051013, -1.9340359095319108, 1.16414419303022e-05,
]


def closed_path(path):
    """path, with its first point repeated at the end if it does not close."""
    pts = path.r
    if np.max(np.abs(pts[0] - pts[-1])) <= phases.PATH_CLOSURE_TOL:
        return path
    pts = np.vstack([pts, pts[:1]])
    return BlochPath(t=np.arange(len(pts), dtype=float), r=pts)


class TestIsCyclic:
    def test_empty_schedule(self):
        assert is_cyclic(Schedule(), state_from_angles(1.0, 0.5))

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_loop_plus_state_is_cyclic(self, chi):
        sched, state = loop_and_state(chi)
        assert is_cyclic(sched, state)

    def test_nan_overlap_is_not_cyclic(self, monkeypatch):
        monkeypatch.setattr(phases, "_follow", lambda sched, initial: (complex(math.nan), 0.0))
        assert not is_cyclic(Schedule(), QubitState(1, 0))

    def test_up_state_not_cyclic_off_axis(self):
        sched = single_loop_schedule(math.pi / 3, 1.0, 1.0)
        assert not is_cyclic(sched, QubitState(1, 0))


class TestTotalPhase:
    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_loop_plus_phase(self, chi):
        sched, state = loop_and_state(chi)
        assert abs(total_phase(sched, state) + math.pi / 2) <= TOL

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_loop_minus_phase(self, chi):
        sched = single_loop_schedule(chi, 1.0, 1.0)
        minus = state_from_angles(chi, 0.0, "minus")
        assert abs(total_phase(sched, minus) - math.pi / 2) <= TOL

    def test_empty_schedule_zero(self):
        assert total_phase(Schedule(), QubitState(1, 0)) == 0.0

    def test_noncyclic_raises(self):
        sched = single_loop_schedule(math.pi / 3, 1.0, 1.0)
        with pytest.raises(NonCyclicError):
            total_phase(sched, QubitState(1, 0))

    def test_nan_overlap_raises(self, monkeypatch):
        # A NaN overlap fails every comparison, so the test must be written
        # as "not cyclic unless |overlap| >= 1 - tol".
        monkeypatch.setattr(phases, "_follow", lambda sched, initial: (complex(math.nan), 0.0))
        with pytest.raises(NonCyclicError):
            total_phase(Schedule(), QubitState(1, 0))


class TestDynamicalPhase:
    def test_first_z_segment_contribution(self):
        omega = 1.9
        for chi in CHI_GRID:
            seg = ControlSegment((0, 0, 1), omega, math.pi / (2 * omega))
            sched = Schedule(segments=(seg,))
            state = state_from_angles(chi, 0.0, "plus")
            got = dynamical_phase(sched, state)
            assert abs(got + (math.pi / 4) * math.cos(chi)) <= TOL
            oracle = quadrature_dynamical_phase(sched, state)
            assert abs(got - oracle) <= 1e-8

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_full_loop_cancels(self, chi):
        sched, state = loop_and_state(chi, omega=0.8, omega2=2.3)
        assert abs(dynamical_phase(sched, state)) <= TOL

    def test_geodesic_segment_zero(self):
        # Bloch vector in the y-z plane is orthogonal to the x axis.
        state = state_from_angles(1.234, math.pi / 2, "plus")
        sched = Schedule(segments=(ControlSegment((1, 0, 0), 1.5, 2.0),))
        assert abs(dynamical_phase(sched, state)) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(schedules, initial_states)
    def test_matches_quadrature_with_dwell_and_zero_duration(self, sched, state):
        got = dynamical_phase(sched, state)
        assert abs(got - quadrature_dynamical_phase(sched, state)) <= 1e-8

    def test_quadrature_equivalence_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            segs = tuple(
                ControlSegment(
                    axis=tuple(v / np.linalg.norm(v)),
                    omega=rng.uniform(0.1, 3),
                    duration=rng.uniform(0.1, 2),
                )
                for v in rng.standard_normal((rng.integers(1, 5), 3))
            )
            sched = Schedule(segments=segs)
            state = state_from_angles(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
            got = dynamical_phase(sched, state)
            assert abs(got - quadrature_dynamical_phase(sched, state)) <= 1e-8


class TestGeometricPhase:
    def test_follows_the_state_once(self, monkeypatch):
        # The total and the dynamical phase come from one su2 call.
        calls = []
        real_su2 = core.su2

        def counting_su2(axes, theta):
            calls.append(len(theta))
            return real_su2(axes, theta)

        monkeypatch.setattr(core, "su2", counting_su2)
        monkeypatch.setattr(phases, "su2", counting_su2)
        geometric_phase(*loop_and_state(math.pi / 4))
        assert calls == [4]

    def test_loop_at_quarter_pi(self):
        sched, state = loop_and_state(math.pi / 4)
        d = geometric_phase(sched, state)
        assert abs(d.total + math.pi / 2) <= TOL
        assert abs(d.dynamical) <= TOL
        assert abs(d.geometric + math.pi / 2) <= TOL

    def test_empty_schedule(self):
        d = geometric_phase(Schedule(), QubitState(1, 0))
        assert d.total == d.dynamical == d.geometric == 0.0

    def test_pure_dynamical_z_rotation(self):
        omega = 3.1
        sched = Schedule(
            segments=(ControlSegment((0, 0, 1), omega, math.pi / (2 * omega)),)
        )
        d = geometric_phase(sched, QubitState(1, 0))
        assert abs(d.total + math.pi / 4) <= TOL
        assert abs(d.dynamical + math.pi / 4) <= TOL
        assert abs(d.geometric) <= TOL

    def test_decomposition_identity_random_cyclic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            chi = rng.uniform(0, math.pi / 2)
            sched, state = loop_and_state(chi, rng.uniform(0.2, 3), rng.uniform(0.2, 3))
            d = geometric_phase(sched, state)
            assert abs(wrap_phase(d.total - d.dynamical - d.geometric)) <= 1e-9

    def test_gauge_invariance(self):
        sched, state = loop_and_state(math.pi / 3)
        shifted = QubitState(
            np.exp(0.71j) * state.amp_up, np.exp(0.71j) * state.amp_down
        )
        a = geometric_phase(sched, state)
        b = geometric_phase(sched, shifted)
        assert abs(a.total - b.total) <= TOL
        assert abs(a.dynamical - b.dynamical) <= TOL
        assert abs(a.geometric - b.geometric) <= TOL


class TestSamplePath:
    def test_loop_closure_and_start(self):
        chi = 0.9
        sched, state = loop_and_state(chi)
        path = sample_path(sched, state, 50)
        first = path.r[0]
        assert np.allclose(first, [math.sin(chi), 0, math.cos(chi)], atol=1e-12)
        assert np.max(np.abs(path.r[0] - path.r[-1])) <= 1e-9

    def test_geodesic_segment_stays_in_plane(self):
        # Entering the x-rotation at azimuth pi/2 keeps the path in the y-z plane.
        state = state_from_angles(0.8, math.pi / 2, "plus")
        sched = Schedule(segments=(ControlSegment((1, 0, 0), 1.0, 2.5),))
        path = sample_path(sched, state, 40)
        assert np.max(np.abs(path.r[:, 0])) <= 1e-12

    def test_empty_schedule_single_sample(self):
        path = sample_path(Schedule(), QubitState(1, 0), 10)
        assert len(path.samples) == 1
        assert path.samples[0][0] == 0.0

    def test_times_strictly_increasing(self):
        sched, state = loop_and_state(math.pi / 2)  # includes a zero-duration segment
        t = sample_path(sched, state, 7).t
        assert np.all(np.diff(t) > 0)

    def test_sample_count(self):
        sched, state = loop_and_state(0.3)
        path = sample_path(sched, state, 2)
        assert len(path.samples) == 1 + len(sched)

    def test_path_bits_pinned(self):
        digest = hashlib.sha256()
        for sched, state, samples in pinned_path_cases():
            path = sample_path(sched, state, samples)
            digest.update(path.t.tobytes())
            digest.update(path.r.tobytes())
        assert digest.hexdigest() == PINNED_PATH_DIGEST

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            sample_path(Schedule(), QubitState(1, 0), 1)

    def test_path_of_the_row_cap_and_one_row_more(self, monkeypatch):
        sched = Schedule(segments=(ControlSegment((1, 0, 0), 1.0, 2.5),))  # rows = samples
        monkeypatch.setattr(phases, "MAX_PATH_ROWS", 37)
        assert len(sample_path(sched, QubitState(1, 0), 37).t) == 37
        with pytest.raises(InvalidFieldError) as exc:
            sample_path(sched, QubitState(1, 0), 38)
        message = "samples_per_segment gives 38 path rows, more than 37"
        assert (exc.value.field, str(exc.value)) == ("samples_per_segment", message)

    @pytest.mark.parametrize("bad", [3.0, True, "3", None])
    def test_samples_must_be_an_integer(self, bad):
        # 3.0 reached numpy and raised its TypeError; True was read as 1.
        sched, state = loop_and_state(0.3)
        with pytest.raises(InvalidFieldError, match="^samples_per_segment must be an") as exc:
            sample_path(sched, state, bad)
        assert exc.value.field == "samples_per_segment"

    def test_numpy_integer_samples(self):
        sched, state = loop_and_state(0.3)
        path, twin = sample_path(sched, state, 5), sample_path(sched, state, np.int64(5))
        assert np.array_equal(path.r, twin.r)

    @settings(max_examples=40, deadline=None)
    @given(schedules, initial_states, st.integers(2, 40))
    def test_matches_point_by_point_propagation(self, sched, state, n):
        path = sample_path(sched, state, n)
        times, points = reference_path(sched, state, n)
        assert np.array_equal(path.t, times)
        assert path.r.shape == points.shape
        assert np.max(np.abs(path.r - points)) <= 1e-14

    def test_loop_matches_point_by_point_propagation(self):
        sched, state = loop_and_state(math.pi / 2, 0.7, 1.9)  # zero-duration last segment
        path = sample_path(sched, state, 500)
        times, points = reference_path(sched, state, 500)
        assert np.array_equal(path.t, times)
        assert np.max(np.abs(path.r - points)) <= 1e-14

    # 4097 and 8194 samples leave a one-row tail after whole blocks of 4096.
    @pytest.mark.parametrize("samples", [2, 4097, 4098, 8194])
    @pytest.mark.parametrize("block", [1, 7, 4096, 2**20])
    def test_independent_of_block_size(self, monkeypatch, block, samples):
        sched, state = loop_and_state(0.3, 0.7, 1.3)
        times, points = whole_segment_path(sched, state, samples)
        monkeypatch.setattr(phases, "PATH_BLOCK", block)
        path = sample_path(sched, state, samples)
        assert path.t.tobytes() == times.tobytes()
        assert path.r.tobytes() == points.tobytes()

    # Where a fill could use a one-row block: every block at block size 1, and
    # the row after a whole block of 4096 when a segment has 4097 rows.
    @pytest.mark.parametrize("samples, block", [(3, 1), (4098, 4096)])
    def test_signed_zeros_independent_of_block_size(self, monkeypatch, samples, block):
        # The y coordinate sums three zeros of mixed sign, and numpy's one-row
        # matmul (gemv) can give it the opposite sign to the many-row one. The
        # second segment's basis is built from the zero its first one ends on.
        seg = ControlSegment((-1.7697072924085078e-160, 0.0, 1.0), 1.0, 6.396503550355308e-202)
        state = state_from_angles(0.0, 0.0, "minus")
        monkeypatch.setattr(phases, "PATH_BLOCK", block)
        for sched in Schedule(segments=(seg,)), Schedule(segments=(seg, seg)):
            times, points = whole_segment_path(sched, state, samples)
            assert sample_path(sched, state, samples).r.tobytes() == points.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(schedules, initial_states, st.integers(2, 40), st.integers(1, 8))
    def test_random_schedules_independent_of_block_size(self, sched, state, n, block):
        times, points = whole_segment_path(sched, state, n)
        phases.PATH_BLOCK, default = block, phases.PATH_BLOCK
        try:
            path = sample_path(sched, state, n)
        finally:
            phases.PATH_BLOCK = default
        assert path.t.tobytes() == times.tobytes()
        assert path.r.tobytes() == points.tobytes()


class TestBlochPath:
    def test_samples_view(self):
        sched, state = loop_and_state(0.6)
        path = sample_path(sched, state, 20)
        samples = path.samples
        assert len(samples) == len(path.t) == len(path.r)
        t, point = samples[-1]
        assert t == path.t[-1]
        assert isinstance(point, BlochVector)
        assert np.array_equal(point.as_array(), path.r[-1])
        assert [s[0] for s in samples] == path.t.tolist()
        assert samples[1:3] == (samples[1], samples[2])
        with pytest.raises(IndexError):
            samples[len(samples)]

    def test_arrays_are_stored_read_only(self):
        path = sample_path(*loop_and_state(0.6), 5)
        assert path.r is path.r
        with pytest.raises(ValueError):
            path.r[0, 0] = 2.0
        with pytest.raises(ValueError):
            path.t[0] = 2.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BlochPath(t=[0.0, 1.0], r=[[0, 0, 1]])
        with pytest.raises(ValueError):
            BlochPath(t=[0.0], r=[0, 0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # A NaN point used to pass the closure test and give an area of 0.0.
        with pytest.raises(ValueError):
            BlochPath(t=[0.0, 1.0, 2.0], r=[[bad, 0, 0], [0, 1, 0], [bad, 0, 0]])
        with pytest.raises(ValueError):
            BlochPath(t=[0.0, bad, 2.0], r=[[1, 0, 0], [0, 1, 0], [1, 0, 0]])


class TestSolidAngle:
    def test_quarter_loop_area(self):
        sched, state = loop_and_state(math.pi / 2)
        path = sample_path(sched, state, 10_000)
        assert abs(solid_angle(path) - math.pi) <= 1e-4

    def test_degenerate_two_point_path(self):
        path = BlochPath(t=[0.0, 1.0], r=[[0, 0, 1], [0, 0, 1]])
        assert solid_angle(path) == 0.0

    def test_reversed_orientation_flips_sign(self):
        sched, state = loop_and_state(math.pi / 4)
        path = sample_path(sched, state, 3000)
        pts = path.r[::-1]
        rev = BlochPath(t=np.arange(len(pts), dtype=float), r=pts)
        assert abs(solid_angle(path) + solid_angle(rev)) <= 1e-6

    def test_one_point_path_encloses_nothing(self):
        assert solid_angle(BlochPath(t=[0.0], r=[[0, 0, 1]])) == 0.0

    @pytest.mark.parametrize(
        "sched",
        [
            Schedule(),
            Schedule((ControlSegment((1, 0, 0), 1.0, 0.0), ControlSegment((0, 0, 1), 2.0, 0.0))),
        ],
        ids=["empty", "zero-duration"],
    )
    @pytest.mark.parametrize(
        "chi, phi", [(0.0, 0.0), (0.7, 1.9), (math.pi / 2, -2.5), (math.pi, 0.3)]
    )
    def test_identity_loop_encloses_nothing(self, sched, chi, phi):
        # The identity evolution samples as one point: a closed loop of area
        # 0, matching its geometric phase of 0 (gamma_geo = -Omega / 2).
        state = state_from_angles(chi, phi)
        path = sample_path(sched, state, 5)
        assert len(path.r) == 1
        assert solid_angle(path) == 0.0
        assert geometric_phase(sched, state).geometric == 0.0

    def test_empty_path_rejected(self):
        with pytest.raises(OpenPathError):
            solid_angle(BlochPath(t=np.empty(0), r=np.empty((0, 3))))

    def test_open_path_rejected(self):
        path = BlochPath(t=[0.0, 1.0], r=[[0, 0, 1], [1, 0, 0]])
        with pytest.raises(OpenPathError):
            solid_angle(path)

    @pytest.mark.parametrize("chi", [0.0, 0.3, math.pi / 4, 1.0])
    def test_antipodal_samples_raise(self, chi):
        # Two samples per segment put the ends of the x half turn at
        # antipodes, which no unique geodesic joins: the area used to read
        # 1.97 at chi = pi/4 instead of pi.
        sched, state = loop_and_state(chi)
        with pytest.raises(ValueError, match="antipodal"):
            solid_angle(sample_path(sched, state, 2))

    @pytest.mark.parametrize("edge", [0, 1, 2])
    def test_antipodal_error_names_the_edge(self, edge):
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        pts[(edge + 1) % 3] = -pts[edge]
        path = BlochPath(t=[0.0, 1, 2, 3], r=np.vstack([pts, pts[:1]]))
        with pytest.raises(ValueError, match=f"edge {edge} "):
            solid_angle(path)

    @pytest.mark.parametrize("layout", ["fortran", "padded rows"])
    def test_point_layout_does_not_matter(self, layout):
        path = sample_path(*loop_and_state(0.7, 0.9, 1.4), 5000)
        pts = path.r
        if layout == "fortran":
            pts = np.asfortranarray(pts)
        else:
            pts = np.hstack([pts, np.zeros((len(pts), 1))])[:, :3]
        other = BlochPath(t=path.t, r=pts)
        assert not other.r.flags.c_contiguous
        assert solid_angle(other) == solid_angle(path)

    def test_omega_matches_recorded_values(self):
        cases = zip(pinned_path_cases(), PINNED_PATH_OMEGA, strict=True)
        for (sched, state, samples), expected in cases:
            path = closed_path(sample_path(sched, state, samples))
            if expected is None:
                with pytest.raises(ValueError, match="antipodal"):
                    solid_angle(path)
            else:
                assert abs(solid_angle(path) - expected) <= 1e-14

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_aa_relation(self, chi):
        sched, state = loop_and_state(chi)
        omega = solid_angle(sample_path(sched, state, 10_000))
        geo = geometric_phase(sched, state).geometric
        assert abs(wrap_phase(geo + omega / 2)) <= 1e-4


def point_state(r):
    """The state whose Bloch vector is the unit vector r."""
    return state_from_angles(math.acos(max(-1.0, min(1.0, r[2]))), math.atan2(r[1], r[0]))


def precession_path(axes, start, samples_per_segment):
    """Bloch path of start precessing one full turn about each axis in turn."""
    segs = tuple(ControlSegment(axis, 1.0, 2 * math.pi) for axis in axes)
    return sample_path(Schedule(segments=segs), point_state(start), samples_per_segment)


def cap_area(axis, start):
    """Area of the cap that start encloses precessing right-handedly about axis."""
    return 2 * math.pi * (1 - float(np.dot(axis, start)))


def area_gap(a, b):
    """|a - b| for areas, which are defined modulo 4*pi."""
    return abs(math.remainder(a - b, 4 * math.pi))


def random_rotation(seed):
    """A random proper rotation matrix (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def unit(*v):
    return tuple(np.array(v, dtype=float) / np.linalg.norm(v))


def complex_lift_area(points):
    """The area by the complex spinor lift: each point lifted in the pole
    chart that is regular at it, (1 + z, x + iy) for z >= 0 and
    (x - iy, 1 - z) otherwise, and one Bargmann product over the whole
    closed polygon."""
    chain = np.vstack([points[-1:], points])
    x, y, z = chain.T
    north = z >= 0
    up = np.where(north, 1.0 + z, x - 1j * y)
    down = np.where(north, x + 1j * y, 1.0 - z)
    overlaps = up[:-1].conj() * up[1:] + down[:-1].conj() * down[1:]
    return 2.0 * wrap_phase(float(np.sum(np.angle(overlaps))))


def chart_turns(points):
    """The samples where solid_angle's edge chart switches: edge k joins
    samples k and k + 1 (the last edge wraps to sample 0) and lies in the
    south chart when z_k + z_k+1 < 0."""
    south = points[:, 2] + np.roll(points[:, 2], -1) < 0
    return np.flatnonzero(south != np.roll(south, 1))


def zigzag_path(flips, n):
    """A closed path of n samples once around the z axis whose latitude
    jumps between z = 0.5 and z = -0.5 at each index in flips (an even
    number of them)."""
    z = np.where(np.searchsorted(flips, np.arange(n), side="right") % 2, -0.5, 0.5)
    phi = np.linspace(0.0, 2 * math.pi, n)
    rho = np.sqrt(1 - z * z)
    points = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    points[-1] = points[0]
    return BlochPath(t=np.arange(n, dtype=float), r=points)


def latitude_loop(z):
    """A closed path once around the z axis through the latitudes z, the
    last sample repeating the first. Longitudes start at 0.3, so that no
    sample has arg(x + iy) = 0 and every chart switch moves the sum."""
    z = np.append(z, z[0])
    phi = np.linspace(0.3, 0.3 + 2 * math.pi, len(z))
    rho = np.sqrt(1 - z * z)
    points = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    points[-1] = points[0]
    return BlochPath(t=np.arange(len(z), dtype=float), r=points)


@st.composite
def cyclic_loops(draw):
    """Random-axis segments and an eigenstate of their gate, so the path
    closes. Each segment turns by less than 1.9 pi, so 3 samples per
    segment keep consecutive samples far from antipodal."""
    segs = draw(
        st.lists(
            st.builds(
                ControlSegment, axis=unit_axes, omega=st.floats(0.1, 3),
                duration=st.floats(0.05, 1.9),
            ),
            min_size=1,
            max_size=5,
        )
    )
    sched = Schedule(segments=tuple(segs))
    _, vecs = np.linalg.eig(schedule_unitary(sched))
    return sched, QubitState(*vecs[:, draw(st.integers(0, 1))])


# An inscribed N-gon misses about cos(a) sin(a)^2 (2 pi)^3 / (12 N^2) of a
# cap of angular radius a: at most 5e-7 for N = 3999 edges.
CAP_SAMPLES = 4000
CAP_TOL = 1e-6


class TestSolidAngleInvariant:
    """The Bargmann area: exact for geodesic polygons, with no anchor point."""

    @settings(max_examples=40, deadline=None)
    @given(unit_axes, unit_axes)
    def test_random_axis_cap(self, axis, start):
        path = precession_path([axis], start, CAP_SAMPLES)
        omega = solid_angle(path)
        assert area_gap(omega, cap_area(axis, start)) <= CAP_TOL
        reverse = BlochPath(t=path.t, r=path.r[::-1])
        assert area_gap(solid_angle(reverse), -omega) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(unit_axes, unit_axes, unit_axes)
    def test_figure_eight_is_difference_of_caps(self, axis_a, axis_b, start):
        # Counterclockwise about axis_a, then clockwise about axis_b, both
        # through start: the two lobes count with opposite signs.
        path = precession_path([axis_a, tuple(-c for c in axis_b)], start, CAP_SAMPLES)
        expected = cap_area(axis_a, start) - cap_area(axis_b, start)
        assert area_gap(solid_angle(path), expected) <= 2 * CAP_TOL

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 2 * math.pi - 0.05), st.integers(3, 300))
    def test_lune_through_both_poles(self, beta, n):
        # North pole to south pole along the meridian phi = 0, back along
        # phi = beta: a geodesic polygon through a point and its antipode,
        # with area 2 beta.
        segs = (
            ControlSegment((0, 1, 0), 1.0, math.pi),
            ControlSegment((math.sin(beta), -math.cos(beta), 0), 1.0, math.pi),
        )
        path = sample_path(Schedule(segments=segs), QubitState(1, 0), n)
        assert area_gap(solid_angle(path), 2 * beta) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0, math.pi / 2),
        st.floats(0.2, 3),
        st.floats(0.2, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_rotation_invariant(self, chi, omega, omega2, seed):
        path = sample_path(*loop_and_state(chi, omega, omega2), 200)
        rotated = BlochPath(t=path.t, r=path.r @ random_rotation(seed).T)
        assert area_gap(solid_angle(rotated), solid_angle(path)) <= 1e-12

    @pytest.mark.parametrize("block", [1, 2, 7, 4096])
    def test_independent_of_block_size(self, monkeypatch, block):
        path = zigzag_path([7 * k for k in range(1, 9)] + [4096, 8192], 8200)
        turns = chart_turns(path.r)
        assert np.any((turns > 0) & (turns % block == 0))  # a switch on a block boundary
        expected = solid_angle(path)
        assert area_gap(expected, complex_lift_area(path.r)) <= 1e-12
        monkeypatch.setattr(phases, "PATH_BLOCK", block)
        assert abs(solid_angle(path) - expected) <= 1e-12

    @pytest.mark.parametrize("omegas", [(0.7, 1.3), (1.0, 1.0)])
    @pytest.mark.parametrize("samples", [3, 50, 10_000])
    @pytest.mark.parametrize(
        "chi", [0.0, 1e-6, 1e-4, math.pi / 4, math.pi / 2 - 1e-3, math.pi / 2]
    )
    def test_paper_loop_area_is_pi(self, chi, samples, omegas):
        sched, state = loop_and_state(chi, *omegas)
        assert abs(solid_angle(sample_path(sched, state, samples)) - math.pi) <= 1e-12


class TestSolidAngleCharts:
    """The per-edge pole charts against the complex lift of every point,
    where the charts switch: across the equator, at the poles, on it."""

    @settings(max_examples=60, deadline=None)
    @given(cyclic_loops(), st.integers(3, 400))
    def test_random_loops_match_complex_lift(self, loop, n):
        path = sample_path(*loop, n)
        assert area_gap(solid_angle(path), complex_lift_area(path.r)) <= 1e-12

    def test_many_equator_crossings(self):
        axis, start = unit(1, 0, 0.1), unit(0.2, 0.6, 0.8)
        path = precession_path([axis] * 10, start, CAP_SAMPLES)
        assert len(chart_turns(path.r)) >= 20
        omega = solid_angle(path)
        assert area_gap(omega, complex_lift_area(path.r)) <= 1e-12
        assert area_gap(omega, 10 * cap_area(axis, start)) <= 10 * CAP_TOL

    def test_zigzag_across_the_equator(self):
        path = zigzag_path(list(range(3, 4000, 5)), 4001)
        assert len(chart_turns(path.r)) >= 700
        assert area_gap(solid_angle(path), complex_lift_area(path.r)) <= 1e-12

    @pytest.mark.parametrize("closing", ["between north edges", "after a south edge"])
    def test_switches_on_block_ends_and_the_closing_edge(self, monkeypatch, closing):
        # An edge from z = 0.5 to z = -0.5 has s = 0 and lies in the north
        # chart. Sample 0 sits at z = -0.5 and sample 1 at 0.5, so the
        # closing edge is south and edge 0 north: a switch at sample 0 that
        # only the entering chart of the first block shows. Edge 4095 is
        # north and edge 4096 south: a switch at the first sample of a
        # 4096-edge block. With z = 0.5 at sample 8191, edges 8190 and 8191
        # are north too, and the last sample, where the closing chain
        # starts, switches to the closing edge's south chart.
        z = np.full(8192, -0.5)
        z[1:4096] = 0.5
        if closing == "between north edges":
            z[8191] = 0.5
        path = latitude_loop(z)
        turns = set(chart_turns(path.r).tolist())
        assert {0, 4096} <= turns
        assert (8192 in turns) == (closing == "between north edges")
        expected = complex_lift_area(path.r)
        for block in [1, 2, 3, 4095, 4096, 4097, 8191, 8192, 8193]:
            monkeypatch.setattr(phases, "PATH_BLOCK", block)
            assert area_gap(solid_angle(path), expected) <= 1e-12

    @pytest.mark.parametrize("tilt", [0.0, 0.5, 2.0])
    def test_loop_within_1e9_of_south_pole(self, tilt):
        # One turn about an axis tilted by tilt from -z, starting 1e-9 rad
        # from the south pole.
        axis = (math.sin(tilt), 0.0, -math.cos(tilt))
        sched = Schedule(segments=(ControlSegment(axis, 1.0, 2 * math.pi),))
        path = sample_path(sched, state_from_angles(math.pi - 1e-9, math.pi), CAP_SAMPLES)
        start = path.r[0]
        assert 0 < math.hypot(start[0], start[1]) <= 1.01e-9
        omega = solid_angle(path)
        assert area_gap(omega, complex_lift_area(path.r)) <= 1e-12
        assert area_gap(omega, cap_area(axis, start)) <= CAP_TOL

    @pytest.mark.parametrize("z1, z2", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    @pytest.mark.parametrize("beta", [0.7, 2.5, 4.0])
    def test_vertices_exactly_on_the_equator(self, z1, z2, beta):
        # North pole, the equator at phi = 0, the south pole, the equator at
        # phi = beta: a lune of area 2 beta. Its northern half, with an edge
        # along the equator when beta < pi, has area beta.
        north, south = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        a, b = [1.0, 0.0, z1], [math.cos(beta), math.sin(beta), z2]
        lune = BlochPath(t=np.arange(5.0), r=[north, a, south, b, north])
        assert area_gap(solid_angle(lune), 2 * beta) <= 1e-12
        if beta < math.pi:
            half = BlochPath(t=np.arange(4.0), r=[north, a, b, north])
            assert area_gap(solid_angle(half), beta) <= 1e-12

    def test_equator_with_signed_zeros(self):
        phi = np.linspace(0.0, 2 * math.pi, 101)
        z = np.where(np.arange(101) % 3 == 0, 0.0, -0.0)
        points = np.column_stack([np.cos(phi), np.sin(phi), z])
        points[-1] = points[0]
        path = BlochPath(t=phi, r=points)
        assert area_gap(solid_angle(path), 2 * math.pi) <= 1e-12


def _traced_peak_kb(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in kB."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestPathAllocation:
    """Path-length work runs in blocks: on the 10 000-sample paper loop the
    only path-sized allocations are the arrays sample_path returns."""

    def test_solid_angle_peak(self):
        path = sample_path(*loop_and_state(math.pi / 4), 10_000)
        _, peak = _traced_peak_kb(solid_angle, path)
        assert peak < 256

    def test_path_over_the_row_cap_allocates_nothing(self):
        # Run against a tree without the cap, this asks for 512 MiB.
        sched = Schedule(segments=(ControlSegment((1, 0, 0), 1.0, 2.5),))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidFieldError, match="^samples_per_segment gives"):
                sample_path(sched, QubitState(1, 0), phases.MAX_PATH_ROWS + 1)
            peak_kb = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
        assert peak_kb < 64

    def test_sample_path_peak(self):
        path, peak = _traced_peak_kb(sample_path, *loop_and_state(math.pi / 4), 10_000)
        returned = (path.t.nbytes + path.r.nbytes) / 1024
        assert peak <= returned + 256
