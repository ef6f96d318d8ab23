import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import (
    ControlSegment,
    QubitState,
    Schedule,
    segment_unitary,
    state_from_angles,
)
from geoloop import phases
from geoloop.gates import single_loop_schedule
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


class TestIsCyclic:
    def test_empty_schedule(self):
        assert is_cyclic(Schedule(), state_from_angles(1.0, 0.5), tol=1e-12)

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_loop_plus_state_is_cyclic(self, chi):
        sched, state = loop_and_state(chi)
        assert is_cyclic(sched, state)

    def test_up_state_not_cyclic_off_axis(self):
        sched = single_loop_schedule(math.pi / 3, 1.0, 1.0)
        assert not is_cyclic(sched, QubitState(1, 0), tol=1e-3)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            is_cyclic(Schedule(), QubitState(1, 0), tol=0.0)


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
        nan_state = SimpleNamespace(amp_up=complex(math.nan), amp_down=0j)
        monkeypatch.setattr(phases, "propagate", lambda sched, initial: nan_state)
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
        first = path.points()[0]
        assert np.allclose(first, [math.sin(chi), 0, math.cos(chi)], atol=1e-12)
        assert np.max(np.abs(path.points()[0] - path.points()[-1])) <= 1e-9

    def test_geodesic_segment_stays_in_plane(self):
        # Entering the x-rotation at azimuth pi/2 keeps the path in the y-z plane.
        state = state_from_angles(0.8, math.pi / 2, "plus")
        sched = Schedule(segments=(ControlSegment((1, 0, 0), 1.0, 2.5),))
        path = sample_path(sched, state, 40)
        assert np.max(np.abs(path.points()[:, 0])) <= 1e-12

    def test_empty_schedule_single_sample(self):
        path = sample_path(Schedule(), QubitState(1, 0), 10)
        assert len(path.samples) == 1
        assert path.samples[0][0] == 0.0

    def test_times_strictly_increasing(self):
        sched, state = loop_and_state(math.pi / 2)  # includes a zero-duration segment
        t = sample_path(sched, state, 7).times()
        assert np.all(np.diff(t) > 0)

    def test_sample_count(self):
        sched, state = loop_and_state(0.3)
        path = sample_path(sched, state, 2)
        assert len(path.samples) == 1 + len(sched)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            sample_path(Schedule(), QubitState(1, 0), 1)

    @settings(max_examples=40, deadline=None)
    @given(schedules, initial_states, st.integers(2, 40))
    def test_matches_point_by_point_propagation(self, sched, state, n):
        path = sample_path(sched, state, n)
        times, points = reference_path(sched, state, n)
        assert np.array_equal(path.times(), times)
        assert path.points().shape == points.shape
        assert np.max(np.abs(path.points() - points)) <= 1e-14

    def test_loop_matches_point_by_point_propagation(self):
        sched, state = loop_and_state(math.pi / 2, 0.7, 1.9)  # zero-duration last segment
        path = sample_path(sched, state, 500)
        times, points = reference_path(sched, state, 500)
        assert np.array_equal(path.times(), times)
        assert np.max(np.abs(path.points() - points)) <= 1e-14


class TestBlochPath:
    def test_samples_view(self):
        sched, state = loop_and_state(0.6)
        path = sample_path(sched, state, 20)
        samples = path.samples
        assert len(samples) == len(path.times()) == len(path.points())
        t, point = samples[-1]
        assert t == path.times()[-1]
        assert isinstance(point, BlochVector)
        assert np.array_equal(point.as_array(), path.points()[-1])
        assert [s[0] for s in samples] == path.times().tolist()
        assert samples[1:3] == (samples[1], samples[2])
        with pytest.raises(IndexError):
            samples[len(samples)]

    def test_arrays_are_stored_read_only(self):
        path = sample_path(*loop_and_state(0.6), 5)
        assert path.points() is path.points()
        with pytest.raises(ValueError):
            path.points()[0, 0] = 2.0
        with pytest.raises(ValueError):
            path.times()[0] = 2.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BlochPath(t=[0.0, 1.0], r=[[0, 0, 1]])
        with pytest.raises(ValueError):
            BlochPath(t=[0.0], r=[0, 0, 1])


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
        pts = path.points()[::-1]
        rev = BlochPath(t=np.arange(len(pts), dtype=float), r=pts)
        assert abs(solid_angle(path) + solid_angle(rev)) <= 1e-6

    def test_open_path_rejected(self):
        path = BlochPath(t=[0.0, 1.0], r=[[0, 0, 1], [1, 0, 0]])
        with pytest.raises(OpenPathError):
            solid_angle(path)

    @pytest.mark.parametrize("chi", CHI_GRID)
    def test_aa_relation(self, chi):
        sched, state = loop_and_state(chi)
        omega = solid_angle(sample_path(sched, state, 10_000))
        geo = geometric_phase(sched, state).geometric
        assert abs(wrap_phase(geo + omega / 2)) <= 1e-4
