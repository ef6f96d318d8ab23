import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import (
    ControlSegment,
    NonNormalizedStateError,
    QubitState,
    Schedule,
    bloch_vector,
    propagate,
    schedule_unitary,
    segment_unitary,
    state_from_angles,
    su2,
    unitarity_defect,
)
from geoloop.records import NonUnitAxisError

from helpers import random_unit_axis, series_expm, series_rotation, unit_axes

TOL = 1e-12

angles = st.one_of(st.just(0.0), st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False))


class TestSu2Kernel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(unit_axes, angles), min_size=1, max_size=6))
    def test_stack_matches_series_exponential(self, pairs):
        axes = np.array([axis for axis, _ in pairs])
        theta = np.array([t for _, t in pairs])
        stack = su2(axes, theta)
        assert stack.shape == (len(pairs), 2, 2)
        for u, (axis, t) in zip(stack, pairs):
            assert np.max(np.abs(u - series_rotation(axis, t))) <= TOL

    @settings(max_examples=30, deadline=None)
    @given(unit_axes, st.lists(angles, min_size=1, max_size=5))
    def test_one_axis_broadcasts_over_angles(self, axis, theta):
        stack = su2(axis, theta)
        assert stack.shape == (len(theta), 2, 2)
        for u, t in zip(stack, theta):
            assert np.array_equal(u, su2(axis, t))
            assert np.max(np.abs(u - series_rotation(axis, t))) <= TOL

    def test_axes_broadcast_over_trials(self):
        rng = np.random.default_rng(8)
        axes = np.array([random_unit_axis(rng) for _ in range(3)])
        theta = rng.uniform(-5, 5, size=(4, 3))
        stack = su2(axes, theta)
        assert stack.shape == (4, 3, 2, 2)
        for i in range(4):
            for k in range(3):
                assert np.max(np.abs(stack[i, k] - series_rotation(axes[k], theta[i, k]))) <= TOL

    def test_zero_angle_is_exact_identity(self):
        assert np.array_equal(su2((0.6, 0.0, 0.8), [0.0]), np.eye(2)[None])

    def test_empty_stack(self):
        assert su2(np.empty((0, 3)), np.empty(0)).shape == (0, 2, 2)


class TestStateFromAngles:
    def test_north_pole(self):
        s = state_from_angles(0.0, 0.0, "plus")
        assert abs(s.amp_up - 1) <= TOL and abs(s.amp_down) <= TOL

    def test_equator(self):
        s = state_from_angles(math.pi / 2, 0.0, "plus")
        r = 1 / math.sqrt(2)
        assert abs(s.amp_up - r) <= TOL and abs(s.amp_down - r) <= TOL

    def test_plus_formula(self):
        chi, phi = 0.7, -1.2
        s = state_from_angles(chi, phi, "plus")
        assert abs(s.amp_up - np.exp(-0.5j * phi) * math.cos(chi / 2)) <= TOL
        assert abs(s.amp_down - np.exp(0.5j * phi) * math.sin(chi / 2)) <= TOL

    def test_minus_formula(self):
        chi, phi = 1.1, 2.4
        s = state_from_angles(chi, phi, "minus")
        assert abs(s.amp_up + np.exp(-0.5j * phi) * math.sin(chi / 2)) <= TOL
        assert abs(s.amp_down - np.exp(0.5j * phi) * math.cos(chi / 2)) <= TOL

    @given(
        chi=st.floats(-10, 10, allow_nan=False),
        phi=st.floats(-10, 10, allow_nan=False),
    )
    def test_branches_orthogonal(self, chi, phi):
        plus = state_from_angles(chi, phi, "plus")
        minus = state_from_angles(chi, phi, "minus")
        assert abs(plus.inner(minus)) <= TOL

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_minus_pi_and_pi_are_one_angle(self, branch):
        # Angles fold to (-pi, pi], so -pi and pi give the same amplitudes.
        for chi, phi in [(-math.pi, 0.3), (0.3, -math.pi), (-math.pi, -math.pi)]:
            folded = state_from_angles(abs(chi), abs(phi), branch)
            assert state_from_angles(chi, phi, branch) == folded

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            state_from_angles(math.nan, 0.0)

    @pytest.mark.parametrize("field", ["chi", "phi"])
    def test_names_an_angle_beyond_the_float_range(self, field):
        angles = {"chi": 0.0, "phi": 0.0, field: 10**400}
        with pytest.raises(ValueError, match=f"^{field} is an integer beyond") as exc:
            state_from_angles(**angles)
        assert exc.value.field == field

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            state_from_angles(0.0, 0.0, "sideways")


class TestBlochVector:
    @pytest.mark.parametrize(
        "state, expected",
        [
            (QubitState(1, 0), (0, 0, 1)),
            (QubitState(1 / math.sqrt(2), 1 / math.sqrt(2)), (1, 0, 0)),
            (QubitState(1 / math.sqrt(2), 1j / math.sqrt(2)), (0, 1, 0)),
        ],
    )
    def test_cardinal_points(self, state, expected):
        v = bloch_vector(state)
        assert np.allclose([v.x, v.y, v.z], expected, atol=TOL)

    def test_global_phase_invariance(self):
        s = state_from_angles(0.9, 0.3, "plus")
        g = np.exp(0.77j)
        rotated = QubitState(g * s.amp_up, g * s.amp_down)
        assert np.allclose(
            bloch_vector(s).as_array(), bloch_vector(rotated).as_array(), atol=TOL
        )

    def test_unit_norm(self):
        v = bloch_vector(state_from_angles(2.2, -0.4, "minus"))
        assert abs(np.linalg.norm(v.as_array()) - 1) <= TOL

    def test_rejects_non_normalized(self):
        with pytest.raises(NonNormalizedStateError):
            QubitState(1.0, 0.5)

    @pytest.mark.parametrize("amp", [math.nan, math.inf])
    def test_rejects_non_finite_amplitude(self, amp):
        with pytest.raises(NonNormalizedStateError):
            QubitState(amp, 0)

    @pytest.mark.parametrize("amps", [(1e200, 1e200), (1e200, 0), (0, -1e200j),
                                      (complex(1e200, 1e200), 0)])
    def test_rejects_overflowing_amplitude(self, amps):
        # abs(amp) ** 2 of a Python number raised OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonNormalizedStateError, match="= inf, expected 1"):
                QubitState(*amps)
            with pytest.raises(NonNormalizedStateError, match="= inf, expected 1"):
                propagate(Schedule(), QubitState(*amps))


    @pytest.mark.parametrize("amps", [(np.complex128(1e200), 0), (0, np.float64(-1e200)),
                                      (10**400, 0)])
    def test_rejects_overflowing_numpy_or_integer_amplitude(self, amps):
        # A numpy scalar's square overflowed with a RuntimeWarning, and an
        # integer beyond the float range raised OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonNormalizedStateError, match="= inf, expected 1"):
                QubitState(*amps)

    def test_numpy_amplitudes_are_stored_as_python_complex(self):
        state = QubitState(np.complex128(0.6), np.float64(0.8))
        assert state == QubitState(0.6, 0.8)
        assert type(state.amp_up) is complex and type(state.amp_down) is complex

    def test_rejects_text_amplitude(self):
        with pytest.raises(TypeError, match="not text"):
            QubitState("1", 0)


class TestSegmentUnitary:
    def test_z_quarter_turn(self):
        omega = 1.7
        seg = ControlSegment(axis=(0, 0, 1), omega=omega, duration=math.pi / (2 * omega))
        expected = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        assert np.max(np.abs(segment_unitary(seg) - expected)) <= TOL

    def test_zero_duration_is_identity(self):
        seg = ControlSegment(axis=random_unit_axis(np.random.default_rng(3)), omega=2.0, duration=0.0)
        assert np.max(np.abs(segment_unitary(seg) - np.eye(2))) <= TOL

    def test_x_half_turn(self):
        omega2 = 0.45
        seg = ControlSegment(axis=(1, 0, 0), omega=omega2, duration=math.pi / omega2)
        expected = -1j * np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(segment_unitary(seg) - expected)) <= TOL

    def test_matches_series_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            omega = rng.uniform(0.1, 5.0)
            theta = rng.uniform(0.0, 4 * math.pi)
            seg = ControlSegment(
                axis=random_unit_axis(rng), omega=omega, duration=theta / omega
            )
            oracle = series_expm(-1j * seg.hamiltonian() * seg.duration)
            assert np.max(np.abs(segment_unitary(seg) - oracle)) <= TOL

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            axis = random_unit_axis(rng)
            omega = rng.uniform(0.1, 4.0)
            t1, t2 = rng.uniform(0, 3, size=2)
            whole = segment_unitary(ControlSegment(axis, omega, t1 + t2))
            split = segment_unitary(ControlSegment(axis, omega, t2)) @ segment_unitary(
                ControlSegment(axis, omega, t1)
            )
            assert np.max(np.abs(whole - split)) <= TOL

    def test_rejects_non_unit_axis(self):
        with pytest.raises(NonUnitAxisError):
            ControlSegment(axis=(1, 1, 0), omega=1.0, duration=1.0)

    @pytest.mark.parametrize("axis", [math.nan, True, 1.0, None, (None, 0.0, 1.0)])
    def test_names_an_axis_that_is_not_a_sequence_of_numbers(self, axis):
        # These raised TypeError from tuple() or float().
        with pytest.raises(NonUnitAxisError, match="^axis must be a sequence of 3 numbers"):
            ControlSegment(axis=axis, omega=1.0, duration=1.0)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            ControlSegment(axis=(0, 0, 1), omega=-1.0, duration=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "duration"])
    def test_rejects_non_finite_drive(self, field, bad):
        kwargs = {"axis": (0, 0, 1), "omega": 1.0, "duration": 1.0, field: bad}
        with pytest.raises(ValueError):
            ControlSegment(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"axis": (1, 1, 0)}, "axis"),
            ({"omega": -1.0}, "omega"),
            ({"duration": math.nan}, "duration"),
            # each value is finite, the rotation angle omega * duration is not
            ({"omega": 1e200, "duration": 1e200}, "duration"),
            # integers beyond the float range, which float() overflows on
            pytest.param({"omega": 10**400}, "omega", id="omega-int-beyond-float-range"),
            pytest.param({"duration": 10**400}, "duration",
                         id="duration-int-beyond-float-range"),
            pytest.param({"axis": (0, 0, 10**400)}, "axis", id="axis-int-beyond-float-range"),
        ],
    )
    def test_names_the_failing_field(self, kwargs, field):
        with pytest.raises(ValueError) as exc:
            ControlSegment(**{"axis": (0, 0, 1), "omega": 1.0, "duration": 1.0, **kwargs})
        assert exc.value.field == field

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_axis(self, bad):
        with pytest.raises(ValueError):
            ControlSegment(axis=(bad, 0, 0), omega=1.0, duration=1.0)


def random_schedule(rng, max_segments=16) -> Schedule:
    n = rng.integers(0, max_segments + 1)
    return Schedule(
        segments=tuple(
            ControlSegment(
                axis=random_unit_axis(rng),
                omega=rng.uniform(0, 4),
                duration=rng.uniform(0, 3),
            )
            for _ in range(n)
        )
    )


class TestScheduleUnitary:
    def test_empty_is_identity(self):
        assert np.max(np.abs(schedule_unitary(Schedule()) - np.eye(2))) <= TOL

    def test_single_segment(self):
        seg = ControlSegment(axis=(0, 1, 0), omega=1.3, duration=0.8)
        sched = Schedule(segments=(seg,))
        assert np.max(np.abs(schedule_unitary(sched) - segment_unitary(seg))) <= TOL

    def test_ordering_first_segment_applied_first(self):
        a = ControlSegment(axis=(1, 0, 0), omega=1.0, duration=1.0)
        b = ControlSegment(axis=(0, 0, 1), omega=1.0, duration=1.0)
        sched = Schedule(segments=(a, b))
        expected = segment_unitary(b) @ segment_unitary(a)
        assert np.max(np.abs(schedule_unitary(sched) - expected)) <= TOL

    def test_unitarity_random_schedules(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            assert unitarity_defect(schedule_unitary(random_schedule(rng))) <= TOL


class TestPropagate:
    def test_empty_schedule_preserves_state(self):
        s = state_from_angles(0.4, 1.0, "plus")
        out = propagate(Schedule(), s)
        assert abs(out.amp_up - s.amp_up) <= TOL and abs(out.amp_down - s.amp_down) <= TOL

    def test_z_quarter_turn_phase_on_up(self):
        omega = 2.0
        sched = Schedule(
            segments=(ControlSegment((0, 0, 1), omega, math.pi / (2 * omega)),)
        )
        out = propagate(sched, QubitState(1, 0))
        oracle = series_expm(-1j * sched.segments[0].hamiltonian() * sched.segments[0].duration)
        assert abs(out.amp_up - oracle[0, 0]) <= TOL
        assert abs(out.amp_up - np.exp(-1j * math.pi / 4)) <= TOL
        assert abs(out.amp_down) <= TOL

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            sched = random_schedule(rng)
            chi, phi = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
            out = propagate(sched, state_from_angles(chi, phi, "plus"))
            norm = abs(out.amp_up) ** 2 + abs(out.amp_down) ** 2
            assert abs(norm - 1) <= TOL
