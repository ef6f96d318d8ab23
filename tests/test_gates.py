import math
import warnings

import numpy as np
import pytest

from geoloop.core import schedule_unitary, state_from_angles, unitarity_defect
from geoloop.gates import (
    DimensionMismatchError,
    commutator_norm,
    compare_gates,
    single_loop_schedule,
    u_chi,
    u_gate,
)
from geoloop.records import ChiOutOfRangeError, InvalidFieldError

TOL = 1e-12
NON_FINITE = [math.nan, math.inf, -math.inf]
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
CHI_GRID = np.linspace(0, math.pi / 2, 101)


class TestUGate:
    def test_zero_gamma_is_identity(self):
        assert np.max(np.abs(u_gate(0.0, 1.1, -0.7) - np.eye(2))) <= TOL

    def test_matches_closed_form_at_minus_half_pi(self):
        for chi in CHI_GRID[::10]:
            assert np.max(np.abs(u_gate(-math.pi / 2, chi, 0.0) - u_chi(chi))) <= TOL

    def test_cyclic_states_are_eigenvectors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            gamma = rng.uniform(-math.pi, math.pi)
            chi = rng.uniform(0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            u = u_gate(gamma, chi, phi)
            plus = state_from_angles(chi, phi, "plus").as_vector()
            minus = state_from_angles(chi, phi, "minus").as_vector()
            assert np.max(np.abs(u @ plus - np.exp(1j * gamma) * plus)) <= TOL
            assert np.max(np.abs(u @ minus - np.exp(-1j * gamma) * minus)) <= TOL

    def test_unitary(self):
        assert unitarity_defect(u_gate(0.3, 0.8, 2.0)) <= TOL

    @pytest.mark.parametrize("field", ["gamma", "chi", "phi"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_angles(self, field, bad):
        # NaN gave NaN entries; an infinite chi raised math's bare "math
        # domain error", and an infinite gamma or phi warned inside np.exp.
        angles = {"gamma": 0.3, "chi": 0.2, "phi": 0.1, field: bad}
        with pytest.raises(InvalidFieldError, match=f"^{field} must be finite, got") as exc:
            u_gate(**angles)
        assert exc.value.field == field


class TestSingleLoopSchedule:
    def test_segment_layout(self):
        omega, omega2 = 1.4, 0.6
        chi = 0.5
        sched = single_loop_schedule(chi, omega, omega2)
        axes = [seg.axis for seg in sched]
        assert axes == [(0, 0, 1), (1, 0, 0), (0, 0, 1), (0, -1, 0)]
        durations = [seg.duration for seg in sched]
        assert durations == pytest.approx(
            [
                math.pi / (2 * omega),
                math.pi / omega2,
                math.pi / (2 * omega),
                (math.pi - 2 * chi) / omega2,
            ],
            abs=TOL,
        )

    def test_chi_at_half_pi_zero_final_duration(self):
        sched = single_loop_schedule(math.pi / 2, 1.0, 1.0)
        assert sched.segments[3].duration == 0.0

    def test_chi_zero_gives_minus_i_sigma_z(self):
        u = schedule_unitary(single_loop_schedule(0.0, 1.0, 2.0))
        assert np.max(np.abs(u + 1j * SIGMA_Z)) <= TOL

    def test_chi_half_pi_gives_minus_i_sigma_x(self):
        u = schedule_unitary(single_loop_schedule(math.pi / 2, 2.0, 0.5))
        assert np.max(np.abs(u + 1j * SIGMA_X)) <= TOL

    @pytest.mark.parametrize("chi", [-0.1, math.pi / 2 + 0.01, 2.0])
    def test_rejects_out_of_range_chi(self, chi):
        with pytest.raises(ChiOutOfRangeError):
            single_loop_schedule(chi, 1.0, 1.0)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            single_loop_schedule(0.4, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", [0, 1])
    def test_rejects_non_finite_frequencies(self, which, bad):
        # NaN fails every comparison, so "omega <= 0" alone lets it through
        # to the segment constructor.
        freqs = [1.0, 1.0]
        freqs[which] = bad
        with pytest.raises(ValueError, match="omega and omega2 must be finite and > 0"):
            single_loop_schedule(0.4, *freqs)

    @pytest.mark.parametrize("field", ["omega", "omega2"])
    def test_names_a_frequency_whose_duration_overflows(self, field):
        # pi / (2 * 1e-310) overflows; the caller passed no duration.
        args = {"chi": 0.3, "omega": 1.0, "omega2": 1.0, field: 1e-310}
        with pytest.raises(InvalidFieldError, match=f"^{field} = 1e-310 is too small") as exc:
            single_loop_schedule(**args)
        assert exc.value.field == field

    @pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["401-digit", "5001-digit"])
    @pytest.mark.parametrize("field", ["chi", "omega", "omega2"])
    def test_names_a_number_beyond_the_float_range(self, field, huge):
        # Such an integer must not overflow in pi / omega, nor reach an error
        # message, where 5000 digits pass Python's int-string limit.
        args = {"chi": 0.3, "omega": 1.0, "omega2": 1.0, field: huge}
        with pytest.raises(ValueError, match=f"^{field} is an integer beyond") as exc:
            single_loop_schedule(**args)
        assert exc.value.field == field

    def test_matches_closed_form_on_grid(self):
        rng = np.random.default_rng(13)
        for chi in CHI_GRID:
            for _ in range(3):
                omega, omega2 = rng.uniform(0.1, 5, size=2)
                u = schedule_unitary(single_loop_schedule(chi, omega, omega2))
                assert np.max(np.abs(u - u_chi(chi))) <= TOL


class TestUChi:
    def test_chi_zero(self):
        assert np.max(np.abs(u_chi(0.0) + 1j * SIGMA_Z)) <= TOL

    def test_chi_quarter_pi_entries(self):
        u = u_chi(math.pi / 4)
        r = 1 / math.sqrt(2)
        expected = np.array([[-1j * r, -1j * r], [-1j * r, 1j * r]])
        assert np.max(np.abs(u - expected)) <= TOL

    def test_accepts_chi_outside_schedule_range(self):
        u = u_chi(2.5)  # closed form has no range restriction
        assert unitarity_defect(u) <= TOL

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_chi(self, bad):
        # NaN gave a matrix of NaNs, and +-inf math's bare "math domain error".
        with pytest.raises(InvalidFieldError, match="^chi must be finite, got") as exc:
            u_chi(bad)
        assert exc.value.field == "chi"


class TestCompareGates:
    def test_identical(self):
        u = u_chi(0.3)
        r = compare_gates(u, u)
        assert r.max_entry_deviation == 0.0
        assert abs(r.trace_fidelity - 1.0) <= TOL

    def test_global_phase_sensitivity(self):
        r = compare_gates(np.eye(2), -np.eye(2))
        assert abs(r.max_entry_deviation - 2.0) <= TOL
        assert abs(r.trace_fidelity - 1.0) <= TOL

    def test_schedule_against_closed_form(self):
        u = schedule_unitary(single_loop_schedule(math.pi / 3, 1.0, 1.0))
        r = compare_gates(u, u_chi(math.pi / 3))
        assert r.max_entry_deviation <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare_gates(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("shape", [(), (2,), (2, 3), (1, 2, 2), (0, 0)])
    def test_non_square_matrices(self, shape):
        # Each shape used to fail inside numpy: IndexError, diag, broadcasting,
        # matmul core dimensions, and a zero-size maximum.
        u = np.ones(shape, dtype=complex)
        with pytest.raises(DimensionMismatchError, match=r"need square matrices"):
            compare_gates(u, u)

    @pytest.mark.parametrize(
        "bad", NON_FINITE + [complex(math.nan, 0.0), complex(0.0, -math.inf)]
    )
    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_non_finite_matrices(self, bad, dim):
        # NaN entries gave a GateReport of three NaNs.
        for side in (0, 1):
            pair = [np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)]
            pair[side][dim - 1, 0] = bad
            with pytest.raises(ValueError, match="^gate matrices must be finite"):
                compare_gates(*pair)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_inf_at_one_place_in_both_raises_without_warning(self, dim):
        # inf - inf warned before the ValueError, and an error filter made
        # the warning the error.
        u, v = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
        u[dim - 1, 0] = v[dim - 1, 0] = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^gate matrices must be finite"):
                compare_gates(u, v)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("scale", [1e200, 1e200j])
    def test_overflowing_products_raise_without_warning(self, dim, scale):
        # Finite entries of 1e200 overflow in the products: matmul warned.
        u = np.full((dim, dim), 1e200, dtype=complex)
        v = np.full((dim, dim), scale, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="products that do not overflow"):
                compare_gates(u, v)

    def test_report_bits_unchanged(self):
        # Reference arithmetic through the numpy functions the report was
        # first written with; the report must agree bit for bit.
        rng = np.random.default_rng(11)
        for dim in (2, 4) * 50:
            u, v = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
            eye = np.eye(dim)
            r = compare_gates(u, v)
            assert r.max_entry_deviation == float(np.max(np.abs(u - v)))
            assert r.trace_fidelity == float(abs(np.trace(u.conj().T @ v)) / dim)
            assert r.unitarity_defect == max(
                float(np.max(np.abs(w.conj().T @ w - eye))) for w in (u, v)
            )


class TestCommutatorNorm:
    def test_quarter_third_pair(self):
        got = commutator_norm(u_chi(math.pi / 4), u_chi(math.pi / 3))
        assert abs(got - 2 * math.sqrt(2) * math.sin(math.pi / 12)) <= TOL

    def test_special_loop_pair(self):
        got = commutator_norm(u_chi(0.0), u_chi(math.pi / 2))
        assert abs(got - 2 * math.sqrt(2)) <= TOL

    def test_self_commutes(self):
        assert commutator_norm(u_chi(0.9), u_chi(0.9)) == 0.0

    def test_closed_form_random_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            got = commutator_norm(u_chi(a), u_chi(b))
            assert abs(got - 2 * math.sqrt(2) * abs(math.sin(a - b))) <= TOL
