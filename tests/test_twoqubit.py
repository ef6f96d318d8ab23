import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import ControlSegment, Schedule, drive_arrays, state_from_angles
from geoloop.gates import compare_gates, u_chi
from geoloop.phases import dynamical_phase
from geoloop.twoqubit import (
    ConditionalSchedule,
    CouplingStep,
    MissingAccessoryError,
    NmrParams,
    controlled_u,
    controlled_u_reference,
    effective_field_a,
    nmr_hamiltonian,
    two_qubit_schedule,
    two_qubit_unitary,
    u2_line_selective,
    u2_natural,
)
from geoloop.core import IDENTITY_2, SIGMA_Z, unitarity_defect
from geoloop.records import ChiOutOfRangeError, InvalidCouplingError, InvalidFieldError

from helpers import PAULI, series_expm, series_rotation, unit_axes

TOL = 1e-12

PARAMS = NmrParams(omega_a=5.0, omega_b=3.0, coupling_j=0.8).with_matched_accessory()


class TestNmrHamiltonian:
    def test_zero_params(self):
        h = nmr_hamiltonian(NmrParams(0.0, 0.0, 1e-9))
        assert np.max(np.abs(h)) <= 1e-8

    def test_diagonal_entries(self):
        p = NmrParams(omega_a=2.0, omega_b=0.7, coupling_j=0.3)
        h = nmr_hamiltonian(p)
        wa, wb, pj = p.omega_a, p.omega_b, math.pi * p.coupling_j
        expected = np.diag([wa + wb + pj, -wa + wb - pj, wa - wb - pj, -wa - wb + pj]) / 2
        # independent oracle: explicit Kronecker assembly in the stated basis
        sz = np.diag([1.0, -1.0])
        oracle = 0.5 * (
            p.omega_a * np.kron(np.eye(2), sz)
            + p.omega_b * np.kron(sz, np.eye(2))
            + pj * np.kron(sz, sz)
        )
        assert np.max(np.abs(h - expected)) <= TOL
        assert np.max(np.abs(h - oracle)) <= TOL

    @pytest.mark.parametrize(
        "params",
        [(1e308, 1e308, 1.0), (-1e308, 1e308, 1.0), (1e308, 0.0, 1e308), (0.0, 0.0, 1e308)],
    )
    def test_overflowing_entries_raise_without_warning(self, params):
        # omega_a + omega_b overflowed with a RuntimeWarning, and pi * J = inf
        # met the zeros of sz x sz.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                nmr_hamiltonian(NmrParams(*params))

    def test_largest_finite_entries_are_kept(self):
        wa, wb, j = 6e307, 6e307, 1e307
        h = nmr_hamiltonian(NmrParams(wa, wb, j))
        assert h[0, 0] == 0.5 * ((wa + wb) + math.pi * j)
        assert h[3, 3] == 0.5 * ((-wa - wb) + math.pi * j)

    def test_commutes_with_local_z(self):
        h = nmr_hamiltonian(NmrParams(1.1, 2.2, 0.5))
        for op in (np.kron(np.eye(2), SIGMA_Z), np.kron(SIGMA_Z, np.eye(2))):
            assert np.max(np.abs(h @ op - op @ h)) == 0.0


class TestNmrParams:
    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-float-range")],
    )
    @pytest.mark.parametrize("field", ["omega_a", "omega_b", "coupling_j", "accessory"])
    def test_rejects_non_finite(self, field, bad):
        # NmrParams(nan, 1, 0.5) gave an all-NaN Hamiltonian and NaN fields.
        values = dict(omega_a=1.0, omega_b=1.0, coupling_j=0.5, accessory=0.2)
        values[field] = bad
        with pytest.raises(InvalidFieldError, match=field) as exc:
            NmrParams(**values)
        assert exc.value.field == field

    def test_accessory_may_be_unset(self):
        assert NmrParams(1.0, 2.0, 0.5).accessory is None

    def test_fields_are_stored_as_floats(self):
        p = NmrParams(1, np.int64(2), np.float32(0.5), accessory=True)
        values = [p.omega_a, p.omega_b, p.coupling_j, p.accessory]
        assert values == [1.0, 2.0, 0.5, 1.0]
        assert {type(value) for value in values} == {float}

    def test_matched_accessory_of_non_finite_params_is_unreachable(self):
        with pytest.raises(ValueError):
            NmrParams(math.nan, 1.0, 0.5).with_matched_accessory()


class TestEffectiveFieldA:
    def test_matched_accessory_up(self):
        c = effective_field_a(PARAMS, "up")
        # H_a = (c/2) sigma_z = pi J sigma_z
        assert abs(c - 2 * math.pi * PARAMS.coupling_j) <= TOL

    def test_matched_accessory_down(self):
        assert abs(effective_field_a(PARAMS, "down")) <= TOL

    def test_unmatched_accessory(self):
        p = NmrParams(omega_a=4.0, omega_b=1.0, coupling_j=0.5, accessory=4.0)
        assert abs(effective_field_a(p, "up") - math.pi * 0.5) <= TOL

    def test_missing_accessory(self):
        with pytest.raises(MissingAccessoryError):
            effective_field_a(NmrParams(1.0, 1.0, 1.0), "up")

    def test_bad_b_state(self):
        with pytest.raises(ValueError):
            effective_field_a(PARAMS, "sideways")

    @pytest.mark.parametrize(
        "params",
        [
            # omega_a - accessory overflows, in Python floats and so with no warning
            NmrParams(1e308, 0.0, 1.0, accessory=-1e308),
            NmrParams(-1e308, 0.0, 1.0, accessory=1e308),
            # pi * J overflows
            NmrParams(1.0, 0.0, 1e308, accessory=1.0),
        ],
    )
    @pytest.mark.parametrize("b_state", ["up", "down"])
    def test_overflowing_coefficient_raises(self, params, b_state):
        with pytest.raises(ValueError, match="effective field"):
            effective_field_a(params, b_state)

    def test_largest_finite_coefficient_is_kept(self):
        p = NmrParams(1e308, 0.0, 0.0, accessory=-7e307)
        assert effective_field_a(p, "up") == 1e308 + 7e307


class TestTwoQubitSchedule:
    def test_step_durations(self):
        omega = 1.7
        sched = two_qubit_schedule(omega, PARAMS)
        durations = [
            s.duration for s in sched.steps
        ]
        assert durations == pytest.approx(
            [math.pi / (2 * omega), 1 / (2 * PARAMS.coupling_j), math.pi / (2 * omega)],
            abs=TOL,
        )

    def test_first_pulse_reaches_equator(self):
        sched = two_qubit_schedule(1.0, PARAMS)
        pulse = sched.steps[0]
        from geoloop.core import segment_unitary

        out = segment_unitary(pulse) @ np.array([1, 0], dtype=complex)
        r = 1 / math.sqrt(2)
        assert np.max(np.abs(out - np.array([r, r]))) <= TOL

    def test_full_sequence_final_state_b_up(self):
        u = two_qubit_unitary(two_qubit_schedule(1.3, PARAMS))
        up_up = np.array([1, 0, 0, 0], dtype=complex)
        out = u @ up_up
        assert np.max(np.abs(out - np.exp(-1j * math.pi / 2) * up_up)) <= TOL

    def test_rejects_bad_coupling(self):
        with pytest.raises(InvalidCouplingError):
            two_qubit_schedule(1.0, NmrParams(1.0, 1.0, 0.0))

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            two_qubit_schedule(-1.0, PARAMS)

    def test_names_j_whose_interval_overflows(self):
        # 1/(2 J) overflows for a subnormal J; the caller passed no duration.
        with pytest.raises(InvalidCouplingError, match="coupling interval") as exc:
            two_qubit_schedule(1.0, NmrParams(1.0, 1.0, 1e-310))
        assert exc.value.field == "coupling_j"

    @pytest.mark.parametrize("j", [1e308, 5e307])
    def test_names_j_whose_rate_overflows(self, j):
        # 2 pi J, the coupling step's rotation rate, overflows.
        with pytest.raises(InvalidCouplingError, match="coupling rate") as exc:
            two_qubit_schedule(1.0, NmrParams(1.0, 1.0, j))
        assert exc.value.field == "coupling_j"

    def test_keeps_its_pulses_at_huge_rates(self):
        # 2 * 1e308 overflows: pi / (2 * omega) would give y pulses of duration 0.
        sched = two_qubit_schedule(1e308, NmrParams(5.0, 3.0, 0.8).with_matched_accessory())
        assert all(step.duration > 0 for step in sched.steps)
        assert compare_gates(two_qubit_unitary(sched), u2_natural()).max_entry_deviation <= TOL

    def test_names_omega_whose_pulse_overflows(self):
        with pytest.raises(InvalidFieldError, match="^omega = 1e-310 is too small") as exc:
            two_qubit_schedule(1e-310, PARAMS)
        assert exc.value.field == "omega"

    def test_names_omega_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="^omega is an integer beyond") as exc:
            two_qubit_schedule(10**400, NmrParams(1, 1, 0.5))
        assert exc.value.field == "omega"

    @pytest.mark.parametrize("j", [0.0, -0.0, -0.5])
    def test_coupling_rule_is_coupling_steps(self, j):
        # The builder divides by J; it must reject J as CouplingStep does.
        with pytest.raises(InvalidCouplingError) as built:
            two_qubit_schedule(1.0, NmrParams(1.0, 1.0, j))
        with pytest.raises(InvalidCouplingError) as direct:
            CouplingStep(duration=1.0, coupling_j=j)
        assert str(built.value) == str(direct.value)

    def test_builds_one_coupling_step(self, monkeypatch):
        built = []
        init = CouplingStep.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CouplingStep, "__init__", counted)
        sched = two_qubit_schedule(1.0, PARAMS)
        assert built == [sched.steps[1]]


class TestTwoQubitUnitary:
    def test_natural_mode_matches_reference(self):
        u = two_qubit_unitary(two_qubit_schedule(0.9, PARAMS, "natural"))
        assert compare_gates(u, u2_natural()).max_entry_deviation <= TOL

    def test_natural_mode_truth_table(self):
        u = two_qubit_unitary(two_qubit_schedule(2.0, PARAMS, "natural"))
        basis = np.eye(4, dtype=complex)
        up_a_up_b, down_a_up_b, up_a_down_b, down_a_down_b = basis
        assert np.max(np.abs(u @ up_a_up_b - np.exp(-1j * math.pi / 2) * up_a_up_b)) <= TOL
        assert np.max(np.abs(u @ down_a_up_b - np.exp(1j * math.pi / 2) * down_a_up_b)) <= TOL
        assert np.max(np.abs(u @ up_a_down_b - down_a_down_b)) <= TOL
        assert np.max(np.abs(u @ down_a_down_b + up_a_down_b)) <= TOL

    def test_line_selective_matches_reference(self):
        u = two_qubit_unitary(two_qubit_schedule(0.9, PARAMS, "line_selective"))
        assert compare_gates(u, u2_line_selective()).max_entry_deviation <= TOL
        assert np.max(np.abs(u[2:, 2:] - np.eye(2))) <= TOL

    def test_unitarity_both_modes(self):
        for mode in ("natural", "line_selective"):
            u = two_qubit_unitary(two_qubit_schedule(1.1, PARAMS, mode))
            assert unitarity_defect(u) <= TOL

    def test_never_flips_b(self):
        sz_b = np.kron(SIGMA_Z, IDENTITY_2)
        for mode in ("natural", "line_selective"):
            u = two_qubit_unitary(two_qubit_schedule(1.4, PARAMS, mode))
            assert np.max(np.abs(u @ sz_b - sz_b @ u)) <= TOL
        assert np.max(np.abs(controlled_u(0.7, 1, 1) @ sz_b - sz_b @ controlled_u(0.7, 1, 1))) <= TOL

    def test_conditional_reduction(self):
        omega = 1.8
        j = PARAMS.coupling_j
        u = two_qubit_unitary(two_qubit_schedule(omega, PARAMS, "natural"))
        from geoloop.core import schedule_unitary

        y = ControlSegment((0, 1, 0), omega, math.pi / (2 * omega))
        # b up: coupling interval evolves under pi*J*sigma_z = (2piJ/2) sigma_z
        up_chain = Schedule(
            segments=(y, ControlSegment((0, 0, 1), 2 * math.pi * j, 1 / (2 * j)), y)
        )
        down_chain = Schedule(segments=(y, y))
        assert np.max(np.abs(u[:2, :2] - schedule_unitary(up_chain))) <= TOL
        assert np.max(np.abs(u[2:, 2:] - schedule_unitary(down_chain))) <= TOL

    def test_up_block_phase_is_geometric(self):
        omega = 1.8
        j = PARAMS.coupling_j
        y = ControlSegment((0, 1, 0), omega, math.pi / (2 * omega))
        up_chain = Schedule(
            segments=(y, ControlSegment((0, 0, 1), 2 * math.pi * j, 1 / (2 * j)), y)
        )
        assert abs(dynamical_phase(up_chain, state_from_angles(0, 0))) <= TOL

    def test_natural_gate_is_entangling(self):
        # operator-Schmidt rank > 1 means no tensor-product factorization
        u = u2_natural().reshape(2, 2, 2, 2)  # (b_out, a_out, b_in, a_in)
        m = u.transpose(1, 3, 0, 2).reshape(4, 4)  # rows (a_out,a_in), cols (b_out,b_in)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.sum(sv > 1e-9) > 1


B_UP = np.diag([1.0, 0.0])  # projectors on qubit b, the slow index
B_DOWN = np.diag([0.0, 1.0])
I2 = np.eye(2)

conditional_schedules = st.builds(
    ConditionalSchedule,
    steps=st.lists(
        st.one_of(
            st.builds(
                ControlSegment,
                axis=unit_axes,
                omega=st.floats(0, 3),
                duration=st.one_of(st.just(0.0), st.floats(0, 2)),
            ),
            st.builds(
                CouplingStep,
                duration=st.one_of(st.just(0.0), st.floats(0, 2)),
                coupling_j=st.floats(0.05, 2),
            ),
        ),
        max_size=6,
    ),
    mode=st.sampled_from(["natural", "line_selective"]),
)


def kron_reference(sched) -> np.ndarray:
    """Product of explicit 4x4 step propagators, each assembled with kron."""
    u = np.eye(4, dtype=complex)
    for step in sched.steps:
        if isinstance(step, CouplingStep):
            rz = series_expm(-1j * math.pi * step.coupling_j * step.duration * PAULI[2])
            step_u = np.kron(B_UP, rz) + np.kron(B_DOWN, I2)
        else:
            ua = series_rotation(step.axis, step.omega * step.duration)
            if sched.mode == "natural":
                step_u = np.kron(I2, ua)
            else:
                step_u = np.kron(B_UP, ua) + np.kron(B_DOWN, I2)
        u = step_u @ u
    return u


class TestTwoQubitUnitaryOracle:
    @settings(max_examples=60, deadline=None)
    @given(conditional_schedules)
    def test_matches_kron_built_product(self, sched):
        assert np.max(np.abs(two_qubit_unitary(sched) - kron_reference(sched))) <= TOL

    @pytest.mark.parametrize("mode", ["natural", "line_selective"])
    def test_paper_sequence_matches_kron_built_product(self, mode):
        sched = two_qubit_schedule(1.3, PARAMS, mode)
        assert np.max(np.abs(two_qubit_unitary(sched) - kron_reference(sched))) <= TOL


class TestControlledU:
    def test_chi_zero(self):
        u = controlled_u(0.0, 1.0, 1.0)
        assert np.max(np.abs(u - np.diag([-1j, 1j, 1, 1]))) <= TOL

    def test_chi_half_pi(self):
        u = controlled_u(math.pi / 2, 1.0, 1.0)
        sx = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(u[:2, :2] + 1j * sx)) <= TOL
        assert np.max(np.abs(u[2:, 2:] - np.eye(2))) <= TOL

    def test_generic_chi_matches_assembled_reference(self):
        for chi in np.linspace(0, math.pi / 2, 11):
            u = controlled_u(chi, 1.3, 0.7)
            ref = controlled_u_reference(chi)
            assert compare_gates(u, ref).max_entry_deviation <= TOL

    def test_reference_block_is_u_chi(self):
        ref = controlled_u_reference(0.4)
        assert np.max(np.abs(ref[:2, :2] - u_chi(0.4))) <= TOL

    def test_rejects_out_of_range_chi(self):
        with pytest.raises(ChiOutOfRangeError):
            controlled_u(2.0, 1.0, 1.0)


def test_coupling_step_validation():
    with pytest.raises(InvalidCouplingError):
        CouplingStep(duration=1.0, coupling_j=0.0)
    with pytest.raises(ValueError):
        CouplingStep(duration=-1.0, coupling_j=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coupling_step_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        CouplingStep(duration=bad, coupling_j=1.0)
    with pytest.raises(ValueError):
        CouplingStep(duration=1.0, coupling_j=bad)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: CouplingStep(duration=1.0, coupling_j=0.0), "coupling_j"),
        (lambda: CouplingStep(duration=-1.0, coupling_j=1.0), "duration"),
        # finite values whose angle 2 pi J * duration overflows
        (lambda: CouplingStep(duration=1e200, coupling_j=1e200), "duration"),
        # 2 pi J itself overflows: the field is J's, whatever the duration
        (lambda: CouplingStep(duration=0.0, coupling_j=1e308), "coupling_j"),
        (lambda: ConditionalSchedule(steps=(), mode="sideways"), "mode"),
        # integers beyond the float range, which float() overflows on
        pytest.param(lambda: CouplingStep(duration=10**400, coupling_j=1.0), "duration",
                     id="duration-int-beyond-float-range"),
        pytest.param(lambda: CouplingStep(duration=1.0, coupling_j=10**400), "coupling_j",
                     id="coupling_j-int-beyond-float-range"),
    ],
)
def test_constructors_name_the_failing_field(build, field):
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.value.field == field


def test_coupling_step_is_a_z_rotation_at_two_pi_j():
    axes, theta = drive_arrays([CouplingStep(duration=0.3, coupling_j=0.7)])
    assert axes.tolist() == [[0.0, 0.0, 1.0]]
    assert theta.tolist() == [2.0 * math.pi * 0.7 * 0.3]


def test_conditional_schedule_mode_validation():
    with pytest.raises(ValueError):
        ConditionalSchedule(steps=(), mode="sideways")


def entry_bits(rows) -> list:
    """float.hex of the real and imaginary part of every entry, row by row."""
    return [(z.real.hex(), z.imag.hex()) for row in rows for z in row]


# The reference gates written out. -1j is complex(-0.0, -1.0): its real part is -0.0.
U2_NATURAL = [
    [-1j, 0j, 0j, 0j],
    [0j, 1j, 0j, 0j],
    [0j, 0j, 0j, -1 + 0j],
    [0j, 0j, 1 + 0j, 0j],
]
U2_LINE_SELECTIVE = [
    [-1j, 0j, 0j, 0j],
    [0j, 1j, 0j, 0j],
    [0j, 0j, 1 + 0j, 0j],
    [0j, 0j, 0j, 1 + 0j],
]


def controlled_entries(chi: float) -> list:
    """u_chi(chi)'s entries on b = up and the identity's on b = down."""
    (a, b), (c, d) = u_chi(chi).tolist()
    return [[a, b, 0j, 0j], [c, d, 0j, 0j], [0j, 0j, 1 + 0j, 0j], [0j, 0j, 0j, 1 + 0j]]


REFERENCE_GATES = {
    "u2_natural": (u2_natural, U2_NATURAL),
    "u2_line_selective": (u2_line_selective, U2_LINE_SELECTIVE),
    **{
        f"controlled_u_reference({chi:.4g})": (
            lambda chi=chi: controlled_u_reference(chi), controlled_entries(chi)
        )
        for chi in (0.0, 0.3, math.pi / 4, math.pi / 2)
    },
}


@pytest.mark.parametrize("name", REFERENCE_GATES)
def test_reference_gate_bits(name):
    gate, expected = REFERENCE_GATES[name]
    u = gate()
    assert (u.dtype, u.shape) == (np.complex128, (4, 4))
    assert entry_bits(u.tolist()) == entry_bits(expected)


@pytest.mark.parametrize("name", REFERENCE_GATES)
def test_reference_gate_is_a_fresh_writable_array(name):
    gate, expected = REFERENCE_GATES[name]
    first, second = gate(), gate()
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[...] = 7.0
    assert entry_bits(gate().tolist()) == entry_bits(expected)
