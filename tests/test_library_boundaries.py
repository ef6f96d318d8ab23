"""Input boundaries of the library's public callables.

The rule: an argument of the wrong type raises TypeError, and a wrong
value raises a ValueError subclass. Text given for a number is a wrong
value of that field (InvalidFieldError), since float() would parse it.

The property covers the callables that take scalars. Each example calls
one callable with every argument drawn either from awkward values (NaN,
+-inf, +-1e308, the subnormal 1e-310, bools and text) or from ordinary
ones. Whatever the values, the call raises a ValueError subclass or
returns finite values. An InvalidFieldError names a field the caller
gave: an error about a value the library computed itself (a duration
from an overflowing 1/(2 J), say) would send the caller looking for an
argument they never passed.

The calls that take records raise TypeError, naming the argument, for a
value of another type: a schedule that is not a Schedule, a spec that is
not a NoiseSpec, a state that is not a QubitState, and so on.
A gate array that numpy holds as text or as objects (one with an integer
beyond 64 bits, say) is of the wrong type too; a ragged list is a wrong
value, with numpy's ValueError.
solid_angle reads its points as unit vectors: coordinates whose edge
sums overflow raise ValueError, without a warning. So does sample_path
for a schedule whose total duration overflows.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import (
    bloch_vector,
    propagate,
    schedule_unitary,
    segment_unitary,
    state_from_angles,
)
from geoloop.gates import commutator_norm, compare_gates, u_chi, u_gate
from geoloop.noise import NoiseSpec, fidelity_sweep, perturb_schedule, predicted_infidelity
from geoloop.phases import (
    BlochPath,
    dynamical_phase,
    geometric_phase,
    is_cyclic,
    sample_path,
    solid_angle,
    total_phase,
)
from geoloop.records import (
    ControlSegment,
    CouplingStep,
    InvalidFieldError,
    Schedule,
    _Record,
    single_loop_schedule,
)
from geoloop.schedule_io import parse_schedule
from geoloop.twoqubit import (
    NmrParams,
    effective_field_a,
    line_selective_unitary,
    nmr_hamiltonian,
    two_qubit_schedule,
    two_qubit_unitary,
)

AWKWARD = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-310, True, False, "1.0", "x"]
)
ANGLES = st.sampled_from([0.0, 0.3, math.pi / 4, math.pi / 2])
RATES = st.sampled_from([0.5, 1.0, 2.0])
NMR = {"omega_a": RATES, "omega_b": RATES, "coupling_j": RATES}
ACCESSORY = {"accessory": st.one_of(st.none(), RATES)}

# callable -> (the function, an ordinary value's strategy for each keyword
# argument). The callables that take NmrParams get its fields as arguments
# and build the record first.
CASES = {
    "u_chi": (u_chi, {"chi": ANGLES}),
    "u_gate": (u_gate, {"gamma": ANGLES, "chi": ANGLES, "phi": ANGLES}),
    "state_from_angles": (
        state_from_angles,
        {"chi": ANGLES, "phi": ANGLES, "branch": st.sampled_from(["plus", "minus"])},
    ),
    "single_loop_schedule": (
        single_loop_schedule, {"chi": ANGLES, "omega": RATES, "omega2": RATES}
    ),
    "NmrParams": (NmrParams, {**NMR, **ACCESSORY}),
    "NmrParams.with_matched_accessory": (
        lambda **kw: NmrParams(**kw).with_matched_accessory(), NMR
    ),
    "effective_field_a": (
        lambda b_state, **kw: effective_field_a(NmrParams(**kw), b_state),
        {**NMR, "accessory": RATES, "b_state": st.sampled_from(["up", "down"])},
    ),
    "two_qubit_schedule": (
        lambda omega, mode, **kw: two_qubit_schedule(omega, NmrParams(**kw), mode),
        {**NMR, "omega": RATES, "mode": st.sampled_from(["natural", "line_selective"])},
    ),
    "nmr_hamiltonian": (lambda **kw: nmr_hamiltonian(NmrParams(**kw)), NMR),
    "ControlSegment": (
        ControlSegment,
        {"axis": st.sampled_from([(0.0, 0.0, 1.0), (0.6, 0.0, -0.8)]), "omega": RATES,
         "duration": RATES},
    ),
    "CouplingStep": (CouplingStep, {"duration": RATES, "coupling_j": RATES}),
    "NoiseSpec": (
        NoiseSpec,
        {"sigma_omega": RATES, "sigma_tau": RATES, "trials": st.sampled_from([1, 2**32]),
         "seed": st.sampled_from([0, -1, 10**400])},
    ),
}
# Fields an error may name besides the arguments: with_matched_accessory
# computes the accessory field of the record it returns.
COMPUTED_FIELDS = {"NmrParams.with_matched_accessory": {"accessory"}}


def finite(value) -> bool:
    """Whether every number in value (a record, array, tuple or scalar) is finite."""
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, tuple):
        return all(finite(item) for item in value)
    if isinstance(value, _Record):
        return all(finite(getattr(value, name)) for name in value._fields)
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


def awkward(key):
    """Awkward values for one argument; an axis also gets them as its z component."""
    if key == "axis":
        return st.one_of(AWKWARD, AWKWARD.map(lambda z: (0.0, 0.0, z)))
    return AWKWARD


@pytest.mark.parametrize(
    "name, key", [(name, key) for name, (_, ordinary) in CASES.items() for key in ordinary]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raises_a_value_error_or_returns_finite_values(name, key, data):
    call, ordinary = CASES[name]
    # key, and perhaps one more argument, get awkward values; the rest ordinary ones.
    other = data.draw(st.sampled_from([None, *ordinary]), label="second awkward argument")
    kwargs = {
        k: data.draw(awkward(k) if k in (key, other) else strategy, label=k)
        for k, strategy in ordinary.items()
    }
    try:
        result = call(**kwargs)
    except InvalidFieldError as exc:
        assert exc.field in kwargs.keys() | COMPUTED_FIELDS.get(name, set()), (
            f"{name} names {exc.field!r}, which the caller did not pass: {exc}"
        )
    except ValueError:
        pass
    else:
        assert finite(result), f"{name} returned a non-finite value: {result!r}"


NOISE_CALLS = {
    "fidelity_sweep": lambda sched, spec: fidelity_sweep(sched, u_chi(0.3), spec),
    "perturb_schedule": lambda sched, spec: perturb_schedule(sched, spec, 0),
    "predicted_infidelity": predicted_infidelity,
}
LOOP = single_loop_schedule(0.3, 1.0, 1.0)
SPEC = NoiseSpec(sigma_omega=0.01, sigma_tau=0.01, trials=3, seed=0)
NOT_SCHEDULES = {
    "list": list(LOOP.segments),
    "ConditionalSchedule": two_qubit_schedule(1.0, NmrParams(5.0, 3.0, 0.8)),
    "None": None,
}
NOT_SPECS = {"None": None, "tuple": (0.01, 0.01, 3, 0), "dict": {"trials": 3}}


@pytest.mark.parametrize("name", NOISE_CALLS)
@pytest.mark.parametrize("kind", NOT_SCHEDULES)
def test_noise_calls_reject_a_schedule_of_another_type(name, kind):
    with pytest.raises(TypeError, match="sched must be a Schedule"):
        NOISE_CALLS[name](NOT_SCHEDULES[kind], SPEC)


@pytest.mark.parametrize("name", NOISE_CALLS)
@pytest.mark.parametrize("kind", NOT_SPECS)
def test_noise_calls_reject_a_spec_of_another_type(name, kind):
    with pytest.raises(TypeError, match="spec must be a NoiseSpec"):
        NOISE_CALLS[name](LOOP, NOT_SPECS[kind])


@pytest.mark.parametrize("spec", [SPEC, NoiseSpec(trials=3)], ids=["noisy", "noiseless"])
@pytest.mark.parametrize(
    "trial_index", ["12", True, None, 1.0, -1, pytest.param(-(10**5000), id="-10**5000")]
)
def test_perturb_schedule_names_a_trial_index_that_is_not_an_int_ge_0(trial_index, spec):
    # numpy's SeedSequence would read "12" and True as trials 12 and 1.
    with pytest.raises(InvalidFieldError) as exc:
        perturb_schedule(LOOP, spec, trial_index)
    assert exc.value.field == "trial_index"


@pytest.mark.parametrize(
    "points",
    [
        # The octant triangle, closed, scaled far off the unit sphere.
        *(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]) * s for s in (1e155, 1e200)),
        # Open, with end points whose difference overflows.
        np.array([[1e308, 0, 0], [0, 0, 1], [-1e308, 0, 0]]),
    ],
    ids=["octant-1e155", "octant-1e200", "open-1e308"],
)
def test_solid_angle_of_coordinates_that_overflow(points):
    with pytest.raises(ValueError, match="^the edge sums overflow"):
        solid_angle(BlochPath(t=np.arange(float(len(points))), r=points))


def test_sample_path_of_a_total_duration_that_overflows():
    # Each segment's angle is small and its duration finite, but their sum
    # is not: numpy used to warn on the sample times before BlochPath raised.
    seg = ControlSegment((0.0, 0.0, 1.0), 1e-300, 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the schedule's total duration overflows$"):
            sample_path(Schedule(segments=(seg, seg)), STATE, 3)


STATE = state_from_angles(0.3, 0.0, "plus")
PATH = sample_path(LOOP, STATE, 10)
PARAMS = NmrParams(5.0, 3.0, 0.8, accessory=1.0)
# call -> the TypeError message it raises: one argument of each call has the wrong type.
WRONG_TYPES = {
    "schedule_unitary(list)": (
        lambda: schedule_unitary([1, 2]), "sched must be a Schedule, got list"
    ),
    "segment_unitary(str)": (
        lambda: segment_unitary("x"), "seg must be a ControlSegment, got str"
    ),
    "propagate(sched, None)": (
        lambda: propagate(LOOP, None), "initial must be a QubitState, got NoneType"
    ),
    "propagate(list, state)": (
        lambda: propagate(list(LOOP), STATE), "sched must be a Schedule, got list"
    ),
    "is_cyclic(list, state)": (
        lambda: is_cyclic(list(LOOP), STATE), "sched must be a Schedule, got list"
    ),
    "total_phase(sched, None)": (
        lambda: total_phase(LOOP, None), "initial must be a QubitState, got NoneType"
    ),
    "dynamical_phase(sched, vector)": (
        lambda: dynamical_phase(LOOP, STATE.as_vector()),
        "initial must be a QubitState, got ndarray",
    ),
    "geometric_phase(sched, None)": (
        lambda: geometric_phase(LOOP, None), "initial must be a QubitState, got NoneType"
    ),
    "sample_path(empty list, state)": (
        lambda: sample_path([], STATE, 10), "sched must be a Schedule, got list"
    ),
    "sample_path(sched, None)": (
        lambda: sample_path(LOOP, None, 10), "initial must be a QubitState, got NoneType"
    ),
    "solid_angle(list)": (
        lambda: solid_angle([[1, 0, 0]]), "path must be a BlochPath, got list"
    ),
    "solid_angle(points)": (lambda: solid_angle(PATH.r), "path must be a BlochPath, got ndarray"),
    "two_qubit_unitary(Schedule)": (
        lambda: two_qubit_unitary(Schedule()), "sched must be a ConditionalSchedule, got Schedule"
    ),
    "two_qubit_schedule(omega, None)": (
        lambda: two_qubit_schedule(1.0, None), "p must be a NmrParams, got NoneType"
    ),
    "nmr_hamiltonian(None)": (
        lambda: nmr_hamiltonian(None), "p must be a NmrParams, got NoneType"
    ),
    "effective_field_a(tuple, up)": (
        lambda: effective_field_a((5.0, 3.0, 0.8, 1.0), "up"), "p must be a NmrParams, got tuple"
    ),
    "parse_schedule(None)": (lambda: parse_schedule(None), "text must be a str, got NoneType"),
    "bloch_vector(None)": (lambda: bloch_vector(None), "state must be a QubitState, got NoneType"),
    "line_selective_unitary(list)": (
        lambda: line_selective_unitary([]), "sched must be a Schedule, got list"
    ),
}


@pytest.mark.parametrize("name", WRONG_TYPES)
def test_record_taking_calls_reject_an_argument_of_another_type(name):
    call, message = WRONG_TYPES[name]
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


# call -> (the field its InvalidFieldError names, the message, unchanged).
NAMED_FIELDS = {
    "single_loop_schedule omega": (
        lambda: single_loop_schedule(0.3, 0.0, 1.0),
        "omega", "omega and omega2 must be finite and > 0",
    ),
    "single_loop_schedule omega2": (
        lambda: single_loop_schedule(0.3, 1.0, math.nan),
        "omega2", "omega and omega2 must be finite and > 0",
    ),
    "single_loop_schedule both": (
        lambda: single_loop_schedule(0.3, -1.0, -1.0),
        "omega", "omega and omega2 must be finite and > 0",
    ),
    "single_loop_schedule chi": (
        lambda: single_loop_schedule(2.0, 1.0, 1.0), "chi", "chi out of range [0, pi/2], got 2.0"
    ),
    "two_qubit_schedule omega": (
        lambda: two_qubit_schedule(0.0, PARAMS), "omega", "omega must be > 0, got 0.0"
    ),
    "sample_path samples_per_segment": (
        lambda: sample_path(LOOP, STATE, 1),
        "samples_per_segment", "samples_per_segment must be >= 2",
    ),
    "state_from_angles branch": (
        lambda: state_from_angles(0.3, 0.0, "up"),
        "branch", "branch must be 'plus' or 'minus', got 'up'",
    ),
    "effective_field_a b_state": (
        lambda: effective_field_a(PARAMS, "plus"),
        "b_state", "b_state must be 'up' or 'down', got 'plus'",
    ),
}


@pytest.mark.parametrize("name", NAMED_FIELDS)
def test_argument_checks_name_their_field(name):
    call, field, message = NAMED_FIELDS[name]
    with pytest.raises(InvalidFieldError) as exc:
        call()
    assert (exc.value.field, str(exc.value)) == (field, message)


GATE = u_chi(0.3)
# call -> the argument field it gives a bad gate array in.
GATE_CALLS = {
    "compare_gates": (lambda bad: compare_gates(bad, GATE), "u"),
    "commutator_norm": (lambda bad: commutator_norm(GATE, bad), "v"),
    "fidelity_sweep": (lambda bad: fidelity_sweep(LOOP, bad, SPEC), "target"),
}
# Gate arrays that numpy holds as text or as objects -> the type the message names.
NON_NUMERIC_GATES = {
    "text array": (GATE.astype(str), "ndarray"),
    "text list": (GATE.astype(str).tolist(), "list"),
    "text": ("a", "str"),
    "None": (None, "NoneType"),
    "object array": (GATE.astype(object), "ndarray"),
    "integer beyond 64 bits": ([[10**400, 0], [0, 1]], "list"),
}


@pytest.mark.parametrize("case", NON_NUMERIC_GATES)
@pytest.mark.parametrize("call", GATE_CALLS)
def test_gate_arrays_of_text_or_objects_are_a_wrong_type(call, case):
    run, field = GATE_CALLS[call]
    bad, type_name = NON_NUMERIC_GATES[case]
    with pytest.raises(TypeError) as exc:
        run(bad)
    assert str(exc.value) == f"{field} must be an array of numbers, got {type_name}"


@pytest.mark.parametrize("call", GATE_CALLS)
def test_ragged_gate_lists_are_a_wrong_value(call):
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        GATE_CALLS[call][0]([[1, 0], [0]])
