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

The noise calls take records: a schedule that is not a Schedule, or a
spec that is not a NoiseSpec, raises TypeError.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.core import state_from_angles
from geoloop.gates import u_chi, u_gate
from geoloop.noise import NoiseSpec, fidelity_sweep, perturb_schedule, predicted_infidelity
from geoloop.records import (
    ControlSegment,
    CouplingStep,
    InvalidFieldError,
    _Record,
    single_loop_schedule,
)
from geoloop.twoqubit import NmrParams, effective_field_a, nmr_hamiltonian, two_qubit_schedule

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
