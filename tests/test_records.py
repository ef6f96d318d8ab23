"""The value-object contract of every record class.

Records are immutable: a field is set once, by the constructor. They
compare and hash by value, and only against records of their own class,
except BlochPath, which compares by identity. Their reprs, pickles and
copies behave as they did when the records were frozen dataclasses; the
expected reprs below were recorded from the dataclass versions, except
CouplingStep's, which now shows its fields as the floats it stores.
"""

import copy
import pickle

import numpy as np
import pytest

import geoloop
from geoloop import (
    BlochPath,
    BlochVector,
    ConditionalSchedule,
    ControlSegment,
    CouplingStep,
    GateReport,
    NmrParams,
    NoiseSpec,
    PhaseDecomposition,
    QubitState,
    Schedule,
    SweepResult,
    single_loop_schedule,
)
from geoloop.records import InvalidFieldError, _Record

SEGMENT = ControlSegment(axis=(1, 0, 0), omega=2, duration=0.25)

# class -> (positional arguments, the same call by keyword, expected repr)
VALUE_RECORDS = {
    ControlSegment: (
        ((0, 0, 1), 1, 0.5),
        dict(axis=(0, 0, 1), omega=1, duration=0.5),
        "ControlSegment(axis=(0.0, 0.0, 1.0), omega=1.0, duration=0.5)",
    ),
    Schedule: (
        ([SEGMENT], "x"),
        dict(segments=[SEGMENT], label="x"),
        "Schedule(segments=(ControlSegment(axis=(1.0, 0.0, 0.0), omega=2.0, "
        "duration=0.25),), label='x')",
    ),
    CouplingStep: (
        (1, 0.5),
        dict(duration=1, coupling_j=0.5),
        "CouplingStep(duration=1.0, coupling_j=0.5)",
    ),
    ConditionalSchedule: (
        ([CouplingStep(1, 0.5)], "natural", ""),
        dict(steps=[CouplingStep(1, 0.5)], mode="natural", label=""),
        "ConditionalSchedule(steps=(CouplingStep(duration=1.0, coupling_j=0.5),), "
        "mode='natural', label='')",
    ),
    QubitState: (
        (0.6, 0.8j),
        dict(amp_up=0.6, amp_down=0.8j),
        "QubitState(amp_up=(0.6+0j), amp_down=0.8j)",
    ),
    BlochVector: (
        (0.0, 0.6, 0.8),
        dict(x=0.0, y=0.6, z=0.8),
        "BlochVector(x=0.0, y=0.6, z=0.8)",
    ),
    GateReport: (
        (0.5, 0.25, 1e-16),
        dict(max_entry_deviation=0.5, trace_fidelity=0.25, unitarity_defect=1e-16),
        "GateReport(max_entry_deviation=0.5, trace_fidelity=0.25, unitarity_defect=1e-16)",
    ),
    PhaseDecomposition: (
        (1.0, 0.5, 0.5),
        dict(total=1.0, dynamical=0.5, geometric=0.5),
        "PhaseDecomposition(total=1.0, dynamical=0.5, geometric=0.5)",
    ),
    NmrParams: (
        (2.0, 1.5, 0.3, None),
        dict(omega_a=2.0, omega_b=1.5, coupling_j=0.3, accessory=None),
        "NmrParams(omega_a=2.0, omega_b=1.5, coupling_j=0.3, accessory=None)",
    ),
    NoiseSpec: (
        (0.01, 0, 10, 7),
        dict(sigma_omega=0.01, sigma_tau=0, trials=10, seed=7),
        "NoiseSpec(sigma_omega=0.01, sigma_tau=0.0, trials=10, seed=7)",
    ),
    SweepResult: (
        ((0.5, 1.0), 0.75, 0.5, 0.25, NoiseSpec(trials=2)),
        dict(fidelities=(0.5, 1.0), mean=0.75, minimum=0.5, std=0.25, spec=NoiseSpec(trials=2)),
        "SweepResult(fidelities=(0.5, 1.0), mean=0.75, minimum=0.5, std=0.25, "
        "spec=NoiseSpec(sigma_omega=0.0, sigma_tau=0.0, trials=2, seed=0))",
    ),
}

PATH_ARGS = dict(t=[0.0, 1.0], r=[[0, 0, 1], [0, 1, 0]])
PATH_REPR = "BlochPath(t=array([0., 1.]), r=array([[0., 0., 1.],\n       [0., 1., 0.]]))"


def make(cls):
    return BlochPath(**PATH_ARGS) if cls is BlochPath else cls(*VALUE_RECORDS[cls][0])


def fields(record):
    return [getattr(record, name) for name in record.__match_args__]


ALL_RECORDS = [*VALUE_RECORDS, BlochPath]
COPIES = {
    **{f"pickle{p}": (lambda x, p=p: pickle.loads(pickle.dumps(x, p)))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_public_record_class_is_a_record_covered_here():
    public = (getattr(geoloop, name) for name in geoloop.__all__)
    classes = {obj for obj in public if isinstance(obj, type)}
    records = {cls for cls in classes if not issubclass(cls, Exception)}
    assert records == set(ALL_RECORDS)
    # SweepResult stays a frozen dataclass: perfbench/selftest.py changes
    # one with dataclasses.replace.
    assert {cls for cls in records if not issubclass(cls, _Record)} == {SweepResult}


@pytest.mark.parametrize("cls", VALUE_RECORDS)
def test_repr_matches_the_dataclass_repr(cls):
    assert repr(make(cls)) == VALUE_RECORDS[cls][2]


def test_path_repr_matches_the_dataclass_repr():
    assert repr(BlochPath(**PATH_ARGS)) == PATH_REPR


@pytest.mark.parametrize("cls", ALL_RECORDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = make(cls)
    before = repr(record)
    for name in (*record.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before
    # SweepResult, a plain frozen dataclass, keeps a __dict__.
    assert hasattr(record, "__dict__") == (cls is SweepResult)


@pytest.mark.parametrize("cls", VALUE_RECORDS)
def test_keyword_and_positional_construction_agree(cls):
    args, kwargs, _ = VALUE_RECORDS[cls]
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a is not b


@pytest.mark.parametrize("cls", VALUE_RECORDS)
def test_records_of_another_class_with_the_same_fields_differ(cls):
    record = make(cls)

    class Sub(cls):
        __slots__ = ()

    twin = Sub(*VALUE_RECORDS[cls][0])
    assert fields(twin) == fields(record)
    assert record != twin and twin != record
    assert record != tuple(fields(record))
    assert record.__eq__(object()) is NotImplemented


def test_records_with_equal_values_of_different_classes_differ():
    values = (0.0, 0.6, 0.8)
    a, b, c = BlochVector(*values), PhaseDecomposition(*values), GateReport(*values)
    assert a != b and b != c and c != a


def test_unequal_values_compare_unequal():
    assert BlochVector(0.0, 0.6, 0.8) != BlochVector(0.0, 0.8, 0.6)
    assert CouplingStep(1, 0.5) != CouplingStep(1, 0.25)
    assert Schedule() != Schedule(label="x")


def test_defaults():
    assert Schedule() == Schedule(segments=(), label="")
    assert repr(Schedule()) == "Schedule(segments=(), label='')"
    steps = [CouplingStep(1, 0.5)]
    assert ConditionalSchedule(steps) == ConditionalSchedule(steps, "natural", "")
    assert NmrParams(2.0, 1.5, 0.3).accessory is None


def test_path_compares_by_identity():
    a, b = BlochPath(**PATH_ARGS), BlochPath(**PATH_ARGS)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("cls", VALUE_RECORDS)
def test_pickle_and_copy_round_trip(cls, how):
    record = make(cls)
    twin = COPIES[how](record)
    assert twin == record and hash(twin) == hash(record)
    assert repr(twin) == repr(record)  # bit for bit: no field is recomputed
    with pytest.raises(AttributeError):
        twin.__setattr__(record.__match_args__[0], 0)


@pytest.mark.parametrize("how", COPIES)
def test_path_pickle_and_copy_round_trip(how):
    path = BlochPath(**PATH_ARGS)
    twin = COPIES[how](path)
    assert isinstance(twin, BlochPath)
    np.testing.assert_array_equal(twin.t, path.t)
    np.testing.assert_array_equal(twin.r, path.r)
    assert not (twin.t.flags.writeable or twin.r.flags.writeable)


@pytest.mark.parametrize("how", COPIES)
def test_single_loop_schedule_round_trip(how):
    sched = single_loop_schedule(0.7, 1.1, 0.9)
    twin = COPIES[how](sched)
    assert twin == sched and repr(twin) == repr(sched)
    assert all(type(seg) is ControlSegment for seg in twin)


def test_pattern_matching_by_position():
    match CouplingStep(1, 0.5):
        case CouplingStep(duration, coupling_j):
            assert (duration, coupling_j) == (1, 0.5)
        case _:
            pytest.fail("CouplingStep did not match its positional pattern")


# (class, arguments, the field that rejects them): values a schedule file
# cannot hold, since a file carries segments, steps of the two kinds and a
# string label.
UNWRITABLE = {
    "coupling-step-segment": (Schedule, ([CouplingStep(1.0, 0.5)],), "segments"),
    "string-segment": (Schedule, (["x"],), "segments"),
    "string-step": (ConditionalSchedule, (["x"],), "steps"),
    "none-step": (ConditionalSchedule, ([SEGMENT, None],), "steps"),
    "int-label": (Schedule, ((), 5), "label"),
    "none-label": (Schedule, ((), None), "label"),
    "conditional-int-label": (ConditionalSchedule, ((), "natural", 5), "label"),
    "conditional-none-label": (ConditionalSchedule, ((), "natural", None), "label"),
    # A surrogate code point is not Unicode text: such a label cannot be
    # written as UTF-8, and a pair of escaped ones reads back as one character.
    "lone-surrogate-label": (Schedule, ((), "loop \udfff"), "label"),
    "surrogate-pair-label": (Schedule, ((), "\ud800\udfff"), "label"),
    "conditional-surrogate-label": (ConditionalSchedule, ((), "natural", "\ud800"), "label"),
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_schedules_reject_what_the_file_format_cannot_hold(case):
    cls, args, field = UNWRITABLE[case]
    with pytest.raises(InvalidFieldError) as exc:
        cls(*args)
    assert exc.value.field == field


def test_surrogate_label_message_shows_it_escaped():
    with pytest.raises(InvalidFieldError) as exc:
        Schedule((), "a\ud800\udfff")
    assert str(exc.value) == "label must not hold surrogate code points, got 'a\\ud800\\udfff'"


def test_labels_of_any_plane_are_text():
    label = "\x00\x7f\u00e9\u4e2d\U0001f600\U0010ffff"
    assert Schedule((), label).label == label
    assert ConditionalSchedule((), "natural", label).label == label


def test_schedules_accept_subclasses_of_their_entries():
    class Segment(ControlSegment):
        __slots__ = ()

    class Step(CouplingStep):
        __slots__ = ()

    segment, step = Segment((0, 0, 1), 1.0, 0.5), Step(1.0, 0.5)
    assert Schedule([segment]).segments == (segment,)
    assert ConditionalSchedule([segment, step]).steps == (segment, step)


# Text that float() would convert: no number field takes it.
NUMERIC_TEXT = {
    "segment-axis-component": (lambda: ControlSegment((0, "1", 0), 1.0, 1.0), "axis", "'1'"),
    "segment-omega": (lambda: ControlSegment((0, 0, 1), "2", 1.0), "omega", "'2'"),
    "segment-duration-bytes": (lambda: ControlSegment((0, 0, 1), 2.0, b"1"), "duration", "b'1'"),
    "coupling-j": (lambda: CouplingStep(" 1e0 ", "0.5"), "coupling_j", "'0.5'"),
    "coupling-duration": (lambda: CouplingStep(" 1e0 ", 0.5), "duration", "' 1e0 '"),
    "nmr-omega-b": (lambda: NmrParams(1.0, "2", 0.5), "omega_b", "'2'"),
    "nmr-accessory-bytearray": (lambda: NmrParams(1.0, 2.0, 0.5, bytearray(b"3")),
                                "accessory", "bytearray(b'3')"),
    "noise-sigma-omega": (lambda: NoiseSpec("0.1"), "sigma_omega", "'0.1'"),
    "noise-sigma-tau": (lambda: NoiseSpec(0.1, "0"), "sigma_tau", "'0'"),
    "single-loop-chi": (lambda: single_loop_schedule("0.3", 1, 1), "chi", "'0.3'"),
    "single-loop-omega2": (lambda: single_loop_schedule(0.3, 1, "1"), "omega2", "'1'"),
    "state-chi": (lambda: geoloop.state_from_angles("0.3", 0), "chi", "'0.3'"),
    "numpy-str": (lambda: NoiseSpec(np.str_("0.1")), "sigma_omega", "np.str_('0.1')"),
}


@pytest.mark.parametrize("case", NUMERIC_TEXT)
def test_number_fields_reject_numeric_text(case):
    build, field, shown = NUMERIC_TEXT[case]
    with pytest.raises(InvalidFieldError) as exc:
        build()
    assert exc.value.field == field
    assert str(exc.value) == f"{field} must be a number, got {shown}"


def test_bools_are_still_numbers():
    segment = ControlSegment((False, False, True), True, 0.5)
    assert segment == ControlSegment((0.0, 0.0, 1.0), 1.0, 0.5)
    assert {type(c) for c in (*segment.axis, segment.omega, segment.duration)} == {float}
