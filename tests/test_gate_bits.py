"""Bit pin of the gate layer: every gate, phase split and report, hashed exactly.

A speed-up of the gate layer must leave these bits as they are; one that
changes them waits for ROADMAP item 5's decision on output bits.
"""

import hashlib
import math

import numpy as np

from geoloop.core import schedule_unitary, state_from_angles
from geoloop.gates import compare_gates, single_loop_schedule, u_chi
from geoloop.phases import NonCyclicError, geometric_phase
from geoloop.records import ConditionalSchedule, ControlSegment, CouplingStep, Schedule
from geoloop.schedule_io import parse_schedule, serialize_schedule
from geoloop.twoqubit import (
    NmrParams,
    controlled_u,
    controlled_u_reference,
    line_selective_unitary,
    two_qubit_schedule,
    two_qubit_unitary,
    u2_line_selective,
    u2_natural,
)

# sha256 of gate_bit_lines(), recorded before record construction, schedule
# parsing and the 4x4 assembly were trimmed for speed.
PINNED_GATE_DIGEST = "1795818829c55e4c3bc50b274ecb5326716028bc61144cdc7f2a4a5641a6ce97"
PAPER_CHI = (0.0, 1e-6, 1e-4, 0.3, math.pi / 4, 1.2, math.pi / 2 - 1e-3, math.pi / 2)
PAPER_OMEGAS = ((1.0, 1.0), (0.7, 1.3), (2.0, 0.5))
# Exact axes spelled as a caller may: ints, numpy integers and bools.
EXACT_AXES = (
    (0, 0, 1),
    (np.int64(1), np.int64(0), np.int64(0)),
    (False, True, False),
    (0, -1, 0),
    (0.0, 0.0, -1.0),
)


class _Coupling(CouplingStep):
    """A subclass of CouplingStep is a coupling step."""

    __slots__ = ()


class _Segment(ControlSegment):
    """A subclass of ControlSegment is a drive step."""

    __slots__ = ()


def _hex(values) -> str:
    """float.hex of real numbers, and of the real and imaginary parts of complex ones."""
    out = []
    for value in values:
        if isinstance(value, complex):
            out += [value.real.hex(), value.imag.hex()]
        else:
            out.append(float.hex(value))
    return " ".join(out)


def _matrix(u) -> str:
    return _hex(np.asarray(u).ravel().tolist())


def _report(report) -> str:
    return _hex(report._values(report))


def _steps(steps) -> str:
    """The stored fields of each record, so construction is pinned too."""
    fields = []
    for step in steps:
        fields += list(step.axis) + [step.omega, step.duration]
    return _hex(fields)


def _file(sched):
    """The written file and the stored fields of the records parsed back from it."""
    text = serialize_schedule(sched)
    parsed = parse_schedule(text)
    yield text
    yield _steps(parsed.segments if isinstance(parsed, Schedule) else parsed.steps)


def _phases(sched, state) -> str:
    try:
        decomp = geometric_phase(sched, state)
    except NonCyclicError:
        return "noncyclic"
    return _hex((decomp.total, decomp.dynamical, decomp.geometric))


def _eigenstate(u):
    """The plus state on the rotation axis of u = cos(a) I - i sin(a) n.sigma."""
    nx, ny, nz = -u[1, 0].imag, u[1, 0].real, -u[0, 0].imag
    return state_from_angles(math.atan2(math.hypot(nx, ny), nz), math.atan2(ny, nx))


def _random_axis(rng):
    if rng.random() < 0.3:
        return EXACT_AXES[int(rng.integers(len(EXACT_AXES)))]
    v = rng.normal(size=3)
    return tuple((v / np.linalg.norm(v)).tolist())


def _random_segment(rng, k: int):
    omega = float(rng.uniform(0.1, 3.0))
    if k % 7 == 0:
        omega = -0.0 if rng.random() < 0.5 else 0.0
    duration = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 2.0))
    cls = _Segment if rng.random() < 0.1 else ControlSegment
    return cls(_random_axis(rng), omega, duration)


def _random_coupling(rng):
    duration = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 2.0))
    cls = _Coupling if rng.random() < 0.2 else CouplingStep
    return cls(duration, float(rng.uniform(0.05, 2.0)))


def gate_bit_lines():
    """One line of float.hex text per result the gate layer computes.

    The paper loops, edge chi included, give the single-qubit gate, the
    controlled gate, the phase split of the cyclic state and the reports
    against the library references; the NMR sequence gives both modes.
    Each schedule that the file format can hold is also written and read
    back.
    Then 120 seeded random single-qubit schedules and conditional ones
    that mix coupling and drive steps (and subclasses of each), with zero
    durations, omega = -0.0 and exact axes given as ints, numpy integers
    and bools.
    """
    for chi in PAPER_CHI:
        for omega, omega2 in PAPER_OMEGAS:
            sched = single_loop_schedule(chi, omega, omega2)
            u = schedule_unitary(sched)
            cu = controlled_u(chi, omega, omega2)
            yield _steps(sched.segments)
            yield from _file(sched)
            yield _matrix(u)
            yield _matrix(cu)
            yield _phases(sched, state_from_angles(chi, 0.0, "plus"))
            yield _phases(sched, state_from_angles(chi, 0.0, "minus"))
            yield _report(compare_gates(u, u_chi(chi)))
            yield _report(compare_gates(cu, controlled_u_reference(chi)))
    for j in (0.05, 0.8, 1.0, 2.0):
        for omega in (0.2, 1.0, 4.5):
            nmr = NmrParams(5.0, 3.0, j).with_matched_accessory()
            for mode, reference in (("natural", u2_natural()),
                                    ("line_selective", u2_line_selective())):
                sched = two_qubit_schedule(omega, nmr, mode)
                u = two_qubit_unitary(sched)
                yield _steps(sched.steps)
                yield from _file(sched)
                yield _matrix(u)
                yield _report(compare_gates(u, reference))
    rng = np.random.default_rng(17)
    for k in range(120):
        segments = tuple(_random_segment(rng, k + i) for i in range(int(rng.integers(0, 7))))
        sched = Schedule(segments)
        u = schedule_unitary(sched)
        yield _steps(segments)
        yield from _file(sched)
        yield _matrix(u)
        yield _matrix(line_selective_unitary(sched))
        yield _phases(sched, _eigenstate(u))
        yield _report(compare_gates(u, u_chi(float(rng.uniform(0.0, math.pi / 2)))))
        steps = list(segments)
        for _ in range(int(rng.integers(0, 3))):
            steps.insert(int(rng.integers(len(steps) + 1)), _random_coupling(rng))
        natural = two_qubit_unitary(ConditionalSchedule(steps, "natural"))
        selective = two_qubit_unitary(ConditionalSchedule(steps, "line_selective"))
        yield _steps(steps)
        yield _matrix(natural)
        yield _matrix(selective)
        yield _report(compare_gates(natural, selective))


def test_gate_bits_pinned():
    digest = hashlib.sha256()
    for line in gate_bit_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_GATE_DIGEST
