"""Versioned schedule file format (JSON) with strict parsing.

Single-qubit files carry drive segments, two-qubit files carry the
conditional step sequence. Unknown fields are rejected with the line and
column where the offending key appears; numbers are serialized with repr
precision so parse(serialize(x)) reproduces x bit-for-bit.
"""

from __future__ import annotations

import json
from typing import Union

from .core import ControlSegment, Schedule
from .twoqubit import ConditionalSchedule, CouplingStep

FORMAT_VERSION = 1

AnySchedule = Union[Schedule, ConditionalSchedule]


class ScheduleParseError(ValueError):
    """Malformed schedule file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _locate_key(text: str, key: str) -> tuple[int, int]:
    idx = text.find(f'"{key}"')
    if idx < 0:
        return 1, 1
    line = text.count("\n", 0, idx) + 1
    column = idx - (text.rfind("\n", 0, idx) + 1) + 1
    return line, column


def _check_fields(obj: dict, allowed: set[str], context: str, text: str) -> None:
    for key in obj:
        if key not in allowed:
            line, col = _locate_key(text, key)
            raise ScheduleParseError(
                f"unknown field {key!r} in {context}", line, col
            )


def _require(obj: dict, key: str, context: str, text: str):
    if key not in obj:
        line, col = _locate_key(text, context)
        raise ScheduleParseError(f"missing field {key!r} in {context}", line, col)
    return obj[key]


def _number(value, name: str, text: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        line, col = _locate_key(text, name)
        raise ScheduleParseError(f"field {name!r} must be a number", line, col)
    return float(value)


def _parse_segment(obj, text: str) -> ControlSegment:
    if not isinstance(obj, dict):
        raise ScheduleParseError("segment must be an object")
    _check_fields(obj, {"axis", "omega", "duration"}, "segment", text)
    axis = _require(obj, "axis", "segment", text)
    if not (isinstance(axis, list) and len(axis) == 3):
        line, col = _locate_key(text, "axis")
        raise ScheduleParseError("field 'axis' must be a 3-element list", line, col)
    try:
        return ControlSegment(
            axis=tuple(_number(c, "axis", text) for c in axis),
            omega=_number(_require(obj, "omega", "segment", text), "omega", text),
            duration=_number(
                _require(obj, "duration", "segment", text), "duration", text
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ScheduleParseError):
            raise
        line, col = _locate_key(text, "axis")
        raise ScheduleParseError(f"invalid segment: {exc}", line, col) from exc


def _parse_step(obj, text: str):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ScheduleParseError("step must be an object with a single key")
    (kind, body), = obj.items()
    try:
        if kind == "pulse_y":
            _check_fields(body, {"omega", "duration"}, "pulse_y", text)
            return ControlSegment(
                axis=(0, 1, 0),
                omega=_number(_require(body, "omega", "pulse_y", text), "omega", text),
                duration=_number(
                    _require(body, "duration", "pulse_y", text), "duration", text
                ),
            )
        if kind == "coupling":
            _check_fields(body, {"duration", "j"}, "coupling", text)
            return CouplingStep(
                duration=_number(
                    _require(body, "duration", "coupling", text), "duration", text
                ),
                coupling_j=_number(_require(body, "j", "coupling", text), "j", text),
            )
    except ValueError as exc:
        if isinstance(exc, ScheduleParseError):
            raise
        line, col = _locate_key(text, kind)
        raise ScheduleParseError(f"invalid {kind} step: {exc}", line, col) from exc
    line, col = _locate_key(text, kind)
    raise ScheduleParseError(f"unknown step kind {kind!r}", line, col)


def parse_schedule(text: str) -> AnySchedule:
    """Parse a schedule file into a Schedule or ConditionalSchedule."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScheduleParseError("top level must be an object")

    version = _require(doc, "version", "schedule file", text)
    if version != FORMAT_VERSION:
        line, col = _locate_key(text, "version")
        raise ScheduleParseError(f"unsupported version {version!r}", line, col)
    kind = _require(doc, "kind", "schedule file", text)
    label = doc.get("label", "")
    if not isinstance(label, str):
        line, col = _locate_key(text, "label")
        raise ScheduleParseError("field 'label' must be a string", line, col)

    if kind == "single_qubit":
        _check_fields(
            doc, {"version", "kind", "label", "segments"}, "schedule file", text
        )
        segments = _require(doc, "segments", "schedule file", text)
        if not isinstance(segments, list):
            line, col = _locate_key(text, "segments")
            raise ScheduleParseError("field 'segments' must be a list", line, col)
        return Schedule(
            segments=tuple(_parse_segment(s, text) for s in segments), label=label
        )
    if kind == "two_qubit":
        _check_fields(
            doc, {"version", "kind", "label", "steps", "mode"}, "schedule file", text
        )
        mode = _require(doc, "mode", "schedule file", text)
        if mode not in ("natural", "line_selective"):
            line, col = _locate_key(text, "mode")
            raise ScheduleParseError(f"unknown mode {mode!r}", line, col)
        steps = _require(doc, "steps", "schedule file", text)
        if not isinstance(steps, list):
            line, col = _locate_key(text, "steps")
            raise ScheduleParseError("field 'steps' must be a list", line, col)
        return ConditionalSchedule(
            steps=tuple(_parse_step(s, text) for s in steps), mode=mode, label=label
        )
    line, col = _locate_key(text, "kind")
    raise ScheduleParseError(f"unknown kind {kind!r}", line, col)


def serialize_schedule(sched: AnySchedule) -> str:
    """Render a schedule as a schedule-file document (round-trip exact)."""
    if isinstance(sched, Schedule):
        doc = {
            "version": FORMAT_VERSION,
            "kind": "single_qubit",
            "label": sched.label,
            "segments": [
                {
                    "axis": list(seg.axis),
                    "omega": seg.omega,
                    "duration": seg.duration,
                }
                for seg in sched.segments
            ],
        }
    elif isinstance(sched, ConditionalSchedule):
        steps = []
        for step in sched.steps:
            if isinstance(step, CouplingStep):
                steps.append(
                    {"coupling": {"duration": step.duration, "j": step.coupling_j}}
                )
            else:
                if step.axis != (0.0, 1.0, 0.0):
                    raise ValueError(
                        "two-qubit files only represent y-axis pulses; "
                        f"got axis {step.axis}"
                    )
                steps.append(
                    {"pulse_y": {"omega": step.omega, "duration": step.duration}}
                )
        doc = {
            "version": FORMAT_VERSION,
            "kind": "two_qubit",
            "label": sched.label,
            "mode": sched.mode,
            "steps": steps,
        }
    else:
        raise TypeError(f"cannot serialize {type(sched).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def load_schedule(path) -> AnySchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())


def save_schedule(sched: AnySchedule, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_schedule(sched))
