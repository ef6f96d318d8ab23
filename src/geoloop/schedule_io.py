"""Versioned schedule file format (JSON) with strict parsing.

Single-qubit files carry drive segments, two-qubit files carry the
conditional step sequence. Unknown fields are rejected with the line and
column where the offending key appears; numbers are serialized with repr
precision so parse(serialize(x)) reproduces x bit-for-bit.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE
from typing import Union

from .core import ControlSegment, InvalidFieldError, Schedule
from .twoqubit import ConditionalSchedule, CouplingStep

FORMAT_VERSION = 1

AnySchedule = Union[Schedule, ConditionalSchedule]


class ScheduleParseError(ValueError):
    """Malformed schedule file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_DECODER = json.JSONDecoder()


def _skip(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _offset(text: str, path: tuple) -> int:
    """Offset of the token at ``path`` in a document that json.loads accepts.

    path holds object keys and array indices from the top level down. The
    token is the last key's opening quote, or the value at the last index
    (the whole document for an empty path). Of duplicate keys the last one
    counts, as in json.loads. Only error messages need this, so parsing
    itself stays a single json.loads.
    """
    at = idx = _skip(text, 0)
    for step in path:
        idx = _skip(text, idx + 1)  # past '[' or '{'
        if isinstance(step, int):
            for _ in range(step):
                idx = _skip(text, _skip(text, _DECODER.raw_decode(text, idx)[1]) + 1)
            at = idx
            continue
        while text[idx] != "}":
            key, end = _DECODER.raw_decode(text, idx)
            value = _skip(text, _skip(text, end) + 1)  # past ':'
            if key == step:
                at, found = idx, value
            idx = _skip(text, _DECODER.raw_decode(text, value)[1])
            if text[idx] == ",":
                idx = _skip(text, idx + 1)
        idx = found
    return at


def _error(message: str, text: str, path: tuple = ()) -> ScheduleParseError:
    """ScheduleParseError at the line and column of the token at ``path``."""
    idx = _offset(text, path)
    line = text.count("\n", 0, idx) + 1
    return ScheduleParseError(message, line, idx - text.rfind("\n", 0, idx))


def _check_fields(
    obj: dict, allowed: set[str], context: str, text: str, path: tuple = ()
) -> None:
    for key in obj:
        if key not in allowed:
            raise _error(f"unknown field {key!r} in {context}", text, path + (key,))


def _require(obj: dict, key: str, context: str, text: str, path: tuple = ()):
    if key not in obj:
        raise _error(f"missing field {key!r} in {context}", text, path)
    return obj[key]


def _number(value, key: str, text: str, path: tuple) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _error(f"field {key!r} must be a number", text, path + (key,))
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise _error(f"field {key!r} must be a finite number", text, path + (key,)) from None


def _number_field(obj: dict, key: str, context: str, text: str, path: tuple) -> float:
    return _number(_require(obj, key, context, text, path), key, text, path)


def _construct(cls, prefix: str, text: str, path: tuple, **fields):
    """cls(**fields), with a rejected field reported at its key under path."""
    try:
        return cls(**fields)
    except InvalidFieldError as exc:
        key = "j" if exc.field == "coupling_j" else exc.field  # the file's name
        raise _error(f"{prefix}{exc}", text, path + (key,)) from exc


def _parse_segment(obj, text: str, path: tuple) -> ControlSegment:
    if not isinstance(obj, dict):
        raise _error("segment must be an object", text, path)
    _check_fields(obj, {"axis", "omega", "duration"}, "segment", text, path)
    axis = _require(obj, "axis", "segment", text, path)
    if not (isinstance(axis, list) and len(axis) == 3):
        raise _error("field 'axis' must be a 3-element list", text, path + ("axis",))
    return _construct(
        ControlSegment, "invalid segment: ", text, path,
        axis=tuple(_number(c, "axis", text, path) for c in axis),
        omega=_number_field(obj, "omega", "segment", text, path),
        duration=_number_field(obj, "duration", "segment", text, path),
    )


def _parse_step(obj, text: str, path: tuple):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _error("step must be an object with a single key", text, path)
    (kind, body), = obj.items()
    path += (kind,)
    if kind not in ("pulse_y", "coupling"):
        raise _error(f"unknown step kind {kind!r}", text, path)
    if not isinstance(body, dict):
        raise _error(f"{kind} step must be an object", text, path)
    prefix = f"invalid {kind} step: "
    if kind == "pulse_y":
        _check_fields(body, {"omega", "duration"}, kind, text, path)
        return _construct(
            ControlSegment, prefix, text, path,
            axis=(0, 1, 0),
            omega=_number_field(body, "omega", kind, text, path),
            duration=_number_field(body, "duration", kind, text, path),
        )
    _check_fields(body, {"duration", "j"}, kind, text, path)
    return _construct(
        CouplingStep, prefix, text, path,
        duration=_number_field(body, "duration", kind, text, path),
        coupling_j=_number_field(body, "j", kind, text, path),
    )


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
        raise _error(f"unsupported version {version!r}", text, ("version",))
    kind = _require(doc, "kind", "schedule file", text)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise _error("field 'label' must be a string", text, ("label",))

    if kind == "single_qubit":
        _check_fields(
            doc, {"version", "kind", "label", "segments"}, "schedule file", text
        )
        segments = _require(doc, "segments", "schedule file", text)
        if not isinstance(segments, list):
            raise _error("field 'segments' must be a list", text, ("segments",))
        return Schedule(
            segments=tuple(
                _parse_segment(s, text, ("segments", i)) for i, s in enumerate(segments)
            ),
            label=label,
        )
    if kind == "two_qubit":
        _check_fields(
            doc, {"version", "kind", "label", "steps", "mode"}, "schedule file", text
        )
        mode = _require(doc, "mode", "schedule file", text)
        steps = _require(doc, "steps", "schedule file", text)
        if not isinstance(steps, list):
            raise _error("field 'steps' must be a list", text, ("steps",))
        return _construct(
            ConditionalSchedule, "", text, (),
            steps=tuple(
                _parse_step(s, text, ("steps", i)) for i, s in enumerate(steps)
            ),
            mode=mode,
            label=label,
        )
    raise _error(f"unknown kind {kind!r}", text, ("kind",))


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
