"""Versioned schedule file format (JSON) with strict parsing.

Single-qubit files carry drive segments, two-qubit files carry the
conditional step sequence. Unknown fields are rejected with the line and
column where the offending key appears; numbers are serialized with repr
precision so parse(serialize(x)) reproduces x bit-for-bit.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE
from typing import NamedTuple, Union

from .records import (
    ConditionalSchedule,
    ControlSegment,
    CouplingStep,
    InvalidFieldError,
    Schedule,
)

FORMAT_VERSION = 1

AnySchedule = Union[Schedule, ConditionalSchedule]


class ScheduleParseError(ValueError):
    """Malformed schedule file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Reject(Exception):
    """A failed check; args are the message and the path of the token at fault."""


class _LongInt:
    """An integer literal too long for int(): beyond the float range, so float() overflows."""

    def __float__(self):
        raise OverflowError("integer literal beyond the float range")

    def __repr__(self):
        return "<integer beyond the int-string limit>"


def _parse_int(literal: str):
    try:
        return int(literal)
    except ValueError:  # more digits than the int-string limit allows
        return _LongInt()


_DECODER = json.JSONDecoder(parse_int=_parse_int)


class _Layout(NamedTuple):
    """The layout of one record kind, read by both the parser and the serializer."""

    cls: type
    fixed: dict  # constructor fields that the kind fixes
    keys: tuple  # (file key, constructor field) pairs, in file order


_SEGMENT = _Layout(
    ControlSegment, {}, (("axis", "axis"), ("omega", "omega"), ("duration", "duration"))
)
_STEPS = {
    "pulse_y": _Layout(ControlSegment, {"axis": (0.0, 1.0, 0.0)},
                       (("omega", "omega"), ("duration", "duration"))),
    "coupling": _Layout(CouplingStep, {}, (("duration", "duration"), ("j", "coupling_j"))),
}


def _skip(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _offset(text: str, path: tuple) -> int:
    """Offset of the token at ``path`` in a document that _DECODER accepts.

    path holds object keys and array indices from the top level down. The
    token is the last key's opening quote, or the value at the last index
    (the whole document for an empty path). Of duplicate keys the last one
    counts, as in json.loads. Only error messages need this, so parsing
    itself stays a single decode.
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


def _check_fields(obj: dict, allowed, context: str, path: tuple = ()) -> None:
    for key in obj:
        if key not in allowed:
            raise _Reject(f"unknown field {key!r} in {context}", path + (key,))


def _require(obj: dict, key: str, context: str, path: tuple = ()):
    if key not in obj:
        raise _Reject(f"missing field {key!r} in {context}", path)
    return obj[key]


def _list(doc: dict, key: str) -> list:
    value = _require(doc, key, "schedule file")
    if not isinstance(value, list):
        raise _Reject(f"field {key!r} must be a list", (key,))
    return value


def _number(value, key: str, path: tuple) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, _LongInt)):
        raise _Reject(f"field {key!r} must be a number", path)
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise _Reject(f"field {key!r} must be a finite number", path) from None


def _parse_record(layout: _Layout, name: str, obj, path: tuple, noun: str):
    """A segment or step body, checked key by key in file order, then built."""
    if not isinstance(obj, dict):
        raise _Reject(f"{noun} must be an object", path)
    _check_fields(obj, dict(layout.keys), name, path)
    fields = dict(layout.fixed)
    for key, field in layout.keys:
        value, at = _require(obj, key, name, path), path + (key,)
        if key != "axis":
            fields[field] = _number(value, key, at)
        elif isinstance(value, list) and len(value) == 3:
            fields[field] = tuple(_number(c, key, at) for c in value)
        else:
            raise _Reject("field 'axis' must be a 3-element list", at)
    try:
        return layout.cls(**fields)
    except InvalidFieldError as exc:  # reported at the key of the field it names
        key = next(k for k, field in layout.keys if field == exc.field)
        raise _Reject(f"invalid {noun}: {exc}", path + (key,)) from exc


def _parse_step(obj, path: tuple):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _Reject("step must be an object with a single key", path)
    (kind, body), = obj.items()
    if kind not in _STEPS:
        raise _Reject(f"unknown step kind {kind!r}", path + (kind,))
    return _parse_record(_STEPS[kind], kind, body, path + (kind,), f"{kind} step")


def _parse_document(doc: dict) -> AnySchedule:
    version = _require(doc, "version", "schedule file")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
        raise _Reject(f"unsupported version {version!r}", ("version",))
    kind = _require(doc, "kind", "schedule file")
    if kind == "single_qubit":
        _check_fields(doc, ("version", "kind", "label", "segments"), "schedule file")
        segments = tuple(
            _parse_record(_SEGMENT, "segment", s, ("segments", i), "segment")
            for i, s in enumerate(_list(doc, "segments"))
        )
        cls, args = Schedule, (segments,)
    elif kind == "two_qubit":
        _check_fields(doc, ("version", "kind", "label", "mode", "steps"), "schedule file")
        mode = _require(doc, "mode", "schedule file")
        steps = tuple(_parse_step(s, ("steps", i)) for i, s in enumerate(_list(doc, "steps")))
        cls, args = ConditionalSchedule, (steps, mode)
    else:
        raise _Reject(f"unknown kind {kind!r}", ("kind",))
    try:
        return cls(*args, label=doc.get("label", ""))
    except InvalidFieldError as exc:  # reported at the key of the field it names
        raise _Reject(str(exc), (exc.field,)) from exc


def parse_schedule(text: str) -> AnySchedule:
    """Parse a schedule file into a Schedule or ConditionalSchedule."""
    if text.startswith("\ufeff"):  # json.loads checks this; decode() does not
        raise ScheduleParseError("Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ScheduleParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScheduleParseError("top level must be an object")
    try:
        return _parse_document(doc)
    except _Reject as exc:
        message, path = exc.args
        idx = _offset(text, path)
        line = text.count("\n", 0, idx) + 1
        column = idx - text.rfind("\n", 0, idx)
        raise ScheduleParseError(message, line, column) from exc.__cause__


def _file_object(layout: _Layout, name: str, obj) -> dict:
    """The file object of one record, keys in the order the parser reads them."""
    for field, value in layout.fixed.items():
        if getattr(obj, field) != value:
            raise ValueError(f"{name} records need {field} {value}, got {getattr(obj, field)}")
    return {key: getattr(obj, field) for key, field in layout.keys}


def serialize_schedule(sched: AnySchedule) -> str:
    """Render a schedule as a schedule-file document (round-trip exact)."""
    if isinstance(sched, Schedule):
        doc = {
            "version": FORMAT_VERSION,
            "kind": "single_qubit",
            "label": sched.label,
            "segments": [_file_object(_SEGMENT, "segment", seg) for seg in sched.segments],
        }
    elif isinstance(sched, ConditionalSchedule):
        steps = []
        for step in sched.steps:
            kind = next(k for k, layout in _STEPS.items() if isinstance(step, layout.cls))
            steps.append({kind: _file_object(_STEPS[kind], kind, step)})
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
