"""Versioned schedule file format (JSON) with strict parsing.

Single-qubit files carry drive segments, two-qubit files carry the
conditional step sequence. Unknown fields are rejected with the line and
column where the offending key appears; numbers are serialized with repr
precision so parse(serialize(x)) reproduces x bit-for-bit.
"""

from __future__ import annotations

import json
import re
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple, Union

from .records import (
    ConditionalSchedule,
    ControlSegment,
    CouplingStep,
    InvalidFieldError,
    Schedule,
    check_type,
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


def _parse_int(literal: str):
    """The number of a JSON integer literal: int() of one under 300 characters,
    below 1e300, so that float() of it cannot overflow; float() of a longer one,
    the correctly rounded value or +-inf beyond the float range, as a float
    literal such as 1e400 reads. A field's constructor rule rejects the inf.
    """
    return int(literal) if len(literal) < 300 else float(literal)


_DECODER = json.JSONDecoder(parse_int=_parse_int)


class _Layout(NamedTuple):
    """The layout of one record kind, read by both the parser and the serializer."""

    cls: type
    fixed: dict  # constructor fields that the kind fixes
    keys: dict  # file key -> constructor field, in file order; the allowed keys
    template: str  # the record as an entry of a top-level list, a %r per number


def _layout(cls: type, fixed: dict, keys: dict, kind: str = "") -> _Layout:
    """A record kind's layout; a step's body is written under its ``kind`` key.

    The template is what json.dumps(indent=2) writes for the record, a %r
    per number, indented by 4 as an entry of the file's top-level list.
    """
    body = {key: [None] * 3 if key == "axis" else None for key in keys}
    text = json.dumps({kind: body} if kind else body, indent=2)
    return _Layout(cls, fixed, keys, text.replace("null", "%r").replace("\n", "\n    "))


_SEGMENT = _layout(ControlSegment, {}, {"axis": "axis", "omega": "omega", "duration": "duration"})
_STEPS = {
    "pulse_y": _layout(ControlSegment, {"axis": (0.0, 1.0, 0.0)},
                       {"omega": "omega", "duration": "duration"}, "pulse_y"),
    "coupling": _layout(CouplingStep, {}, {"duration": "duration", "j": "coupling_j"}, "coupling"),
}
# The top-level keys of each kind of file, in the order they are written.
_FILE_KEYS = {
    "single_qubit": ("version", "kind", "label", "segments"),
    "two_qubit": ("version", "kind", "label", "mode", "steps"),
}
_FILE_TEMPLATES = {
    kind: json.dumps(dict.fromkeys(keys), indent=2).replace("null", "%s") + "\n"
    for kind, keys in _FILE_KEYS.items()
}


def _skip(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _located(message: str, text: str, idx: int) -> ScheduleParseError:
    """The error for the token at offset idx of text, with its line and column."""
    line = text.count("\n", 0, idx) + 1
    return ScheduleParseError(message, line, idx - text.rfind("\n", 0, idx))


# A string, closed or not, which _deepest skips, or a bracket (group 1).
_BRACKET = re.compile(r'"(?:\\.|[^"\\])*"?|([][{}])')


def _deepest(text: str) -> tuple[int, int]:
    """The greatest depth of nested arrays and objects in text, and the offset of
    the first bracket that opens that depth. Brackets inside strings do not count.
    """
    depth = deepest = at = 0
    for match in _BRACKET.finditer(text):
        bracket = match.group(1)
        if bracket:
            depth += 1 if bracket in "[{" else -1
            if depth > deepest:
                deepest, at = depth, match.start()
    return deepest, at


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


def _require(doc: dict, key: str):
    if key not in doc:
        raise _Reject(f"missing field {key!r} in schedule file", ())
    return doc[key]


def _list(doc: dict, key: str) -> list:
    value = _require(doc, key)
    if not isinstance(value, list):
        raise _Reject(f"field {key!r} must be a list", (key,))
    return value


def _number(value, key: str, path: tuple) -> float:
    """value as a float; path is that of the record holding ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Reject(f"field {key!r} must be a number", path + (key,))
    return float(value)


def _parse_record(layout: _Layout, name: str, obj, path: tuple, noun: str):
    """A segment or step body, checked key by key in file order, then built."""
    if not isinstance(obj, dict):
        raise _Reject(f"{noun} must be an object", path)
    _check_fields(obj, layout.keys, name, path)
    fields = layout.fixed.copy()
    for key, field in layout.keys.items():
        if key not in obj:
            raise _Reject(f"missing field {key!r} in {name}", path)
        value = obj[key]
        # A JSON float is already the number _number would return.
        if key != "axis":
            fields[field] = value if type(value) is float else _number(value, key, path)
        elif isinstance(value, list) and len(value) == 3:
            fields[field] = tuple(
                [c if type(c) is float else _number(c, key, path) for c in value]
            )
        else:
            raise _Reject("field 'axis' must be a 3-element list", path + (key,))
    try:
        return layout.cls(**fields)
    except InvalidFieldError as exc:  # reported at the key of the field it names
        key = next(k for k, field in layout.keys.items() if field == exc.field)
        raise _Reject(f"invalid {noun}: {exc}", path + (key,)) from exc


def _parse_step(obj, path: tuple):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise _Reject("step must be an object with a single key", path)
    (kind, body), = obj.items()
    if kind not in _STEPS:
        raise _Reject(f"unknown step kind {kind!r}", path + (kind,))
    return _parse_record(_STEPS[kind], kind, body, path + (kind,), f"{kind} step")


def _parse_document(doc) -> AnySchedule:
    if not isinstance(doc, dict):
        raise _Reject("top level must be an object", ())
    version = _require(doc, "version")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1.0 == 1
        raise _Reject(f"unsupported version {version!r}", ("version",))
    kind = _require(doc, "kind")
    if type(kind) is not str or kind not in _FILE_KEYS:  # a list or dict is unhashable
        raise _Reject(f"unknown kind {kind!r}", ("kind",))
    _check_fields(doc, _FILE_KEYS[kind], "schedule file")
    if kind == "single_qubit":
        segments = tuple(
            _parse_record(_SEGMENT, "segment", s, ("segments", i), "segment")
            for i, s in enumerate(_list(doc, "segments"))
        )
        cls, args = Schedule, (segments,)
    else:
        mode = _require(doc, "mode")
        steps = tuple(_parse_step(s, ("steps", i)) for i, s in enumerate(_list(doc, "steps")))
        cls, args = ConditionalSchedule, (steps, mode)
    try:
        return cls(*args, label=doc.get("label", ""))
    except InvalidFieldError as exc:  # reported at the key of the field it names
        raise _Reject(str(exc), (exc.field,)) from exc


def parse_schedule(text: str) -> AnySchedule:
    """Parse a schedule file into a Schedule or ConditionalSchedule.

    Malformed text raises ScheduleParseError with a line and column. That
    includes arrays and objects nested too deeply for the JSON decoder,
    located at the first bracket of the text's greatest depth.
    """
    check_type("text", text, str)
    if text.startswith("\ufeff"):  # json.loads checks this; decode() does not
        raise ScheduleParseError("Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        try:
            return _parse_document(_DECODER.decode(text))
        except _Reject as exc:
            message, path = exc.args
            raise _located(message, text, _offset(text, path)) from exc.__cause__
    except json.JSONDecodeError as exc:
        raise ScheduleParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:  # the decoder, in decode() or in _offset, recurses per level
        depth, idx = _deepest(text)
        raise _located(f"arrays and objects nest {depth} deep, too deep to parse",
                       text, idx) from None


def _entry(layout: _Layout, name: str, obj) -> str:
    """The written text of one record, keys in the order the parser reads them."""
    for field, value in layout.fixed.items():
        if getattr(obj, field) != value:
            raise ValueError(f"{name} records need {field} {value}, got {getattr(obj, field)}")
    numbers = []
    for key, field in layout.keys.items():
        if key == "axis":
            numbers += getattr(obj, field)
        else:
            numbers.append(getattr(obj, field))
    return layout.template % tuple(numbers)


def serialize_schedule(sched: AnySchedule) -> str:
    """Render a schedule as a schedule-file document (round-trip exact).

    The text is what json.dumps(doc, indent=2) writes, plus a newline:
    numbers are float reprs and strings are ASCII-escaped.
    """
    if isinstance(sched, Schedule):
        kind, head = "single_qubit", ()
        entries = [_entry(_SEGMENT, "segment", seg) for seg in sched.segments]
    elif isinstance(sched, ConditionalSchedule):
        kind, head, entries = "two_qubit", (_quote(sched.mode),), []
        for step in sched.steps:
            name = next(k for k, layout in _STEPS.items() if isinstance(step, layout.cls))
            entries.append(_entry(_STEPS[name], name, step))
    else:
        raise TypeError(f"cannot serialize {type(sched).__name__}")
    records = "[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]"
    return _FILE_TEMPLATES[kind] % (
        FORMAT_VERSION, _quote(kind), _quote(sched.label), *head, records
    )


def load_schedule(path) -> AnySchedule:
    """Read a schedule file as UTF-8 text with universal newlines, then parse it.

    A byte that is not UTF-8 raises ScheduleParseError at its line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # The text before the bad byte, with the newlines that text mode reads.
            head = exc.object[: exc.start].decode().replace("\r\n", "\n").replace("\r", "\n")
            message = f"invalid UTF-8 at byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
            raise _located(message, head, len(head)) from None
    return parse_schedule(text)


def save_schedule(sched: AnySchedule, path) -> None:
    """Write serialize_schedule(sched) to path with "\n" line ends on every platform.

    A schedule that serialize_schedule rejects leaves path as it was.
    """
    text = serialize_schedule(sched)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
