import json

import numpy as np
import pytest
from helpers import unit_axes
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoloop import schedule_io
from geoloop.core import ControlSegment, Schedule
from geoloop.gates import single_loop_schedule
from geoloop.records import InvalidFieldError
from geoloop.schedule_io import (
    ScheduleParseError,
    load_schedule,
    parse_schedule,
    save_schedule,
    serialize_schedule,
)
from geoloop.twoqubit import ConditionalSchedule, CouplingStep, NmrParams, two_qubit_schedule

segments = st.builds(
    ControlSegment,
    axis=unit_axes,
    omega=st.floats(0, 100, allow_nan=False),
    duration=st.floats(0, 100, allow_nan=False),
)

schedules = st.builds(
    Schedule,
    segments=st.lists(segments, max_size=8).map(tuple),
    label=st.text(max_size=20),
)

conditional_steps = st.one_of(
    st.builds(
        ControlSegment,
        axis=st.just((0.0, 1.0, 0.0)),
        omega=st.floats(0, 50, allow_nan=False),
        duration=st.floats(0, 50, allow_nan=False),
    ),
    st.builds(
        CouplingStep,
        duration=st.floats(0, 50, allow_nan=False),
        coupling_j=st.floats(0.001, 50, allow_nan=False),
    ),
)

conditional_schedules = st.builds(
    ConditionalSchedule,
    steps=st.lists(conditional_steps, max_size=6).map(tuple),
    mode=st.sampled_from(["natural", "line_selective"]),
    label=st.text(max_size=20),
)


class TestRoundTrip:
    @settings(max_examples=200)
    @given(schedules)
    def test_single_qubit(self, sched):
        assert parse_schedule(serialize_schedule(sched)) == sched

    @settings(max_examples=200)
    @given(conditional_schedules)
    def test_two_qubit(self, sched):
        assert parse_schedule(serialize_schedule(sched)) == sched

    def test_serialize_parse_serialize_stable(self):
        sched = Schedule(
            segments=(ControlSegment((0, 0, 1), 1.2345678901234567, 0.1),),
            label="x",
        )
        text = serialize_schedule(sched)
        assert serialize_schedule(parse_schedule(text)) == text


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule("{not json")

    def test_unknown_top_level_field_has_position(self):
        doc = serialize_schedule(Schedule())
        obj = json.loads(doc)
        obj["bogus"] = 1
        text = json.dumps(obj, indent=2)
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert "bogus" in str(exc.value)
        assert exc.value.line >= 1 and exc.value.column >= 1
        line = text.splitlines()[exc.value.line - 1]
        assert line[exc.value.column - 1 :].startswith('"bogus"')

    def test_unknown_segment_field(self):
        text = """
        {"version": 1, "kind": "single_qubit", "label": "",
         "segments": [{"axis": [0, 0, 1], "omega": 1.0, "duration": 1.0,
                       "phase": 0.0}]}
        """
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert "phase" in str(exc.value)

    def test_unsupported_version(self):
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule('{"version": 2, "kind": "single_qubit", "segments": []}')
        assert "version" in str(exc.value)

    @pytest.mark.parametrize("version", ["true", "1.0", "1e0", "1.5"])
    def test_version_is_the_integer_1(self, version):
        # True == 1 == 1.0 in Python, but only an integer literal is a version.
        text = '{"kind": "single_qubit", "segments": [], "version": %s}' % version
        with pytest.raises(ScheduleParseError, match=r"^unsupported version ") as exc:
            parse_schedule(text)
        assert (exc.value.line, exc.value.column) == (1, text.index('"version"') + 1)

    def test_rejects_a_utf8_bom(self):
        text = "\ufeff" + serialize_schedule(Schedule())
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == "Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)"

    @pytest.mark.parametrize(
        "text, line, column",
        [("[]", 1, 1), ("5", 1, 1), ('"schedule"', 1, 1), ("null", 1, 1), ("\n\n  [1]", 3, 3)],
    )
    def test_top_level_must_be_an_object(self, text, line, column):
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == f"top level must be an object (line {line}, column {column})"

    @pytest.mark.parametrize(
        "text, depth, line, column",
        [
            pytest.param("[" * 5000 + "]" * 5000, 5000, 1, 5000, id="arrays"),
            # Unclosed; brackets inside a string, closed or not, do not count.
            pytest.param('["[[[", ' + "[" * 3000 + '"]]]', 3001, 1, 3008, id="strings"),
            pytest.param('{"version": 1, "kind": "single_qubit",\n "segments": '
                         + "[" * 100_000 + "]" * 100_000 + "}", 100_001, 2, 100_013,
                         id="segments"),
            # A segment's unknown field whose value nests deeper than the
            # decoder can follow, so it cannot be located at its key.
            pytest.param('{"version": 1, "kind": "single_qubit", "segments": [\n {"x": '
                         + "[" * 4000 + "]" * 4000 + "}]}", 4003, 2, 4007, id="unknown-field"),
        ],
    )
    def test_nesting_too_deep_to_decode(self, text, depth, line, column):
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        message = f"arrays and objects nest {depth} deep, too deep to parse"
        assert str(exc.value) == f"{message} (line {line}, column {column})"

    @pytest.mark.parametrize(
        "key, message",
        [("version", "unsupported version"), ("label", "label must be a string, got")],
    )
    def test_shows_an_integer_beyond_the_int_string_limit(self, key, message):
        # 5001 digits: beyond the float range, so the literal reads as inf.
        fields = {"version": "1", "kind": '"single_qubit"', "label": '""', "segments": "[]"}
        fields[key] = "1" + "0" * 5000
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        column = text.index(f'"{key}"') + 1
        expected = f"{message} inf (line 1, column {column})"
        assert str(exc.value) == expected

    def test_unknown_kind(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule('{"version": 1, "kind": "three_qubit", "segments": []}')

    def test_missing_segments(self):
        with pytest.raises(ScheduleParseError):
            parse_schedule('{"version": 1, "kind": "single_qubit"}')

    def test_non_numeric_omega(self):
        text = (
            '{"version": 1, "kind": "single_qubit", '
            '"segments": [{"axis": [0,0,1], "omega": "fast", "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError):
            parse_schedule(text)

    def test_non_unit_axis(self):
        text = (
            '{"version": 1, "kind": "single_qubit", '
            '"segments": [{"axis": [1,1,1], "omega": 1, "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError):
            parse_schedule(text)

    def test_unknown_step_kind(self):
        text = (
            '{"version": 1, "kind": "two_qubit", "mode": "natural", '
            '"steps": [{"pulse_x": {"omega": 1, "duration": 1}}]}'
        )
        with pytest.raises(ScheduleParseError):
            parse_schedule(text)

    def test_unknown_mode(self):
        text = '{"version": 1, "kind": "two_qubit", "mode": "magic", "steps": []}'
        with pytest.raises(ScheduleParseError):
            parse_schedule(text)


class TestLoadSchedule:
    @pytest.mark.parametrize(
        "data, byte, reason, line, column",
        [
            (b"\xff\xfe{}", 0xFF, "invalid start byte", 1, 1),
            # Text mode reads "\r\n" and a lone "\r" as one line end each.
            (b'{"version": 1,\r\n "label": "\xc3\xa9\xe2\x41"}', 0xE2,
             "invalid continuation byte", 2, 13),
            (b'{\r\r "label": "\xe2\x82', 0xE2, "unexpected end of data", 3, 12),
        ],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, data, byte, reason, line, column):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ScheduleParseError) as exc:
            load_schedule(path)
        assert str(exc.value) == (
            f"invalid UTF-8 at byte 0x{byte:02x}: {reason} (line {line}, column {column})"
        )

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_reads_universal_newlines(self, tmp_path, newline):
        sched = single_loop_schedule(0.7, 1.0, 2.0)
        path = tmp_path / "loop.json"
        path.write_bytes(serialize_schedule(sched).replace("\n", newline).encode())
        assert load_schedule(path) == sched


def _token_at(text, exc):
    """The source text from the error's line and column onwards."""
    line = text.splitlines()[exc.line - 1]
    return line[exc.column - 1 :]


# The text of a file up to its one record, which starts at line 3, column 3.
SEGMENTS_HEAD = '{"version": 1, "kind": "single_qubit",\n "segments": [\n  '
STEPS_HEAD = '{"version": 1, "kind": "two_qubit", "mode": "natural",\n "steps": [\n  '


class TestParseErrorPositions:
    """Errors inside a segment or step point into that segment or step."""

    def test_bad_omega_in_second_segment(self):
        text = serialize_schedule(single_loop_schedule(1.0, 1.0, 1.0))
        lines = text.splitlines()
        assert lines[20].strip() == '"omega": 1.0,'
        lines[20] = lines[20].replace("1.0", '"x"')
        text = "\n".join(lines)
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == "field 'omega' must be a number (line 21, column 7)"

    @pytest.mark.parametrize("index", [0, 2, 3])
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration", '"slow"', "field 'duration' must be a number"),
            ("axis", "[1, 0]", "field 'axis' must be a 3-element list"),
            ("axis", "[1, 1, 1]", "invalid segment"),
            # A scalar where the axis list belongs, float or not.
            ("axis", "1.5", "field 'axis' must be a 3-element list"),
            ("axis", "true", "field 'axis' must be a 3-element list"),
            ("omega", "-1.0", "invalid segment: omega must be finite and >= 0"),
            ("colour", '"red"', "unknown field 'colour' in segment"),
            # Beyond the float range: the integer reads as inf, as 1e400 does.
            pytest.param("omega", "1" + "0" * 400,
                         "invalid segment: omega must be finite and >= 0, got inf",
                         id="omega-401-digit-integer"),
            # Beyond Python's int-string limit too.
            pytest.param("omega", "1" + "0" * 5000,
                         "invalid segment: omega must be finite and >= 0, got inf",
                         id="omega-5001-digit-integer"),
            pytest.param("axis", "[0, 0, 1" + "0" * 400 + "]",
                         "invalid segment: axis norm inf differs from 1",
                         id="axis-401-digit-integer"),
        ],
    )
    def test_points_at_key_of_offending_segment(self, index, field, value, message):
        obj = json.loads(serialize_schedule(single_loop_schedule(0.3, 1.0, 2.0)))
        segments = [json.dumps(seg) for seg in obj["segments"]]
        seg = obj["segments"][index]
        seg[field] = "@"
        segments[index] = json.dumps(seg).replace('"@"', value)
        text = (
            '{"version": 1, "kind": "single_qubit", "label": "",\n "segments": [\n  '
            + ",\n  ".join(segments)
            + "\n]}"
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert message in str(exc.value)
        assert exc.value.line == 3 + index
        assert _token_at(text, exc.value).startswith(f'"{field}": {value}')

    def test_missing_field_points_at_its_segment(self):
        text = (
            '{"version": 1, "kind": "single_qubit", "segments": [\n'
            '  {"axis": [0, 0, 1], "omega": 1, "duration": 1},\n'
            '  {"axis": [0, 0, 1], "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert "missing field 'omega' in segment" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_label_naming_a_field_is_not_the_field(self):
        text = (
            '{"version": 1, "kind": "single_qubit", "label": "omega",\n'
            ' "segments": [{"axis": [0, 0, 1], "omega": "x", "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert exc.value.line == 2
        assert _token_at(text, exc.value).startswith('"omega": "x"')

    @pytest.mark.parametrize(
        "kind, body",
        [("single_qubit", '"segments": []'), ("two_qubit", '"mode": "natural", "steps": []')],
        ids=["single_qubit", "two_qubit"],
    )
    @pytest.mark.parametrize("label, shown", [("5", "5"), ("null", "None"), ("[]", "[]")])
    def test_non_string_label_points_at_its_key(self, kind, body, label, shown):
        text = '{"version": 1, "kind": "%s",\n "label": %s, %s}' % (kind, label, body)
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == f"label must be a string, got {shown} (line 2, column 2)"

    @pytest.mark.parametrize("escaped", ["\\udc00", "x\\ud800", "\\udfff\\ud800"])
    def test_lone_surrogate_label_points_at_its_key(self, escaped):
        text = '{"version": 1, "kind": "single_qubit",\n "label": "%s", "segments": []}' % escaped
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value).startswith("label must not hold surrogate code points, got ")
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_escaped_surrogate_pair_is_one_character(self):
        # As in json.loads: a high surrogate escape followed by a low one
        # encodes one character beyond the Basic Multilingual Plane.
        text = '{"version": 1, "kind": "single_qubit", "label": "\\ud83d\\ude00", "segments": []}'
        assert parse_schedule(text).label == "\U0001f600"

    def test_label_is_checked_after_the_mode(self):
        # The schedule's constructor checks the label last.
        text = '{"version": 1, "kind": "two_qubit", "label": 5, "mode": "magic", "steps": []}'
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == "unknown mode 'magic' (line 1, column 49)"

    def test_duplicate_key_points_at_the_value_that_counts(self):
        # json.loads keeps the last of duplicate keys; so does the position.
        text = (
            '{"version": 1, "kind": "single_qubit",\n'
            ' "segments": [{"axis": [0, 0, 1], "omega": 1, "omega": "x", "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert _token_at(text, exc.value).startswith('"omega": "x"')

    @pytest.mark.parametrize(
        "bad_step, token, message",
        [
            ('{"pulse_y": {"omega": "x", "duration": 1}}', '"omega": "x"',
             "field 'omega' must be a number"),
            ('{"pulse_y": {"omega": 1, "duration": -1}}', '"duration": -1',
             "invalid pulse_y step"),
            ('{"pulse_y": {"omega": 1e200, "duration": 1e200}}', '"duration": 1e200',
             "invalid pulse_y step: rotation angle"),
            ('{"coupling": {"duration": 1, "j": -1}}', '"j": -1',
             "invalid coupling step: coupling_j must be finite and > 0"),
            ('{"coupling": {"duration": 1e200, "j": 1e200}}', '"duration": 1e200',
             "invalid coupling step: rotation angle"),
            ('{"pulse_y": {"omega": 1}}', '"pulse_y"',
             "missing field 'duration' in pulse_y"),
            ('{"coupling": {"duration": "x", "j": 0.5}}', '"duration": "x"',
             "field 'duration' must be a number"),
            ('{"pulse_y": {"omega": 1, "duration": 1, "phase": 0}}', '"phase"',
             "unknown field 'phase' in pulse_y"),
            pytest.param('{"coupling": {"duration": 1, "j": 1%s}}' % ("0" * 400), '"j": 1',
                         "invalid coupling step: coupling_j must be finite and > 0, got inf",
                         id="j-401-digit-integer"),
        ],
    )
    def test_points_into_offending_step(self, bad_step, token, message):
        good = '{"pulse_y": {"omega": 1, "duration": 1}}'
        coupling = '{"coupling": {"duration": 1, "j": 0.5}}'
        text = (
            '{"version": 1, "kind": "two_qubit", "mode": "natural", "steps": [\n'
            f"  {good},\n  {coupling},\n  {bad_step}]}}"
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert message in str(exc.value)
        assert exc.value.line == 4
        assert _token_at(text, exc.value).startswith(token)

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "digits", [400, 5001], ids=["400-digit-integer", "5001-digit-integer"]
    )
    @pytest.mark.parametrize(
        "head, record, key, message",
        [
            (SEGMENTS_HEAD, '{"axis": [0, 0, 1], "omega": @, "duration": 1}', "omega",
             "invalid segment: omega must be finite and >= 0, got {sign}inf"),
            (SEGMENTS_HEAD, '{"axis": [0, 0, 1], "omega": 1, "duration": @}', "duration",
             "invalid segment: duration must be finite and >= 0, got {sign}inf"),
            (SEGMENTS_HEAD, '{"axis": [0, @, 0], "omega": 1, "duration": 1}', "axis",
             "invalid segment: axis norm inf differs from 1"),
            (STEPS_HEAD, '{"coupling": {"duration": 1, "j": @}}', "j",
             "invalid coupling step: coupling_j must be finite and > 0, got {sign}inf"),
        ],
        ids=["omega", "duration", "axis", "j"],
    )
    def test_integer_beyond_the_float_range_reads_as_1e400(
        self, head, record, key, message, digits, sign
    ):
        # An integer literal beyond the float range meets the field's own
        # rule, as the float literal 1e400 does: same text, same token.
        errors = []
        for literal in (sign + "1e400", sign + "1" + "0" * (digits - 1)):
            text = head + record.replace("@", literal) + "]}"
            with pytest.raises(ScheduleParseError) as exc:
                parse_schedule(text)
            assert _token_at(text, exc.value).startswith(f'"{key}": ')
            errors.append(str(exc.value))
        column = 3 + record.index(f'"{key}"')
        expected = f"{message.format(sign=sign)} (line 3, column {column})"
        assert errors == [expected, expected]

    @pytest.mark.parametrize("digits", [299, 300, 308, 309])
    def test_long_integer_literals_keep_their_bits(self, digits):
        # A literal of 300 or more characters reads as float(literal), which
        # is correctly rounded, as float(int(literal)) is.
        rng = np.random.default_rng(digits)
        for _ in range(50):
            # Below 1.7e308, so that 309 digits stay in the float range.
            head = "1" + str(rng.integers(0, 7))
            literal = head + "".join(map(str, rng.integers(0, 10, digits - 2)))
            text = ('{"version": 1, "kind": "single_qubit", "segments": '
                    '[{"axis": [0, 0, 1], "omega": %s, "duration": 0}]}' % literal)
            omega = parse_schedule(text).segments[0].omega
            assert omega.hex() == float(int(literal)).hex()

    def test_309_digit_literal_above_the_float_range(self):
        literal = "18" + "0" * 307  # 1.8e308, above the largest float
        text = ('{"version": 1, "kind": "single_qubit", "segments": '
                '[{"axis": [0, 0, 1], "omega": %s, "duration": 0}]}' % literal)
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert str(exc.value) == (
            "invalid segment: omega must be finite and >= 0, got inf (line 1, column 73)")

    def test_escaped_key_is_found(self):
        text = (
            '{"version": 1, "kind": "single_qubit", "segments": [\n'
            '  {"axis": [0, 0, 1], "\\u006fmega": "x", "duration": 1}]}'
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert "field 'omega' must be a number" in str(exc.value)
        assert _token_at(text, exc.value).startswith('"\\u006fmega"')

    @pytest.mark.parametrize("body", ["5", "null", '"ab"', "[1]"])
    @pytest.mark.parametrize("kind", ["pulse_y", "coupling"])
    def test_step_body_must_be_an_object(self, kind, body):
        # A number or null body used to escape as a TypeError.
        text = (
            '{"version": 1, "kind": "two_qubit", "mode": "natural", "steps": [\n'
            f'  {{"{kind}": {body}}}]}}'
        )
        with pytest.raises(ScheduleParseError) as exc:
            parse_schedule(text)
        assert f"{kind} step must be an object" in str(exc.value)
        assert _token_at(text, exc.value).startswith(f'"{kind}"')


def test_serialize_rejects_non_y_pulse_steps():
    sched = ConditionalSchedule(
        steps=(ControlSegment((0, 0, 1), 1.0, 1.0),), mode="natural"
    )
    with pytest.raises(ValueError) as exc:
        serialize_schedule(sched)
    assert str(exc.value) == "pulse_y records need axis (0.0, 1.0, 0.0), got (0.0, 0.0, 1.0)"


def test_save_schedule_keeps_the_target_when_serializing_fails(tmp_path):
    path = tmp_path / "keep.json"
    path.write_bytes(b"old bytes\n")
    sched = ConditionalSchedule(
        steps=(ControlSegment((1.0, 0.0, 0.0), 1.0, 1.0),), mode="natural"
    )
    with pytest.raises(ValueError):
        save_schedule(sched, path)
    assert path.read_bytes() == b"old bytes\n"


def test_save_schedule_writes_newline_line_ends(tmp_path, monkeypatch):
    # "\n" on every platform, as the CLI writes: text mode would otherwise
    # write os.linesep.
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return open(*args, **kwargs)

    monkeypatch.setattr(schedule_io, "open", spy, raising=False)
    sched = single_loop_schedule(0.7, 1.0, 2.0)
    path = tmp_path / "loop.json"
    save_schedule(sched, path)
    assert [kwargs.get("newline") for kwargs in calls] == ["\n"]
    assert path.read_bytes() == serialize_schedule(sched).encode()


def test_serialize_rejects_what_is_not_a_schedule():
    with pytest.raises(TypeError) as exc:
        serialize_schedule({})
    assert str(exc.value) == "cannot serialize dict"


def test_two_qubit_schedule_round_trip_from_builder():
    p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.4)
    sched = two_qubit_schedule(1.5, p, "line_selective")
    assert parse_schedule(serialize_schedule(sched)) == sched


@pytest.mark.parametrize("build", [
    lambda: ConditionalSchedule([CouplingStep(True, 0.5)]),
    lambda: ConditionalSchedule([CouplingStep(np.int64(1), 0.5)]),
    lambda: two_qubit_schedule(1.0, NmrParams(1, 1, np.int64(1))),
], ids=["bool-duration", "numpy-int-duration", "numpy-int-coupling"])
def test_records_built_from_any_accepted_number_round_trip(build):
    # Stored as given, the bool was written as `true`, which the parser
    # rejects, and a numpy integer made serialize_schedule raise TypeError.
    sched = build()
    assert parse_schedule(serialize_schedule(sched)) == sched


TWO_QUBIT_HEAD = '{"version": 1, "kind": "two_qubit", "mode": "natural",\n'
PULSE = '{"pulse_y": {"omega": 1, "duration": 1}}'


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(TWO_QUBIT_HEAD + ' "steps": [\n  {"pulse_y": {"omega": 1, "duration": 1},'
                     ' "coupling": {"duration": 1, "j": 0.5}}]}',
                     "step must be an object with a single key (line 3, column 3)",
                     id="two-keys"),
        pytest.param(TWO_QUBIT_HEAD + ' "steps": [\n  {}]}',
                     "step must be an object with a single key (line 3, column 3)",
                     id="no-key"),
        pytest.param(TWO_QUBIT_HEAD + f' "steps": [\n  {PULSE},\n  [1]]}}',
                     "step must be an object with a single key (line 4, column 3)",
                     id="list-step"),
        pytest.param(TWO_QUBIT_HEAD + ' "steps": [\n  {"x": {"omega": 1, "duration": 1}}]}',
                     "unknown step kind 'x' (line 3, column 4)",
                     id="unknown-step-kind"),
        pytest.param('{"version": 1, "kind": "single_qubit",\n "segments": {"axis": [0, 0, 1]}}',
                     "field 'segments' must be a list (line 2, column 2)",
                     id="segments-not-a-list"),
        pytest.param(TWO_QUBIT_HEAD + ' "steps": null}',
                     "field 'steps' must be a list (line 2, column 2)",
                     id="steps-not-a-list"),
        pytest.param(TWO_QUBIT_HEAD + ' "steps": [\n  {"pulse_y": {"omega": 1, "duration": -1}}]}',
                     "invalid pulse_y step: duration must be finite and >= 0, got -1.0"
                     " (line 3, column 28)",
                     id="pulse-y-duration"),
        pytest.param(TWO_QUBIT_HEAD + ' "steps": [\n  {"pulse_y": {"omega": -2, "duration": 1}}]}',
                     "invalid pulse_y step: omega must be finite and >= 0, got -2.0"
                     " (line 3, column 16)",
                     id="pulse-y-omega"),
    ],
)
def test_structure_error_message_and_position(text, message):
    with pytest.raises(ScheduleParseError) as exc:
        parse_schedule(text)
    assert str(exc.value) == message


def json_dumps_render(sched) -> str:
    """The schedule file as json.dumps(doc, indent=2) writes it: the written layout's oracle."""
    if isinstance(sched, Schedule):
        doc = {
            "version": 1,
            "kind": "single_qubit",
            "label": sched.label,
            "segments": [
                {"axis": seg.axis, "omega": seg.omega, "duration": seg.duration}
                for seg in sched.segments
            ],
        }
    else:
        doc = {
            "version": 1,
            "kind": "two_qubit",
            "label": sched.label,
            "mode": sched.mode,
            "steps": [
                {"coupling": {"duration": step.duration, "j": step.coupling_j}}
                if isinstance(step, CouplingStep)
                else {"pulse_y": {"omega": step.omega, "duration": step.duration}}
                for step in sched.steps
            ],
        }
    return json.dumps(doc, indent=2) + "\n"


# Labels with what JSON must escape: quotes, backslashes, control and
# non-ASCII characters, those beyond the Basic Multilingual Plane included
# (written as a pair of escapes). A surrogate is not text: no label holds one.
labels = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "\U0001f600"]),
    ),
    max_size=12,
)
# Edge values, and the kinds of number a constructor converts to a float.
EDGES = [0.0, -0.0, 5e-324, 1e300]
non_negative = st.one_of(
    st.sampled_from(EDGES),
    st.floats(0, 100, allow_nan=False),
    st.integers(0, 10**6),
    st.integers(0, 1000).map(np.int64),
    st.booleans(),
)
positive = non_negative.filter(lambda v: v > 0)
INTEGER_AXES = [(0, 0, 1), (False, True, False), tuple(np.int64([0, 0, -1])),
                (0.0, -0.0, 1.0), (5e-324, -1.0, 0.0)]
Y_AXES = [(0, 1, 0), (False, True, False), tuple(np.int64([0, 1, 0])), (-0.0, 1.0, -0.0)]


def built(cls, *args):
    """cls(*args), or an assumption failure if the values overflow its angle."""
    try:
        return cls(*args)
    except InvalidFieldError:
        assume(False)


edge_segments = st.builds(
    built, st.just(ControlSegment), st.one_of(unit_axes, st.sampled_from(INTEGER_AXES)),
    non_negative, non_negative,
)
edge_steps = st.one_of(
    st.builds(built, st.just(ControlSegment), st.sampled_from(Y_AXES), non_negative,
              non_negative),
    st.builds(built, st.just(CouplingStep), non_negative, positive),
)
edge_schedules = st.one_of(
    st.builds(Schedule, st.lists(edge_segments, max_size=6), labels),
    st.builds(ConditionalSchedule, st.lists(edge_steps, max_size=6),
              st.sampled_from(["natural", "line_selective"]), labels),
)


@settings(max_examples=300)
@given(edge_schedules)
def test_written_layout_is_json_dumps_indent_2(sched):
    text = serialize_schedule(sched)
    assert text == json_dumps_render(sched)
    assert parse_schedule(text) == sched
