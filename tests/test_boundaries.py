"""Boundary properties of the command line, run in-process.

Each example replaces one numeric leaf of a schedule file, or one numeric
command-line argument, with an awkward value and runs ``cli.main``. Whatever
the value, the command exits 0, 1 or 2 with no traceback and no warning,
prints no nan or inf, and an error located in the file points at a key of
the record that holds the mutated leaf.
"""

import copy
import json
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoloop.cli import main
from geoloop.gates import single_loop_schedule
from geoloop.schedule_io import serialize_schedule
from geoloop.twoqubit import NmrParams, two_qubit_schedule

# Numbers a constructor may accept or reject on range.
IN_RANGE = ["1e200", "1e308", "5e-324", "-1.5", "0"]
# Values no numeric field may accept; each needs an error at its key.
NOT_A_FINITE_NUMBER = [
    "NaN", "Infinity", "-Infinity", "true", '"x"', "[1]",
    "1" + "0" * 400,  # beyond the float range
    "1" + "0" * 5000,  # beyond Python's default int-string limit
]

SINGLE = {
    (chi, omega, omega2): json.loads(serialize_schedule(single_loop_schedule(chi, omega, omega2)))
    for chi, omega, omega2 in [(0.785398163397448, 1.0, 1.0), (0.3, 0.7, 2.5)]
}
TWO = {
    mode: json.loads(serialize_schedule(
        two_qubit_schedule(1.0, NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5), mode)))
    for mode in ["natural", "line_selective"]
}
SINGLE_COMMANDS = [
    ["verify", "{file}", "--target", "u_chi:pi/4"],
    ["verify", "{file}", "--target", "controlled_u:pi/4"],
    ["phase", "{file}", "--chi", "pi/4"],
    ["export-path", "{file}", "--chi", "pi/4", "--samples", "3", "--out", "{csv}"],
    ["noise", "{file}", "--target", "u_chi:pi/4", "--trials", "3",
     "--sigma-omega", "0.01", "--sigma-tau", "0.01"],
]
TWO_COMMANDS = [
    ["verify", "{file}", "--target", "u2"],
    ["verify", "{file}", "--target", "u2_prime"],
    ["phase", "{file}", "--chi", "0"],
]
LOCATION = re.compile(r"\(line (\d+), column (\d+)\)$")
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    # Each example drains capsys and writes its own files before it runs.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def numeric_leaves(node, path=()):
    """Paths of the numbers in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return [path]
    else:
        return []
    return [leaf for key, child in items for leaf in numeric_leaves(child, path + (key,))]


def record_and_key(doc, path):
    """The object holding the leaf at path, and the key it sits under."""
    keys = [i for i, step in enumerate(path) if isinstance(step, str)]
    record = doc
    for step in path[: keys[-1]]:
        record = record[step]
    return record, path[keys[-1]]


def render(doc, path, token):
    """doc as indented JSON with the leaf at path written as token."""
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = "@@"
    return doc, json.dumps(doc, indent=2).replace('"@@"', token)


def key_offset(doc, path, key, token):
    """Offset of the opening quote of key in the record holding the leaf."""
    doc = copy.deepcopy(doc)
    record, _ = record_and_key(doc, path)
    marker = "#" * len(key)  # same length, so the text before it is unchanged
    renamed = {(marker if k == key else k): v for k, v in record.items()}
    record.clear()
    record.update(renamed)
    return json.dumps(doc, indent=2).replace('"@@"', token).index(f'"{marker}"')


def run(capsys, argv):
    """(exit code, stdout, stderr, warnings) of cli.main(argv)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err, caught


def check_clean_exit(rc, out, err, caught, tmp_path):
    assert rc in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err and "Warning" not in err
    assert not re.search(r"nan|inf", out.replace(str(tmp_path), ""), re.IGNORECASE)
    if rc == 2 and err.startswith("usage: "):
        # argparse: usage lines, then "geoloop CMD: error: ..."
        assert sum("error: " in line for line in err.splitlines()) == 1
        assert err.splitlines()[-1].startswith("geoloop ")
    elif rc == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@st.composite
def mutated_files(draw):
    """(document, leaf path, token, command) for a file of either kind."""
    if draw(st.booleans()):
        doc, commands = SINGLE[draw(st.sampled_from(sorted(SINGLE)))], SINGLE_COMMANDS
    else:
        doc, commands = TWO[draw(st.sampled_from(sorted(TWO)))], TWO_COMMANDS
    path = draw(st.sampled_from(numeric_leaves(doc)))
    token = draw(st.sampled_from(IN_RANGE + NOT_A_FINITE_NUMBER))
    return doc, path, token, draw(st.sampled_from(commands))


@SETTINGS
@given(case=mutated_files())
def test_mutated_schedule_file(tmp_path, capsys, case):
    doc, path, token, command = case
    doc, text = render(doc, path, token)
    file = tmp_path / "mutated.json"
    file.write_text(text)
    argv = [a.format(file=file, csv=tmp_path / "p.csv") for a in command]
    rc, out, err, caught = run(capsys, argv)
    check_clean_exit(rc, out, err, caught, tmp_path)

    located = err.startswith(f"error: {file}: ")
    # "version" takes the integer 1 alone, and no token drawn here is that.
    if path == ("version",) or token in NOT_A_FINITE_NUMBER:
        assert rc == 2 and located, err
    if located:
        match = LOCATION.search(err.rstrip("\n"))
        assert match, err
        line, column = int(match.group(1)), int(match.group(2))
        offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1
        _, key = record_and_key(doc, path)
        if "rotation angle" in err:  # an overflowing omega * tau is the duration's
            key = "duration"
        assert offset == key_offset(doc, path, key, token), (err, path, token)


def test_export_path_of_a_total_duration_that_overflows(tmp_path, capsys):
    # Every field is in range, but the durations sum past the largest float.
    seg = {"axis": [0, 0, 1], "omega": 1e-300, "duration": 1.5e308}
    file = tmp_path / "long.json"
    file.write_text(json.dumps({"version": 1, "kind": "single_qubit", "segments": [seg, seg]}))
    argv = ["export-path", str(file), "--chi", "pi/4", "--samples", "3",
            "--out", str(tmp_path / "p.csv")]
    rc, out, err, caught = run(capsys, argv)
    check_clean_exit(rc, out, err, caught, tmp_path)
    assert (rc, err) == (2, "error: the schedule's total duration overflows\n")


# Argument templates: "{}" is the mutated value.
ARGUMENTS = [
    ["synthesize", "--chi", "{}", "--omega", "1", "--omega2", "1", "--out", "{tmp}/s.json"],
    ["synthesize", "--chi", "pi/4", "--omega", "{}", "--omega2", "1", "--out", "{tmp}/s.json"],
    ["synthesize", "--chi", "pi/4", "--omega", "1", "--omega2", "{}", "--out", "{tmp}/s.json"],
    ["verify", "{loop}", "--target", "u_chi:{}"],
    ["verify", "{loop}", "--target", "controlled_u:{}"],
    ["phase", "{loop}", "--chi", "{}"],
    ["phase", "{loop}", "--chi", "pi/4", "--phi", "{}"],
    ["export-path", "{loop}", "--chi", "{}", "--samples", "3", "--out", "{tmp}/p.csv"],
    ["export-path", "{loop}", "--chi", "pi/4", "--phi", "{}", "--samples", "3",
     "--out", "{tmp}/p.csv"],
    ["noise", "{loop}", "--target", "u_chi:{}", "--trials", "3"],
    ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-omega", "{}", "--trials", "3"],
    ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-tau", "{}", "--trials", "3"],
    ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-tau", "0.01", "--seed", "{}",
     "--trials", "3"],
]
# Counts: a large in-range value would allocate samples x segments rows or
# run that many trials, so only small ones and non-integers are drawn.
COUNTS = [
    ["export-path", "{loop}", "--chi", "pi/4", "--samples", "{}", "--out", "{tmp}/p.csv"],
    ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-tau", "0.01", "--trials", "{}"],
]
ARGUMENT_VALUES = [
    "1e200", "1e308", "5e-324", "-1.5", "0", "nan", "inf", "-inf", "true", "x", "[1]",
    "1" + "0" * 400, "1" + "0" * 5000,
    "pi/0", "0pi/0.0", "-2pi/0.00",  # pi-literals with a zero denominator
]
COUNT_VALUES = ["-1", "0", "1", "2", "10", "10000", "1e200", "5e-324", "nan", "inf",
                "true", "x", "[1]"]
mutated_arguments = st.one_of(
    st.tuples(st.sampled_from(ARGUMENTS), st.sampled_from(ARGUMENT_VALUES)),
    st.tuples(st.sampled_from(COUNTS), st.sampled_from(COUNT_VALUES)),
)


@SETTINGS
@given(case=mutated_arguments)
def test_mutated_argument(tmp_path, capsys, case):
    template, value = case
    loop = tmp_path / "loop.json"
    loop.write_text(serialize_schedule(single_loop_schedule(0.785398163397448, 1.0, 1.0)))
    argv = [a.replace("{}", value).format(loop=loop, tmp=tmp_path) for a in template]
    rc, out, err, caught = run(capsys, argv)
    check_clean_exit(rc, out, err, caught, tmp_path)
    assert not LOCATION.search(err)  # no file is at fault
