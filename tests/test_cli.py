import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geoloop
from geoloop.cli import main, parse_angle, run
from geoloop.schedule_io import load_schedule, save_schedule, serialize_schedule
from geoloop.twoqubit import NmrParams, two_qubit_schedule


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    rc = main(["synthesize", "--chi", "pi/4", "--omega", "1.0", "--omega2", "1.0",
               "--out", str(path)])
    assert rc == 0
    return path


def main_result(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's usage errors included."""
    capsys.readouterr()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return (rc, *capsys.readouterr())


# The float.hex of each unsigned pi-literal, recorded while parse_angle
# multiplied and divided only by the parts the literal holds.
PI_LITERAL_BITS = {
    "pi": "0x1.921fb54442d18p+1",
    "pi/2": "0x1.921fb54442d18p+0",
    "pi/3": "0x1.0c152382d7365p+0",
    "pi/0.5": "0x1.921fb54442d18p+2",
    "pi/4.25": "0x1.7a78322220c53p-1",
    "0pi": "0x0.0p+0",
    "0pi/2": "0x0.0p+0",
    "0pi/3": "0x0.0p+0",
    "0pi/0.5": "0x0.0p+0",
    "0pi/4.25": "0x0.0p+0",
    "2pi": "0x1.921fb54442d18p+2",
    "2pi/2": "0x1.921fb54442d18p+1",
    "2pi/3": "0x1.0c152382d7365p+1",
    "2pi/0.5": "0x1.921fb54442d18p+3",
    "2pi/4.25": "0x1.7a78322220c53p+0",
    "3.5pi": "0x1.5fdbbe9bba775p+3",
    "3.5pi/2": "0x1.5fdbbe9bba775p+2",
    "3.5pi/3": "0x1.d524fe24f89f1p+1",
    "3.5pi/0.5": "0x1.5fdbbe9bba775p+4",
    "3.5pi/4.25": "0x1.4b292bdddcac8p+1",
    "10pi": "0x1.f6a7a2955385ep+4",
    "10pi/2": "0x1.f6a7a2955385ep+3",
    "10pi/3": "0x1.4f1a6c638d03fp+3",
    "10pi/0.5": "0x1.f6a7a2955385ep+5",
    "10pi/4.25": "0x1.d9163eaaa8f68p+2",
}


class TestParseAngle:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("-pi/3", -math.pi / 3),
            ("2pi/3", 2 * math.pi / 3),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
            ("0.5pi", 0.5 * math.pi),
        ],
    )
    def test_values(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    @pytest.mark.parametrize("literal", PI_LITERAL_BITS)
    def test_bits_pinned(self, sign, literal):
        # A "-" literal is the negated value, -0.0 included.
        expected = ("-" if sign == "-" else "") + PI_LITERAL_BITS[literal]
        assert parse_angle(sign + literal).hex() == expected

    def test_rejects_garbage(self):
        from geoloop.cli import CliError

        with pytest.raises(CliError):
            parse_angle("tau/4")

    @pytest.mark.parametrize(
        "text, shown",
        [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("Infinity", "inf"),
         pytest.param("9" * 400 + "pi", "inf", id="huge-pi")],
    )
    def test_leaves_non_finite_to_the_library(self, text, shown):
        # The field rule of the call that takes the angle rejects it
        # (test_non_finite_angle_meets_its_field_rule).
        assert repr(parse_angle(text)) == shown

    @pytest.mark.parametrize("text", ["pi/0", "0pi/0.0", "-2pi/0.00", "+3.5pi/0"])
    def test_rejects_zero_denominator(self, text):
        from geoloop.cli import CliError

        with pytest.raises(CliError, match=f"^angle {re.escape(repr(text))} "):
            parse_angle(text)


class TestInputErrors:
    """Bad command-line values exit 2 with one 'error: ' line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "{loop}", "--chi", "nan"],
            ["phase", "{loop}", "--chi", "pi/4", "--phi", "inf"],
            ["verify", "{loop}", "--target", "u_chi:inf"],
            ["verify", "{loop}", "--target", "controlled_u:nan"],
            ["export-path", "{loop}", "--chi", "nan", "--out", "{tmp}/p.csv"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--trials", "0"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-tau", "-1"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-tau", "nan",
             "--trials", "2"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-omega", "inf",
             "--trials", "2"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--sigma-omega", "1e308",
             "--trials", "2"],
            ["noise", "{loop}", "--target", "u_chi:pi/4", "--trials", str(2**32 + 1)],
            # omega and duration are finite, their product omega * duration is not
            ["verify", "{huge}", "--target", "u_chi:pi/4"],
            ["noise", "{huge}", "--target", "u_chi:pi/4", "--trials", "2"],
            ["phase", "{huge}", "--chi", "pi/4"],
            ["export-path", "{huge}", "--chi", "pi/4", "--out", "{tmp}/p.csv"],
            # a 401-digit integer, beyond the float range
            ["verify", "{bigint}", "--target", "u_chi:pi/4"],
            ["verify", "{bigaxis}", "--target", "u_chi:pi/4"],
            # a 5001-digit integer, beyond Python's int-string limit
            ["verify", "{longint}", "--target", "u_chi:pi/4"],
            # a pi-literal with a zero denominator, in each kind of angle argument
            ["synthesize", "--chi", "pi/0", "--omega", "1", "--omega2", "1",
             "--out", "{tmp}/s.json"],
            ["verify", "{loop}", "--target", "u_chi:pi/0"],
            ["verify", "{loop}", "--target", "controlled_u:0pi/0.0"],
            ["phase", "{loop}", "--chi", "pi/0"],
            ["phase", "{loop}", "--chi", "pi/4", "--phi", "0pi/0.0"],
            ["export-path", "{loop}", "--chi", "pi/4", "--phi=-pi/0", "--out", "{tmp}/p.csv"],
            ["noise", "{loop}", "--target", "u_chi:pi/0", "--trials", "2"],
        ],
    )
    def test_exits_2(self, loop_file, tmp_path, capsys, argv):
        huge = tmp_path / "huge.json"
        huge.write_text('{"version": 1, "kind": "single_qubit", "segments": [\n'
                        '  {"axis": [0, 0, 1], "omega": 1e200, "duration": 1e200}]}')
        big = "1" + "0" * 400
        bigint = tmp_path / "bigint.json"
        bigint.write_text('{"version": 1, "kind": "single_qubit", "segments": [\n'
                          f'  {{"axis": [0, 0, 1], "omega": {big}, "duration": 1}}]}}')
        bigaxis = tmp_path / "bigaxis.json"
        bigaxis.write_text('{"version": 1, "kind": "single_qubit", "segments": [\n'
                           f'  {{"axis": [0, 0, {big}], "omega": 1, "duration": 1}}]}}')
        longint = tmp_path / "longint.json"
        longint.write_text(bigint.read_text().replace(big, "1" + "0" * 5000))
        argv = [a.format(loop=loop_file, tmp=tmp_path, huge=huge, bigint=bigint,
                         bigaxis=bigaxis, longint=longint) for a in argv]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        captured = capsys.readouterr()
        assert not caught
        assert rc == 2
        assert "nan" not in captured.out.lower()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


class TestSynthesize:
    def test_writes_four_segments(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["synthesize", "--chi", "pi/4", "--omega", "2.0", "--omega2", "0.5",
                   "--out", str(out)])
        assert rc == 0
        sched = load_schedule(out)
        assert len(sched.segments) == 4
        assert sched.segments[3].duration == pytest.approx((math.pi / 2) / 0.5)

    def test_half_pi_has_zero_final_duration(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["synthesize", "--chi", "pi/2", "--omega", "1", "--omega2", "1",
                     "--out", str(out)]) == 0
        assert load_schedule(out).segments[3].duration == 0.0

    def test_chi_out_of_range(self, tmp_path, capsys):
        rc = main(["synthesize", "--chi", "2.0", "--omega", "1", "--omega2", "1",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "chi out of range" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        rc = main(["synthesize", "--chi", "pi/4", "--omega", "1", "--omega2", "1",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("flag", ["--omega", "--omega2"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite_frequency(self, tmp_path, capsys, flag, bad):
        out = tmp_path / "s.json"
        args = {"--omega": "1", "--omega2": "1", flag: bad}
        rc = main(["synthesize", "--chi", "pi/4", *[x for kv in args.items() for x in kv],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# The tests' usual NMR parameters, and a matched accessory field.
TWO_QUBIT_PARAMS = [NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5),
                    NmrParams(5.0, 3.0, 0.8).with_matched_accessory()]


class TestVerify:
    def test_pass_against_closed_form(self, loop_file, capsys):
        rc = main(["verify", str(loop_file), "--target", "u_chi:pi/4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("\nPASS\n")

    @pytest.mark.parametrize("target", ["u_chi:pi/3", "u_chi:0"])
    def test_fail_against_wrong_target(self, loop_file, capsys, target):
        rc = main(["verify", str(loop_file), "--target", target])
        assert rc == 1
        assert capsys.readouterr().out.endswith("\nFAIL\n")

    @pytest.mark.parametrize("p", TWO_QUBIT_PARAMS)
    def test_two_qubit_natural(self, tmp_path, capsys, p):
        path = tmp_path / "u2.json"
        save_schedule(two_qubit_schedule(1.0, p, "natural"), path)
        assert main(["verify", str(path), "--target", "u2"]) == 0
        assert capsys.readouterr().out.endswith("\nPASS\n")

    @pytest.mark.parametrize("p", TWO_QUBIT_PARAMS)
    def test_two_qubit_line_selective(self, tmp_path, capsys, p):
        path = tmp_path / "u2p.json"
        save_schedule(two_qubit_schedule(1.0, p, "line_selective"), path)
        assert main(["verify", str(path), "--target", "u2_prime"]) == 0
        assert capsys.readouterr().out.endswith("\nPASS\n")

    def test_two_qubit_non_finite_pulse(self, tmp_path, capsys):
        p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5)
        path = tmp_path / "u2.json"
        save_schedule(two_qubit_schedule(1.0, p, "natural"), path)
        path.write_text(path.read_text().replace('"omega": 1.0', '"omega": NaN', 1))
        assert main(["verify", str(path), "--target", "u2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("body", ["5", "null"])
    def test_two_qubit_step_body_not_an_object(self, tmp_path, capsys, body):
        path = tmp_path / "u2.json"
        path.write_text('{"version": 1, "kind": "two_qubit", "mode": "natural",\n'
                        f' "steps": [{{"pulse_y": {body}}}]}}')
        assert main(["verify", str(path), "--target", "u2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "pulse_y step must be an object (line 2, column 13)" in err

    def test_controlled_u_from_loop_file(self, loop_file, capsys):
        assert main(["verify", str(loop_file), "--target", "controlled_u:pi/4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["verify", str(bad), "--target", "u_chi:0"]) == 2

    def test_unknown_target(self, loop_file):
        assert main(["verify", str(loop_file), "--target", "hadamard"]) == 2

    @pytest.mark.parametrize("command", ["verify", "noise"])
    @pytest.mark.parametrize("name", ["u_chi", "controlled_u"])
    def test_angle_target_needs_an_angle(self, loop_file, capsys, command, name):
        capsys.readouterr()
        assert main([command, str(loop_file), "--target", name]) == 2
        err = capsys.readouterr().err
        assert err == f"error: target {name} needs an angle, e.g. {name}:pi/4\n"

    @pytest.mark.parametrize("name, mode", [("u2", "natural"),
                                            ("u2_prime", "line_selective")])
    @pytest.mark.parametrize("suffix", ["garbage", "pi/4", ""])
    def test_angle_free_target_rejects_an_angle(self, tmp_path, capsys, name, mode, suffix):
        p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5)
        save_schedule(two_qubit_schedule(1.0, p, mode), tmp_path / "u2.json")
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "u2.json"), "--target", f"{name}:{suffix}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: target {name} takes no angle\n")

    def test_two_qubit_file_against_controlled_u(self, tmp_path, capsys):
        # controlled_u's line-selective propagator is for single-qubit files;
        # a two-qubit file is compared as its own 4x4 gate.
        sched = two_qubit_schedule(1.0, NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5))
        save_schedule(sched, tmp_path / "u2.json")
        assert main(["verify", str(tmp_path / "u2.json"), "--target", "controlled_u:pi/4"]) == 1
        assert capsys.readouterr().out.endswith("FAIL\n")

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json"), "--target", "u2"]) == 2


class TestPhase:
    def test_loop_report(self, loop_file, capsys):
        rc = main(["phase", str(loop_file), "--chi", "pi/4", "--phi", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = dict(line.split() for line in out.strip().splitlines())
        assert float(lines["total"]) == pytest.approx(-math.pi / 2, abs=1e-11)
        assert float(lines["dynamical"]) == pytest.approx(0.0, abs=1e-11)
        assert float(lines["geometric"]) == pytest.approx(-math.pi / 2, abs=1e-11)

    def test_empty_schedule_all_zero(self, tmp_path, capsys):
        from geoloop.core import Schedule

        path = tmp_path / "empty.json"
        save_schedule(Schedule(), path)
        assert main(["phase", str(path), "--chi", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["total", "0", "dynamical", "0", "geometric", "0"]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rejects_non_finite_file_value(self, loop_file, capsys, bad):
        text = loop_file.read_text()
        loop_file.write_text(text.replace('"omega": 1.0', f'"omega": {bad}', 1))
        rc = main(["phase", str(loop_file), "--chi", "pi/4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "nan" not in captured.out.lower()
        assert captured.err.startswith("error: ")

    def test_noncyclic_initial_state(self, loop_file, capsys):
        rc = main(["phase", str(loop_file), "--chi", "0", "--phi", "0"])
        assert rc == 1
        assert "not cyclic" in capsys.readouterr().err


class TestExportPath:
    def test_csv_contents(self, tmp_path, capsys):
        loop = tmp_path / "loop.json"
        main(["synthesize", "--chi", "pi/2", "--omega", "1", "--omega2", "1",
              "--out", str(loop)])
        out = tmp_path / "path.csv"
        rc = main(["export-path", str(loop), "--chi", "pi/2", "--samples", "50",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-12)
        last = [float(v) for v in lines[-1].split(",")]
        assert np.allclose(first[1:], last[1:], atol=1e-9)
        assert out.read_text().endswith("\n")

    def test_boundary_only_sampling(self, loop_file, tmp_path):
        out = tmp_path / "path.csv"
        assert main(["export-path", str(loop_file), "--chi", "pi/4", "--samples", "2",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        # header + initial point + one boundary point per segment
        assert len(rows) == 2 + 4

    def test_unwritable_out(self, loop_file, tmp_path, capsys):
        out = tmp_path / "missing" / "path.csv"
        assert main(["export-path", str(loop_file), "--chi", "pi/4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_rejects_too_few_samples(self, loop_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["export-path", str(loop_file), "--chi", "pi/4", "--samples", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: samples_per_segment must be >= 2, got 1\n"
        assert not out.exists()

    def test_rejects_a_path_over_the_row_cap(self, loop_file, tmp_path, capsys):
        # Run against a tree without the cap, this asks for about 128 GB.
        out = tmp_path / "p.csv"
        assert main(["export-path", str(loop_file), "--chi", "pi/4", "--samples", "1000000000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: samples_per_segment gives 3999999997 path rows, more than 16777216\n"
        )
        assert not out.exists()


class TestNoise:
    def test_zero_sigma_all_ones(self, loop_file, capsys):
        # Every trial is the unperturbed loop: one and the same fidelity.
        rc = main(["noise", str(loop_file), "--target", "u_chi:pi/4",
                   "--trials", "100", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        assert rows[0] == "trial,fidelity"
        fidelities = {row.split(",")[1] for row in rows[1:101]}
        assert len(fidelities) == 1 and rows[101].startswith("mean,")
        assert float(fidelities.pop()) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_output(self, loop_file, capsys):
        args = ["noise", str(loop_file), "--target", "u_chi:pi/4",
                "--sigma-tau", "0.02", "--trials", "20", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_small_sigma_high_mean(self, loop_file, capsys):
        rc = main(["noise", str(loop_file), "--target", "u_chi:pi/4",
                   "--sigma-tau", "0.01", "--trials", "1000", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        mean = float([r for r in out.splitlines() if r.startswith("mean,")][0].split(",")[1])
        assert mean >= 0.99

    def test_rejects_two_qubit_target(self, loop_file):
        assert main(["noise", str(loop_file), "--target", "u2"]) == 2

    def test_seeded_output_bytes_pinned(self, loop_file, capsys):
        # sha256 of the output before sweeps seeded their streams in batches.
        rc = main(["noise", str(loop_file), "--target", "u_chi:pi/4",
                   "--sigma-omega", "0.02", "--sigma-tau", "0.01",
                   "--trials", "300", "--seed", "7"])
        assert rc == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "16805a8422501402dcc8b8daf62c97dff345892eff945931ffe043f2c73e4e8c"


def test_round_trip_through_cli_files(tmp_path):
    loop = tmp_path / "loop.json"
    main(["synthesize", "--chi", "pi/3", "--omega", "1.25", "--omega2", "0.75",
          "--out", str(loop)])
    sched = load_schedule(loop)
    assert serialize_schedule(sched) == loop.read_text()


def test_cli_import_does_not_load_numpy_random():
    # numpy.random is imported only when a sweep draws; importing it up
    # front would slow every CLI process.
    code = "import sys, geoloop.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(geoloop.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


# Runs `python -m geoloop.cli ARGS` in this process, then prints the names of
# the loaded modules as the last line of stdout. A command that returns ends
# in os._exit, which skips the finally block, so the probe prints from a
# wrapped os._exit; a command that raises (SystemExit included) prints from
# the finally block.
CLI_PROBE = """
import json, os, runpy, sys
def print_modules():
    print(json.dumps(sorted(sys.modules)))
def print_modules_and_exit(code, _exit=os._exit):
    print_modules()
    sys.stdout.flush()
    _exit(code)
os._exit = print_modules_and_exit
try:
    runpy.run_module("geoloop.cli", run_name="__main__")
finally:
    print_modules()
"""


def probe_cli(cwd, *argv):
    """(exit code, stdout without the module line, stderr, loaded module names)."""
    env = {**os.environ, "PYTHONPATH": str(Path(geoloop.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], capture_output=True,
                         text=True, env=env, cwd=cwd, timeout=60)
    *out, modules = run.stdout.splitlines()
    return run.returncode, out, run.stderr, set(json.loads(modules))


# Modules that no command needs before it computes: records are plain classes.
COLD_UNUSED = {"numpy", "dataclasses", "inspect"}


def test_cold_commands_load_no_numpy(tmp_path):
    # Writing a schedule, and rejecting a file that does not parse, need no
    # numerics: these processes must not pay for the numpy import, nor for
    # dataclasses and the inspect module it loads.
    rc, out, err, modules = probe_cli(
        tmp_path, "synthesize", "--chi", "pi/4", "--omega", "1.0", "--omega2", "1.0",
        "--out", "loop.json")
    assert (rc, out, err) == (0, ["wrote loop.json"], "")
    assert not COLD_UNUSED & modules
    text = (tmp_path / "loop.json").read_text()
    (tmp_path / "bad.json").write_text(text.replace('"label"', '"colour": "red", "label"'))
    for argv in (["verify", "bad.json", "--target", "u_chi:pi/4"],
                 ["phase", "bad.json", "--chi", "pi/4"],
                 ["export-path", "bad.json", "--chi", "pi/4", "--out", "p.csv"],
                 ["noise", "bad.json", "--target", "u_chi:pi/4"]):
        rc, out, err, modules = probe_cli(tmp_path, *argv)
        assert (rc, out) == (2, []), argv
        assert err == ("error: bad.json: unknown field 'colour' in schedule file "
                       "(line 4, column 3)\n")
        assert not COLD_UNUSED & modules, argv


@pytest.mark.parametrize("argv, unused", [
    (["verify", "loop.json", "--target", "u_chi:pi/4"],
     {"geoloop.noise", "geoloop.phases", "numpy.random", "dataclasses"}),
    (["phase", "loop.json", "--chi", "pi/4"], {"geoloop.noise", "numpy.random", "dataclasses"}),
    (["export-path", "loop.json", "--chi", "pi/4", "--out", "p.csv"],
     {"geoloop.noise", "numpy.random", "dataclasses"}),
    (["noise", "loop.json", "--target", "u_chi:pi/4", "--sigma-tau", "0.01", "--trials", "5"],
     {"geoloop.phases"}),
    (["noise", "loop.json", "--target", "u_chi:pi/4", "--trials", "5"],
     {"geoloop.phases", "numpy.random"}),
])
def test_commands_load_only_what_they_compute(tmp_path, argv, unused):
    main(["synthesize", "--chi", "pi/4", "--omega", "1.0", "--omega2", "1.0",
          "--out", str(tmp_path / "loop.json")])
    rc, _, err, modules = probe_cli(tmp_path, *argv)
    assert (rc, err) == (0, "")
    assert "numpy" in modules
    assert not unused & modules


PROCESS_CASES = {
    # argv -> (exit code, stdout lines); run in a directory holding loop.json
    # (the paper loop at chi = pi/4) and bad.json (that file with an unknown key)
    "synthesize --chi pi/3 --omega 1.25 --omega2 0.75 --out new.json": (0, 1),
    "verify loop.json --target u_chi:pi/4": (0, 3),
    "verify loop.json --target u_chi:0": (1, 3),
    "verify loop.json --target controlled_u:pi/4": (0, 3),
    "phase loop.json --chi pi/4": (0, 3),
    "phase loop.json --chi 0": (1, 0),
    "export-path loop.json --chi pi/4 --samples 50 --out path.csv": (0, 1),
    # the header, 2000 trial rows and three summary rows: a lost flush shows
    "noise loop.json --target u_chi:pi/4 --sigma-omega 0.02 --sigma-tau 0.01"
    " --trials 2000 --seed 7": (0, 2004),
    "verify bad.json --target u_chi:pi/4": (2, 0),
    "verify loop.json": (2, 0),
}


@pytest.mark.parametrize("argv", PROCESS_CASES)
def test_process_matches_main(tmp_path, monkeypatch, capsys, argv):
    # `python -m geoloop.cli` ends in os._exit: it must exit, print and write
    # what main() does in process. Without PYTHONUNBUFFERED, stdout to a pipe
    # is block-buffered, so output that is never flushed goes missing.
    monkeypatch.chdir(tmp_path)
    assert main("synthesize --chi pi/4 --omega 1.0 --omega2 1.0 --out loop.json"
                .split()) == 0
    text = Path("loop.json").read_text()
    Path("bad.json").write_text(text.replace('"label"', '"colour": "red", "label"'))
    before = set(os.listdir())
    env = {**os.environ, "PYTHONPATH": str(Path(geoloop.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "geoloop.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    written = {name: Path(name).read_bytes() for name in set(os.listdir()) - before}
    for name in written:
        os.remove(name)
    rc, out, err = main_result(capsys, argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out, err)
    assert (rc, len(out.splitlines())) == PROCESS_CASES[argv]
    assert written == {name: Path(name).read_bytes() for name in set(os.listdir()) - before}


def test_run_leaves_through_sys_exit_when_a_flush_fails(monkeypatch):
    # Interpreter teardown then flushes again and reports the failure, as it
    # does for a plain sys.exit(main()).
    class BrokenPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def no_exit(code):
        raise AssertionError(f"os._exit({code}) after a failed flush")

    monkeypatch.setattr("geoloop.cli.main", lambda: 1)
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    monkeypatch.setattr(os, "_exit", no_exit)
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 1


def cli_process(loop_file, *argv, **popen):
    """Popen of `python -m geoloop.cli ARGV` in the directory of loop_file."""
    env = {**os.environ, "PYTHONPATH": str(Path(geoloop.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-m", "geoloop.cli", *argv], env=env,
                            cwd=loop_file.parent, stderr=subprocess.PIPE, text=True, **popen)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("chi, expected", [
    ("pi/4", (2, "error: cannot write stdout: [Errno 28] No space left on device\n")),
    # A command with nothing to print writes nothing: the full device goes unnoticed.
    ("0", (1, "initial state not cyclic\n")),
])
def test_stdout_on_a_full_device(loop_file, chi, expected):
    with open("/dev/full", "w") as full:
        proc = cli_process(loop_file, "phase", "loop.json", "--chi", chi, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == expected


def test_stdout_pipe_closed_by_the_reader(loop_file):
    # 200 000 rows are about 5 MB, far beyond a pipe's buffer: the write
    # fails once the reader has gone, whenever it closes its end.
    proc = cli_process(loop_file, "noise", "loop.json", "--target", "u_chi:pi/4",
                       "--sigma-tau", "0.01", "--trials", "200000", stdout=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_main_returns_2_when_stdout_cannot_be_written(loop_file, monkeypatch):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullDisk())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(["verify", str(loop_file), "--target", "u_chi:pi/4"]) == 2
    assert sys.stderr.getvalue() == (
        "error: cannot write stdout: [Errno 28] No space left on device\n")


GOLDEN_STDOUT = {
    # argv -> sha256 of stdout, recorded before schedule validation moved
    # into the constructors; every one of these commands exits 0.
    "verify loop.json --target u_chi:pi/4":
        "81bd120cb6f2160070b7ceea50c07e80bb6639c4a3e1f677d3702cb223b61d4f",
    "verify loop.json --target controlled_u:pi/4":
        "81bd120cb6f2160070b7ceea50c07e80bb6639c4a3e1f677d3702cb223b61d4f",
    "verify u2.json --target u2":
        "a432bb5e179ad55b1ec2c578c2ffa5df12a2da380a9c43af6f2d477a8764c7ec",
    "verify u2p.json --target u2_prime":
        "ac29e039c61a51a993f3dcb77f0ec017844c948c6e849f4fa39b8ade3b6e2158",
    "phase loop.json --chi pi/4":
        "2e0a675eb1613b09bdfc23eb4edfbed9944625f105dc6362c076f4502d8f64f7",
    "export-path loop.json --chi pi/4 --samples 50 --out path.csv":
        "18138a12beba462ef02ae33fd1b0d5f5a9c2437f4dcc5bf912767e90d3b8ce54",
    # 600 trials span two TRIAL_BLOCK blocks; recorded before z steps were
    # applied as diagonal scalings.
    "noise loop.json --target u_chi:pi/4 --sigma-omega 0.02 --sigma-tau 0.01"
    " --trials 600 --seed 7":
        "772f1fae432a277de09918c5b0612b7c00c0d3ab63270a93288f643f814d2f71",
    # The entries below were first pinned in the CI workflow's installed-command
    # step. The benchmark's trial count: four blocks, the last one partial.
    "noise loop.json --target u_chi:pi/4 --sigma-omega 0.02 --sigma-tau 0.01"
    " --trials 2000 --seed 7":
        "d2a55bb31075386de3f9da67e3270f0f8b9a85a7dd3419c3c425ece15d49e3d8",
    # The block product's other two shapes over a whole block and part of a
    # second: an empty schedule (its trials cannot differ, so one is
    # propagated; u_chi is traceless, so every fidelity is 0) and z segments
    # only (diagonal).
    "noise empty.json --target u_chi:pi/4 --sigma-omega 0.02 --sigma-tau 0.01"
    " --trials 600 --seed 7":
        "c88c72eecf58444db51927d52903ceed58263fc8d14b25bac634b6fe20f00585",
    "noise zonly.json --target u_chi:pi/4 --sigma-omega 0.02 --sigma-tau 0.01"
    " --trials 600 --seed 7":
        "e2da3c27a518f20d0fbf48c70836148e56a45e341092e7ec3ab1bce25eeab278",
    # A seed of two 32-bit words over two blocks, with draws large enough to be
    # clamped at zero and trials whose draws the ziggurat's fast path leaves to
    # numpy.
    "noise loop.json --target u_chi:pi/4 --sigma-omega 0.3 --sigma-tau 0.2"
    " --trials 1100 --seed 18446744073709551615":
        "254ca69fef27fec1e06a5b844a753b7e744467e1acedab88bea63f4f573c86bd",
}

GOLDEN_HELP = {
    # command -> sha256 of its --help text at COLUMNS=80, recorded while each
    # command declared every argument itself; --help exits 0.
    "synthesize": "bda7caa7724006676661621a2dfd65f0eb23661aeead810f4960c3a4bffe8fc1",
    "verify": "60b95b58ca69fbcae6c623d0f186072d687275c1f1ce7b9be7e0f7211813d15d",
    "phase": "4a35439a8e10033f88e4bb1f8b653f08e8a2c88ed692f6e0f10165ad0ddbb1f8",
    "export-path": "a41ddbd8f30a17e28f433bf0c21403dec985ca733e35fd19fcfdd1643336d7a8",
    "noise": "c0d832b88fe079bb13403ae8282cebd31d212953a695b652a78a10b742e8e559",
}


@pytest.mark.parametrize("command", GOLDEN_HELP)
def test_help_text(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_HELP[command]


# Each angle argument -> the argv with "@" for its value, and the rule that
# rejects a NaN or infinite value there: the library's field rule, not parse_angle.
ANGLE_ARGUMENTS = {
    "synthesize --chi": (["synthesize", "--chi=@", "--omega", "1", "--omega2", "1",
                          "--out", "{tmp}/s.json"], "chi out of range [0, pi/2], got {v}"),
    "phase --chi": (["phase", "{loop}", "--chi=@"], "chi must be finite, got {v}"),
    "phase --phi": (["phase", "{loop}", "--chi", "pi/4", "--phi=@"],
                    "phi must be finite, got {v}"),
    "export-path --chi": (["export-path", "{loop}", "--chi=@", "--out", "{tmp}/p.csv"],
                          "chi must be finite, got {v}"),
    "verify u_chi": (["verify", "{loop}", "--target", "u_chi:@"], "chi must be finite, got {v}"),
    "verify controlled_u": (["verify", "{loop}", "--target", "controlled_u:@"],
                            "chi out of range [0, pi/2], got {v}"),
    "noise u_chi": (["noise", "{loop}", "--target", "u_chi:@", "--trials", "2"],
                    "chi must be finite, got {v}"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ANGLE_ARGUMENTS)
def test_non_finite_angle_meets_its_field_rule(loop_file, tmp_path, capsys, name, value):
    template, message = ANGLE_ARGUMENTS[name]
    argv = [a.format(loop=loop_file, tmp=tmp_path).replace("@", value) for a in template]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(v=value)}\n"
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "p.csv").exists()


# Each option that takes a value -> an argv with "@" for that value.
VALUE_OPTIONS = {
    "--chi": "phase {loop} --chi @",
    "--phi": "phase {loop} --chi pi/4 --phi @",
    "--omega": "synthesize --chi pi/4 --omega @ --omega2 1 --out s.json",
    "--omega2": "synthesize --chi pi/4 --omega 1 --omega2 @ --out s.json",
    "--out": "synthesize --chi pi/4 --omega 1 --omega2 1 --out @",
    "--target": "verify {loop} --target @",
    "--samples": "export-path {loop} --chi pi/4 --samples @ --out p.csv",
    "--sigma-omega": "noise {loop} --target u_chi:pi/4 --sigma-omega @ --trials 2",
    "--sigma-tau": "noise {loop} --target u_chi:pi/4 --sigma-tau @ --trials 2",
    "--trials": "noise {loop} --target u_chi:pi/4 --trials @",
    "--seed": "noise {loop} --target u_chi:pi/4 --sigma-tau 0.01 --trials 2 --seed @",
}


@pytest.mark.parametrize("value", ["-pi/3", "-1e-3", "-inf", "-pi/0", "-7"])
@pytest.mark.parametrize("option", VALUE_OPTIONS)
def test_negative_value_after_a_space(loop_file, tmp_path, monkeypatch, capsys, option, value):
    # argparse takes "-pi/3" for an option; "OPT -pi/3" must read as "OPT=-pi/3".
    monkeypatch.chdir(tmp_path)
    argv = VALUE_OPTIONS[option].format(loop=loop_file).split()
    at = argv.index("@")
    spaced = main_result(capsys, [*argv[:at], value, *argv[at + 1:]])
    joined = main_result(capsys, [*argv[:at - 1], f"{option}={value}", *argv[at + 1:]])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_negative_value_after_a_space_in_sys_argv(loop_file, monkeypatch, capsys):
    # A process reads its arguments from sys.argv.
    argv = ["phase", str(loop_file), "--chi", "pi/4", "--phi"]
    monkeypatch.setattr(sys, "argv", ["geoloop", *argv, "-2pi"])
    spaced = main_result(capsys, None)
    assert spaced == main_result(capsys, [*argv[:-1], "--phi=-2pi"])
    assert spaced[0] == 0


@pytest.mark.parametrize("argv, option", [
    ("phase {loop} --phi --chi pi/4", "--phi"),
    ("phase {loop} --chi --phi -pi/3", "--chi"),
])
def test_a_missing_value_is_still_a_usage_error(loop_file, capsys, argv, option):
    rc, out, err = main_result(capsys, argv.format(loop=loop_file).split())
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected one argument\n")


GOLDEN_FILES = {
    # file written by the setup's synthesize and by the export-path case above
    "loop.json": "8875acd186501e66f391caf2c57155bf5fdde7bd7d1928c45ccb66ef1d79b847",
    "path.csv": "8d9059df96167f4495ebb6adda6857c0491708c33f05f20456d99a3c46f71dfe",
    # First pinned in the CI workflow's installed-command step. 5000 samples
    # per segment fill a whole PATH_BLOCK block and part of a second.
    "path5000.csv": "0b375f4269187a022ba6e1f73e5e885b773609dc0b0a07b64a961b878605414d",
    # The conditional gates in both modes, at a matched accessory field.
    "u2-matched.json": "124ca5c6247837e240a82be35e20c460c590855c9f1ad3a1b214f91f88574882",
    "u2p-matched.json": "48b7d37b48196dec9748d0d0f16f6663a0fe9842cd1d2bf07bd65992286c181e",
}

GOLDEN_ERRORS = {
    # argv -> (exit code, stderr); nothing is printed on stdout
    "verify loop.json --target hadamard": (2, "error: unknown target 'hadamard'\n"),
    "verify loop.json --target u2":
        (2, "error: schedule produces a 2x2 gate but target 'u2' is 4x4\n"),
    "phase u2.json --chi 0":
        (2, "error: phase reports are defined for single-qubit schedules\n"),
    "phase loop.json --chi nan": (2, "error: chi must be finite, got nan\n"),
    "phase loop.json --chi pi/0": (2, "error: angle 'pi/0' has a zero denominator\n"),
    "phase loop.json --chi 0": (1, "initial state not cyclic\n"),
    "noise loop.json --target u_chi:pi/4 --trials 0":
        (2, "error: trials must be >= 1, got 0\n"),
    "noise loop.json --target u_chi:pi/4 --sigma-tau -1":
        (2, "error: sigma_tau must be finite and >= 0, got -1.0\n"),
    "noise loop.json --target u2":
        (2, "error: noise sweeps need a single-qubit target (u_chi:...)\n"),
    "synthesize --chi pi/4 --omega nan --omega2 1 --out s.json":
        (2, "error: omega must be finite and > 0, got nan\n"),
    "verify missing.json --target u2":
        (2, "error: cannot read missing.json: [Errno 2] No such file or directory: "
            "'missing.json'\n"),
    "verify broken.json --target u2":
        (2, "error: broken.json: Expecting property name enclosed in double quotes "
            "(line 1, column 2)\n"),
    "verify unknown.json --target u_chi:0":
        (2, "error: unknown.json: unknown field 'phase' in segment (line 2, column 50)\n"),
    "verify axis.json --target u_chi:0":
        (2, "error: axis.json: invalid segment: axis norm 1.7320508075688772 differs "
            "from 1 (line 2, column 16)\n"),
    "verify u2.json --target u2:garbage": (2, "error: target u2 takes no angle\n"),
    "verify u2p.json --target u2_prime:pi/4":
        (2, "error: target u2_prime takes no angle\n"),
    "verify mode.json --target u2":
        (2, "error: mode.json: unknown mode 'magic' (line 1, column 37)\n"),
    "verify longint.json --target u_chi:0":
        (2, "error: longint.json: invalid segment: omega must be finite and >= 0, got inf "
            "(line 2, column 23)\n"),
    "export-path u2.json --chi 0 --out p.csv":
        (2, "error: path export is defined for single-qubit schedules\n"),
    "noise u2.json --target u_chi:0":
        (2, "error: noise sweeps are defined for single-qubit schedules\n"),
    # Run against a tree without noise.MAX_TRIALS, this sweeps 8388609 trials.
    "noise loop.json --target u_chi:pi/4 --trials 8388609":
        (2, "error: trials must be <= 8388608, got 8388609\n"),
    # First pinned in the CI workflow's installed-command step.
    "synthesize --chi pi/4 --omega 0 --omega2 1 --out x.json":
        (2, "error: omega must be finite and > 0, got 0.0\n"),
    # A 400-digit integer reads as inf, as 1e400 does, and meets the field's rule.
    "verify big.json --target u_chi:0":
        (2, "error: big.json: invalid segment: omega must be finite and >= 0, got inf "
            "(line 1, column 73)\n"),
}


def test_non_string_label_is_an_input_error_at_its_key(tmp_path, capsys):
    file = tmp_path / "label.json"
    file.write_text('{"version": 1, "kind": "single_qubit",\n "label": 5, "segments": []}')
    capsys.readouterr()
    assert main(["verify", str(file), "--target", "u_chi:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {file}: label must be a string, got 5 (line 2, column 2)\n")


@pytest.mark.parametrize("command", [["verify", "--target", "u_chi:0"],
                                     ["noise", "--target", "u_chi:0", "--sigma-tau", "0.1"]])
def test_surrogate_label_is_an_input_error_at_its_key(tmp_path, capsys, command):
    file = tmp_path / "label.json"
    file.write_text('{"version": 1, "kind": "single_qubit",\n'
                    ' "label": "loop \\udfff", "segments": []}')
    capsys.readouterr()
    assert main([command[0], str(file), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {file}: label must not hold surrogate code points, "
                            "got 'loop \\udfff' (line 2, column 2)\n")


@pytest.mark.parametrize("command", [["verify", "--target", "u_chi:0"],
                                     ["phase", "--chi", "pi/4"]])
def test_deeply_nested_file_is_an_input_error(tmp_path, capsys, command):
    file = tmp_path / "deep.json"
    file.write_text('{"version": 1, "kind": "single_qubit",\n "segments": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    capsys.readouterr()
    assert main([command[0], str(file), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {file}: arrays and objects nest 100001 deep, "
                            "too deep to parse (line 2, column 100013)\n")


def test_non_utf8_file_is_an_input_error_at_its_byte(tmp_path, capsys):
    file = tmp_path / "bad.json"
    file.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["verify", str(file), "--target", "u_chi:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {file}: invalid UTF-8 at byte 0xff: invalid start byte (line 1, column 1)\n")


class TestGoldenBytes:
    """CLI output bytes, pinned; file names are relative to the working directory."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main("synthesize --chi pi/4 --omega 1.0 --omega2 1.0 --out loop.json"
                    .split()) == 0
        for p, suffix in zip(TWO_QUBIT_PARAMS, ["", "-matched"]):
            save_schedule(two_qubit_schedule(1.0, p, "natural"), f"u2{suffix}.json")
            save_schedule(two_qubit_schedule(1.0, p, "line_selective"), f"u2p{suffix}.json")
        head = '{"version": 1, "kind": "single_qubit", "segments": [\n  '
        (tmp_path / "broken.json").write_text("{broken")
        (tmp_path / "unknown.json").write_text(
            head + '{"axis": [0, 0, 1], "omega": 1, "duration": 1, "phase": 0}]}')
        (tmp_path / "axis.json").write_text(
            head + '{"omega": 1, "axis": [1, 1, 1], "duration": 1}]}')
        (tmp_path / "mode.json").write_text(
            '{"version": 1, "kind": "two_qubit", "mode": "magic", "steps": []}')
        (tmp_path / "longint.json").write_text(
            head + '{"axis": [0, 0, 1], "omega": 1%s, "duration": 1}]}' % ("0" * 5000))
        one_line = '{"version": 1, "kind": "single_qubit", "segments": [%s]}\n'
        (tmp_path / "empty.json").write_text(one_line % "")
        (tmp_path / "zonly.json").write_text(one_line % (
            '{"axis": [0, 0, 1], "omega": 1, "duration": 0.5}, '
            '{"axis": [0, 0, -1], "omega": 2, "duration": 0.3}'))
        (tmp_path / "big.json").write_text(one_line % (
            '{"axis": [0, 0, 1], "omega": 1%s, "duration": 1}' % ("0" * 399)))

    @pytest.mark.parametrize("argv", GOLDEN_STDOUT)
    def test_stdout(self, capsys, argv):
        capsys.readouterr()
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_STDOUT[argv]

    def test_written_files(self):
        for samples, out in [(50, "path.csv"), (5000, "path5000.csv")]:
            assert main(f"export-path loop.json --chi pi/4 --samples {samples} --out {out}"
                        .split()) == 0
        for name, digest in GOLDEN_FILES.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv", GOLDEN_ERRORS)
    def test_errors(self, capsys, argv):
        capsys.readouterr()
        rc = main(argv.split())
        captured = capsys.readouterr()
        assert (rc, captured.err) == GOLDEN_ERRORS[argv]
        assert captured.out == ""
