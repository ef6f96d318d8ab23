import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geoloop
from geoloop.cli import main, parse_angle
from geoloop.schedule_io import load_schedule, save_schedule, serialize_schedule
from geoloop.twoqubit import NmrParams, two_qubit_schedule


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    rc = main(["synthesize", "--chi", "pi/4", "--omega", "1.0", "--omega2", "1.0",
               "--out", str(path)])
    assert rc == 0
    return path


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

    def test_rejects_garbage(self):
        from geoloop.cli import CliError

        with pytest.raises(CliError):
            parse_angle("tau/4")

    @pytest.mark.parametrize(
        "text",
        ["nan", "inf", "-inf", "Infinity", pytest.param("9" * 400 + "pi", id="huge-pi")],
    )
    def test_rejects_non_finite(self, text):
        from geoloop.cli import CliError

        with pytest.raises(CliError):
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


class TestVerify:
    def test_pass_against_closed_form(self, loop_file, capsys):
        rc = main(["verify", str(loop_file), "--target", "u_chi:pi/4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_fail_against_wrong_target(self, loop_file, capsys):
        rc = main(["verify", str(loop_file), "--target", "u_chi:pi/3"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_two_qubit_natural(self, tmp_path, capsys):
        p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5)
        path = tmp_path / "u2.json"
        save_schedule(two_qubit_schedule(1.0, p, "natural"), path)
        assert main(["verify", str(path), "--target", "u2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_two_qubit_line_selective(self, tmp_path, capsys):
        p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5)
        path = tmp_path / "u2p.json"
        save_schedule(two_qubit_schedule(1.0, p, "line_selective"), path)
        assert main(["verify", str(path), "--target", "u2_prime"]) == 0
        assert "PASS" in capsys.readouterr().out

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

    def test_rejects_too_few_samples(self, loop_file, tmp_path):
        assert main(["export-path", str(loop_file), "--chi", "pi/4", "--samples", "1",
                     "--out", str(tmp_path / "p.csv")]) == 2


class TestNoise:
    def test_zero_sigma_all_ones(self, loop_file, capsys):
        rc = main(["noise", str(loop_file), "--target", "u_chi:pi/4",
                   "--trials", "5", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = out.strip().splitlines()
        assert rows[0] == "trial,fidelity"
        for row in rows[1:6]:
            assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

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
}

GOLDEN_FILES = {
    # file written by the setup's synthesize and by the export-path case above
    "loop.json": "8875acd186501e66f391caf2c57155bf5fdde7bd7d1928c45ccb66ef1d79b847",
    "path.csv": "8d9059df96167f4495ebb6adda6857c0491708c33f05f20456d99a3c46f71dfe",
}

GOLDEN_ERRORS = {
    # argv -> (exit code, stderr); nothing is printed on stdout
    "verify loop.json --target hadamard": (2, "error: unknown target 'hadamard'\n"),
    "verify loop.json --target u2":
        (2, "error: schedule produces a 2x2 gate but target 'u2' is 4x4\n"),
    "phase u2.json --chi 0":
        (2, "error: phase reports are defined for single-qubit schedules\n"),
    "phase loop.json --chi nan": (2, "error: angle 'nan' is not finite\n"),
    "phase loop.json --chi 0": (1, "initial state not cyclic\n"),
    "noise loop.json --target u_chi:pi/4 --trials 0": (2, "error: trials must be >= 1\n"),
    "noise loop.json --target u_chi:pi/4 --sigma-tau -1":
        (2, "error: sigmas must be finite and >= 0\n"),
    "noise loop.json --target u2":
        (2, "error: noise sweeps need a single-qubit target (u_chi:...)\n"),
    "synthesize --chi pi/4 --omega nan --omega2 1 --out s.json":
        (2, "error: omega and omega2 must be finite and > 0\n"),
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
    "verify mode.json --target u2":
        (2, "error: mode.json: unknown mode 'magic' (line 1, column 37)\n"),
    "verify longint.json --target u_chi:0":
        (2, "error: longint.json: field 'omega' must be a finite number "
            "(line 2, column 23)\n"),
    "export-path u2.json --chi 0 --out p.csv":
        (2, "error: path export is defined for single-qubit schedules\n"),
    "noise u2.json --target u_chi:0":
        (2, "error: noise sweeps are defined for single-qubit schedules\n"),
}


class TestGoldenBytes:
    """CLI output bytes, pinned; file names are relative to the working directory."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main("synthesize --chi pi/4 --omega 1.0 --omega2 1.0 --out loop.json"
                    .split()) == 0
        p = NmrParams(omega_a=2.0, omega_b=1.0, coupling_j=0.5)
        save_schedule(two_qubit_schedule(1.0, p, "natural"), "u2.json")
        save_schedule(two_qubit_schedule(1.0, p, "line_selective"), "u2p.json")
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

    @pytest.mark.parametrize("argv", GOLDEN_STDOUT)
    def test_stdout(self, capsys, argv):
        capsys.readouterr()
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_STDOUT[argv]

    def test_written_files(self):
        assert main("export-path loop.json --chi pi/4 --samples 50 --out path.csv"
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
