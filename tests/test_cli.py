import math

import numpy as np
import pytest

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

    def test_controlled_u_from_loop_file(self, loop_file, capsys):
        assert main(["verify", str(loop_file), "--target", "controlled_u:pi/4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["verify", str(bad), "--target", "u_chi:0"]) == 2

    def test_unknown_target(self, loop_file):
        assert main(["verify", str(loop_file), "--target", "hadamard"]) == 2

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


def test_round_trip_through_cli_files(tmp_path):
    loop = tmp_path / "loop.json"
    main(["synthesize", "--chi", "pi/3", "--omega", "1.25", "--omega2", "0.75",
          "--out", str(loop)])
    sched = load_schedule(loop)
    assert serialize_schedule(sched) == loop.read_text()
