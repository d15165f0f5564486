"""Command-line interface: formats, exit codes, per-point errors, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import qgasgeo
from qgasgeo import GasSpec, checks, curvature_closed_form
from qgasgeo.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCurvatureSweeps:
    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--stat", "boson", "--dim", "3",
                   "--q", "0.5,2", "--z", "0.1,0.9", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["error"] == ""
            want = curvature_closed_form(
                GasSpec(row["statistics"], float(row["q"]), int(row["D"])),
                float(row["z"])).R_reduced
            # 17 significant digits survive the text round trip bit for bit
            assert float(row["R_reduced"]) == want

    def test_json_structure(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["curvature-q", "--stat", "fermion", "--dim", "2",
                   "--q", "1,3", "--z", "0.5", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["mode"] == "curvature-q"
        assert doc["metadata"]["normalization"] == "paper"
        assert len(doc["rows"]) == 2
        assert {"statistics", "D", "q", "z", "R_reduced", "normalization", "error"} \
            <= set(doc["rows"][0])

    @pytest.mark.parametrize("argv", [
        ["curvature-z", "--q", "1", "--z", "0.5"],
        ["curvature-q", "--q", "1", "--z", "0.5"],
        ["virial", "--q", "1"],
        ["signtable"],
    ])
    def test_json_metadata_names_the_subcommand(self, argv, tmp_path):
        out = tmp_path / "r.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        metadata = json.loads(out.read_text())["metadata"]
        assert metadata["mode"] == argv[0]
        assert set(metadata) == {"generator", "version", "mode", "normalization", "rel_tol"}

    @pytest.mark.parametrize("command", ["curvature-z", "curvature-q"])
    def test_both_values_bad_names_z(self, command, capsys):
        # the sweeps parse --z before --q
        with pytest.raises(SystemExit) as err:
            main([command, "--q", "oops", "--z", "oops"])
        assert err.value.code == 1
        assert "cannot parse z specification 'oops'" in capsys.readouterr().err

    def test_range_grid(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--q", "1", "--z", "0.1:0.9", "--points", "5",
                   "--out", str(out)])
        assert rc == 0
        zs = [float(r["z"]) for r in read_csv(out)]
        assert zs == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])

    def test_per_point_error_column(self, tmp_path):
        # z = 1.5 is outside the boson domain; the sweep must carry on
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--stat", "boson", "--q", "1",
                   "--z", "0.5,1.5", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        good = [r for r in rows if r["error"] == ""]
        bad = [r for r in rows if r["error"] != ""]
        assert len(good) == 1 and len(bad) == 1
        assert bad[0]["z"] == "1.5"
        assert bad[0]["R_reduced"] == ""
        assert bad[0]["error"].startswith("DomainError: boson fugacity must satisfy z < 1")

    def test_tiny_deformation_fermion_row(self, tmp_path):
        # q ** -2 overflows a double here; the row still gets a value
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--stat", "fermion", "--q", "1e-160", "--z", "0.5",
                   "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["error"] == ""
        assert math.isfinite(float(row["R_reduced"]))

    def test_huge_fugacity_fermion_row(self, tmp_path):
        # z = 1e80 used to end in NaN (F0^2 overflowed); above 4.74e153 the
        # z^2 term of F3 overflows and the row names z
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--stat", "fermion", "--dim", "3", "--q", "0.5",
                   "--z", "1e80,1e160", "--out", str(out)])
        assert rc == 0
        good, bad = read_csv(out)
        assert good["error"] == ""
        assert math.isfinite(float(good["R_reduced"]))
        assert bad["R_reduced"] == ""
        assert bad["error"].startswith("DomainError: fermion fugacity must satisfy z <= 4.74e+153")

    def test_tiny_fugacity_rows(self, tmp_path):
        # z = 1e-100 used to end the sweep in a ZeroDivisionError traceback;
        # below z = 2^-511 the row names the limit
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--q", "1.15", "--z", "1e-100,1e-300", "--out", str(out)])
        assert rc == 0
        good, bad = read_csv(out)
        assert good["error"] == ""
        assert math.isfinite(float(good["R_reduced"]))
        assert bad["R_reduced"] == ""
        assert bad["error"].startswith("DomainError: R needs z > 1.492e-154")

    def test_all_points_invalid_exit_2(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--stat", "boson", "--q", "1",
                   "--z", "1.5,2.5", "--out", str(out)])
        assert rc == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curvature-z", "--q", "0.5,1.15", "--z", "0.2,0.8"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_text() == b.read_text()


class TestVirialCommand:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["virial", "--q", "1", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert list(row) == ["q", "alpha", "delta", "eta", "zeta"]
        assert float(row["alpha"]) == pytest.approx(2.0 ** -3.5, abs=1e-16)
        assert float(row["eta"]) == pytest.approx(-0.125, abs=1e-16)
        assert float(row["zeta"]) == pytest.approx(0.125, abs=1e-16)

    def test_threshold_row_vanishes(self, tmp_path):
        out = tmp_path / "v.csv"
        main(["virial", "--q", repr(math.sqrt(2.0)), "--out", str(out)])
        assert abs(float(read_csv(out)[0]["eta"])) < 1e-15

    def test_extreme_deformation_rows(self, tmp_path):
        # the q -> 0 and q -> inf limits, where 1 + q^2 or 1 + q^-2 overflows
        out = tmp_path / "v.csv"
        rc = main(["virial", "--q", "1e-160,1e160", "--out", str(out)])
        assert rc == 0
        small, large = ({k: float(v) for k, v in row.items()} for row in read_csv(out))
        s = 2.0 ** -0.5
        want_small = {"alpha": s / 4, "delta": (s - 3.0) / 4, "eta": -0.5, "zeta": 0.25}
        want_large = {"alpha": (s - 1.0) / 4, "delta": s / 4, "eta": 0.25, "zeta": 0.0}
        for row, want in ((small, want_small), (large, want_large)):
            for key, value in want.items():
                assert row[key] == pytest.approx(value, abs=1e-16)

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_nonpositive_q_is_a_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as err:
            main(["virial", "--q", bad])
        assert err.value.code == 1
        assert f"got {float(bad)!r}" in capsys.readouterr().err

    def test_huge_deformation_row(self, tmp_path):
        # q^2 - 1 overflows a double here; the row still gets a value
        out = tmp_path / "r.csv"
        rc = main(["curvature-z", "--q", "1e160", "--z", "0.5", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["error"] == ""
        assert math.isfinite(float(row["R_reduced"]))


class TestSignTable:
    EXPECTED = (
        ["+", "+", "+", "-", "-"]      # D=3 boson  q = 0.5, 1, 1.2, 1.35, 2
        + ["-", "-", "-", "+"]          # D=3 fermion q = 0.5, 1, 1.9, 2.5
        + ["+", "+", "+", "-", "-"]    # D=2 boson  q = 0.5, 1, 1.3, 1.5, 2
        + ["-", "-", "-", "-"]          # D=2 fermion q = 0.5, 1, 2, 10
    )

    def test_csv_signs(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["signtable", "--format", "csv", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [r["sign"] for r in rows] == self.EXPECTED
        assert all(float(r["z"]) == 0.05 for r in rows)

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_every_row_failed_exit_2(self, fmt, tmp_path):
        # z = 1e200 is outside every gas's domain (bosons z < 1, fermions z <= 4.74e153)
        out = tmp_path / "s.txt"
        assert main(["signtable", "--z", "1e200", "--format", fmt, "--out", str(out)]) == 2

    def test_table_rendering(self, tmp_path):
        out = tmp_path / "s.txt"
        rc = main(["signtable", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "sign of R at z = 0.05" in text
        assert "D=3 boson" in text and "D=2 fermion" in text
        assert text.count("+") + text.count("-") >= 18


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ["curvature-z", "--q", "1", "--z", "0.5"],
        ["curvature-q", "--q", "1", "--z", "0.5"],
        ["virial", "--q", "1"],
        ["signtable"],
    ])
    def test_unwritable_out_is_one_line_exit_1(self, argv, tmp_path, capsys):
        # this ended in a FileNotFoundError traceback after the whole sweep
        path = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(path)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"qgasgeo: error: cannot write --out {path}: "
                                "No such file or directory\n")

    def test_closed_stdout_ends_quietly(self):
        # the reader takes one line and closes the pipe; this ended in a
        # BrokenPipeError traceback
        src = os.path.dirname(os.path.dirname(qgasgeo.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgasgeo.cli", "virial", "--q", "0.2:3", "--points", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline() == b"q,alpha,delta,eta,zeta\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert err == b""


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["no-such-command"],
        ["curvature-z", "--z", "oops"],
        ["curvature-z", "--dim", "4"],
        ["curvature-z", "--z", "0.1:0.9", "--points", "1"],
        [],
        ["curvature-z", "--rel-tol", "0"],
        ["signtable", "--rel-tol", "-1"],
        ["virial", "--q", "0"],
        ["virial", "--q", "-1"],
        # the quadrature tolerance and the curvature normalization are not options
        ["curvature-z", "--rel-tol", "1e-8"],
        ["virial", "--normalization", "raw"],
    ])
    def test_usage_errors_exit_1(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1

    def test_version_exits_0(self):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_selfcheck_passes(self, capsys):
        rc = main(["selfcheck"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("PASS") == 5
        assert "OK: 5/5" in captured.out

    def test_selfcheck_reports_a_raising_check(self, capsys, monkeypatch):
        def raising():
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(checks, "CHECKS", (("passing", lambda: (True, "fine")),
                                               ("raising", raising)))
        rc = main(["selfcheck"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert out[:2] == ["PASS passing: fine",
                           "FAIL raising: ZeroDivisionError: float division by zero"]
        assert out[2].startswith("FAILED: 1/2 checks passed")

    def test_selfcheck_json(self, capsys):
        rc = main(["selfcheck", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [c["name"] for c in doc["checks"]] == [name for name, _ in checks.CHECKS]
        for c in doc["checks"]:
            assert set(c) == {"name", "passed", "detail", "seconds"}
            assert c["passed"] is True and c["detail"]
            assert 0.0 <= c["seconds"] <= doc["seconds"]
        assert (doc["passed"], doc["total"], doc["ok"]) == (5, 5, True)
        assert sum(c["seconds"] for c in doc["checks"]) <= doc["seconds"]

    def test_selfcheck_json_reports_a_raising_check(self, capsys, monkeypatch):
        def raising():
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(checks, "CHECKS", (("passing", lambda: (True, "fine")),
                                               ("raising", raising)))
        rc = main(["selfcheck", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert [(c["name"], c["passed"], c["detail"]) for c in doc["checks"]] == [
            ("passing", True, "fine"),
            ("raising", False, "ZeroDivisionError: float division by zero")]
        assert (doc["passed"], doc["total"], doc["ok"]) == (1, 2, False)

    def test_selfcheck_rejects_other_formats(self):
        with pytest.raises(SystemExit) as err:
            main(["selfcheck", "--format", "csv"])
        assert err.value.code == 1
