"""Command-line interface, driven in process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ommlab import NumericalError, cli, harness, steadystate
from ommlab.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestPoint:
    def test_default_point_output(self, capsys):
        rc, out, err = run_cli(capsys, "point")
        assert rc == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "stable=true"
        keys = [line.split("=")[0] for line in lines]
        assert keys == [
            "stable", "margin_rad_s", "q_avg",
            "E_ab", "nu_ab", "E_am", "nu_am", "E_c2b", "nu_c2b",
            "efficiency",
        ]
        values = dict(line.split("=") for line in lines)
        assert float(values["E_ab"]) == pytest.approx(0.212980398, rel=1e-6)
        assert float(values["efficiency"]) == pytest.approx(0.432286431, rel=1e-6)
        assert values["q_avg"] == "0"

    def test_config_selects_pairs(self, capsys, tmp_path):
        path = write_config(tmp_path, {"pairs": ["am"]})
        rc, out, _ = run_cli(capsys, "point", "--config", str(path))
        assert rc == 0
        assert "E_am=" in out
        assert "E_ab=" not in out
        assert "efficiency=undefined" in out

    def test_unstable_point_prints_undefined_measures(self, capsys, tmp_path):
        path = write_config(tmp_path, {"delta_m_over_wb": -1.0})
        rc, out, err = run_cli(capsys, "point", "--config", str(path))
        assert rc == 0
        assert err == ""
        assert "stable=false" in out
        assert "E_ab=undefined" in out
        assert "margin_rad_s=-" in out

    def test_oracle_flag_reports_deviation(self, capsys):
        rc, out, _ = run_cli(capsys, "point", "--oracle")
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("oracle_deviation="))
        assert float(line.split("=")[1]) < 1e-9

    def test_non_finite_working_point_fails_cleanly(self, capsys, tmp_path):
        path = write_config(tmp_path, {
            "coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3,
            "p_laser_w": 1e300,
        })
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc, out, err = run_cli(capsys, "point", "--config", str(path))
        assert rc == 1
        assert "stable=false" in out and "E_ab=undefined" in out
        assert err.startswith("error=displacement polynomial root solve failed")
        assert "Traceback" not in err

    def test_bad_config_path_fails_cleanly(self, capsys):
        rc, out, err = run_cli(capsys, "point", "--config", "/does/not/exist.json")
        assert rc == 1
        assert err.startswith("error: cannot read config")

    def test_unknown_config_key_fails_cleanly(self, capsys, tmp_path):
        path = write_config(tmp_path, {"temperature": 0.01})
        rc, _, err = run_cli(capsys, "point", "--config", str(path))
        assert rc == 1
        assert err.startswith("error:")
        assert "temperature" in err


class TestStability:
    def test_prints_full_spectrum(self, capsys):
        rc, out, _ = run_cli(capsys, "stability")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "eigenvalues (rad/s), sorted by real part:"
        rows = [l for l in lines if l.startswith("  ")]
        assert len(rows) == 10
        assert all("j" in row and "Hz" in row for row in rows)
        assert "stable=true" in lines
        margin = next(l for l in lines if l.startswith("margin_rad_s="))
        assert float(margin.split("=")[1]) == pytest.approx(2623055.82, rel=1e-6)

    def test_real_parts_come_out_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "stability")
        reals = [
            float(l.strip().split()[0])
            for l in out.splitlines()
            if l.startswith("  ")
        ]
        assert reals == sorted(reals)

    def test_reports_the_working_point_that_point_reports(self, capsys, tmp_path):
        # a derived point whose first branch is unstable and whose second,
        # the working point, is stable
        path = write_config(tmp_path, {
            "coupling_mode": "derived", "b_field_t": 3.3e-3, "g_c_hz": 960,
            "g_m_hz": 280, "p_laser_w": 4e-3, "delta_c2_over_wb": 0.28,
            "delta_m_over_wb": -2.3, "delta_a_over_wb": 1.0, "delta_c1_over_wb": 1.8,
        })
        lines = {}
        for command in ("stability", "point"):
            rc, out, _ = run_cli(capsys, command, "--config", str(path))
            assert rc == 0
            lines[command] = [
                line for line in out.splitlines()
                if line.startswith(("stable=", "margin_rad_s="))
            ]
        assert lines["stability"] == lines["point"] == [
            "stable=true", "margin_rad_s=404783.633"
        ]

    def test_prints_the_spectrum_stage_one_found(self, capsys):
        # one eigensolve, and no steady state: the Lyapunov solve and nu_-
        # are never called
        expected = run_cli(capsys, "stability")
        solved = AssertionError("the steady state was solved")
        with mock.patch.object(
            steadystate, "solve_lyapunov_stack", side_effect=solved
        ), mock.patch.object(
            harness, "solve_lyapunov_stack", side_effect=solved
        ), mock.patch.object(
            harness, "nu_minus_stack", side_effect=solved
        ), mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
            assert run_cli(capsys, "stability") == expected
        assert eig.call_count == 1
        assert expected[0] == 0 and "stable=true" in expected[1].splitlines()

    def test_error_row_fails_cleanly(self, capsys, tmp_path):
        path = write_config(tmp_path, {"T": 0.02})
        with mock.patch.object(
            harness, "solve_semiclassics_stack",
            side_effect=NumericalError("no working point"),
        ):
            rc, out, err = run_cli(capsys, "stability", "--config", str(path))
        assert rc == 1
        assert out == ""
        assert err == "error: no working point\n"


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "OK (0 failures)"
        checks = lines[:-1]
        assert len(checks) == 7
        assert all(line.startswith("PASS ") for line in checks)


class TestSweep:
    def sweep_config(self, tmp_path, **extra):
        doc = {
            "sweep": {
                "axis1": {"name": "delta_a_over_wb", "start": -1.2, "stop": -0.8, "count": 3},
                "axis2": {"name": "delta_c1_over_wb", "start": 0.6, "stop": 1.4, "count": 2},
            },
            **extra,
        }
        return write_config(tmp_path, doc)

    def test_writes_csv_and_reports_count(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path)
        out_path = tmp_path / "map.csv"
        rc, out, err = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(out_path),
            "--threads", "1",
        )
        assert rc == 0
        assert err == ""
        assert f"wrote {out_path} (6 points)" in out
        body = out_path.read_text()
        assert body.startswith("# ommlab ")
        # version, params, sweep, timestamp; then the header and six rows
        assert body.count("\n") == 4 + 1 + 6

    def test_heatmap_written_next_to_csv(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path, pairs=["am", "ab"])
        out_path = tmp_path / "map.csv"
        rc, out, _ = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(out_path),
            "--heatmap", "am", "--threads", "1",
        )
        assert rc == 0
        pgm = tmp_path / "map.am.pgm"
        assert pgm.exists()
        assert f"wrote {pgm}" in out
        assert pgm.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_unwritable_csv_path_fails_cleanly(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path)
        out_path = tmp_path / "missing" / "map.csv"
        rc, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out_path))
        assert rc == 1
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_unwritable_heatmap_path_fails_cleanly(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path)
        out_path = tmp_path / "map.csv"
        (tmp_path / "map.ab.pgm").mkdir()  # a directory where the heatmap goes
        rc, out, err = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(out_path),
            "--heatmap", "ab",
        )
        assert rc == 1
        assert out == "" and not out_path.exists()
        assert err == f"error: cannot write {tmp_path / 'map.ab.pgm'}: it is a directory\n"

    @pytest.mark.parametrize(
        "axis2, pairs, heatmap, out_dir, message",
        [
            (False, ["ab"], "ab", ".", "heatmaps need a 2D sweep"),
            (True, ["am"], "ab", ".", "pair 'ab' was not requested in this sweep"),
            (True, ["ab"], None, "missing", "cannot write {out}: "),
            (True, ["ab"], None, "map.csv", "cannot write {out}: it is a directory"),
            (True, ["ab"], "ab", "map.ab.pgm", "cannot write {pgm}: it is a directory"),
        ],
        ids=[
            "1d-heatmap", "unrequested-pair", "missing-directory", "csv-is-a-directory",
            "pgm-is-a-directory",
        ],
    )
    def test_bad_outputs_fail_before_the_grid_is_solved(
        self, capsys, tmp_path, axis2, pairs, heatmap, out_dir, message
    ):
        config = self.sweep_config(tmp_path, pairs=pairs)
        if not axis2:
            doc = json.loads(config.read_text())
            del doc["sweep"]["axis2"]
            config.write_text(json.dumps(doc))
        if out_dir.startswith("map."):  # an output path that is a directory
            (tmp_path / out_dir).mkdir()
            out_dir = "."
        out = tmp_path / out_dir / "map.csv"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        argv += ["--heatmap", heatmap] if heatmap else []
        with mock.patch.object(cli, "run_sweep", side_effect=AssertionError) as solve:
            rc, stdout, err = run_cli(capsys, *argv)
        solve.assert_not_called()
        assert rc == 1
        assert stdout == ""
        assert err.startswith("error: " + message.format(out=out, pgm=out.with_suffix(".ab.pgm")))
        assert err.count("\n") == 1

    def test_default_runs_no_pool(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path)
        with mock.patch.object(harness, "ThreadPoolExecutor") as pool:
            rc, _, _ = run_cli(
                capsys, "sweep", "--config", str(config),
                "--out", str(tmp_path / "map.csv"),
            )
        assert rc == 0
        pool.assert_not_called()

    def test_thread_count_is_invisible_in_the_output(self, capsys, tmp_path):
        config = self.sweep_config(tmp_path)
        blobs = []
        for threads, name in ((1, "one.csv"), (2, "two.csv")):
            out_path = tmp_path / name
            rc, _, _ = run_cli(
                capsys, "sweep", "--config", str(config), "--out", str(out_path),
                "--threads", str(threads), "--reproducible",
            )
            assert rc == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unstable_points_are_counted(self, capsys, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sweep": {
                    "axis1": {"name": "delta_m_over_wb", "start": -1.05, "stop": -1.0, "count": 2},
                }
            },
        )
        rc, out, _ = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "u.csv"),
            "--threads", "1",
        )
        assert rc == 0
        assert "2 unstable points" in out

    def test_error_rows_go_to_stderr(self, capsys, tmp_path):
        config = write_config(
            tmp_path,
            {"sweep": {"axis1": {"name": "T", "start": -0.01, "stop": 0.01, "count": 3}}},
        )
        rc, out, err = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "e.csv"),
            "--threads", "1",
        )
        assert rc == 0
        assert "1 points recorded errors" in err
        # the failed row was never classified, so it is not counted unstable
        assert "unstable points" not in out

    def test_config_without_sweep_block_fails(self, capsys, tmp_path):
        config = write_config(tmp_path, {"T": 0.01})
        rc, _, err = run_cli(
            capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")
        )
        assert rc == 1
        assert "no sweep block" in err

    def test_missing_config_fails(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--config", str(tmp_path / "gone.json"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert err.startswith("error:")


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "ommlab 0.1.0"

    def test_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_execution(self):
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ommlab", "--version"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ommlab 0.1.0"
