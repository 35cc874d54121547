"""The stage bench under bench/ runs and writes the keys its readers use."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_bench_writes_its_keys_on_a_tiny_input(tmp_path):
    out = tmp_path / "BENCH.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "stages.py"), "--out", str(out),
         "--repeats", "1", "--calls", "2", "--grid", "3"],
        capture_output=True, text=True, check=True, env=dict(os.environ), timeout=60,
    )
    report = json.loads(out.read_text())
    rows = [
        "point_us", "point_oracle_us", "point_derived_us", "fallback_point_us", "stage1_point_us",
        "lyapunov_point_us", "nu_minus_point_us", "report_point_us", "oracle_stack_point_us",
        "oracle_stack_chunk_us_per_pt", "stage1_derived_chunk_us_per_pt", "sweep_pts_per_s",
        "sweep_minflt_per_pt", "sweep_sys_us_per_pt", "sweep_all_cores_pts_per_s",
        "sweep_failing_pts_per_s", "sweep_oracle_pts_per_s", "sweep_oracle_over_plain",
    ]
    assert sorted(report) == ["environment", "results", "rows", "settings"]
    assert list(report["rows"]) == rows
    assert list(report["results"]) == ["checkout"]
    for row in rows:
        summary = report["results"]["checkout"][row]
        assert sorted(summary) == ["median", "q1", "q3", "runs"]
        assert len(summary["runs"]) == 1
        # a 3x3 sweep may cost the process no page fault or system time
        if row in ("sweep_minflt_per_pt", "sweep_sys_us_per_pt"):
            assert summary["runs"][0] >= 0.0
        else:
            assert summary["runs"][0] > 0.0
    assert {"python", "numpy", "scipy", "blas_threads", "cores"} <= set(report["environment"])


def test_committed_bench_files_name_their_environment_and_summaries():
    # every committed BENCH_*.json can be read without its run: the versions
    # and machine it ran on, and each row's median, quartiles and runs per side
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        report = json.loads(path.read_text())
        env = report["environment"]
        for package in ("python", "numpy", "scipy"):
            assert isinstance(env[package], str) and env[package], (path.name, package)
        for count in ("blas_threads", "cores"):
            assert isinstance(env[count], int) and env[count] >= 1, (path.name, count)
        settings = report["settings"]
        assert list(report["results"]) == settings["sides"], path.name
        for side, results in report["results"].items():
            assert list(results) == list(report["rows"]), (path.name, side)
            for row, summary in results.items():
                assert sorted(summary) == ["median", "q1", "q3", "runs"], (path.name, row)
                assert len(summary["runs"]) == settings["repeats"], (path.name, row)
                assert summary["q1"] <= summary["median"] <= summary["q3"], (path.name, row)
