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
        "point_us", "point_oracle_us", "oracle_stack_point_us",
        "oracle_stack_chunk_us_per_pt", "sweep_pts_per_s", "sweep_oracle_pts_per_s",
        "sweep_oracle_over_plain",
    ]
    assert sorted(report) == ["environment", "results", "rows", "settings"]
    assert list(report["rows"]) == rows
    assert list(report["results"]) == ["checkout"]
    for row in rows:
        summary = report["results"]["checkout"][row]
        assert sorted(summary) == ["median", "q1", "q3", "runs"]
        assert len(summary["runs"]) == 1 and summary["runs"][0] > 0.0
    assert {"python", "numpy", "scipy", "blas_threads", "cores"} <= set(report["environment"])
