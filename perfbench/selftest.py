"""Tests of the benchmark itself.

Each correctness check must reject a deliberately corrupted result, every
workload must run end to end on a small grid, and the benchmark must refuse
to run where there is no program source. Run from the repository root:

    python3 perfbench/selftest.py

(``python3 -m pytest perfbench/selftest.py`` runs the same tests.) The
file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.locate_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from ommlab import default_params, evaluate_point, harness, solve_semiclassics  # noqa: E402
from ommlab.harness import SWEEP_AXES  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = ("ab", "am", "c2b")


def _shift_en(report, label, delta, field="e_n"):
    ent = report.entanglement[label]
    shifted = dataclasses.replace(ent, **{field: getattr(ent, field) + delta})
    return dataclasses.replace(report, entanglement={**report.entanglement, label: shifted})


class PointChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.params = default_params()
        cls.report = evaluate_point(cls.params, PAIRS, oracle=True)

    def test_clean_point_passes(self):
        checks.check_point(self.params, PAIRS, self.report)
        checks.check_oracle(self.report)

    def test_en_shifted_by_1e_6_fails(self):
        for label in PAIRS:
            with self.assertRaises(checks.CheckError):
                checks.check_point(self.params, PAIRS, _shift_en(self.report, label, 1e-6))

    def test_nu_shifted_fails(self):
        with self.assertRaises(checks.CheckError):
            checks.check_point(self.params, PAIRS, _shift_en(self.report, "ab", 1e-6, "nu_minus"))

    def test_negative_en_fails(self):
        bad = _shift_en(self.report, "am", -self.report.entanglement["am"].e_n - 1e-12)
        with self.assertRaises(checks.CheckError):
            checks.check_entanglement(bad, ("am",), 0.5 * np.eye(10))

    def test_covariance_with_negative_margin_fails(self):
        with self.assertRaises(checks.CheckError):
            checks.check_physical(0.4 * np.eye(10))
        checks.check_physical(0.5 * np.eye(10))

    def test_perturbed_covariance_fails(self):
        v = np.diag(np.arange(1.0, 11.0))
        with self.assertRaises(checks.CheckError):
            checks.check_covariance(v * (1 + 1e-8), v)
        checks.check_covariance(v * (1 + 1e-12), v)

    def test_flipped_stability_verdict_fails(self):
        with self.assertRaises(checks.CheckError):
            checks.check_point(self.params, PAIRS, dataclasses.replace(self.report, stable=False))

    def test_oracle_disagreement_fails(self):
        for dev in (2e-6, None):
            with self.assertRaises(checks.CheckError):
                checks.check_oracle(dataclasses.replace(self.report, oracle_deviation=dev))


class DerivedChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.params = default_params(**workloads.DERIVED_OVERRIDES)
        cls.state = solve_semiclassics(cls.params)
        # delta_c2 = -1.9 w_b, delta_m = 0.1 w_b: a single root the iteration misses
        cls.failing = SWEEP_AXES["delta_m_over_wb"](
            SWEEP_AXES["delta_c2_over_wb"](cls.params, -1.9), 0.1
        )

    def test_clean_state_passes(self):
        checks.check_derived_state(self.params, self.state)

    def test_corrupted_state_fails(self):
        for field in ("q_avg", "c2_avg", "m_avg"):
            bad = dataclasses.replace(self.state, **{field: getattr(self.state, field) * (1 + 1e-7)})
            with self.assertRaises(checks.CheckError, msg=field):
                checks.check_derived_state(self.params, bad)

    def test_convergence_failure_is_recognised(self):
        report = evaluate_point(self.failing, ("ab", "am"))
        self.assertIsNotNone(report.error)
        checks.check_failure(self.failing, report)

    def test_failure_at_a_solvable_point_fails(self):
        fake = evaluate_point(self.failing, ("ab", "am"))
        with self.assertRaises(checks.CheckError):
            checks.check_failure(self.params, fake)


class FileChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        spec = harness.SweepSpec(
            harness.Axis("delta_a_over_wb", -2.0, 0.0, 4),
            harness.Axis("delta_c1_over_wb", 0.0, 2.0, 3),
        )
        self.result = harness.run_sweep(default_params(), spec, ("ab", "am"), threads=1)
        self.csv = self.tmp / "map.csv"
        self.pgm = self.tmp / "map.ab.pgm"
        harness.write_csv(self.result, self.csv, reproducible=True)
        harness.write_pgm(self.result, "ab", self.pgm)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_clean_files_pass(self):
        checks.check_csv(self.csv, self.result)
        checks.check_pgm(self.pgm, self.result, "ab")
        checks.check_same_bytes(self.csv, self.csv)

    def test_missing_csv_row_fails(self):
        lines = self.csv.read_text().splitlines(keepends=True)
        self.csv.write_text("".join(lines[:-1]))
        with self.assertRaises(checks.CheckError):
            checks.check_csv(self.csv, self.result)

    def test_changed_csv_value_fails(self):
        report = self.result.reports[5]
        bad = dataclasses.replace(
            self.result,
            reports=[*self.result.reports[:5], _shift_en(report, "am", 1e-6), *self.result.reports[6:]],
        )
        with self.assertRaises(checks.CheckError):
            checks.check_csv(self.csv, bad)

    def test_changed_pixel_fails(self):
        data = bytearray(self.pgm.read_bytes())
        data[-1] ^= 0x40
        self.pgm.write_bytes(bytes(data))
        with self.assertRaises(checks.CheckError):
            checks.check_pgm(self.pgm, self.result, "ab")

    def test_different_bytes_fail(self):
        other = self.tmp / "other.csv"
        other.write_bytes(self.csv.read_bytes() + b"\n")
        with self.assertRaises(checks.CheckError):
            checks.check_same_bytes(self.csv, other)


class SmallWorkloads(unittest.TestCase):
    """Every workload, shrunk, through the same measuring and checking code."""

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def small(self):
        return [
            workloads.detuning_map(3, self.tmp, count=5),
            workloads.derived_map(3, self.tmp, count=7),
            workloads.oracle_points(3, self.tmp, ratios=(60.0,)),
        ]

    def test_untraced_runs_report_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in self.small():
            correct, summary = run.run_untraced(workload, seconds=0.0)
            self.assertTrue(correct, workload.name)
            self.assertEqual(set(summary["metrics"]), names)
            self.assertEqual(summary["attempted"], workload.points)
            self.assertTrue(all(m["value"] > 0 for m in summary["metrics"].values()))

    def test_derived_map_counts_its_convergence_failures(self):
        workload = workloads.derived_map(3, self.tmp, count=7)
        result = workload.run_round()
        expected = 0
        for index in range(workload.points):
            try:
                solve_semiclassics(checks.point_params(result, index))
            except Exception as exc:  # noqa: BLE001 - the type is what is checked
                self.assertEqual(type(exc).__name__, "ConvergenceError")
                expected += 1
        self.assertGreater(expected, 0)
        self.assertEqual(workload.failed_in(result), expected)

    def test_traced_run_reports_every_layer_metric(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        originals = (harness.evaluate_point, dict(SWEEP_AXES))
        workload = workloads.derived_map(3, self.tmp, count=7)
        correct, summary = run.run_traced(workload, self.tmp)
        self.assertTrue(correct)
        self.assertEqual(set(summary["metrics"]), names)
        self.assertTrue((self.tmp / "spans.jsonl").stat().st_size > 0)
        # the tracer leaves the program as it found it
        self.assertEqual((harness.evaluate_point, dict(SWEEP_AXES)), originals)


class Contract(unittest.TestCase):
    def test_command_line_names_every_workload(self):
        self.assertEqual(run.WORKLOADS, tuple(workloads.BY_NAME))
        self.assertEqual(run.WORKLOADS, tuple(w["name"] for w in BENCHMARK["workloads"]))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "derived_map",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
