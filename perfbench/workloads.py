"""The benchmark's three workloads: inputs made from the seed, rounds, checks.

Each ROADMAP item has a workload where it does most of the work and one where
it does almost none:

* ``detuning_map`` - the paper's 51x51 atom/cavity detuning map through
  ``ommlab sweep`` (``cli.main``). Every point is stable and about 89% of it
  is the Lyapunov solve: the steady-state solver and the sweep engine carry
  this one, semiclassics almost nothing.
* ``derived_map`` - a 41x41 map in derived coupling mode through
  ``run_sweep`` and ``write_csv``. The displacement fixed point iterates at
  every point, some points stop at the stability test, and 384 points fail
  with ``ConvergenceError`` (counted as failed, see README).
* ``oracle_points`` - independent operating points through
  ``evaluate_point(..., oracle=True)``; the RK4 relaxation is >99% of the
  time and no sweep machinery is involved.
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ommlab import (
    build_drift,
    cli,
    config_snapshot,
    default_params,
    harness,
    solve_semiclassics,
)

import checks

#: Pairs reported on the maps, and at the oracle points.
MAP_PAIRS = ("ab", "am")
ORACLE_PAIRS = ("ab", "am", "c2b")

#: Worker threads of the parallel runs (byte-identity check and the
#: ungated ``harness.par_*`` figures): every core, and at least two so the
#: thread pool is exercised on a one-core machine too.
PAR_THREADS = max(2, os.cpu_count() or 1)

#: Derived coupling mode as in tests/test_semiclassics.py.
DERIVED_OVERRIDES = {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3}

#: The 15 keys the RK4 acceptance test jitters by +-20%.
ORACLE_KEYS = (
    "delta_a_over_wb", "delta_c1_over_wb", "delta_c2_over_wb",
    "delta_m_over_wb", "g_c_eff_hz", "g_mb_eff_hz", "g_n1_hz", "g_n2_hz",
    "gamma_b_hz", "kappa_a_hz", "kappa_c1_hz", "kappa_c2_hz",
    "kappa_m_hz", "omega_b_hz", "T",
)

#: Stiffness ratios of the oracle points: spectral radius of the drift over
#: its slowest decay rate. The RK4 relaxation's step count grows in
#: proportion to this ratio (about 9 ms of RK4 per unit), and over the
#: jittered draws it is heavy-tailed (median ~110, 1% above 700, up to
#: several thousand near instability). Each round holds one point per
#: target, the centres of four geometric bands over 50-400, and a draw is
#: kept only within ``ORACLE_RATIO_RTOL`` of a target still open: the seed
#: then decides everything about the points except the RK4 cost of a round
#: (its total step count varies by under 1% between seeds), and no run is
#: held up for minutes by one point.
ORACLE_RATIOS = tuple(float(x) for x in np.geomspace(50.0, 400.0, 9)[1::2])
ORACLE_RATIO_RTOL = 0.01

_MAX_ORACLE_DRAWS = 100_000


class WorkloadError(RuntimeError):
    """A workload call failed outright, or its inputs could not be made."""


@dataclass
class Workload:
    """One workload: a round of ``points`` points, and how to judge a round."""

    name: str
    points: int
    base_config: Path
    run_round: Callable[[], Any]
    failed_in: Callable[[Any], int]
    check: Callable[[Any], None]


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path


def _count_errors(reports: list[harness.PointReport]) -> int:
    return sum(report.error is not None for report in reports)


def _rerun_in_parallel(params, spec, pairs, csv_path: Path) -> harness.SweepResult:
    """Rerun a sweep on every core and require the same ``--reproducible`` bytes."""
    par = harness.run_sweep(params, spec, pairs, threads=PAR_THREADS)
    par_csv = csv_path.with_suffix(".par.csv")
    harness.write_csv(par, par_csv, reproducible=True)
    checks.check_same_bytes(csv_path, par_csv)
    return par


def detuning_map(seed: int, out_dir: Path, count: int = 51) -> Workload:
    """The paper's map: delta_a/w_b in [-2, 0] x delta_c1/w_b in [0, 2].

    The seed shifts the whole grid by up to half a cell along each axis, so
    every seed samples the same window at other points; the drift stays
    stable on the whole shifted window.
    """
    step = 2.0 / (count - 1)
    shift_a, shift_c1 = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2) * step
    config_path = _write_json(out_dir / "detuning_map.json", {
        "delta_c2_over_wb": -0.8,
        "T": 0.01,
        "pairs": list(MAP_PAIRS),
        "sweep": {
            "axis1": {"name": "delta_a_over_wb", "start": -2.0 + shift_a,
                      "stop": shift_a, "count": count},
            "axis2": {"name": "delta_c1_over_wb", "start": shift_c1,
                      "stop": 2.0 + shift_c1, "count": count},
        },
    })
    csv_path = out_dir / "detuning_map.csv"
    argv = ["sweep", "--config", str(config_path), "--out", str(csv_path),
            "--threads", "1", "--reproducible"]
    for pair in MAP_PAIRS:
        argv += ["--heatmap", pair]
    points = count * count

    def run_round() -> str:
        output = io.StringIO()
        with redirect_stdout(output), redirect_stderr(output):
            code = cli.main(argv)
        if code != 0:
            raise WorkloadError(f"ommlab sweep exited with {code}: {output.getvalue()}")
        return output.getvalue()

    def failed_in(output: str) -> int:
        # what `ommlab sweep` tells its user: points written, points that failed
        written = re.search(r"\((\d+) points\)", output)
        if written is None or int(written.group(1)) != points:
            raise WorkloadError(f"ommlab sweep did not write {points} points: {output}")
        failed = re.search(r"(\d+) points recorded errors", output)
        return int(failed.group(1)) if failed else 0

    def check(_output: str) -> None:
        # The CLI keeps its reports to itself; its outputs are the CSV and the
        # heatmaps. A rerun on every core must give the same bytes, and its
        # reports are then checked point by point against those files.
        config = harness.load_config(config_path)
        result = _rerun_in_parallel(config.params, config.sweep, config.pairs, csv_path)
        for pair in MAP_PAIRS:
            pgm = csv_path.with_suffix(f".{pair}.pgm")
            par_pgm = csv_path.with_suffix(f".par.{pair}.pgm")
            harness.write_pgm(result, pair, par_pgm)
            checks.check_same_bytes(pgm, par_pgm)
            checks.check_pgm(pgm, result, pair)
        checks.check_csv(csv_path, result)
        checks.check_sweep(result)

    return Workload("detuning_map", points, config_path, run_round, failed_in, check)


def derived_map(seed: int, out_dir: Path, count: int = 41) -> Workload:
    """delta_c2/w_b in [-2, 0] x delta_m/w_b in [0, 2], derived coupling mode.

    The grid does not depend on the seed: the points that fail today must be
    the same in every run, so that the failed share is a property of the
    program rather than of the draw.
    """
    del seed
    params = default_params(**DERIVED_OVERRIDES)
    spec = harness.SweepSpec(
        harness.Axis("delta_c2_over_wb", -2.0, 0.0, count),
        harness.Axis("delta_m_over_wb", 0.0, 2.0, count),
    )
    base_config = _write_json(
        out_dir / "derived_map.json", {**DERIVED_OVERRIDES, "pairs": list(MAP_PAIRS)}
    )
    csv_path = out_dir / "derived_map.csv"

    def run_round() -> harness.SweepResult:
        result = harness.run_sweep(params, spec, MAP_PAIRS, threads=1)
        harness.write_csv(result, csv_path, reproducible=True)
        return result

    def check(result: harness.SweepResult) -> None:
        _rerun_in_parallel(result.params, result.spec, result.pairs, csv_path)
        checks.check_csv(csv_path, result)
        checks.check_sweep(result)

    def failed_in(result: harness.SweepResult) -> int:
        return _count_errors(result.reports)

    return Workload("derived_map", count * count, base_config, run_round, failed_in, check)


def draw_oracle_points(seed: int, ratios: tuple[float, ...]) -> list:
    """One stable jittered operating point per target stiffness ratio."""
    rng = np.random.default_rng(seed)
    base = config_snapshot(default_params())
    chosen: dict[float, object] = {}
    for _ in range(_MAX_ORACLE_DRAWS):
        params = default_params(
            **{key: base[key] * rng.uniform(0.8, 1.2) for key in ORACLE_KEYS}
        )
        a = build_drift(params, solve_semiclassics(params)).a / params.omega_b
        eigs = np.linalg.eigvals(a)
        slowest = -float(eigs.real.max())
        if slowest <= 0.0:
            continue
        ratio = float(np.abs(eigs).max()) / slowest
        for target in ratios:
            if target not in chosen and abs(ratio - target) <= ORACLE_RATIO_RTOL * target:
                chosen[target] = params
                break
        if len(chosen) == len(ratios):
            return [chosen[target] for target in ratios]
    raise WorkloadError(f"no oracle point near some target ratio after {_MAX_ORACLE_DRAWS} draws")


def oracle_points(
    seed: int, out_dir: Path, ratios: tuple[float, ...] = ORACLE_RATIOS
) -> Workload:
    """``evaluate_point(params, ("ab", "am", "c2b"), oracle=True)`` per point."""
    points = draw_oracle_points(seed, ratios)
    base_config = _write_json(out_dir / "oracle_points.json", {"pairs": list(ORACLE_PAIRS)})

    def run_round() -> list[harness.PointReport]:
        return [harness.evaluate_point(p, ORACLE_PAIRS, oracle=True) for p in points]

    def check(reports: list[harness.PointReport]) -> None:
        for params, report in zip(points, reports, strict=True):
            checks.check_point(params, ORACLE_PAIRS, report)
            checks.check_oracle(report)

    return Workload("oracle_points", len(points), base_config, run_round, _count_errors, check)


BY_NAME = {
    "detuning_map": detuning_map,
    "derived_map": derived_map,
    "oracle_points": oracle_points,
}


def coverage_probe(out_dir: Path) -> None:
    """Calls every layer the traced round may have skipped: a 6x6 map with
    CSV and heatmap, and one RK4 oracle point at the default parameters.

    Per-layer figures come from the workload's own round where it calls the
    layer, and from this probe only where it does not.
    """
    params = default_params()
    spec = harness.SweepSpec(
        harness.Axis("delta_a_over_wb", -2.0, 0.0, 6),
        harness.Axis("delta_c1_over_wb", 0.0, 2.0, 6),
    )
    result = harness.run_sweep(params, spec, MAP_PAIRS, threads=1)
    harness.write_csv(result, out_dir / "probe.csv", reproducible=True)
    harness.write_pgm(result, "ab", out_dir / "probe.ab.pgm")
    harness.evaluate_point(params, ORACLE_PAIRS, oracle=True)


def parallel_sweep_rates() -> dict[str, float]:
    """The unshifted detuning map at ``PAR_THREADS`` threads, untraced.

    Reference figures only: with the sweep serialised on the interpreter
    lock they spread by about 30% between runs.
    """
    params = default_params(delta_c2_over_wb=-0.8, T=0.01)
    spec = harness.SweepSpec(
        harness.Axis("delta_a_over_wb", -2.0, 0.0, 51),
        harness.Axis("delta_c1_over_wb", 0.0, 2.0, 51),
    )
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = harness.run_sweep(params, spec, MAP_PAIRS, threads=PAR_THREADS)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {"par_pts_per_s": len(result.reports) / wall, "par_cpu_per_wall": cpu / wall}
