#!/usr/bin/env python3
"""Timings of the per-point pipeline, from a lone point to the paper map.

Run from the root of a source checkout (the package is imported from its
``src/``):

    python3 bench/stages.py --out BENCH_1.json
    python3 bench/stages.py --against ../parent --out BENCH_1.json

Each repeat starts one worker process per checkout, which times every row
of :data:`ROWS` once after a warm-up call of each: a sweep row as the
fastest of :data:`SWEEP_CALLS` sweeps, every other row as the mean of many
calls. With ``--against PATH`` the same worker runs on ``PATH/src`` too,
the two sides of a repeat in alternating order, so that both see the same
drift in machine speed. The output JSON holds the settings, an environment
block, and for each side and row the runs of every repeat with their median
and quartiles; with ``--against``, ``wins`` counts the repeats in which this
checkout did better than the other. BLAS is held to one thread, as the
sweeps run single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Each row's unit, which way is better, and what it times.
ROWS = {
    "point_us": ("us", "lower", "a lone evaluate_point at the default parameters"),
    "point_oracle_us": ("us", "lower", "the same with oracle=True"),
    "point_derived_us": (
        "us", "lower", "a lone evaluate_point at the derived-mode reference point"),
    "fallback_point_us": (
        "us", "lower", "a lone evaluate_point at the census gate point, whose "
        "Lyapunov solve takes the fallback"),
    "stage1_point_us": ("us", "lower", "stage 1 (harness._working_points) of the default point"),
    "semiclassics_point_us": (
        "us", "lower", "stage 1's solve_semiclassics_stack on the default point"),
    "drift_point_us": ("us", "lower", "stage 1's drift_stack on the default point"),
    "diffusion_point_us": ("us", "lower", "stage 1's diffusion_stack on the default point"),
    "stability_point_us": (
        "us", "lower", "stage 1's batched stability_stack on the default point"),
    "lyapunov_point_us": ("us", "lower", "the Lyapunov stack on the default point"),
    "nu_minus_point_us": ("us", "lower", "the nu_- stack on the default point's three pairs"),
    "report_point_us": (
        "us", "lower", "the report hand-off of the default point: pairs parsed, "
        "its Reports built and read"),
    "oracle_stack_point_us": ("us", "lower", "the oracle stack on the default point"),
    "oracle_stack_chunk_us_per_pt": (
        "us", "lower", "the oracle stack on the map's first chunk, a stage-2 block "
        "of 32 points to a call, per point, timed over 25 calls"),
    "stage1_derived_chunk_us_per_pt": (
        "us", "lower", "stage 1 on the derived map's first chunk, per point, "
        "timed over 25 calls"),
    "sweep_pts_per_s": (
        "1/s", "higher", "run_sweep of the detuning map, threads=1, the fastest of 3"),
    "sweep_minflt_per_pt": (
        "count", "lower", "minor page faults of the process during that sweep, per point"),
    "sweep_sys_us_per_pt": (
        "us", "lower", "system CPU time of the process during that sweep, per point"),
    "sweep_all_cores_pts_per_s": (
        "1/s", "higher", "run_sweep of the detuning map, threads=os.cpu_count(), the "
        "fastest of 3"),
    "machine_two_worker_ratio": (
        "ratio", "higher", "what the machine gives two workers: the work of two processes "
        "at once, each timing 40 batched eig calls on 128 random 10x10 matrices, over the "
        "work of one alone, the median of 3 such pairs; read sweep_all_cores_pts_per_s "
        "over sweep_pts_per_s against it"),
    "sweep_failing_pts_per_s": (
        "1/s", "higher", "the same with a NaN at drift entry (3, 2) of every point at the "
        "18th delta_c1 value, one point per grid row"),
    "sweep_oracle_pts_per_s": ("1/s", "higher", "the same with oracle=True"),
    "sweep_oracle_over_plain": (
        "ratio", "lower", "time of the sweep with the oracle over the plain sweep"),
}


def _seconds(call, count: int) -> float:
    """Mean wall time of ``count`` calls of ``call``."""
    t0 = time.perf_counter()
    for _ in range(count):
        call()
    return (time.perf_counter() - t0) / count


#: The derived-mode reference point: every branch of it solved, the first kept.
DERIVED = {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3}

#: An eq9_verbatim point of the shifted-map census whose drift is 1.1e-8
#: omega_b of instability: its eigenbasis solve misses the residual gate.
FALLBACK = {
    **DERIVED, "eq9_verbatim": True,
    "delta_c2_over_wb": -1.550279006421079, "delta_m_over_wb": 0.34808353387762303,
}

#: Calls of a chunk row per timing: one slow call moves it by a 25th.
CHUNK_CALLS = 25

#: Sweeps a sweep row times; it reads the fastest, which one call slowed by
#: outside load cannot move.
SWEEP_CALLS = 3

#: Batched eigensolves each process of the two-worker probe times.
PROBE_CALLS = 40

#: Alone-and-together runs of the probe; the ratio is their median.
PROBE_PAIRS = 3


def _probe(barrier, seconds) -> None:
    """Time :data:`PROBE_CALLS` batched eig calls on 128 random 10x10
    matrices, from the moment every process of the probe is ready."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((128, 10, 10))
    np.linalg.eig(x)
    barrier.wait()
    t0 = time.perf_counter()
    for _ in range(PROBE_CALLS):
        np.linalg.eig(x)
    seconds.put(time.perf_counter() - t0)


def _two_worker_ratio() -> float:
    """The work two probe processes do at once over the work of one alone:
    2 where the machine gives a second worker a whole core, 1 where it gives
    none. The median of :data:`PROBE_PAIRS` runs of each."""
    context = multiprocessing.get_context("spawn")

    def probe(n: int) -> list[float]:
        barrier, seconds = context.Barrier(n), context.Queue()
        procs = [context.Process(target=_probe, args=(barrier, seconds)) for _ in range(n)]
        for proc in procs:
            proc.start()
        times = [seconds.get() for _ in procs]
        for proc in procs:
            proc.join()
        return times

    ratios = []
    for _ in range(PROBE_PAIRS):
        (alone,) = probe(1)
        ratios.append(sum(alone / t for t in probe(2)))
    return statistics.median(ratios)


def _grid_points(params, spec, setters):
    """The points of a 2D sweep, row-major, each set as a lone point is."""
    return [
        setters[spec.axis2.name](setters[spec.axis1.name](params, float(x)), float(y))
        for x in spec.axis1.values() for y in spec.axis2.values()
    ]


def worker(calls: int, grid: int) -> dict[str, float]:
    """One timing of every row in this process, on the ommlab it imports."""
    import numpy as np

    from ommlab import default_params, entanglement, evaluate_point, harness, model, steadystate
    from ommlab.harness import CHUNK_SIZE, DEFAULT_PAIRS, SWEEP_AXES, Axis, SweepSpec, run_sweep
    from ommlab.model import rows as table_rows

    params = default_params()
    derived = default_params(**DERIVED)
    fallback = default_params(**FALLBACK)
    spec = SweepSpec(Axis("delta_a_over_wb", -2.0, 0.0, grid),
                     Axis("delta_c1_over_wb", 0.0, 2.0, grid))
    chunk = _grid_points(params, spec, SWEEP_AXES)[:CHUNK_SIZE]
    derived_spec = SweepSpec(Axis("delta_c2_over_wb", -2.0, 0.0, grid),
                             Axis("delta_m_over_wb", 0.0, 2.0, grid))
    derived_chunk = _grid_points(derived, derived_spec, SWEEP_AXES)[:CHUNK_SIZE]
    # stage 1 of a list of points, point table included
    def stage1(points):
        return harness._working_points(model.columns(points))

    oracle = steadystate.solve_lyapunov_vech_stack
    # stage 1's drifts and diffusions, in units of omega_b
    stacks = [(a, d) for d, _, a, *_ in map(stage1, ([params], chunk))]

    # the default point's stages, fed as harness feeds them
    table = model.columns([params])
    d, states, a, eigs, vecs, max_real, stage1_errors = stage1([params])
    v, errors, _ = steadystate.solve_lyapunov_stack(a, d, eigs, vecs)
    rows = np.array([m1.rows + m2.rows for m1, m2 in map(entanglement.parse_pair, DEFAULT_PAIRS)])
    blocks = v[:, rows[:, :, None], rows[:, None, :]].reshape(-1, 4, 4)
    nu = entanglement.nu_minus_stack(blocks)[0].reshape(1, -1)

    def report():
        parsed = harness._parse_pairs(DEFAULT_PAIRS)
        return harness._reports(parsed, errors, max_real, states, nu)[0]

    def oracle_blocks():
        a, d = stacks[1]
        block = harness.BLOCK_SIZE
        return [oracle(a[k:k + block], d[k:k + block]) for k in range(0, len(a), block)]

    # the failing map: its drifts as stage 1 builds them, with a NaN at every
    # point of the 18th delta_c1 value
    build = harness.drift_stack
    nan_at = float(spec.axis2.values()[min(17, grid - 1)]) * params.omega_b
    delta_c1 = table_rows("delta_c1")[0]

    def failing_drift(table, states):
        a = build(table, states)
        a[table[delta_c1] == nan_at, 3, 2] = np.nan
        return a

    def failing_sweep():
        harness.drift_stack = failing_drift
        try:
            return run_sweep(params, spec, ("ab", "am"))
        finally:
            harness.drift_stack = build

    timed = {
        "point_us": (lambda: evaluate_point(params), calls, 1e6),
        "point_oracle_us": (lambda: evaluate_point(params, oracle=True), calls, 1e6),
        "point_derived_us": (lambda: evaluate_point(derived), calls, 1e6),
        "fallback_point_us": (lambda: evaluate_point(fallback), calls, 1e6),
        "stage1_point_us": (lambda: stage1([params]), calls, 1e6),
        "semiclassics_point_us": (lambda: harness.solve_semiclassics_stack(table), calls, 1e6),
        "drift_point_us": (lambda: harness.drift_stack(table, states), calls, 1e6),
        "diffusion_point_us": (lambda: harness.diffusion_stack(table), calls, 1e6),
        "stability_point_us": (
            lambda: harness._batched(
                harness.stability_stack, harness._no_spectrum, a, errors=stage1_errors),
            calls, 1e6),
        "lyapunov_point_us": (
            lambda: steadystate.solve_lyapunov_stack(a, d, eigs, vecs), calls, 1e6),
        "nu_minus_point_us": (lambda: entanglement.nu_minus_stack(blocks), calls, 1e6),
        "report_point_us": (report, calls, 1e6),
        "oracle_stack_point_us": (lambda: oracle(*stacks[0]), calls, 1e6),
        "oracle_stack_chunk_us_per_pt": (oracle_blocks, CHUNK_CALLS, 1e6 / len(chunk)),
        "stage1_derived_chunk_us_per_pt": (
            lambda: stage1(derived_chunk), CHUNK_CALLS, 1e6 / len(derived_chunk)),
        "sweep_s": (lambda: run_sweep(params, spec, ("ab", "am")), 1, 1.0),
        "sweep_failing_s": (failing_sweep, 1, 1.0),
        "sweep_oracle_s": (lambda: run_sweep(params, spec, ("ab", "am"), oracle=True), 1, 1.0),
        "sweep_all_cores_s": (
            lambda: run_sweep(params, spec, ("ab", "am"), threads=os.cpu_count()), 1, 1.0),
    }
    out = {}
    for name, (call, count, scale) in timed.items():
        call()  # warm-up: lazy imports and tables
        tries = SWEEP_CALLS if name.startswith("sweep_") else 1
        out[name] = min(_seconds(call, count) for _ in range(tries)) * scale
    # the plain sweep once more, warm, for what it costs the process in the kernel
    before = resource.getrusage(resource.RUSAGE_SELF)
    timed["sweep_s"][0]()
    after = resource.getrusage(resource.RUSAGE_SELF)
    points = grid * grid
    return {
        **{name: out[name] for name in ROWS if name in out},
        "sweep_pts_per_s": points / out["sweep_s"],
        "sweep_minflt_per_pt": (after.ru_minflt - before.ru_minflt) / points,
        "sweep_sys_us_per_pt": (after.ru_stime - before.ru_stime) * 1e6 / points,
        "sweep_all_cores_pts_per_s": points / out["sweep_all_cores_s"],
        "machine_two_worker_ratio": _two_worker_ratio(),
        "sweep_failing_pts_per_s": points / out["sweep_failing_s"],
        "sweep_oracle_pts_per_s": points / out["sweep_oracle_s"],
        "sweep_oracle_over_plain": out["sweep_oracle_s"] / out["sweep_s"],
    }


def _run_worker(src: Path, calls: int, grid: int) -> dict[str, float]:
    """:func:`worker` in a fresh interpreter that imports ommlab from ``src``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", "--calls", str(calls), "--grid", str(grid)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--against", type=Path, help="root of a second checkout to alternate with")
    parser.add_argument("--repeats", type=int, default=9, help="worker runs per side (default 9)")
    parser.add_argument("--calls", type=int, default=500,
                        help="calls per timing of a lone-point row (default 500)")
    parser.add_argument("--grid", type=int, default=51, help="map points per axis (default 51)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.calls, args.grid)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    sides = {"checkout": ROOT / "src"}
    if args.against is not None:
        sides["against"] = args.against.resolve() / "src"
    env = environment()
    runs: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
    for repeat in range(args.repeats):
        order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(_run_worker(sides[side], args.calls, args.grid))
    results = {
        side: {row: _summary([run[row] for run in side_runs]) for row in ROWS}
        for side, side_runs in runs.items()
    }
    report = {
        "settings": {
            "repeats": args.repeats, "calls": args.calls, "grid": args.grid,
            "sides": list(sides),
        },
        "environment": env,
        "rows": {row: dict(zip(("unit", "better", "what"), spec)) for row, spec in ROWS.items()},
        "results": results,
    }
    if args.against is not None:
        report["wins"] = {
            row: sum(
                (mine < theirs) if better == "lower" else (mine > theirs)
                for mine, theirs in zip(results["checkout"][row]["runs"],
                                        results["against"][row]["runs"])
            )
            for row, (_, better, _) in ROWS.items()
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for row in ROWS:
        line = " ".join(f"{side} {results[side][row]['median']:.4g}" for side in results)
        print(f"{row}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
