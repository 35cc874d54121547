#!/usr/bin/env python3
"""Benchmark of ommlab's per-point pipeline: map throughput, oracle cost, set-up.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload detuning_map --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run times
whole rounds of the workload for about ``--seconds`` seconds and prints the
end-to-end metrics; with ``--trace 1`` it runs one round with a span around
every call into each package module and prints the per-layer metrics
instead. Either way every output is checked afterwards, outside the timed
section, and the last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": K, "metrics": {...}}

The run exits non-zero without that line if the checkout has no ommlab
source or if a workload call raises.
"""

from __future__ import annotations

import os

# Sweeps run single-threaded, so BLAS is held to one thread as well: with
# OpenBLAS's default threading every point's small dense solves keep two
# cores busy for no speed-up and the figures spread twice as wide. This has
# to be set before numpy is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Names of ``workloads.BY_NAME``, known before the program is imported.
WORKLOADS = ("detuning_map", "derived_map", "oracle_points")

#: Fresh interpreters started per run for ``setup_s`` and ``model.import_ms``;
#: each figure is the median of these.
COLD_STARTS = 5

#: Run in a fresh interpreter for ``setup_s``: import the package, load the
#: workload's base config, evaluate its base point, and print the moment the
#: point completed on the machine-wide monotonic clock.
_SETUP_SNIPPET = """
import sys, time
import ommlab
config = ommlab.load_config(sys.argv[1])
report = ommlab.evaluate_point(config.params, config.pairs)
if report.error is not None:
    sys.exit("base point failed: " + report.error)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a workload call failed outright."""


def locate_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or fail."""
    if not (SRC / "ommlab" / "__init__.py").is_file():
        raise BenchError(f"no ommlab source under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for fresh interpreters: this one's, plus ``src/`` on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"child interpreter failed: {proc.stderr.strip()[-400:]}")
    return proc


def cold_start_seconds(config_path: Path) -> float:
    """Wall time from spawning a fresh interpreter to its first completed point."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = _run_child(["-c", _SETUP_SNIPPET, str(config_path)])
    return float(proc.stdout.split()[-1]) - t0


def model_import_ms() -> float:
    """Cumulative import time of ``ommlab.model`` in a fresh interpreter.

    Read from ``-X importtime``; the cumulative column covers the module's own
    body and whatever it imports first (``scipy.constants`` today).
    """
    proc = _run_child(["-X", "importtime", "-c", "import ommlab"])
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == "ommlab.model":
            return int(fields[1]) / 1e3
    raise BenchError("ommlab.model missing from the -X importtime report")


def measure(workload, seconds: float) -> dict:
    """Time whole rounds until the next would overrun ``seconds``; at least one.

    Each round's rate is points over the wall time of the workload's public
    call; the figure is the median over rounds. Only the last round's result
    is kept, so resident memory does not grow with the number of rounds.
    """
    rates: list[float] = []
    failed = 0
    start = time.perf_counter()
    while True:
        result = None
        t0 = time.perf_counter()
        result = workload.run_round()
        t1 = time.perf_counter()
        rates.append(workload.points / (t1 - t0))
        failed += workload.failed_in(result)
        elapsed = t1 - start
        if elapsed + elapsed / len(rates) > seconds:
            break
    return {
        "result": result,
        "rates": rates,
        "failed": failed,
        "pts_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def passes_checks(workload, result) -> bool:
    from checks import CheckError

    try:
        workload.check(result)
    except CheckError as exc:
        print(f"{workload.name}: CHECK FAILED: {exc}", file=sys.stderr)
        return False
    return True


def run_untraced(workload, seconds: float) -> tuple[bool, dict]:
    setup = statistics.median(
        cold_start_seconds(workload.base_config) for _ in range(COLD_STARTS)
    )
    run = measure(workload, seconds)
    correct = passes_checks(workload, run["result"])
    print(
        f"{workload.name}: {len(run['rates'])} rounds of {workload.points} points at "
        f"{' '.join(f'{r:.4g}' for r in run['rates'])} pts/s; "
        f"pts_per_s={run['pts_per_s']:.4f} 1/s setup_s={setup:.4f} s "
        f"peak_rss_mb={run['peak_rss_mb']:.2f} MB "
        f"attempted={len(run['rates']) * workload.points} failed={run['failed']}"
    )
    return correct, {
        "attempted": len(run["rates"]) * workload.points,
        "failed": run["failed"],
        "metrics": {
            "pts_per_s": {"value": run["pts_per_s"], "unit": "1/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        },
    }


def run_traced(workload, out_dir: Path) -> tuple[bool, dict]:
    import spans
    import workloads

    import_ms = statistics.median(model_import_ms() for _ in range(COLD_STARTS))
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        result = workload.run_round()
        traced_rate = workload.points / (time.perf_counter() - t0)
        failed = workload.failed_in(result)
        tracer.phase = "probe"
        workloads.coverage_probe(out_dir)
    par = workloads.parallel_sweep_rates()
    with tracer.installed(spans.CHECK_TARGETS):
        tracer.phase = "check"
        correct = passes_checks(workload, result)
    tracer.write(out_dir / "spans.jsonl")
    metrics = tracer.layer_metrics(import_ms=import_ms, **par)
    print(
        f"{workload.name}: traced round of {workload.points} points at "
        f"{traced_rate:.4f} pts/s; spans in {out_dir / 'spans.jsonl'}"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return correct, {"attempted": workload.points, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        locate_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.BY_NAME[args.workload](args.seed, out_dir)
        if args.trace:
            correct, summary = run_traced(workload, out_dir)
        else:
            correct, summary = run_untraced(workload, args.seconds)
    except (BenchError, workloads.WorkloadError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    line = json.dumps({"correct": correct, **summary})
    (out_dir / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
