"""Spans around every call into the package's public functions, for the traced pass.

The tracer wraps functions where their callers look them up (the ``harness``
and ``cli`` module globals, the ``SWEEP_AXES`` table), so the program runs
unchanged apart from one wrapper frame per call. Each span records its name,
start and end, its depth, the point it belongs to (a counter bumped by each
``evaluate_point`` call), the phase of the run (``round``, ``probe`` or
``check``), its self time (duration minus its child spans) and a small
outcome: an exception's type name, or a count taken from the return value.
Spans stay in memory until :meth:`Tracer.write`. A target the program no
longer has is skipped, and a layer with no spans reads 0, so that renaming a
function cannot stop the traced pass.

Single-threaded use only: the traced pass runs its sweeps at ``threads=1``.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from ommlab import cli, harness, steadystate


def _iterations(state) -> int:
    return state.iterations


def _stable(report) -> bool:
    return report.stable


def _points(result) -> int:
    return len(result.reports)


#: (owner, attribute or key, span name, outcome taken from the return value)
TARGETS = [
    (harness, "solve_semiclassics", "semiclassics.solve", _iterations),
    (harness, "build_drift", "dynamics.drift", None),
    (harness, "build_diffusion", "dynamics.diffusion", None),
    (harness, "stability", "dynamics.stability", _stable),
    (harness, "solve_lyapunov", "steadystate.lyapunov", None),
    (harness, "integrate_to_steady_state", "steadystate.oracle", None),
    (harness, "two_mode_block", "entanglement.block", None),
    (harness, "symplectic_nu_minus", "entanglement.nu", None),
    (harness, "evaluate_point", "harness.evaluate_point", None),
    (harness, "run_sweep", "harness.run_sweep", _points),
    (cli, "run_sweep", "harness.run_sweep", _points),
    (harness, "write_csv", "harness.csv", None),
    (cli, "write_csv", "harness.csv", None),
    (harness, "write_pgm", "harness.pgm", None),
    (cli, "write_pgm", "harness.pgm", None),
] + [
    # each axis setter is a dataclasses.replace on the model's SystemParams
    (harness.SWEEP_AXES, axis, "model.axis_set", None) for axis in harness.SWEEP_AXES
]

#: Wrapped while the checks run: the program does not call it per point yet.
CHECK_TARGETS = [(steadystate, "physicality_margin", "steadystate.physicality", None)]


def _has(owner, key) -> bool:
    return key in owner if isinstance(owner, dict) else hasattr(owner, key)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "round"
        self._point = None
        self._points = 0
        self._child_time = [0.0]

    def _wrap(self, fn, name: str, outcome_of):
        opens_point = name == "harness.evaluate_point"

        def traced(*args, **kwargs):
            parent_point = self._point
            if opens_point:
                self._points += 1
                self._point = self._points
            self._child_time.append(0.0)
            outcome = value = None
            t0 = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                return value
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                children = self._child_time.pop()
                self._child_time[-1] += t1 - t0
                if outcome is None and outcome_of is not None:
                    outcome = outcome_of(value)
                self.spans.append({
                    "name": name, "start": t0, "end": t1,
                    "self": t1 - t0 - children, "depth": len(self._child_time) - 1,
                    "point": self._point, "phase": self.phase, "outcome": outcome,
                })
                self._point = parent_point

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        present = [t for t in targets if _has(t[0], t[1])]
        originals = [(owner, key, _get(owner, key)) for owner, key, _, _ in present]
        try:
            for owner, key, name, outcome_of in present:
                _set(owner, key, self._wrap(_get(owner, key), name, outcome_of))
            yield self
        finally:
            for owner, key, fn in originals:
                _set(owner, key, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def _select(self, name: str) -> list[dict]:
        """Spans of ``name`` from the workload's round, else from the probe/checks."""
        by_phase: dict[str, list[dict]] = {}
        for span in self.spans:
            if span["name"] == name:
                by_phase.setdefault(span["phase"], []).append(span)
        for phase in ("round", "probe", "check"):
            if by_phase.get(phase):
                return by_phase[phase]
        return []

    def _round(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["phase"] == "round"]

    def _median(self, name: str, scale: float, key: str = "duration") -> float:
        spans = self._select(name)
        values = [s["self"] if key == "self" else s["end"] - s["start"] for s in spans]
        return statistics.median(values) * scale if values else 0.0

    def _en_us(self) -> float:
        """Median over points of (block + nu_-) time per pair."""
        per_point: dict[int, list[float]] = {}
        for name in ("entanglement.block", "entanglement.nu"):
            for span in self._select(name):
                per_point.setdefault(span["point"], []).append(span["end"] - span["start"])
        return statistics.median(
            [2e6 * sum(v) / len(v) for v in per_point.values()] or [0.0]
        )

    def _sweep_self_us(self) -> float:
        spans = self._select("harness.run_sweep")
        return statistics.median([1e6 * s["self"] / s["outcome"] for s in spans] or [0.0])

    def layer_metrics(
        self, *, import_ms: float, par_pts_per_s: float, par_cpu_per_wall: float
    ) -> dict[str, dict]:
        solves = self._round("semiclassics.solve")
        iterations = [s["outcome"] for s in solves if isinstance(s["outcome"], int)]
        values = {
            "model.import_ms": (import_ms, "ms"),
            "model.axis_set_us": (self._median("model.axis_set", 1e6), "us"),
            "semiclassics.solve_us": (self._median("semiclassics.solve", 1e6), "us"),
            "semiclassics.iterations_per_pt": (
                float(statistics.mean(iterations)) if iterations else 0.0, "count"),
            "semiclassics.failed_pts": (
                sum(s["outcome"] == "ConvergenceError" for s in solves), "count"),
            "dynamics.drift_us": (self._median("dynamics.drift", 1e6), "us"),
            "dynamics.diffusion_us": (self._median("dynamics.diffusion", 1e6), "us"),
            "dynamics.stability_us": (self._median("dynamics.stability", 1e6), "us"),
            "dynamics.unstable_pts": (
                sum(s["outcome"] is False for s in self._round("dynamics.stability")), "count"),
            "steadystate.lyapunov_us": (self._median("steadystate.lyapunov", 1e6), "us"),
            "steadystate.lyapunov_calls": (len(self._round("steadystate.lyapunov")), "count"),
            "steadystate.oracle_ms": (self._median("steadystate.oracle", 1e3), "ms"),
            "steadystate.physicality_us": (
                self._median("steadystate.physicality", 1e6), "us"),
            "entanglement.en_us": (self._en_us(), "us"),
            "harness.evaluate_point_us": (self._median("harness.evaluate_point", 1e6), "us"),
            "harness.point_self_us": (
                self._median("harness.evaluate_point", 1e6, key="self"), "us"),
            "harness.sweep_self_us": (self._sweep_self_us(), "us"),
            "harness.csv_ms": (self._median("harness.csv", 1e3), "ms"),
            "harness.pgm_ms": (self._median("harness.pgm", 1e3), "ms"),
            "harness.par_pts_per_s": (par_pts_per_s, "1/s"),
            "harness.par_cpu_per_wall": (par_cpu_per_wall, "s/s"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
