"""Evaluation harness: configs, single points, sweeps, and output artifacts.

A run is described by a JSON object holding model parameters (see
:mod:`ommlab.model` for the keys), an optional ``"sweep"`` block, and an
optional ``"pairs"`` list selecting which bipartitions to report. Sweeps
evaluate a 1D or 2D grid of operating points, tolerate per-point failures by
recording them, and write a CSV table plus optional PGM heatmaps.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .dynamics import StabilityReport, build_diffusion, build_drift, stability
from .entanglement import (
    EntanglementReport,
    Mode,
    _e_n,
    parse_pair,
    symplectic_nu_minus,
    transformation_efficiency,
    two_mode_block,
)
from .errors import ConfigError, ConvergenceError, DomainError, OmmlabError
from .model import (
    PARAM_TABLE,
    Param,
    SystemParams,
    _require_real,
    config_snapshot,
    params_from_mapping,
)
from .semiclassics import SemiclassicalState, solve_semiclassics
from .steadystate import integrate_to_steady_state, solve_lyapunov

VERSION = "0.1.0"

#: Bipartitions reported when a config does not say otherwise.
DEFAULT_PAIRS = ("ab", "am", "c2b")

_EFFICIENCY_NUMERATOR = frozenset({Mode.ATOM, Mode.MAGNON})
_EFFICIENCY_DENOMINATOR = frozenset({Mode.ATOM, Mode.PHONON})


def _axis_setter(param: Param) -> Callable[[SystemParams, float], SystemParams]:
    field, to_field = param.field, param.to_field

    def setter(params: SystemParams, value: float) -> SystemParams:
        return replace(params, **{field: to_field(value, params.omega_b)})

    return setter


#: The closed set of sweepable quantities (the sweepable rows of
#: :data:`ommlab.model.PARAM_TABLE`), each with the rule that maps an axis
#: value (in config units) onto the parameter set.
SWEEP_AXES: dict[str, Callable[[SystemParams, float], SystemParams]] = {
    param.key: _axis_setter(param) for param in PARAM_TABLE if param.sweepable
}


@dataclass(frozen=True)
class Axis:
    """One sweep axis: evenly spaced values of a named quantity."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {self.name!r}; "
                f"valid axes: {', '.join(sorted(SWEEP_AXES))}"
            )
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise ConfigError("axis count must be an integer")
        if self.count < 2:
            raise ConfigError("axis count must be at least 2")
        for attr in ("start", "stop"):
            _require_real(f"axis {attr}", getattr(self, attr))

    def values(self) -> np.ndarray:
        return np.linspace(float(self.start), float(self.stop), self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D grid; axis1 is the outer (slow) loop."""

    axis1: Axis
    axis2: Axis | None = None

    def __post_init__(self) -> None:
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ConfigError("the two sweep axes must name different quantities")


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    sweep: SweepSpec | None
    pairs: tuple[str, ...]


@dataclass(frozen=True)
class PointReport:
    """Everything a single operating point evaluates to.

    ``entanglement`` is keyed by the requested pair labels. Unstable or
    failed points carry None measures; ``error`` holds the reason for
    failures. ``oracle_deviation`` is the relative Frobenius distance between
    the direct Lyapunov solution and the RK4 relaxation, when requested.
    """

    stable: bool
    margin: float | None
    entanglement: dict[str, EntanglementReport]
    efficiency: float | None
    state: SemiclassicalState | None
    oracle_deviation: float | None
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    params: SystemParams
    spec: SweepSpec
    pairs: tuple[str, ...]
    values1: np.ndarray
    values2: np.ndarray | None
    reports: list[PointReport]

    def report_at(self, i1: int, i2: int = 0) -> PointReport:
        """Row-major lookup: axis1 index outer, axis2 index inner."""
        n2 = 1 if self.values2 is None else len(self.values2)
        return self.reports[i1 * n2 + i2]


def _parse_axis(raw: Any, which: str) -> Axis:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"sweep {which} must be an object")
    extra = sorted(set(raw) - {"name", "start", "stop", "count"})
    if extra:
        raise ConfigError(f"sweep {which} has unknown keys: {', '.join(extra)}")
    missing = sorted({"name", "start", "stop", "count"} - set(raw))
    if missing:
        raise ConfigError(f"sweep {which} is missing keys: {', '.join(missing)}")
    name = raw["name"]
    if not isinstance(name, str):
        raise ConfigError(f"sweep {which} name must be a string")
    return Axis(name=name, start=raw["start"], stop=raw["stop"], count=raw["count"])


def _parse_pairs(raw: Any) -> tuple[str, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("pairs must be a non-empty list of labels")
    labels: list[str] = []
    for item in raw:
        if not isinstance(item, str):
            raise ConfigError(f"pair label must be a string, got {item!r}")
        try:
            parse_pair(item)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if item in labels:
            raise ConfigError(f"duplicate pair label {item!r}")
        labels.append(item)
    return tuple(labels)


def load_config(path: str | Path | None) -> RunConfig:
    """Load a JSON run configuration; None means all defaults.

    Model-parameter keys are validated and converted by the model layer;
    the harness-level keys are ``"sweep"`` and ``"pairs"``.
    """
    if path is None:
        return RunConfig(params=params_from_mapping({}), sweep=None, pairs=DEFAULT_PAIRS)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(raw)
    sweep_raw = data.pop("sweep", None)
    pairs_raw = data.pop("pairs", None)
    params = params_from_mapping(data)
    pairs = DEFAULT_PAIRS if pairs_raw is None else _parse_pairs(pairs_raw)

    sweep = None
    if sweep_raw is not None:
        if not isinstance(sweep_raw, Mapping):
            raise ConfigError("sweep must be an object")
        extra = sorted(set(sweep_raw) - {"axis1", "axis2"})
        if extra:
            raise ConfigError(f"sweep has unknown keys: {', '.join(extra)}")
        if "axis1" not in sweep_raw:
            raise ConfigError("sweep needs an axis1")
        axis1 = _parse_axis(sweep_raw["axis1"], "axis1")
        axis2 = (
            _parse_axis(sweep_raw["axis2"], "axis2")
            if sweep_raw.get("axis2") is not None
            else None
        )
        sweep = SweepSpec(axis1=axis1, axis2=axis2)
        if params.coupling_mode == "derived":
            for axis in (axis1, axis2):
                if axis is not None and axis.name in ("g_c_eff_hz", "g_mb_eff_hz"):
                    raise ConfigError(
                        f"axis {axis.name!r} conflicts with coupling_mode='derived'"
                    )
    return RunConfig(params=params, sweep=sweep, pairs=pairs)


def _without_measures(
    parsed: list[tuple[str, tuple[Mode, Mode]]],
    error: str | None,
    report: StabilityReport | None = None,
    state: SemiclassicalState | None = None,
) -> PointReport:
    """A point with undefined measures: it failed (``error``) or is unstable."""
    return PointReport(
        stable=report is not None and report.stable,
        margin=None if report is None else report.margin,
        entanglement={
            label: EntanglementReport(pair=pair, nu_minus=None, e_n=None)
            for label, pair in parsed
        },
        efficiency=None, state=state, oracle_deviation=None, error=error,
    )


def evaluate_point(
    params: SystemParams,
    pairs: Iterable[str] = DEFAULT_PAIRS,
    *,
    oracle: bool = False,
) -> PointReport:
    """Evaluate one operating point end to end.

    Semiclassics, drift and diffusion, stability; then, if stable, the
    steady-state covariance and the requested entanglement measures. Physics
    failures (degenerate point, non-convergence, unstable precondition) are
    reported in the ``error`` field rather than raised, so sweeps keep going.
    """
    parsed = [(label, parse_pair(label)) for label in pairs]
    try:
        state = solve_semiclassics(params)
        drift = build_drift(params, state)
        diffusion = build_diffusion(params)
        report = stability(drift)
    except OmmlabError as exc:
        return _without_measures(parsed, str(exc))
    if not report.stable:
        return _without_measures(parsed, None, report, state)
    try:
        cov = solve_lyapunov(
            drift, diffusion, scale=params.omega_b, stability_report=report
        )
        entanglement: dict[str, EntanglementReport] = {}
        for label, pair in parsed:
            block = two_mode_block(cov, pair[0], pair[1])
            nu = symplectic_nu_minus(block)
            entanglement[label] = EntanglementReport(
                pair=pair, nu_minus=nu, e_n=_e_n(nu)
            )
    except OmmlabError as exc:
        return _without_measures(parsed, str(exc), report, state)

    e_ab = e_am = None
    for rep in entanglement.values():
        mode_set = frozenset(rep.pair)
        if mode_set == _EFFICIENCY_DENOMINATOR:
            e_ab = rep.e_n
        elif mode_set == _EFFICIENCY_NUMERATOR:
            e_am = rep.e_n
    efficiency = (
        transformation_efficiency(e_ab, e_am)
        if e_ab is not None and e_am is not None
        else None
    )

    oracle_deviation = None
    error = None
    if oracle:
        try:
            cov_rk4 = integrate_to_steady_state(drift, diffusion, scale=params.omega_b)
            oracle_deviation = float(
                np.linalg.norm(cov.v - cov_rk4.v) / np.linalg.norm(cov.v)
            )
        except ConvergenceError as exc:
            error = f"oracle: {exc}"

    return PointReport(
        stable=True, margin=report.margin, entanglement=entanglement,
        efficiency=efficiency, state=state, oracle_deviation=oracle_deviation,
        error=error,
    )


def run_sweep(
    params: SystemParams,
    spec: SweepSpec,
    pairs: Iterable[str] = DEFAULT_PAIRS,
    *,
    threads: int = 1,
    oracle: bool = False,
) -> SweepResult:
    """Evaluate a grid of operating points.

    The grid is row-major with axis1 as the outer loop. Points are
    independent, so ``threads`` > 1 evaluates them on a bounded thread pool;
    results are merged by precomputed index, which makes the output
    independent of scheduling. The default is one thread and no pool: a point
    is a chain of small numpy calls that hold the GIL, so a pool adds only
    overhead. A point whose parameters fail validation (for example a
    negative temperature reached by the axis) is recorded as an error row.
    """
    pair_tuple = tuple(pairs)
    parsed = [(label, parse_pair(label)) for label in pair_tuple]
    values1 = spec.axis1.values()
    values2 = spec.axis2.values() if spec.axis2 is not None else None

    if values2 is None:
        tasks = [(float(v1), None) for v1 in values1]
    else:
        tasks = [(float(v1), float(v2)) for v1 in values1 for v2 in values2]

    set1 = SWEEP_AXES[spec.axis1.name]
    set2 = SWEEP_AXES[spec.axis2.name] if spec.axis2 is not None else None

    def work(task: tuple[float, float | None]) -> PointReport:
        v1, v2 = task
        try:
            point_params = set1(params, v1)
            if set2 is not None:
                point_params = set2(point_params, v2)
        except OmmlabError as exc:
            return _without_measures(parsed, str(exc))
        return evaluate_point(point_params, pair_tuple, oracle=oracle)

    if threads < 1:
        raise DomainError("threads must be at least 1")
    if threads == 1:
        reports = [work(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(work, tasks))

    return SweepResult(
        params=params, spec=spec, pairs=pair_tuple,
        values1=values1, values2=values2, reports=reports,
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    """Nine significant digits, empty cell for missing values."""
    if value is None:
        return ""
    return format(value, ".9g")


def _spec_snapshot(spec: SweepSpec, pairs: tuple[str, ...]) -> dict[str, Any]:
    def axis_dict(axis: Axis | None) -> dict[str, Any] | None:
        if axis is None:
            return None
        return {
            "name": axis.name,
            "start": float(axis.start),
            "stop": float(axis.stop),
            "count": axis.count,
        }

    return {
        "axis1": axis_dict(spec.axis1),
        "axis2": axis_dict(spec.axis2),
        "pairs": list(pairs),
    }


def write_csv(
    result: SweepResult, path: str | Path, *, reproducible: bool = False
) -> None:
    """Write the sweep table.

    Comment lines stamp the tool version, the full parameter snapshot, and
    the sweep description; a timestamp line is added unless ``reproducible``
    is set, in which case the bytes depend only on the inputs.
    """
    spec = result.spec
    lines = [f"# ommlab {VERSION}"]
    lines.append(
        "# params: " + json.dumps(config_snapshot(result.params), sort_keys=True)
    )
    lines.append(
        "# sweep: " + json.dumps(_spec_snapshot(spec, result.pairs), sort_keys=True)
    )
    if not reproducible:
        lines.append("# generated: " + datetime.now(timezone.utc).isoformat())

    header = ["axis1_name", "axis1_value"]
    two_d = result.values2 is not None
    if two_d:
        header += ["axis2_name", "axis2_value"]
    header.append("stable")
    header += [f"E_{label}" for label in result.pairs]
    header.append("efficiency")
    lines.append(",".join(header))

    n2 = 1 if result.values2 is None else len(result.values2)
    for index, report in enumerate(result.reports):
        i1, i2 = divmod(index, n2)
        row = [spec.axis1.name, _fmt(float(result.values1[i1]))]
        if two_d:
            row += [spec.axis2.name, _fmt(float(result.values2[i2]))]
        row.append("true" if report.stable else "false")
        for label in result.pairs:
            row.append(_fmt(report.entanglement[label].e_n))
        row.append(_fmt(report.efficiency))
        lines.append(",".join(row))

    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def write_pgm(result: SweepResult, pair: str, path: str | Path) -> None:
    """Render one pair's entanglement grid as a binary PGM heatmap.

    Width is the axis1 count, height the axis2 count; pixel (x, y) holds the
    point (values1[x], values2[y]). Finite values are min-max normalized to
    0..255; unstable, failed, and missing points render as 0, and an
    all-equal field renders as all zeros.
    """
    if result.values2 is None:
        raise DomainError("heatmaps need a 2D sweep")
    if pair not in result.pairs:
        raise DomainError(f"pair {pair!r} was not requested in this sweep")
    width = len(result.values1)
    height = len(result.values2)

    values: list[float | None] = []
    for report in result.reports:
        e_n = report.entanglement[pair].e_n
        values.append(e_n if report.stable and e_n is not None else None)

    finite = [v for v in values if v is not None]
    vmin = min(finite) if finite else 0.0
    vmax = max(finite) if finite else 0.0
    span = vmax - vmin

    pixels = bytearray(width * height)
    for y in range(height):
        for x in range(width):
            value = values[x * height + y]
            if value is None or span <= 0.0:
                continue
            pixels[y * width + x] = round(255.0 * (value - vmin) / span)

    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + bytes(pixels))


__all__ = [
    "Axis",
    "DEFAULT_PAIRS",
    "PointReport",
    "RunConfig",
    "SWEEP_AXES",
    "SweepResult",
    "SweepSpec",
    "VERSION",
    "evaluate_point",
    "load_config",
    "run_sweep",
    "write_csv",
    "write_pgm",
]
