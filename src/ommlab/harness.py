"""Evaluation harness: configs, single points, sweeps, and output artifacts.

A run is described by a JSON object holding model parameters (see
:mod:`ommlab.model` for the keys), an optional ``"sweep"`` block, and an
optional ``"pairs"`` list selecting which bipartitions to report. Sweeps
evaluate a 1D or 2D grid of operating points, tolerate per-point failures by
recording them, and write a CSV table plus optional PGM heatmaps.

Every point is evaluated by :func:`_evaluate_chunk`, a chunk of points at a
time, in two stages. Stage 1, :func:`_working_points`, picks each point's
working point: the chunk's semiclassics, diffusions and first-branch drifts
are built as stacks, and the drifts go through one batched eigensolve. The
later branches of every point whose first drift is unstable are then tried
together, in one more drift stack and eigensolve, and a point keeps its
earliest stable branch, else its first. ``ommlab stability`` prints the
spectrum stage 1 keeps. Stage 2 solves the steady state of the stable
points: one Lyapunov stack, in the eigenbases stage 1 found, then one nu_-
stack over every requested pair. One failure rule holds throughout: an error
that a stacked call raises for the chunk sends its halves through again, and
at a chunk of one the error becomes the point's row; the Lyapunov solve and
nu_- keep their errors per point.
:func:`run_sweep` cuts its grid into chunks of :data:`CHUNK_SIZE` points;
:func:`evaluate_point` is a chunk of one.
"""

from __future__ import annotations

import copy
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .dynamics import diffusion_stack, drift_stack, stability_stack
from .entanglement import (
    EntanglementReport,
    Mode,
    _e_n,
    nu_minus_stack,
    parse_pair,
    transformation_efficiency,
)
from .errors import ConfigError, DomainError, NumericalError, OmmlabError
from .model import (
    PARAM_TABLE,
    Param,
    SystemParams,
    _require_real,
    columns,
    config_snapshot,
    params_from_mapping,
)
from .semiclassics import SemiclassicalState, solve_semiclassics_stack
from .steadystate import integrate_to_steady_state_stack, solve_lyapunov_stack

VERSION = "0.1.0"

#: Grid points solved together by one stacked core call: large enough to spread
#: the fixed cost of the batched numpy calls, small enough that a chunk's arrays
#: stay at a few MB. On the 51x51 paper map (2 cores, OpenBLAS at one thread)
#: run_sweep took 790 us per point at chunks of 1 and 107-132 us at 64-512;
#: 128, 256 and 512 tie within noise there and on the 41x41 derived map.
CHUNK_SIZE = 128

#: Bipartitions reported when a config does not say otherwise.
DEFAULT_PAIRS = ("ab", "am", "c2b")

_EFFICIENCY_NUMERATOR = frozenset({Mode.ATOM, Mode.MAGNON})
_EFFICIENCY_DENOMINATOR = frozenset({Mode.ATOM, Mode.PHONON})


def _axis_setter(param: Param) -> Callable[[SystemParams, float], SystemParams]:
    field, to_field = param.field, param.to_field

    def setter(params: SystemParams, value: float) -> SystemParams:
        # dataclasses.replace would pass all fields through __init__ again;
        # a copy with the one field set and the same checks rerun is 3x faster
        point = copy.copy(params)
        object.__setattr__(point, field, to_field(value, params.omega_b))
        point.__post_init__()
        return point

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
    the direct Lyapunov solution and the relaxation along the exact flow, when
    requested.
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
        """Row-major lookup: axis1 index outer, axis2 index inner; an index
        outside the grid raises IndexError (a 1D sweep takes only i2 = 0)."""
        n1 = len(self.values1)
        n2 = 1 if self.values2 is None else len(self.values2)
        if not (0 <= i1 < n1 and 0 <= i2 < n2):
            raise IndexError(f"index ({i1}, {i2}) is outside the {n1}x{n2} grid")
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


def _parse_pairs(raw: Any) -> list[tuple[str, tuple[Mode, Mode]]]:
    """(label, modes) of each pair in ``raw``, a non-empty list of distinct labels."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("pairs must be a non-empty list of labels")
    parsed: list[tuple[str, tuple[Mode, Mode]]] = []
    for item in raw:
        if not isinstance(item, str):
            raise ConfigError(f"pair label must be a string, got {item!r}")
        try:
            pair = parse_pair(item)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if any(label == item for label, _ in parsed):
            raise ConfigError(f"duplicate pair label {item!r}")
        parsed.append((item, pair))
    return parsed


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
    pairs = DEFAULT_PAIRS if pairs_raw is None else tuple(dict(_parse_pairs(pairs_raw)))

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


def _efficiency(entanglement: dict[str, EntanglementReport]) -> float | None:
    e_ab = e_am = None
    for rep in entanglement.values():
        mode_set = frozenset(rep.pair)
        if mode_set == _EFFICIENCY_DENOMINATOR:
            e_ab = rep.e_n
        elif mode_set == _EFFICIENCY_NUMERATOR:
            e_am = rep.e_n
    if e_ab is None or e_am is None:
        return None
    return transformation_efficiency(e_ab, e_am)


def _report(
    parsed: list[tuple[str, tuple[Mode, Mode]]],
    error: str | None,
    max_real: float | None = None,
    state: SemiclassicalState | None = None,
    nus: list[float] | None = None,
    oracle_deviation: float | None = None,
) -> PointReport:
    """One point's report. ``max_real`` is None for a point that was never
    classified; the measures are undefined where ``nus`` is None."""
    entanglement = {
        label: EntanglementReport(
            pair=pair, nu_minus=nu, e_n=None if nu is None else _e_n(nu)
        )
        for (label, pair), nu in zip(parsed, nus or [None] * len(parsed))
    }
    return PointReport(
        stable=max_real is not None and max_real < 0.0,
        margin=None if max_real is None else -max_real,
        entanglement=entanglement, efficiency=_efficiency(entanglement),
        state=state, oracle_deviation=oracle_deviation, error=error,
    )


def _steady_state(
    a: np.ndarray,
    d: np.ndarray,
    scale: np.ndarray,
    eigs: np.ndarray,
    vecs: np.ndarray,
    pairs: list[tuple[Mode, Mode]],
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Stage 2: the steady state and nu_- per pair of a stack of stable points.

    ``a`` and ``d`` are (N, 10, 10) in rad/s, ``scale`` (N,) is each point's
    mechanical frequency, and the eigenpairs are those stage 1 found for
    each drift. One Lyapunov stack and one nu_- stack run over the points,
    each point keeping its own gates. Returns V (N, 10, 10), nu_- (N, pairs)
    and each point's first error, the Lyapunov solve's before its pairs', or
    None; the V and nu_- of a point with an error are undefined.
    """
    v, errors = solve_lyapunov_stack(a, d, scale, eigs, vecs)
    # the 4x4 blocks of every pair at every point, as one stack; the V of a
    # failed point is undefined (NaN after a failed fallback), its nu_- unread
    n = len(pairs)
    idx = np.array([mode1.rows + mode2.rows for mode1, mode2 in pairs])
    blocks = v[:, idx[:, :, None], idx[:, None, :]].reshape(-1, 4, 4)
    with np.errstate(invalid="ignore"):
        nu, block_errors = nu_minus_stack(blocks)
    first_errors = [
        next(
            (str(e) for e in (errors[k], *block_errors[k * n : (k + 1) * n]) if e is not None),
            None,
        )
        for k in range(len(a))
    ]
    return v, nu.reshape(len(a), n), first_errors


def _working_points(
    params_list: list[SystemParams],
) -> tuple[np.ndarray, np.ndarray, list[SemiclassicalState], np.ndarray, np.ndarray,
           np.ndarray, np.ndarray]:
    """Stage 1 of the module docstring on a non-empty stack of valid
    parameter sets; an :class:`OmmlabError` raised on the way raises for the
    stack. Returns the mechanical frequencies (N,) that scale the solves, the
    diffusions (N, 10, 10), and each point's kept state, drift (N, 10, 10),
    eigenvalues (N, 10), eigenvectors (N, 10, 10) and max Re (N,).
    """
    (scale,) = columns(params_list, "omega_b")
    d = diffusion_stack(params_list)
    branches = solve_semiclassics_stack(params_list)
    states = [point[0] for point in branches]
    a = drift_stack(params_list, states)
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        raise NumericalError("non-finite entry in the drift or diffusion matrix")
    eigs, vecs, max_real = stability_stack(a, scale)
    # every later branch of every point whose first branch is unstable
    tries = [(k, s) for k in np.flatnonzero(~(max_real < 0.0)) for s in branches[k][1:]]
    if tries:
        points = [k for k, _ in tries]
        a_tries = drift_stack([params_list[k] for k in points], [state for _, state in tries])
        found = stability_stack(a_tries, scale[points])
        for j in np.flatnonzero(found[2] < 0.0):
            k, state = tries[j]
            if not max_real[k] < 0.0:
                states[k], a[k] = state, a_tries[j]
                eigs[k], vecs[k], max_real[k] = (column[j] for column in found)
    return scale, d, states, a, eigs, vecs, max_real


def _solve_chunk(
    params_list: list[SystemParams],
    parsed: list[tuple[str, tuple[Mode, Mode]]],
    oracle: bool,
) -> list[PointReport]:
    """The two stages of the module docstring on a non-empty chunk of valid
    parameter sets, one report each, and with ``oracle`` one exact-flow stack
    over the points stage 2 solved; an :class:`OmmlabError` raised on the way
    raises for the chunk.
    """
    scale, d, states, a, eigs, vecs, max_real = _working_points(params_list)
    stable = max_real < 0.0
    keep = slice(None) if stable.all() else stable
    v, nu, errors = _steady_state(
        a[keep], d[keep], scale[keep], eigs[keep], vecs[keep], [pair for _, pair in parsed]
    )
    deviations: list[float | None] = [None] * len(errors)
    oracle_errors: list[str | None] = [None] * len(errors)
    solved = [j for j, error in enumerate(errors) if error is None] if oracle else []
    if solved:
        k = np.flatnonzero(stable)[solved]
        v_flow, flow_errors = integrate_to_steady_state_stack(a[k], d[k], scale[k])
        deviation = np.linalg.norm(v[solved] - v_flow, axis=(1, 2)) / np.linalg.norm(
            v[solved], axis=(1, 2)
        )
        for j, dev, error in zip(solved, deviation.tolist(), flow_errors):
            if error is None:
                deviations[j] = dev
            else:
                oracle_errors[j] = f"oracle: {error}"
    rows = iter(zip(nu.tolist(), errors, deviations, oracle_errors))
    reports = []
    for state, max_k, stable_k in zip(states, max_real.tolist(), stable):
        nus, error, deviation, oracle_error = next(rows) if stable_k else (None,) * 4
        if error is not None:
            nus = None
        reports.append(_report(parsed, error or oracle_error, max_k, state, nus, deviation))
    return reports


def _evaluate_chunk(
    params_list: list[SystemParams | OmmlabError],
    parsed: list[tuple[str, tuple[Mode, Mode]]],
    *,
    oracle: bool = False,
) -> list[PointReport]:
    """Evaluate a chunk of operating points end to end, one report each.

    The chunk's valid points go through the two stages as one stack. Should
    a stacked call raise an :class:`OmmlabError` for the chunk, its halves
    are evaluated again, so a point that raises costs about 2 log2(N)
    stacked solves, and at a chunk of one the error becomes its row. An
    :class:`OmmlabError` in place of a parameter set stands for a point whose
    parameters failed validation, and becomes its error row. With
    ``oracle``, the solved points of a stack are also relaxed along the exact
    flow, as one more stack, and compared; a point whose relaxation fails
    keeps its measures and gets an ``oracle:`` error.
    """
    valid = [params for params in params_list if not isinstance(params, OmmlabError)]
    try:
        solved = _solve_chunk(valid, parsed, oracle) if valid else []
    except OmmlabError as exc:
        if len(valid) == 1:
            solved = [_report(parsed, str(exc))]
        else:
            half = len(valid) // 2
            solved = _evaluate_chunk(valid[:half], parsed, oracle=oracle)
            solved += _evaluate_chunk(valid[half:], parsed, oracle=oracle)
    rows = iter(solved)
    return [
        _report(parsed, str(params)) if isinstance(params, OmmlabError) else next(rows)
        for params in params_list
    ]


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
    The point is a chunk of one, evaluated exactly as a sweep evaluates it.
    """
    parsed = _parse_pairs(tuple(pairs))
    return _evaluate_chunk([params], parsed, oracle=oracle)[0]


def run_sweep(
    params: SystemParams,
    spec: SweepSpec,
    pairs: Iterable[str] = DEFAULT_PAIRS,
    *,
    threads: int = 1,
    oracle: bool = False,
) -> SweepResult:
    """Evaluate a grid of operating points.

    The grid is row-major with axis1 as the outer loop, and is cut by index
    into chunks of :data:`CHUNK_SIZE` points, each solved as one stack. The
    axis-1 value is set once per row and the axis-2 value once per point. A
    point whose parameters fail validation (for example a negative
    temperature reached by the axis) is recorded as an error row. Chunks are
    independent, so ``threads`` > 1 runs them on a bounded thread pool;
    results are merged in chunk order, which makes the output independent of
    scheduling. The default is one thread and no pool.
    """
    if threads < 1:
        raise DomainError("threads must be at least 1")
    pair_tuple = tuple(pairs)
    parsed = _parse_pairs(pair_tuple)
    values1 = spec.axis1.values()
    values2 = spec.axis2.values() if spec.axis2 is not None else None
    n2 = 1 if values2 is None else len(values2)
    set1 = SWEEP_AXES[spec.axis1.name]
    set2 = SWEEP_AXES[spec.axis2.name] if spec.axis2 is not None else None

    rows: list[SystemParams | OmmlabError] = []
    for v1 in values1:
        try:
            rows.append(set1(params, float(v1)))
        except OmmlabError as exc:
            rows.append(exc)

    def point(index: int) -> SystemParams | OmmlabError:
        i1, i2 = divmod(index, n2)
        row = rows[i1]
        if set2 is None or isinstance(row, OmmlabError):
            return row
        try:
            return set2(row, float(values2[i2]))
        except OmmlabError as exc:
            return exc

    total = len(values1) * n2

    def work(start: int) -> list[PointReport]:
        stop = min(start + CHUNK_SIZE, total)
        return _evaluate_chunk(
            [point(index) for index in range(start, stop)], parsed, oracle=oracle
        )

    starts = range(0, total, CHUNK_SIZE)
    if threads == 1:
        chunks = [work(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(work, starts))

    return SweepResult(
        params=params, spec=spec, pairs=pair_tuple,
        values1=values1, values2=values2,
        reports=[report for chunk in chunks for report in chunk],
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
    # None, for unstable, failed and missing points, reads as NaN
    values = np.array(
        [r.entanglement[pair].e_n if r.stable else None for r in result.reports], dtype=float
    ).reshape(width, height).T
    known = ~np.isnan(values)
    pixels = np.zeros((height, width), dtype=np.uint8)
    if known.any():
        vmin, vmax = values[known].min(), values[known].max()
        if vmax > vmin:
            pixels[known] = np.rint(255.0 * (values[known] - vmin) / (vmax - vmin))

    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


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
