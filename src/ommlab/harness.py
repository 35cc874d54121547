"""Evaluation harness: configs, single points, sweeps, and output artifacts.

A run is described by a JSON object holding model parameters (see
:mod:`ommlab.model` for the keys), an optional ``"sweep"`` block, and an
optional ``"pairs"`` list selecting which bipartitions to report. Sweeps
evaluate a 1D or 2D grid of operating points, tolerate per-point failures by
recording them, and write a CSV table plus optional PGM heatmaps.

Every point is evaluated by :func:`_evaluate_chunk`, a stack of points at a
time, in two stages. Stage 1, :func:`_working_points`, picks each point's
working point: the chunk's branches come as a state column, its diffusions
and first-branch drifts as stacks, and the drifts go through one batched
eigensolve. The later branches of every point whose first drift is unstable
are then tried together, in one more drift stack whose eigenvalues alone
screen them; the few that pass get a batched eigensolve with vectors, and a
point keeps its earliest stable branch, else its first. ``ommlab stability``
prints the spectrum stage 1 keeps. Stage 2 solves the steady state of the
stable points: one Lyapunov stack, in the eigenbases stage 1 found, then one
nu_- stack over every requested pair. One failure rule holds throughout: an
error that a stacked call raises for the chunk sends its halves through
again, and at a chunk of one the error becomes the point's row; the Lyapunov
solve and nu_- keep their errors per point.
:func:`evaluate_point` is a stack of one. :func:`run_sweep` checks each axis
value once and hands each chunk of :data:`CHUNK_SIZE` grid points to the
stages as the base parameters plus one array per swept field; a stack's
results come back as :class:`Reports` columns, which the writers read.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .dynamics import diffusion_stack, drift_stack, stability_stack
from .entanglement import (
    EntanglementReport, Mode, _e_n, nu_minus_stack, parse_pair, transformation_efficiency,
)
from .errors import ConfigError, DomainError, NumericalError, OmmlabError
from .model import (
    PARAM_TABLE, Param, Points, SweptParams, SystemParams, _require_real, columns,
    config_snapshot, params_from_mapping, take,
)
from .semiclassics import SemiclassicalState, solve_semiclassics_stack, state_at, state_column
from .steadystate import integrate_to_steady_state_stack, solve_lyapunov_stack

VERSION = "0.1.0"

#: Grid points solved together by one stacked core call: large enough to spread
#: the fixed cost of the batched numpy calls, small enough that a chunk's arrays
#: stay at a few MB. On the 51x51 paper map (2 cores, OpenBLAS at one thread)
#: run_sweep took 630 us per point at chunks of 1 and 65-82 us at 64-512 (medians
#: of 5); 128, 256 and 512 tie within noise there and on the 41x41 derived map.
CHUNK_SIZE = 128

#: A later branch whose largest real part of an eigenvalue, in units of omega_b
#: and from ``eigvals``, is this or more gets no eigensolve with vectors: it is
#: unstable by far more than two eigensolves of one drift can differ (about
#: sqrt(machine epsilon) at a coalescing pair). The least such part of a later
#: branch was 4.6e-5 over the 41x41 derived map and 3000 jittered points.
_SCREEN = 1e-6

#: Bipartitions reported when a config does not say otherwise.
DEFAULT_PAIRS = ("ab", "am", "c2b")

#: The pairs, in either order, of the efficiency E_am / E_ab.
_EFFICIENCY_NUMERATOR = ((Mode.ATOM, Mode.MAGNON), (Mode.MAGNON, Mode.ATOM))
_EFFICIENCY_DENOMINATOR = ((Mode.ATOM, Mode.PHONON), (Mode.PHONON, Mode.ATOM))

#: Requested pairs as (label, modes), in order.
_Parsed = list[tuple[str, tuple[Mode, Mode]]]


def _axis_setter(param: Param) -> Callable[[SystemParams, float], SystemParams]:
    return lambda p, value: replace(p, **{param.field: param.to_field(value, p.omega_b)})


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


def _known(value: Any) -> Any:
    """None for NaN, the value otherwise."""
    return None if value != value else value


@dataclass(eq=False)
class Reports(Sequence[PointReport]):
    """The reports of N points as columns, (N, pairs) for ``nu_minus`` and
    ``e_n`` and (N,) for the rest, NaN standing for None; ``state`` is the
    state column of each point's kept branch. Each :class:`PointReport`, and
    its :class:`~ommlab.semiclassics.SemiclassicalState`, is built when it is
    read. ``pairs`` holds each requested pair as (label, modes). Equal to any
    sequence of the same reports.
    """

    pairs: tuple[tuple[str, tuple[Mode, Mode]], ...]
    stable: np.ndarray
    margin: np.ndarray
    nu_minus: np.ndarray
    e_n: np.ndarray
    efficiency: np.ndarray
    error: np.ndarray
    oracle_deviation: np.ndarray
    state: np.ndarray

    def __len__(self) -> int:
        return len(self.stable)

    def __getitem__(self, index: Any) -> Any:
        k = range(len(self))[index]
        if isinstance(k, range):
            return [self[i] for i in k]
        nus, e_ns = self.nu_minus[k].tolist(), self.e_n[k].tolist()
        entanglement = {
            label: EntanglementReport(pair, _known(nu), _known(e_n))
            for (label, pair), nu, e_n in zip(self.pairs, nus, e_ns)
        }
        margin, efficiency, deviation = (
            _known(x.item(k)) for x in (self.margin, self.efficiency, self.oracle_deviation)
        )
        stable, state, error = self.stable.item(k), state_at(self.state, k), self.error[k]
        return PointReport(stable, margin, entanglement, efficiency, state, deviation, error)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def _joined(parts: list[Reports], order: np.ndarray | slice = slice(None)) -> Reports:
    """The reports of ``parts``, a non-empty list, one after another, at ``order``."""
    return Reports(parts[0].pairs, *(
        np.concatenate([getattr(part, f.name) for part in parts])[order]
        for f in fields(Reports)[1:]
    ))


@dataclass(frozen=True)
class SweepResult:
    """A grid and its points. ``reports`` holds one report per point in
    row-major order, as :class:`Reports` columns, which the writers read."""

    params: SystemParams
    spec: SweepSpec
    pairs: tuple[str, ...]
    values1: np.ndarray
    values2: np.ndarray | None
    reports: Reports

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


def _parse_pairs(raw: Any) -> _Parsed:
    """(label, modes) of each pair in ``raw``, a non-empty list of distinct labels
    (or from the library any iterable of them that is not a string)."""
    labels = () if isinstance(raw, (str, Mapping)) or not isinstance(raw, Iterable) else tuple(raw)
    if not labels:
        raise ConfigError("pairs must be a non-empty list of labels")
    parsed: _Parsed = []
    for item in labels:
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
        raw2 = sweep_raw.get("axis2")
        axis2 = None if raw2 is None else _parse_axis(raw2, "axis2")
        sweep = SweepSpec(axis1=axis1, axis2=axis2)
        if params.coupling_mode == "derived":
            for axis in (axis1, axis2):
                if axis is not None and axis.name in ("g_c_eff_hz", "g_mb_eff_hz"):
                    raise ConfigError(f"axis {axis.name!r} conflicts with coupling_mode='derived'")
    return RunConfig(params=params, sweep=sweep, pairs=pairs)


def _reports(
    parsed: _Parsed, error: Sequence[str | None], max_real: np.ndarray | None = None,
    state: np.ndarray | None = None, nu: np.ndarray | None = None,
    deviation: np.ndarray | None = None,
) -> Reports:
    """The reports of N points from their columns: ``max_real`` and ``state`` are
    None for points never classified, ``nu`` NaN or None where undefined."""
    n = len(error)
    nu = np.full((n, len(parsed)), np.nan) if nu is None else nu
    # _e_n value by value: np.log differs from math.log in the last bit of some
    e_n = [[x if x != x else _e_n(x) for x in row] for row in nu.tolist()]
    ab = am = None  # the last requested of each, found by == (Mode hashes in Python)
    for j, (_, pair) in enumerate(parsed):
        ab = j if pair in _EFFICIENCY_DENOMINATOR else ab
        am = j if pair in _EFFICIENCY_NUMERATOR else am
    efficiency = [
        np.nan if ab is None or am is None else transformation_efficiency(row[ab], row[am])
        for row in e_n
    ]
    return Reports(
        tuple(parsed), np.zeros(n, bool) if max_real is None else max_real < 0.0,
        np.full(n, np.nan) if max_real is None else -max_real, nu,
        np.array(e_n).reshape(nu.shape), np.array(efficiency, dtype=float),
        np.asarray(error, dtype=object), np.full(n, np.nan) if deviation is None else deviation,
        state_column([None] * n) if state is None else state,
    )


def _steady_state(
    a: np.ndarray, d: np.ndarray, scale: np.ndarray, eigs: np.ndarray, vecs: np.ndarray,
    pairs: list[tuple[Mode, Mode]],
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Stage 2: the steady state and nu_- per pair of a stack of stable points.

    ``a`` and ``d`` are (N, 10, 10) in rad/s, ``scale`` (N,) is each point's
    mechanical frequency, and the eigenpairs are those stage 1 found for
    each drift. One Lyapunov stack and one nu_- stack run over the points,
    each point keeping its own gates. Returns V (N, 10, 10), nu_- (N, pairs)
    and each point's first error, the Lyapunov solve's before its pairs', or
    None; a point with an error has an undefined V and NaN nu_-.
    """
    v, errors = solve_lyapunov_stack(a, d, scale, eigs, vecs)
    # the 4x4 blocks of every pair at every point, as one stack; the V of a
    # failed point is undefined (NaN after a failed fallback), its nu_- unread
    n = len(pairs)
    idx = np.array([mode1.rows + mode2.rows for mode1, mode2 in pairs])
    blocks = v[:, idx[:, :, None], idx[:, None, :]].reshape(-1, 4, 4)
    with np.errstate(invalid="ignore"):
        nu, block_errors = nu_minus_stack(blocks)
    first_errors = [None if e is None else str(e) for e in errors]
    for j in [j for j, e in enumerate(block_errors) if e is not None]:
        if first_errors[j // n] is None:
            first_errors[j // n] = str(block_errors[j])
    nu = nu.reshape(len(a), n)
    nu[[e is not None for e in first_errors]] = np.nan
    return v, nu, first_errors


def _working_points(
    params_list: Points,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1 of the module docstring on a non-empty stack of valid
    parameter sets; an :class:`OmmlabError` raised on the way raises for the
    stack. Returns the mechanical frequencies (N,) that scale the solves, the
    diffusions (N, 10, 10), and each point's kept state as a state column
    (N,), drift (N, 10, 10), eigenvalues (N, 10), eigenvectors (N, 10, 10)
    and max Re (N,).
    """
    (scale,) = columns(params_list, "omega_b")
    d = diffusion_stack(params_list)
    branches, offsets = solve_semiclassics_stack(params_list)
    states = branches if len(branches) == len(scale) else branches[offsets[:-1]]
    a = drift_stack(params_list, states)
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        raise NumericalError("non-finite entry in the drift or diffusion matrix")
    eigs, vecs, max_real = stability_stack(a, scale)
    unstable = ~(max_real < 0.0)
    if len(branches) > len(scale) and np.count_nonzero(unstable):
        # every later branch of every point whose first branch is unstable, in
        # point order, screened by its eigenvalues alone
        owner = np.repeat(np.arange(len(scale)), np.diff(offsets))
        later = unstable[owner]
        later[offsets[:-1]] = False
        tries = later.nonzero()[0]
        points = owner[tries]
        a_tries = drift_stack(take(params_list, points), branches[tries])
        try:
            screen = np.linalg.eigvals(a_tries / scale[points, None, None]).real.max(axis=-1)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolve failed: {exc}") from exc
        passed = screen < _SCREEN
        if passed.any():
            tries, points, a_tries = tries[passed], points[passed], a_tries[passed]
            found = stability_stack(a_tries, scale[points])
            stable = (found[2] < 0.0).nonzero()[0]
            # the earliest stable try of each point
            kept, first = np.unique(points[stable], return_index=True)
            j = stable[first]
            states[kept], a[kept] = branches[tries[j]], a_tries[j]
            eigs[kept], vecs[kept], max_real[kept] = (column[j] for column in found)
    return scale, d, states, a, eigs, vecs, max_real


def _solve_chunk(points: Points, parsed: _Parsed, oracle: bool) -> Reports:
    """The two stages of the module docstring on a non-empty stack of valid
    points, and with ``oracle`` one exact-flow stack over the points stage 2
    solved; an :class:`OmmlabError` raised on the way raises for the stack.
    """
    scale, d, states, a, eigs, vecs, max_real = _working_points(points)
    stable = max_real < 0.0
    keep = slice(None) if stable.all() else stable
    v, nu, errors = _steady_state(
        a[keep], d[keep], scale[keep], eigs[keep], vecs[keep], [pair for _, pair in parsed]
    )
    measured, error = nu, np.array(errors, dtype=object)
    if keep is stable:  # some points are unstable: place the stable ones' rows
        measured = np.full((len(states), len(parsed)), np.nan)
        measured[stable], error = nu, np.full(len(states), None, dtype=object)
        error[stable] = errors
    deviation = np.full(len(states), np.nan)
    ok = np.equal(errors, None)
    solved = stable.nonzero()[0][ok] if oracle else []
    if len(solved):
        v_flow, flow_errors = integrate_to_steady_state_stack(
            a[solved], d[solved], scale[solved], eigs[solved]
        )
        # NaN, no deviation, where the flow failed and left V_flow NaN
        gap = np.linalg.norm(v[ok] - v_flow, axis=(1, 2))
        deviation[solved] = gap / np.linalg.norm(v[ok], axis=(1, 2))
        error[solved] = [None if e is None else f"oracle: {e}" for e in flow_errors]
    return _reports(parsed, error, max_real, states, measured, deviation)


def _evaluate_chunk(points: Points, parsed: _Parsed, *, oracle: bool = False) -> Reports:
    """Evaluate a non-empty stack of valid points end to end.

    The points go through the two stages as one stack. Should a stacked call
    raise an :class:`OmmlabError` for the stack, its halves, taken by index,
    are evaluated again, so a point that raises costs about 2 log2(N)
    stacked solves, and at a stack of one the error becomes its row. With
    ``oracle``, the solved points of a stack are also relaxed along the exact
    flow, as one more stack, and compared; a point whose relaxation fails
    keeps its measures and gets an ``oracle:`` error.
    """
    try:
        return _solve_chunk(points, parsed, oracle)
    except OmmlabError as exc:
        if len(points) == 1:
            return _reports(parsed, [str(exc)])
        half = len(points) // 2
        return _joined([
            _evaluate_chunk(take(points, index), parsed, oracle=oracle)
            for index in (np.arange(half), np.arange(half, len(points)))
        ])


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
    return _evaluate_chunk([params], _parse_pairs(pairs), oracle=oracle)[0]


def run_sweep(
    params: SystemParams,
    spec: SweepSpec,
    pairs: Iterable[str] = DEFAULT_PAIRS,
    *,
    threads: int = 1,
    oracle: bool = False,
) -> SweepResult:
    """Evaluate a grid of operating points.

    The grid is row-major with axis1 as the outer loop. Each axis value is
    checked once, by its :data:`SWEEP_AXES` setter on ``params``; a point
    whose axis-1 value fails validation (a negative temperature, say) is an
    error row with that value's error, else with its axis-2 value's, as
    setting both on the point would give: no domain rule ties two sweepable
    fields. The grid is cut by index into chunks of :data:`CHUNK_SIZE`
    points, whose valid points are solved as one stack. Chunks are
    independent, so ``threads`` > 1 runs them on a bounded thread pool;
    results are merged in chunk order, which makes the output independent of
    scheduling. The default is one thread and no pool.
    """
    try:
        threads = operator.index(threads)
    except TypeError:
        raise DomainError(f"threads must be an integer, got {threads!r}") from None
    if threads < 1:
        raise DomainError("threads must be at least 1")
    parsed = _parse_pairs(pairs)
    values1 = spec.axis1.values()
    values2 = None if spec.axis2 is None else spec.axis2.values()
    n2 = 1 if values2 is None else len(values2)
    grid = np.arange(len(values1) * n2)
    axes = [(spec.axis1, values1, grid // n2)]
    if values2 is not None:
        axes.append((spec.axis2, values2, grid % n2))
    swept, error = {}, np.full(len(grid), None, dtype=object)
    for axis, values, at in reversed(axes):  # axis 2 first: an axis-1 error wins
        field = next(param.field for param in PARAM_TABLE if param.key == axis.name)
        column, errors = np.full(len(values), np.nan), np.full(len(values), None, dtype=object)
        for k, value in enumerate(values.tolist()):
            try:
                column[k] = getattr(SWEEP_AXES[axis.name](params, value), field)
            except OmmlabError as exc:
                errors[k] = str(exc)
        swept[field] = column[at]
        error = np.where(np.equal(errors[at], None), error, errors[at])
    valid = np.flatnonzero(np.equal(error, None))
    failed = np.flatnonzero(np.not_equal(error, None))

    def work(index: np.ndarray) -> Reports:
        points = SweptParams(params, {field: column[index] for field, column in swept.items()})
        return _evaluate_chunk(points, parsed, oracle=oracle)

    # the valid points of each run of CHUNK_SIZE grid points
    chunks = np.split(valid, np.searchsorted(valid, grid[CHUNK_SIZE::CHUNK_SIZE]))
    chunks = [index for index in chunks if len(index)]
    if threads == 1:
        solved = [work(index) for index in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            solved = list(pool.map(work, chunks))
    rows = [*solved, _reports(parsed, error[failed])]
    return SweepResult(
        params=params, spec=spec, pairs=tuple(label for label, _ in parsed),
        values1=values1, values2=values2,
        reports=_joined(rows, np.argsort(np.concatenate([*chunks, failed]))),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _write(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``; an OSError becomes an :class:`OmmlabError`."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise OmmlabError(f"cannot write {path}: {exc}") from exc


def _fmt(values: np.ndarray) -> list[str]:
    """Nine significant digits of each value, an empty cell for NaN (a
    missing value)."""
    return [format(x, ".9g") if x == x else "" for x in values.tolist()]


def _spec_snapshot(spec: SweepSpec, pairs: tuple[str, ...]) -> dict[str, Any]:
    def axis_dict(axis: Axis | None) -> dict[str, Any] | None:
        return None if axis is None else {
            "name": axis.name, "start": float(axis.start), "stop": float(axis.stop),
            "count": axis.count,
        }

    return {"axis1": axis_dict(spec.axis1), "axis2": axis_dict(spec.axis2), "pairs": list(pairs)}


def write_csv(
    result: SweepResult, path: str | Path, *, reproducible: bool = False
) -> None:
    """Write the sweep table.

    Comment lines stamp the tool version, the full parameter snapshot, and
    the sweep description; a timestamp line is added unless ``reproducible``
    is set, in which case the bytes depend only on the inputs.
    """
    spec, two_d = result.spec, result.values2 is not None
    lines = [
        f"# ommlab {VERSION}",
        "# params: " + json.dumps(config_snapshot(result.params), sort_keys=True),
        "# sweep: " + json.dumps(_spec_snapshot(spec, result.pairs), sort_keys=True),
    ]
    if not reproducible:
        lines.append("# generated: " + datetime.now(timezone.utc).isoformat())
    axis2 = ["axis2_name", "axis2_value"] if two_d else []
    header = ["axis1_name", "axis1_value", *axis2, "stable", *(f"E_{p}" for p in result.pairs)]
    lines.append(",".join([*header, "efficiency"]))

    # each axis value and each measure is formatted once
    n2 = len(result.values2) if two_d else 1
    axis1 = [f"{spec.axis1.name},{cell}" for cell in _fmt(result.values1)]
    cells = [[cell for cell in axis1 for _ in range(n2)]]
    if two_d:
        cells.append([f"{spec.axis2.name},{cell}" for cell in _fmt(result.values2)])
        cells[-1] *= len(result.values1)
    table = result.reports
    cells.append(["true" if stable else "false" for stable in table.stable.tolist()])
    cells += [_fmt(column) for column in table.e_n.T]
    cells.append(_fmt(table.efficiency))
    lines += map(",".join, zip(*cells))

    _write(path, ("\n".join(lines) + "\n").encode("ascii"))


def _check_heatmap(two_d: bool, pairs: tuple[str, ...], pair: str) -> None:
    """Raise :class:`DomainError` unless a sweep over ``pairs``, 2D when
    ``two_d``, can draw a heatmap of ``pair``."""
    if not two_d:
        raise DomainError("heatmaps need a 2D sweep")
    if pair not in pairs:
        raise DomainError(f"pair {pair!r} was not requested in this sweep")


def write_pgm(result: SweepResult, pair: str, path: str | Path) -> None:
    """Render one pair's entanglement grid as a binary PGM heatmap.

    Width is the axis1 count, height the axis2 count; pixel (x, y) holds the
    point (values1[x], values2[y]). Finite values are min-max normalized to
    0..255; unstable, failed, and missing points render as 0, and an
    all-equal field renders as all zeros.
    """
    _check_heatmap(result.values2 is not None, result.pairs, pair)
    width = len(result.values1)
    height = len(result.values2)
    # NaN for unstable, failed and missing points
    values = result.reports.e_n[:, result.pairs.index(pair)].reshape(width, height).T
    known = ~np.isnan(values)
    pixels = np.zeros((height, width), dtype=np.uint8)
    if known.any():
        vmin, vmax = values[known].min(), values[known].max()
        if vmax > vmin:
            pixels[known] = np.rint(255.0 * (values[known] - vmin) / (vmax - vmin))

    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    _write(path, header + pixels.tobytes())


__all__ = [
    "Axis",
    "DEFAULT_PAIRS",
    "PointReport",
    "Reports",
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
