"""Correctness checks on every benchmark run, made outside the timed section.

Each check compares a program output with a computation made apart from the
program (scipy's Schur-based Lyapunov solver and eigensolver, the spectral
route to the symplectic eigenvalue, the closed forms of the mean fields) or
with a property the method must have (physicality, E_N >= 0, agreement with
the RK4 relaxation, thread-count independent bytes). None compares with a
stored copy of earlier output. A failed check raises :class:`CheckError`.

Program functions are looked up on their modules at call time so that a
traced run can wrap them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from ommlab import dynamics, entanglement, harness, semiclassics, steadystate
from ommlab.errors import ConvergenceError

#: Largest |V - V_scipy| over max |V|; the worst gap measured is ~5e-12.
V_TOL = 1e-9
#: Largest |E_N - E_N(V_scipy)| and relative nu_- gap; worst measured ~1e-13.
EN_TOL = 1e-9
#: Smallest eigenvalue of V + i/2 Omega allowed at a stable point.
MARGIN_FLOOR = -1e-8
#: Largest relative Frobenius gap between the direct solve and RK4.
ORACLE_TOL = 1e-6
#: Relative agreement of the derived-mode mean fields with their closed forms.
STATE_RTOL = 1e-9
#: CSV cells carry nine significant digits.
CSV_RTOL = 1e-8

#: Rows of each mode in the 10x10 covariance, in the quadrature order
#: (x_a, y_a, x_c1, y_c1, x_c2, y_c2, q, p, x_m, y_m).
_MODE_ROWS = {"a": 0, "c1": 2, "c2": 4, "b": 6, "m": 8}


class CheckError(AssertionError):
    """A benchmark output is wrong."""


def _pair_rows(label: str) -> list[int]:
    first = label[:2] if label[:2] in _MODE_ROWS else label[:1]
    second = label[len(first):]
    r1, r2 = _MODE_ROWS[first], _MODE_ROWS[second]
    return [r1, r1 + 1, r2, r2 + 1]


def reference_covariance(a: np.ndarray, d: np.ndarray, scale: float) -> np.ndarray:
    """V from scipy's Bartels-Stewart solver, on the same dimensionless scale."""
    return scipy.linalg.solve_continuous_lyapunov(a / scale, -d / scale)


def check_covariance(v: np.ndarray, v_ref: np.ndarray) -> None:
    gap = float(np.max(np.abs(v - v_ref))) / float(np.max(np.abs(v_ref)))
    if not gap <= V_TOL:
        raise CheckError(f"covariance differs from scipy's by {gap:.3e} of max |V|")


def check_physical(v: np.ndarray) -> None:
    margin = steadystate.physicality_margin(v)
    if not margin >= MARGIN_FLOOR:
        raise CheckError(f"covariance is unphysical: min eig(V + i/2 Omega) = {margin:.3e}")


def check_entanglement(report: harness.PointReport, pairs, v_ref: np.ndarray) -> None:
    """Reported nu_- and E_N against the spectral route on scipy's V."""
    for label in pairs:
        rep = report.entanglement[label]
        rows = _pair_rows(label)
        nu_ref = entanglement.nu_minus_via_partial_transpose(v_ref[np.ix_(rows, rows)])
        e_ref = max(0.0, -math.log(2.0 * nu_ref))
        if rep.e_n is None or not math.isfinite(rep.e_n) or rep.e_n < 0.0:
            raise CheckError(f"E_{label} = {rep.e_n} is not a finite non-negative number")
        if not abs(rep.e_n - e_ref) <= EN_TOL:
            raise CheckError(f"E_{label} = {rep.e_n!r} but {e_ref!r} from scipy's V")
        if not abs(rep.nu_minus - nu_ref) <= EN_TOL * nu_ref:
            raise CheckError(f"nu_{label} = {rep.nu_minus!r} but {nu_ref!r} from scipy's V")


def check_verdict(report: harness.PointReport, a: np.ndarray, scale: float) -> None:
    stable = bool(scipy.linalg.eigvals(a / scale).real.max() < 0.0)
    if report.stable != stable:
        raise CheckError(f"reported stable={report.stable}, scipy's spectrum says {stable}")


def _close(value: complex, ref: complex, what: str) -> None:
    if not abs(value - ref) <= STATE_RTOL * max(abs(ref), 1e-300):
        raise CheckError(f"{what} = {value!r} but {ref!r} from its closed form")


def check_derived_state(params, state: semiclassics.SemiclassicalState) -> None:
    """The fixed point's mean fields against the closed forms they must satisfy."""
    _close(
        state.q_avg,
        semiclassics.mechanical_displacement(
            params.g_c, state.c2_avg, params.g_m, state.m_avg, params.omega_b
        ),
        "q_avg",
    )
    _close(
        state.c2_avg,
        semiclassics.cavity2_average_closed_form(
            state.drive_e, params.kappa_a, params.kappa_c1, params.kappa_c2,
            params.delta_a, params.delta_c1, state.delta_c2_eff,
            params.g_n1, params.g_n2,
        ),
        "c2_avg",
    )
    magnon_detuning = params.delta_c2 if params.eq9_verbatim else state.delta_m_eff
    _close(
        state.m_avg,
        semiclassics.magnon_average(state.rabi, params.kappa_m, magnon_detuning),
        "m_avg",
    )


def check_failure(params, report: harness.PointReport) -> None:
    """A failed point must be the displacement fixed point's ConvergenceError."""
    if report.stable or report.state is not None:
        raise CheckError(f"failed point carries results: {report}")
    try:
        semiclassics.solve_semiclassics(params)
    except ConvergenceError:
        return
    raise CheckError(f"point reported failed ({report.error}) but its working point solves")


def check_point(params, pairs, report: harness.PointReport) -> None:
    """Every check that applies to one evaluated (not failed) point."""
    if report.error is not None:
        raise CheckError(f"point failed: {report.error}")
    drift = dynamics.build_drift(params, report.state)
    check_verdict(report, drift.a, params.omega_b)
    if params.coupling_mode == "derived":
        check_derived_state(params, report.state)
    if not report.stable:
        return
    diffusion = dynamics.build_diffusion(params)
    v = steadystate.solve_lyapunov(drift, diffusion, scale=params.omega_b).v
    v_ref = reference_covariance(drift.a, diffusion.d, params.omega_b)
    check_covariance(v, v_ref)
    check_physical(v)
    check_entanglement(report, pairs, v_ref)


def check_oracle(report: harness.PointReport) -> None:
    dev = report.oracle_deviation
    if report.stable and (dev is None or not dev <= ORACLE_TOL):
        raise CheckError(f"direct solve and RK4 differ by {dev} (tolerance {ORACLE_TOL})")


def point_params(result: harness.SweepResult, index: int):
    """Parameters of grid point ``index``, set through the public sweep axes."""
    n2 = 1 if result.values2 is None else len(result.values2)
    i1, i2 = divmod(index, n2)
    params = harness.SWEEP_AXES[result.spec.axis1.name](result.params, float(result.values1[i1]))
    if result.values2 is not None:
        params = harness.SWEEP_AXES[result.spec.axis2.name](params, float(result.values2[i2]))
    return params


def check_sweep(result: harness.SweepResult) -> None:
    for index, report in enumerate(result.reports):
        params = point_params(result, index)
        if report.error is not None:
            check_failure(params, report)
        else:
            check_point(params, result.pairs, report)


def check_same_bytes(path: Path, other: Path) -> None:
    if Path(path).read_bytes() != Path(other).read_bytes():
        raise CheckError(f"{path} and {other} differ")


def _cell_matches(cell: str, value: float | None) -> bool:
    if value is None:
        return cell == ""
    return cell != "" and abs(float(cell) - value) <= CSV_RTOL * abs(value)


def check_csv(path: Path, result: harness.SweepResult) -> None:
    """One row per grid point, in grid order, matching the reports."""
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    if len(body) != len(result.reports):
        raise CheckError(f"{path} has {len(body)} rows for {len(result.reports)} points")
    n2 = 1 if result.values2 is None else len(result.values2)
    for index, (row, report) in enumerate(zip(body, result.reports)):
        cells = dict(zip(header, row, strict=True))
        i1, i2 = divmod(index, n2)
        expected = [
            ("axis1_value", float(result.values1[i1])),
            ("efficiency", report.efficiency),
        ] + [(f"E_{label}", report.entanglement[label].e_n) for label in result.pairs]
        if result.values2 is not None:
            expected.append(("axis2_value", float(result.values2[i2])))
        for column, value in expected:
            if not _cell_matches(cells[column], value):
                raise CheckError(f"{path} row {index}: {column}={cells[column]!r}, report {value!r}")
        if cells["stable"] != ("true" if report.stable else "false"):
            raise CheckError(f"{path} row {index}: stable={cells['stable']}, report {report.stable}")


def check_pgm(path: Path, result: harness.SweepResult, pair: str) -> None:
    """The heatmap's size, and each pixel against the min-max scaled E_N."""
    data = Path(path).read_bytes()
    magic, size, depth, pixels = data.split(b"\n", 3)
    width, height = (int(n) for n in size.split())
    if (magic, depth) != (b"P5", b"255") or (width, height) != (len(result.values1), len(result.values2)):
        raise CheckError(f"{path}: header {data[:20]!r} does not fit the grid")
    if len(pixels) != width * height:
        raise CheckError(f"{path}: {len(pixels)} pixels for a {width}x{height} grid")
    values = [r.entanglement[pair].e_n if r.stable else None for r in result.reports]
    finite = [v for v in values if v is not None]
    lo, span = min(finite, default=0.0), max(finite, default=0.0) - min(finite, default=0.0)
    for index, value in enumerate(values):
        x, y = divmod(index, height)
        expected = 0.0 if value is None or span <= 0.0 else 255.0 * (value - lo) / span
        if not abs(pixels[y * width + x] - expected) <= 0.5 + 1e-9:
            raise CheckError(f"{path}: pixel ({x}, {y}) = {pixels[y * width + x]}, expected {expected:.2f}")
