"""Steady-state covariance: direct Lyapunov solve and RK4 cross-check.

The stationary covariance V of the linearized system solves

    A V + V A^T + D = 0.

The direct route vectorizes this into (A (x) I + I (x) A) vec(V) = -vec(D)
and hands it to a pivoted LU solve. The independent route integrates
dV/dt = A V + V A^T + D forward with classical fourth-order Runge-Kutta until
the right-hand side is numerically zero; for a stable A both must agree, which
is the package's main internal consistency check.

All solves run in dimensionless form: A and D are scaled by a natural
frequency first (the mechanical frequency for the physical pipeline), which
keeps the Kronecker system's conditioning independent of the unit system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DiffusionMatrix,
    DriftMatrix,
    StabilityReport,
    _as_matrix,
    stability,
)
from .errors import ConvergenceError, DomainError, NumericalError, StabilityError

#: Relative Frobenius residual allowed on the Lyapunov equation.
_RESIDUAL_RTOL = 1e-10

#: Asymmetry (relative to max |V|) beyond which the raw solution is suspect.
_ASYMMETRY_RTOL = 1e-9

#: RK4 defaults: step as a fraction of the spectral radius, stopping tolerance
#: relative to ||D||_F, and integration horizon in units of the slowest decay.
_RK4_STEP_FRACTION = 0.05
_RK4_MAX_STEP_FRACTION = 0.1
_RK4_RTOL = 1e-12
_RK4_HORIZON = 50.0


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega = diag of [[0, 1], [-1, 0]] blocks, read-only."""
    if n_modes <= 0:
        raise DomainError("n_modes must be positive")
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def _require_symmetric(arr: np.ndarray, name: str) -> None:
    """Raise unless ``arr`` is symmetric to 1e-10 of max(1, max |arr|)."""
    scale = max(1.0, float(np.max(np.abs(arr))))
    if float(np.max(np.abs(arr - arr.T))) > 1e-10 * scale:
        raise DomainError(f"{name} must be symmetric")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix of the quadrature fluctuations.

    Construction validates shape, symmetry, and non-negative variances on the
    diagonal. Physicality (the uncertainty-principle bound) is a property of
    *steady states* of well-posed dynamics, checked separately via
    :func:`physicality_margin` so that violations surface as measurements,
    not as constructor crashes.
    """

    v: np.ndarray

    def __post_init__(self) -> None:
        if self.v.ndim != 2 or self.v.shape[0] != self.v.shape[1]:
            raise DomainError("covariance must be a square matrix")
        if self.v.shape[0] % 2 != 0:
            raise DomainError("covariance dimension must be even (pairs of quadratures)")
        _require_symmetric(self.v, "covariance")
        if np.any(np.diagonal(self.v) < 0.0):
            raise DomainError("variances on the diagonal must be non-negative")
        self.v.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.v.shape[0] // 2


def _unwrap(
    a: DriftMatrix | np.ndarray,
    d: DiffusionMatrix | np.ndarray,
    scale: float | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    a_arr, natural = _as_matrix(a)
    d_arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if d_arr.shape != a_arr.shape:
        raise DomainError("drift and diffusion shapes must match")
    _require_symmetric(d_arr, "diffusion")
    if scale is None:
        scale = natural
    if not scale > 0.0:
        raise DomainError("scale must be strictly positive")
    return a_arr, d_arr, scale


def solve_lyapunov(
    a: DriftMatrix | np.ndarray,
    d: DiffusionMatrix | np.ndarray,
    *,
    scale: float | None = None,
    stability_report: StabilityReport | None = None,
) -> CovarianceMatrix:
    """Solve A V + V A^T + D = 0 for the stationary covariance V.

    Requires an asymptotically stable A (checked up front unless a fresh
    ``stability_report`` is supplied). The vectorized system is solved with
    LU and partial pivoting; the result is checked against the equation to
    1e-10 relative in Frobenius norm and symmetrized. Raw asymmetry beyond
    1e-9 of max |V| triggers a warning first, since it indicates the solve is
    losing accuracy.
    """
    a_arr, d_arr, s = _unwrap(a, d, scale)
    report = stability_report if stability_report is not None else stability(a)
    if not report.stable:
        raise StabilityError(
            f"drift is not asymptotically stable (max Re eig = {report.max_real:.6e})"
        )

    a_s = a_arr / s
    d_s = d_arr / s
    n = a_s.shape[0]
    eye = np.eye(n)
    system = np.kron(a_s, eye) + np.kron(eye, a_s)
    try:
        vec = np.linalg.solve(system, -d_s.ravel())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc
    v = vec.reshape(n, n)

    v_scale = max(1.0, float(np.max(np.abs(v))))
    asym = float(np.max(np.abs(v - v.T)))
    if asym > _ASYMMETRY_RTOL * v_scale:
        warnings.warn(
            f"Lyapunov solution asymmetry {asym:.3e} exceeds "
            f"{_ASYMMETRY_RTOL:.0e} of max |V|; solve may be ill conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    v = 0.5 * (v + v.T)

    d_norm = float(np.linalg.norm(d_s))
    residual = float(np.linalg.norm(a_s @ v + v @ a_s.T + d_s))
    if d_norm > 0.0 and residual > _RESIDUAL_RTOL * d_norm:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.0e} ||D||_F"
        )
    return CovarianceMatrix(v=v)


def integrate_to_steady_state(
    a: DriftMatrix | np.ndarray,
    d: DiffusionMatrix | np.ndarray,
    v0: np.ndarray | CovarianceMatrix | None = None,
    dt: float | None = None,
    *,
    rtol: float = _RK4_RTOL,
    horizon: float = _RK4_HORIZON,
    scale: float | None = None,
) -> CovarianceMatrix:
    """Relax dV/dt = A V + V A^T + D to its fixed point with classical RK4.

    ``dt`` is in seconds (of the same unit system as ``a``); the default is
    0.05 divided by the spectral radius, and anything above 0.1/spectral
    radius is rejected as unstable for RK4. Integration starts from the
    vacuum covariance (identity over two) unless ``v0`` is given, stops when
    ||dV/dt||_F drops to ``rtol`` times ||D||_F, and gives up past ``horizon``
    times the slowest decay time.

    The fixed point of the exact flow is the Lyapunov solution; because the
    right-hand side is affine, RK4's own fixed point coincides with it, so
    this integrator is an independent cross-check of the direct solver.
    """
    if not rtol > 0.0:
        raise DomainError("rtol must be strictly positive")
    if not horizon > 0.0:
        raise DomainError("horizon must be strictly positive")
    a_arr, d_arr, s = _unwrap(a, d, scale)
    n = a_arr.shape[0]
    a_s = a_arr / s
    d_s = d_arr / s

    try:
        eigs = np.linalg.eigvals(a_s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    max_real = float(np.max(eigs.real))
    if max_real >= 0.0:
        raise StabilityError(
            f"drift is not asymptotically stable (max Re eig = {max_real:.6e})"
        )
    spectral_radius = float(np.max(np.abs(eigs)))

    if dt is None:
        dt_s = _RK4_STEP_FRACTION / spectral_radius
    else:
        dt_s = dt * s
        if not dt_s > 0.0:
            raise DomainError("dt must be strictly positive")
        if dt_s > _RK4_MAX_STEP_FRACTION / spectral_radius:
            raise DomainError(
                "dt exceeds the RK4 stability budget of "
                f"{_RK4_MAX_STEP_FRACTION} / spectral radius"
            )

    if v0 is None:
        v = 0.5 * np.eye(n)
    else:
        v_init = v0.v if isinstance(v0, CovarianceMatrix) else np.asarray(v0, dtype=float)
        if v_init.shape != (n, n):
            raise DomainError("v0 shape must match the drift")
        _require_symmetric(v_init, "v0")
        v = v_init.copy()

    d_norm = float(np.linalg.norm(d_s))
    tol = rtol * d_norm if d_norm > 0.0 else rtol
    tol_sq = tol * tol
    max_steps = math.ceil(horizon / abs(max_real) / dt_s)

    sixth = dt_s / 6.0
    half = 0.5 * dt_s

    # Preallocated stage buffers: the step count runs into the tens of
    # thousands, so the loop avoids fresh allocations entirely.
    g = np.empty_like(v)
    k1 = np.empty_like(v)
    k2 = np.empty_like(v)
    k3 = np.empty_like(v)
    k4 = np.empty_like(v)
    w = np.empty_like(v)

    def rhs(src: np.ndarray, dst: np.ndarray) -> None:
        # dst = A src + (A src)^T + D; valid because src stays symmetric
        np.matmul(a_s, src, out=g)
        np.add(g, g.T, out=dst)
        dst += d_s

    for _ in range(max_steps):
        rhs(v, k1)
        if float(np.vdot(k1, k1)) <= tol_sq:
            return CovarianceMatrix(v=0.5 * (v + v.T))
        np.multiply(k1, half, out=w)
        w += v
        rhs(w, k2)
        np.multiply(k2, half, out=w)
        w += v
        rhs(w, k3)
        np.multiply(k3, dt_s, out=w)
        w += v
        rhs(w, k4)
        np.add(k2, k3, out=w)
        w *= 2.0
        w += k1
        w += k4
        w *= sixth
        v += w

    residual = math.sqrt(float(np.vdot(k1, k1)))
    raise ConvergenceError(
        f"RK4 did not reach ||dV/dt||_F <= {tol:.3e} within the horizon "
        f"({max_steps} steps; final residual {residual:.3e})"
    )


def physicality_margin(v: CovarianceMatrix | np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2) Omega.

    Non-negative (up to roundoff) exactly when V is a bona fide quantum
    covariance matrix in the vacuum-is-one-half convention.
    """
    arr = v.v if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
        raise DomainError("covariance must be square with even dimension")
    omega = symplectic_form(arr.shape[0] // 2)
    h = arr + 0.5j * omega
    try:
        return float(np.linalg.eigvalsh(h).min())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc


__all__ = [
    "CovarianceMatrix",
    "integrate_to_steady_state",
    "physicality_margin",
    "solve_lyapunov",
    "symplectic_form",
]
