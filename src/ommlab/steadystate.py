"""Steady-state covariance: direct Lyapunov solve and RK4 cross-check.

The stationary covariance V of the linearized system solves

    A V + V A^T + D = 0.

The direct route works in the eigenbasis of the drift, A S = S Lambda, which
the stability check has already computed. Writing V = S W S^H turns the
equation into Lambda W + W Lambda^H = -S^-1 D S^-H, solved entrywise:

    V = Re S [(-S^-1 D S^-H)_ij / (lambda_i + conj(lambda_j))] S^H.

Near an exceptional point the eigenvectors coalesce and S becomes ill
conditioned; there, or when the result misses the residual gate, the solve
falls back to scipy's Schur-based Bartels-Stewart solver.

:func:`solve_lyapunov_stack` runs this solve over an (N, n, n) stack of
points at once (numpy's batched inv and matmul); each point is gated, and
sent to the fallback, on its own, and its failure is returned for it alone.
:func:`solve_lyapunov` is that stack with one point in it. The
independent route integrates dV/dt = A V + V A^T + D forward with classical
fourth-order Runge-Kutta until the right-hand side is numerically zero; for a
stable A both must agree, which is the package's main internal consistency
check. Both take their stability verdict from :func:`ommlab.dynamics.stability`.

All solves run in dimensionless form: A and D are scaled by a natural
frequency first (the mechanical frequency for the physical pipeline), so the
tolerances below do not depend on the unit system.
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
from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    OmmlabError,
    StabilityError,
)

#: Relative Frobenius residual allowed on the Lyapunov equation.
_RESIDUAL_RTOL = 1e-10

#: Asymmetry (relative to max |V|) beyond which the raw solution is suspect.
_ASYMMETRY_RTOL = 1e-9

#: Largest 1-norm condition estimate ||S||_1 ||S^-1||_1 of the drift's
#: eigenvector basis that the eigenbasis solve accepts. Its forward error grows
#: about as cond^2 epsilon: on nearly defective test drifts it was 1e-12 of
#: max |V| at cond 3e2 and 1e-10 at 3e3, where the residual gate starts to
#: fail. The physical maps stay below cond 10.
_EIGENBASIS_COND_MAX = 1e3

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


def _transpose(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (of the matrix itself in 2D)."""
    return np.swapaxes(x, -1, -2)


def _max_abs_scale(x: np.ndarray) -> np.ndarray:
    """max(1, max |X|) of each matrix in a stack."""
    return np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))


def _asymmetric(x: np.ndarray) -> np.ndarray:
    """Which matrices of a stack are not symmetric to 1e-10 of max(1, max |X|)."""
    return np.abs(x - _transpose(x)).max(axis=(-2, -1)) > 1e-10 * _max_abs_scale(x)


def _require_symmetric(arr: np.ndarray, name: str) -> None:
    """Raise unless ``arr`` is symmetric to 1e-10 of max(1, max |arr|)."""
    if _asymmetric(arr):
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


def _stable_system(
    a: DriftMatrix | np.ndarray,
    d: DiffusionMatrix | np.ndarray,
    scale: float | None,
) -> tuple[np.ndarray, np.ndarray, float, StabilityReport]:
    """Checked A and D arrays, the scale, and the drift's stability report;
    raises :class:`StabilityError` when the drift is not stable."""
    a_arr, natural = _as_matrix(a)
    d_arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if d_arr.shape != a_arr.shape:
        raise DomainError("drift and diffusion shapes must match")
    _require_symmetric(d_arr, "diffusion")
    if scale is None:
        scale = natural
    if not scale > 0.0:
        raise DomainError("scale must be strictly positive")
    report = stability(a)
    if not report.stable:
        raise StabilityError(
            f"drift is not asymptotically stable (max Re eig = {report.max_real:.6e})"
        )
    return a_arr, d_arr, scale, report


def _eigenbasis_solve(
    lam: np.ndarray, vecs: np.ndarray, d_s: np.ndarray
) -> np.ndarray:
    """Raw V = Re S W S^H for each point of a stack, from its scaled eigenpairs.

    A point whose basis S is singular, or whose condition estimate exceeds
    :data:`_EIGENBASIS_COND_MAX`, gets an all-NaN V, which the residual gate
    then sends to the fallback.
    """
    try:
        vecs_inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        # some S is singular: invert point by point and mark those points
        vecs_inv = np.full_like(vecs, np.nan)
        for i, s in enumerate(vecs):
            try:
                vecs_inv[i] = np.linalg.inv(s)
            except np.linalg.LinAlgError:
                pass
    cond = np.linalg.norm(vecs, 1, axis=(-2, -1)) * np.linalg.norm(vecs_inv, 1, axis=(-2, -1))
    c = vecs_inv @ d_s @ _transpose(vecs_inv.conj())
    w = -c / (lam[:, :, None] + lam.conj()[:, None, :])
    raw = (vecs @ w @ _transpose(vecs.conj())).real
    raw[~(cond <= _EIGENBASIS_COND_MAX)] = np.nan
    return raw


def _schur_solve(a_s: np.ndarray, d_s: np.ndarray) -> np.ndarray:
    """Raw V of one point from scipy's Bartels-Stewart solver (Comm. ACM 15,
    820, 1972).

    scipy is imported here only: the fallback is rare, and the import takes
    longer than a sweep's whole set-up.
    """
    import scipy.linalg

    try:
        return scipy.linalg.solve_continuous_lyapunov(a_s, -d_s)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Schur-based Lyapunov solve failed: {exc}") from exc


def _symmetrized(raw: np.ndarray) -> np.ndarray:
    """0.5 (V + V^T) of each matrix, with roundoff-level entries set to zero.

    Entries within machine epsilon of max(1, max |V|) of their own matrix are
    below the solve's own forward error. Clearing them keeps structural zeros
    of V (decoupled quadratures) free of roundoff that would otherwise depend
    on the scale.
    """
    v = 0.5 * (raw + _transpose(raw))
    floor = np.finfo(float).eps * _max_abs_scale(v)
    v[np.abs(v) <= floor[..., None, None]] = 0.0
    return v


def _relative_residual(a_s: np.ndarray, v: np.ndarray, d_s: np.ndarray) -> np.ndarray:
    """||A V + V A^T + D||_F / ||D||_F of each point; 0 where D vanishes."""
    d_norm = np.linalg.norm(d_s, axis=(-2, -1))
    r_norm = np.linalg.norm(a_s @ v + v @ _transpose(a_s) + d_s, axis=(-2, -1))
    return np.divide(r_norm, d_norm, out=np.zeros_like(r_norm), where=d_norm != 0.0)


def solve_lyapunov_stack(
    a: np.ndarray,
    d: np.ndarray,
    scale: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Stationary covariances of a stack of stable points, solved together.

    ``a`` and ``d`` are (N, n, n) in rad/s, ``scale`` (N,) is each point's
    natural frequency, and the eigenpairs are each drift's, as returned by
    :func:`ommlab.dynamics.stability_stack`. A point with an asymmetric D
    fails at once; the others' eigenbasis results are screened with the 1e-10
    residual gate (a NaN residual misses it) and those that miss go to the
    Schur fallback. The stack is then symmetrized and gated once, and each
    point that passes is checked for the asymmetry warning and non-negative
    variances. Returns V (N, n, n), exactly symmetric, rows of failed points
    undefined, and per point the error that point raises, or None.
    """
    errors: list[OmmlabError | None] = [None] * len(a)
    for i in np.flatnonzero(_asymmetric(d)):
        errors[i] = DomainError("diffusion must be symmetric")
    a_s = a / scale[:, None, None]
    d_s = d / scale[:, None, None]
    raw = _eigenbasis_solve(eigenvalues / scale[:, None], eigenvectors, d_s)
    missed = ~(_relative_residual(a_s, _symmetrized(raw), d_s) <= _RESIDUAL_RTOL)
    for i in np.flatnonzero(missed):
        if errors[i] is None:
            try:
                raw[i] = _schur_solve(a_s[i], d_s[i])
            except NumericalError as exc:
                errors[i] = exc

    v = _symmetrized(raw)
    residual = _relative_residual(a_s, v, d_s)
    asym = np.abs(raw - _transpose(raw)).max(axis=(-2, -1))
    warn = asym > _ASYMMETRY_RTOL * _max_abs_scale(raw)
    negative = (np.diagonal(v, axis1=-2, axis2=-1) < 0.0).any(axis=-1)
    for i, error in enumerate(errors):
        if error is not None:
            continue
        if not residual[i] <= _RESIDUAL_RTOL:
            errors[i] = NumericalError(
                f"Lyapunov residual {residual[i]:.3e} ||D||_F exceeds "
                f"{_RESIDUAL_RTOL:.0e} ||D||_F"
            )
            continue
        if warn[i]:
            warnings.warn(
                f"Lyapunov solution asymmetry {asym[i]:.3e} exceeds "
                f"{_ASYMMETRY_RTOL:.0e} of max |V|; solve may be ill conditioned",
                RuntimeWarning,
                stacklevel=2,
            )
        if negative[i]:
            errors[i] = DomainError("variances on the diagonal must be non-negative")
    return v, errors


def solve_lyapunov(
    a: DriftMatrix | np.ndarray,
    d: DiffusionMatrix | np.ndarray,
    *,
    scale: float | None = None,
) -> CovarianceMatrix:
    """Solve A V + V A^T + D = 0 for the stationary covariance V.

    Requires an asymptotically stable A: one call of
    :func:`ommlab.dynamics.stability` gives the verdict and the eigenpairs.
    This is :func:`solve_lyapunov_stack` on a stack of one (eigenbasis solve,
    Schur fallback when the basis is singular, worse conditioned than
    :data:`_EIGENBASIS_COND_MAX` or misses the 1e-10 residual gate, the
    asymmetry warning); the error it returns for the point is raised.
    """
    a_arr, d_arr, s, report = _stable_system(a, d, scale)
    v, errors = solve_lyapunov_stack(
        a_arr[None], d_arr[None], np.array([s]),
        report.eigenvalues[None], report.eigenvectors[None],
    )
    if errors[0] is not None:
        raise errors[0]
    return CovarianceMatrix(v=v[0])


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
    a_arr, d_arr, s, report = _stable_system(a, d, scale)
    n = a_arr.shape[0]
    a_s = a_arr / s
    d_s = d_arr / s
    max_real = report.max_real / s
    spectral_radius = float(np.max(np.abs(report.eigenvalues))) / s

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

    def rhs(x: np.ndarray) -> np.ndarray:
        # A x + (A x)^T + D; valid because x stays symmetric
        ax = a_s @ x
        return ax + ax.T + d_s

    for _ in range(max_steps):
        k1 = rhs(v)
        if float(np.vdot(k1, k1)) <= tol_sq:
            return CovarianceMatrix(v=0.5 * (v + v.T))
        k2 = rhs(k1 * half + v)
        k3 = rhs(k2 * half + v)
        k4 = rhs(k3 * dt_s + v)
        # v + dt/6 (k1 + 2 (k2 + k3) + k4), summed in place on k2: the same
        # bits as the out-of-place expression, without its temporaries
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= sixth
        v += k2

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
    "solve_lyapunov_stack",
    "symplectic_form",
]
