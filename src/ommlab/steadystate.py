"""Steady-state covariance: direct Lyapunov solve and exact-flow cross-check.

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
:func:`solve_lyapunov` is that stack with one point in it, and the one entry
that takes a drift and diffusion as arrays or as their wrapper types.

The independent route, :func:`integrate_to_steady_state_stack`, follows the
exact flow of dV/dt = A V + V A^T + D until the right-hand side is
numerically zero: over a step h it is V <- Phi V Phi^T + Q_h, with Phi and
Q_h from one matrix exponential of a 2n x 2n block (Van Loan, IEEE TAC 23,
395, 1978), and 2^k steps are the same map with Phi and Q_h doubled k times
(Smith, SIAM J. Appl. Math. 16, 198, 1968). It uses scipy's Pade
scaling-and-squaring ``expm``; the drift's eigenvalues set its step and
horizon, and its eigenvectors are not used. For a stable A both routes must
agree, which is the package's main internal consistency check. Both take
their stability verdict from the drift's eigenvalues, as
:func:`ommlab.dynamics.stability_stack` returns them.

All solves run in dimensionless form: A and D are scaled by a natural
frequency first (the mechanical frequency for the physical pipeline), so the
tolerances below do not depend on the unit system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DiffusionMatrix, DriftMatrix, stability_stack
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

#: Exact-flow defaults: base step as a fraction of the spectral radius, its
#: largest allowed value, stopping tolerance relative to ||D||_F, and horizon
#: in units of the slowest decay.
_FLOW_STEP_FRACTION = 0.05
_FLOW_MAX_STEP_FRACTION = 0.1
_FLOW_RTOL = 1e-12
_FLOW_HORIZON = 50.0


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega = diag of [[0, 1], [-1, 0]] blocks, read-only."""
    if n_modes <= 0:
        raise DomainError("n_modes must be positive")
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


def _transpose(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (of the matrix itself in 2D)."""
    return x.swapaxes(-1, -2)


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


def _unstable(max_real: float) -> StabilityError:
    """The error of a drift whose largest real part is ``max_real`` (rad/s)."""
    return StabilityError(
        f"drift is not asymptotically stable (max Re eig = {max_real:.6e})"
    )


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
    cond = np.abs(vecs).sum(axis=-2).max(axis=-1) * np.abs(vecs_inv).sum(axis=-2).max(axis=-1)
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
    r = a_s @ v + v @ _transpose(a_s) + d_s
    # np.linalg.norm's Frobenius sums, without its per-call overhead
    d_norm, r_norm = (np.sqrt(np.add.reduce(x * x, axis=(-2, -1))) for x in (d_s, r))
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
    Schur fallback, whose results are symmetrized and gated in turn. Each
    point that passes is checked for the asymmetry warning and non-negative
    variances. Returns V (N, n, n), exactly symmetric, rows of failed points
    undefined, and per point the error that point raises, or None.
    """
    errors: list[OmmlabError | None] = [None] * len(a)
    for i in _asymmetric(d).nonzero()[0]:
        errors[i] = DomainError("diffusion must be symmetric")
    a_s = a / scale[:, None, None]
    d_s = d / scale[:, None, None]
    raw = _eigenbasis_solve(eigenvalues / scale[:, None], eigenvectors, d_s)
    v = _symmetrized(raw)
    residual = _relative_residual(a_s, v, d_s)
    missed = (~(residual <= _RESIDUAL_RTOL)).nonzero()[0]
    for i in missed:
        if errors[i] is None:
            try:
                raw[i] = _schur_solve(a_s[i], d_s[i])
            except NumericalError as exc:
                errors[i] = exc
    if missed.size:
        v[missed] = _symmetrized(raw[missed])
        residual[missed] = _relative_residual(a_s[missed], v[missed], d_s[missed])
    asym = np.abs(raw - _transpose(raw)).max(axis=(-2, -1))
    warn = asym > _ASYMMETRY_RTOL * _max_abs_scale(raw)
    negative = (np.diagonal(v, axis1=-2, axis2=-1) < 0.0).any(axis=-1)
    over = ~(residual <= _RESIDUAL_RTOL)
    for i in (over | warn | negative).nonzero()[0]:
        if errors[i] is not None:
            continue
        if over[i]:
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

    ``a`` and ``d`` are square arrays of one shape or the wrapper types. The
    drift's natural scale is its ``omega_b``, or for an array its largest
    |entry| (1 for a zero drift); ``scale``, the frequency the solve divides
    by, defaults to it. Requires an asymptotically stable A:
    :func:`ommlab.dynamics.stability_stack` at the natural scale gives the
    verdict and the eigenpairs. This is :func:`solve_lyapunov_stack` on a
    stack of one (eigenbasis solve, Schur fallback when the basis is
    singular, worse conditioned than :data:`_EIGENBASIS_COND_MAX` or misses
    the 1e-10 residual gate, the asymmetry warning); the error it returns for
    the point is raised.
    """
    if isinstance(a, DriftMatrix):
        a_arr, natural = a.a, a.omega_b
    else:
        a_arr = np.asarray(a, dtype=float)
        if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
            raise DomainError("drift must be a square matrix")
        natural = float(np.max(np.abs(a_arr)))
        natural = natural if natural > 0.0 else 1.0
    d_arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if d_arr.shape != a_arr.shape:
        raise DomainError("drift and diffusion shapes must match")
    _require_symmetric(d_arr, "diffusion")
    s = np.array([natural if scale is None else scale], dtype=float)
    if not s[0] > 0.0:
        raise DomainError("scale must be strictly positive")
    eigs, vecs, max_real = stability_stack(a_arr[None], np.array([natural]))
    if not max_real[0] < 0.0:
        raise _unstable(max_real[0])
    v, errors = solve_lyapunov_stack(a_arr[None], d_arr[None], s, eigs, vecs)
    if errors[0] is not None:
        raise errors[0]
    return CovarianceMatrix(v=v[0])


def _flow(a_s: np.ndarray, forcing: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi = e^(A h) and int_0^h e^(A s) F e^(A^T s) ds of each point of a stack.

    Both come from one batched scipy ``expm`` of the Van Loan blocks
    [[-A, F], [0, A^T]] h (IEEE TAC 23, 395, 1978), whose exponential is
    [[., X], [0, Phi^T]] with the integral Phi X. scipy is imported here
    only, as for the Schur fallback.
    """
    import scipy.linalg

    n = a_s.shape[-1]
    block = np.zeros((len(a_s), 2 * n, 2 * n))
    block[:, :n, :n] = -a_s
    block[:, :n, n:] = forcing
    block[:, n:, n:] = _transpose(a_s)
    e = scipy.linalg.expm(block * h[:, None, None])
    phi = _transpose(e[:, n:, n:]).copy()
    return phi, phi @ e[:, :n, n:].copy()


def _doubled(phi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flow over twice the time: Phi^2 and Phi Q Phi^T + Q (Smith 1968)."""
    return phi @ phi, phi @ q @ _transpose(phi) + q


def _square_sums(x: np.ndarray) -> np.ndarray:
    """||X||_F^2 of each matrix of a stack (einsum: half the time of x * x
    and a reduce on (128, 10, 10) stacks)."""
    return np.einsum("nij,nij->n", x, x)


def integrate_to_steady_state_stack(
    a: np.ndarray,
    d: np.ndarray,
    scale: np.ndarray,
    eigenvalues: np.ndarray,
    v0: np.ndarray | None = None,
    dt: np.ndarray | None = None,
    *,
    rtol: float = _FLOW_RTOL,
    horizon: float = _FLOW_HORIZON,
) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Relax each point of a stack along the exact flow of
    dV/dt = A V + V A^T + D to its fixed point.

    ``a`` and ``d`` are (N, n, n) in rad/s, ``scale`` (N,) is each point's
    natural frequency, ``eigenvalues`` (N, n) are each drift's, as returned
    by :func:`ommlab.dynamics.stability_stack`, and give the verdict, the
    spectral radius and the slowest decay, not V. ``v0`` (N, n, n) defaults
    to the vacuum and ``dt`` (N,), in seconds, to 0.05 / spectral radius. Pass
    k checks ||A V + V A^T + D||_F against ``rtol`` ||D||_F, then advances V
    by 2^k steps, V <- Phi V Phi^T + Q
    (:func:`_flow`), and doubles Phi and Q, so the checks fall after 0, 1,
    3, 7, ... steps. A point freezes at its first passing check, whatever the
    other points do, and fails with :class:`ConvergenceError` at its first
    check at or past ``horizon`` slowest decay times. The flow takes the
    residual R to Phi R Phi^T, so a residual above ||Phi||_F^2 times the one
    before it is the plain update's roundoff floor, and that point takes the
    pass in correction form, V <- V + int_0^T e^(A s) R e^(A^T s) ds over
    the same T, from a flow of R doubled alike. Returns V (N, n, n),
    symmetrized, undefined for failed points, and each point's error or
    None; an unstable drift gets :class:`StabilityError` and a step above
    0.1 / spectral radius :class:`DomainError`.
    """
    max_real = eigenvalues.real.max(axis=-1)
    a_s = a / scale[:, None, None]
    d_s = d / scale[:, None, None]
    radius = np.abs(eigenvalues).max(axis=-1) / scale
    with np.errstate(divide="ignore"):
        h = _FLOW_STEP_FRACTION / radius if dt is None else dt * scale
        budget = np.ceil(horizon * scale / -max_real / h)
    errors: list[OmmlabError | None] = [None] * len(a)
    for i in range(len(a)):
        if not max_real[i] < 0.0:
            errors[i] = _unstable(max_real[i])
        elif h[i] > _FLOW_MAX_STEP_FRACTION / radius[i]:
            errors[i] = DomainError(
                "dt exceeds the stability budget of "
                f"{_FLOW_MAX_STEP_FRACTION} / spectral radius"
            )
    d_norm = np.sqrt(np.add.reduce(d_s * d_s, axis=(-2, -1)))
    tol = rtol * np.where(d_norm > 0.0, d_norm, 1.0)
    v = np.broadcast_to(0.5 * np.eye(a.shape[-1]), a.shape) if v0 is None else v0
    out = np.full(a.shape, np.nan)

    live = np.flatnonzero([error is None for error in errors])
    a_s, d_s, h, tol, budget = (x[live] for x in (a_s, d_s, h, tol, budget))
    phi, q = _flow(a_s, d_s, h)
    # V and Q_h side by side: one congruence by Phi advances V and doubles Q_h
    vq = np.stack([v[live], q], axis=1)
    # the flow takes R to Phi R Phi^T, so ||R||_F falls by at least the
    # factor ||Phi||_F^2 over a pass: a residual above this bound is the plain
    # update's roundoff floor, and that point's pass is a correction
    bound = np.full(len(live), np.inf)
    steps = passes = 0
    first_budget = budget.min(initial=np.inf)
    while len(live):
        v = vq[:, 0]
        # V is symmetric up to roundoff, and this R exactly
        av = a_s @ v
        r = av + _transpose(av) + d_s
        residual = np.sqrt(_square_sums(r))
        # the usual pass: no point passes, reaches its budget or stalls
        if steps >= first_budget or ((residual <= tol) | (residual > bound)).any():
            done = residual <= tol
            over = ~done & (steps >= budget)
            out[live[done]] = 0.5 * (v[done] + _transpose(v[done]))
            for i, tol_i, budget_i, res in zip(
                live[over], tol[over], budget[over], residual[over]
            ):
                errors[i] = ConvergenceError(
                    f"the exact flow did not reach ||dV/dt||_F <= {tol_i:.3e} within "
                    f"the horizon ({budget_i:.0f} steps, checked at {steps}; final "
                    f"residual {res:.3e})"
                )
            keep = ~(done | over)
            live, a_s, d_s, h, tol, budget, vq, v, r, residual, bound, phi = (
                x[keep] for x in (live, a_s, d_s, h, tol, budget, vq, v, r, residual, bound, phi)
            )
            first_budget = budget.min(initial=np.inf)
            stalled = np.flatnonzero(residual > bound)
        else:
            stalled = ()
        bound = residual * _square_sums(phi)
        vq = phi[:, None] @ vq @ _transpose(phi)[:, None] + vq[:, 1:]
        if len(stalled):
            phi_r, g = _flow(a_s[stalled], r[stalled], h[stalled])
            for _ in range(passes):
                phi_r, g = _doubled(phi_r, g)
            vq[stalled, 0] = v[stalled] + g
        phi = phi @ phi
        steps = 2 * steps + 1
        passes += 1
    return out, errors


def physicality_margin(v: CovarianceMatrix | np.ndarray) -> float:
    """Smallest eigenvalue of V + (i/2) Omega.

    Non-negative (up to roundoff) exactly when V is a bona fide quantum
    covariance matrix in the vacuum-is-one-half convention. A V with an
    infinite or NaN entry has no margin and raises :class:`DomainError`.
    """
    arr = v.v if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
        raise DomainError("covariance must be square with even dimension")
    if not np.isfinite(arr).all():
        raise DomainError("covariance must be finite")
    omega = symplectic_form(arr.shape[0] // 2)
    h = arr + 0.5j * omega
    try:
        return float(np.linalg.eigvalsh(h).min())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc


__all__ = [
    "CovarianceMatrix",
    "integrate_to_steady_state_stack",
    "physicality_margin",
    "solve_lyapunov",
    "solve_lyapunov_stack",
    "symplectic_form",
]
