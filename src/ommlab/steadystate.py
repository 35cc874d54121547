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
exact flow of dV/dt = A V + V A^T + D from the vacuum V0 = I / 2,
V(t) = Phi_t V0 Phi_t^T + Q_t:
one matrix exponential of a 2n x 2n block gives the pair over a step h (Van
Loan, IEEE TAC 23, 395, 1978), and k doublings of the pair alone give it over
2^k steps (Smith, SIAM J. Appl. Math. 16, 198, 1968). The residual at t is
Phi_t R0 Phi_t^T, so V is formed and checked once ||Phi_t||_F^2 ||R0||_F
passes. It uses scipy's Pade scaling-and-squaring ``expm``; the drift's
eigenvalues set its step and horizon, and its eigenvectors are not used.
Its start, step, tolerance and horizon are this module's, one
configuration for every caller.
For a stable A both routes must agree, which is the package's main internal
consistency check. Both take their stability verdict from the drift's
eigenvalues, as :func:`ommlab.dynamics.stability_stack` returns them.

The stacks take A and D in one unit of frequency, whatever it is, and work
in it: the harness gives them each point's in units of its mechanical
frequency omega_b. Their gates are relative, so the unit does not matter,
except for the max(1, .) floor of the symmetry checks. :func:`solve_lyapunov`
takes rad/s, or any unit, and divides by one scale before the stacks.
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

#: The exact flow's step, in units of 1 / spectral radius, kept within the
#: block exponential's accuracy: the worst oracle deviation on the acceptance
#: maps stays below 1.7e-10 for steps from 0.05 to 1.6 and reaches 1.1e-9 at 3.2.
_FLOW_STEP_FRACTION = 1.0

#: The exact flow's stopping tolerance relative to ||D||_F, and its horizon in
#: slowest decay times.
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
    """Which matrices of a stack are not symmetric to 1e-10 of max(1, max |X|),
    the floor read in the stack's own unit."""
    if (x == _transpose(x)).all():  # exactly symmetric, as built here: two passes, not six
        return np.zeros(x.shape[:-2], dtype=bool)
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
    """The error of a drift whose largest real part is ``max_real``."""
    return StabilityError(
        f"drift is not asymptotically stable (max Re eig = {max_real:.6e})"
    )


def _eigenbasis_solve(lam: np.ndarray, vecs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Raw V = Re S W S^H for each point of a stack, from its eigenpairs.

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
    c = vecs_inv @ d @ _transpose(vecs_inv.conj())
    w = -c / (lam[:, :, None] + lam.conj()[:, None, :])
    raw = (vecs @ w @ _transpose(vecs.conj())).real
    raw[~(cond <= _EIGENBASIS_COND_MAX)] = np.nan
    return raw


def _schur_solve(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Raw V of one point from scipy's Bartels-Stewart solver (Comm. ACM 15,
    820, 1972).

    scipy is imported here only: the fallback is rare, and the import takes
    longer than a sweep's whole set-up.
    """
    import scipy.linalg

    try:
        return scipy.linalg.solve_continuous_lyapunov(a, -d)
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


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix of an (N, n, n) stack (einsum: half the time of
    x * x and a reduce on (128, 10, 10) stacks)."""
    return np.sqrt(np.einsum("nij,nij->n", x, x))


def _rhs(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A V + V A^T + D of each point of a stack, for symmetric V."""
    av = a @ v
    return av + _transpose(av) + d


def _relative_residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """||A V + V A^T + D||_F / ||D||_F of each point, for a V exactly
    symmetric, as :func:`_symmetrized` leaves it; where D vanishes, the
    absolute residual, so that a NaN V still misses the gate."""
    r = _rhs(a, v, d)
    d_norm = _frobenius(d)
    return _frobenius(r) / np.where(d_norm != 0.0, d_norm, 1.0)


def solve_lyapunov_stack(
    a: np.ndarray, d: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Stationary covariances of a stack of stable points, solved together.

    ``a`` and ``d`` are (N, n, n) in one unit, and the eigenpairs are each
    drift's, as :func:`ommlab.dynamics.stability_stack` returns them. A
    point with an asymmetric D fails at once; the others' eigenbasis results
    are screened with the 1e-10 residual gate (a NaN residual misses it) and
    those that miss go to the Schur fallback, whose results are symmetrized
    and gated in turn. Each point that passes is checked for the asymmetry
    warning and non-negative variances. Returns V (N, n, n), exactly
    symmetric, rows of failed points undefined, and per point the error that
    point raises, or None.
    """
    raw = _eigenbasis_solve(eigenvalues, eigenvectors, d)
    v = _symmetrized(raw)
    residual = _relative_residual(a, v, d)
    over = ~(residual <= _RESIDUAL_RTOL)
    asymmetric_d = _asymmetric(d)
    errors: list[OmmlabError | None] = [None] * len(a)
    missed = over.nonzero()[0]
    if len(missed):
        for i in missed[~asymmetric_d[missed]]:
            try:
                raw[i] = _schur_solve(a[i], d[i])
            except NumericalError as exc:
                errors[i] = exc
        v[missed] = _symmetrized(raw[missed])
        residual[missed] = _relative_residual(a[missed], v[missed], d[missed])
        over = ~(residual <= _RESIDUAL_RTOL)
    asym = np.abs(raw - _transpose(raw)).max(axis=(-2, -1))
    warn = asym > _ASYMMETRY_RTOL * _max_abs_scale(raw)
    negative = (v.diagonal(axis1=-2, axis2=-1) < 0.0).any(axis=-1)
    for i in (asymmetric_d | over | warn | negative).nonzero()[0]:
        if asymmetric_d[i]:
            errors[i] = DomainError("diffusion must be symmetric")
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

    ``a`` and ``d`` are square arrays of one shape or the wrapper types, in
    rad/s or any one unit. Both are divided by ``scale``, by default the
    drift's largest |entry| (1 for a zero drift), and
    :func:`ommlab.dynamics.stability_stack` then gives the verdict and the
    eigenpairs; an A that is not asymptotically stable raises. This is
    :func:`solve_lyapunov_stack` on a stack of one (eigenbasis solve, Schur
    fallback when the basis is singular, worse conditioned than
    :data:`_EIGENBASIS_COND_MAX` or misses the 1e-10 residual gate, the
    asymmetry warning); the error it returns for the point is raised.
    """
    a_arr = a.a if isinstance(a, DriftMatrix) else np.asarray(a, dtype=float)
    if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
        raise DomainError("drift must be a square matrix")
    d_arr = d.d if isinstance(d, DiffusionMatrix) else np.asarray(d, dtype=float)
    if d_arr.shape != a_arr.shape:
        raise DomainError("drift and diffusion shapes must match")
    _require_symmetric(d_arr, "diffusion")
    if scale is None:
        scale = float(np.max(np.abs(a_arr)))
        scale = scale if scale > 0.0 else 1.0
    if not scale > 0.0:
        raise DomainError("scale must be strictly positive")
    a_s, d_s = a_arr[None] / scale, d_arr[None] / scale
    eigs, vecs, max_real = stability_stack(a_s)
    if not max_real[0] < 0.0:
        raise _unstable(max_real[0] * scale)
    v, errors = solve_lyapunov_stack(a_s, d_s, eigs, vecs)
    if errors[0] is not None:
        raise errors[0]
    return CovarianceMatrix(v=v[0])


def _flow(a: np.ndarray, forcing: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi = e^(A h) and int_0^h e^(A s) F e^(A^T s) ds of each point of a stack.

    Both come from one batched scipy ``expm`` of the Van Loan blocks
    [[-A, F], [0, A^T]] h (IEEE TAC 23, 395, 1978), whose exponential is
    [[., X], [0, Phi^T]] with the integral Phi X. scipy is imported here
    only, as for the Schur fallback.
    """
    import scipy.linalg

    n = a.shape[-1]
    block = np.zeros((len(a), 2 * n, 2 * n))
    block[:, :n, :n] = -a
    block[:, :n, n:] = forcing
    block[:, n:, n:] = _transpose(a)
    e = scipy.linalg.expm(block * h[:, None, None])
    phi = _transpose(e[:, n:, n:]).copy()
    return phi, phi @ e[:, :n, n:].copy()


def _doubled(phi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flow over twice the time: Phi^2 and Phi Q Phi^T + Q (Smith 1968)."""
    return phi @ phi, phi @ q @ _transpose(phi) + q


def integrate_to_steady_state_stack(
    a: np.ndarray, d: np.ndarray, eigenvalues: np.ndarray
) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Relax each point of a stack from the vacuum along the exact flow of
    dV/dt = A V + V A^T + D to its fixed point.

    ``a`` and ``d`` are (N, n, n) in one unit, ``eigenvalues`` (N, n) are
    each drift's, as :func:`ommlab.dynamics.stability_stack` returns them,
    and give the verdict, the spectral radius and the slowest decay, not V.
    Every point starts at V0 = I / 2 and steps by
    :data:`_FLOW_STEP_FRACTION` / spectral radius; it stops within
    :data:`_FLOW_RTOL` ||D||_F and gives up after :data:`_FLOW_HORIZON`
    slowest decay times, all three read when the function is called. A
    point whose residual R0 at step 0 is within the tolerance keeps V0. Over
    2^k steps the flow from V = 0, (Phi, Q) from :func:`_flow` doubled k
    times, gives V = Phi V0 Phi^T + Q with residual Phi R0 Phi^T. A point
    is read, V and its residual formed, only at the first 2^k where
    ||Phi||_F^2 ||R0||_F passes or that reaches the horizon. It freezes at
    its first passing read, whatever the other points do; a read at the
    horizon that misses gives :class:`ConvergenceError`, and a certified
    read that misses is the plain form's roundoff floor: that point takes
    V + int_0^t e^(A s) R e^(A^T s) ds, the flow of R over the same t,
    doubled alike, and is read again at 2t. Returns V (N, n, n),
    symmetrized, NaN for failed points, and each point's error or None:
    :class:`StabilityError` for an unstable drift.
    """
    max_real = eigenvalues.real.max(axis=-1)
    radius = np.abs(eigenvalues).max(axis=-1)
    valid = max_real < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = _FLOW_STEP_FRACTION / radius
        budget = np.ceil(_FLOW_HORIZON / -max_real / h)
    errors: list[OmmlabError | None] = [None] * len(a)
    for i in (~valid).nonzero()[0]:
        errors[i] = _unstable(max_real[i])
    d_norm = _frobenius(d)
    tol = _FLOW_RTOL * np.where(d_norm > 0.0, d_norm, 1.0)
    v = np.eye(a.shape[-1])[None].repeat(len(a), 0) * 0.5
    r0 = _frobenius(_rhs(a, v, d))
    fixed = valid & (r0 <= tol)
    # V of each point as it is read, symmetrized once at the end
    out = np.where(fixed[:, None, None], v, np.nan)
    live = (valid & ~fixed).nonzero()[0]
    if len(live) < len(a):
        a, d, max_real, h, tol, budget, v, r0 = (
            x[live] for x in (a, d, max_real, h, tol, budget, v, r0)
        )
    phi, q = _flow(a, d, h)
    # ||Phi||_F is at least Phi's spectral radius e^(-gamma t), gamma the
    # slowest decay, so no point is due before e^(-2 gamma t) ||R0||_F passes
    first = np.fmin(budget, np.log(r0 / tol) / (-2.0 * max_real * h))
    # which points hold their corrected V, at this pass's step, in place of V0
    corrected = np.zeros(len(live), dtype=bool)
    steps, passes, due = 1, 0, first.min(initial=np.inf)
    while len(live):
        index = () if steps < due else (
            corrected | (steps >= budget) | (_frobenius(phi) ** 2 * r0 <= tol)
        ).nonzero()[0]
        if len(index):
            at = slice(None) if len(index) == len(live) else index  # all of them: a slice
            fresh = index[~corrected[index]] if np.count_nonzero(corrected) else at
            v[fresh] = phi[fresh] @ v[fresh] @ _transpose(phi[fresh]) + q[fresh]
            r = _rhs(a[at], v[at], d[at])
            residual = _frobenius(r)
            done = residual <= tol[at]
            out[live[at]] = v[at]
            floor = index[:0]
            if not done.all():
                missed, r, residual = index[~done], r[~done], residual[~done]
                over = steps >= budget[missed]
                for j, res in zip(missed[over], residual[over]):
                    errors[live[j]] = ConvergenceError(
                        f"the exact flow did not reach ||dV/dt||_F <= {tol[j]:.3e} within "
                        f"the horizon ({budget[j]:.0f} steps, checked at {steps}; final "
                        f"residual {res:.3e})"
                    )
                    out[live[j]] = np.nan
                floor = missed[~over]
                if len(floor):
                    phi_r, g = _flow(a[floor], r[~over], h[floor])
                    for _ in range(passes):
                        phi_r, g = _doubled(phi_r, g)
                    v[floor] += g
                    corrected[floor], first[floor] = True, 0.0
            if len(index) == len(live) and not len(floor):  # every point is finished
                break
            if len(floor) < len(index):  # drop the points that are finished
                keep = np.ones(len(live), dtype=bool)
                keep[index], keep[floor] = False, True
                live, a, d, h, tol, budget, first, v, r0, phi, q, corrected = (
                    x[keep] for x in (live, a, d, h, tol, budget, first, v, r0, phi, q, corrected)
                )
            due = first.min()
        phi, q = _doubled(phi, q)
        steps, passes = 2 * steps, passes + 1
    return 0.5 * (out + _transpose(out)), errors


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
