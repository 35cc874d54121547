"""Steady-state covariance: direct Lyapunov solve and Kronecker-form solve.

The stationary covariance V of the linearized system solves

    A V + V A^T + D = 0.

The direct route works in the eigenbasis of the drift, A S = S Lambda, which
the stability check has already computed. Writing V = S W S^H turns the
equation into Lambda W + W Lambda^H = -S^-1 D S^-H, solved entrywise:

    V = Re S [(-S^-1 D S^-H)_ij / (lambda_i + conj(lambda_j))] S^H.

Near an exceptional point the eigenvectors coalesce and S becomes ill
conditioned; there, or when the result misses the residual gate, the solve
falls back to the Kronecker-form route below, the only fallback.

:func:`solve_lyapunov_stack` runs this solve over an (N, n, n) stack of
points at once (numpy's batched inv and matmul); each point is gated, and
sent to the fallback, on its own, and its failure is returned for it alone.
:func:`solve_lyapunov` is that stack with one point in it, and the one entry
that takes a drift and diffusion as arrays or as their wrapper types. Each
stack is one batch; :data:`ommlab.harness.BLOCK_SIZE` sets its points.

The Kronecker-form route, :func:`solve_lyapunov_vech_stack`, solves the same
equation as a linear system: the n(n+1)/2 entries of the symmetric V on and
above the diagonal are the unknowns of one system per point, 55 square for
the 10x10 system, solved by LU. It reads no eigenpairs and has no tolerance
or horizon of its own. At a point the eigenbasis solve kept, it is an
independent cross-check, the package's main internal consistency check: for
a stable A both routes must agree. At a fallback point it is the solve
itself, and the residual gate is that point's evidence. Nothing here imports
scipy. The stability verdict is the direct route's, from the drift's
eigenvalues as :func:`ommlab.dynamics.stability_stack` returns them.

The stacks take A and D in one unit of frequency, whatever it is, and work
in it: the harness gives them each point's in units of its mechanical
frequency omega_b. Their gates are relative, so the unit does not matter,
except for the max(1, .) floor of the symmetry checks. :func:`solve_lyapunov`
takes rad/s, or any unit, and divides by one scale before the stacks.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import DiffusionMatrix, DriftMatrix, stability_stack
from .errors import (
    DomainError,
    NumericalError,
    OmmlabError,
    StabilityError,
    _batched,
)

_EPS = np.finfo(float).eps

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


def _asymmetric(x: np.ndarray) -> np.ndarray:
    """Which matrices of a stack are not symmetric to 1e-10 of max(1, max |X|),
    the floor read in the stack's own unit."""
    if not np.count_nonzero(x != _transpose(x)):  # exactly symmetric, as built here
        return np.zeros(x.shape[:-2], dtype=bool)
    scale = np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))
    return np.abs(x - _transpose(x)).max(axis=(-2, -1)) > 1e-10 * scale


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


def _eigenbasis_solve(lam: np.ndarray, vecs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Raw V = Re S W S^H for each point of a stack, from its eigenpairs.

    A point whose basis S is singular, or whose condition estimate exceeds
    :data:`_EIGENBASIS_COND_MAX`, gets an all-NaN V, which the residual gate
    then sends to the fallback.
    """
    vecs_inv = _batched(np.linalg.inv, lambda n: np.full(vecs[:n].shape, np.nan, vecs.dtype), vecs)
    # ||S||_1 and ||S^-1||_1, from one pass over [S, S^-1]
    norms = np.abs(np.concatenate((vecs, vecs_inv), axis=-1)).sum(axis=-2)
    norms = norms.reshape(len(vecs), 2, vecs.shape[-1]).max(axis=-1)
    c = vecs_inv @ d @ _transpose(vecs_inv.conj())
    w = -c / (lam[:, :, None] + lam.conj()[:, None, :])
    raw = (vecs @ w @ _transpose(vecs.conj())).real
    return np.where((norms[:, 0] * norms[:, 1] <= _EIGENBASIS_COND_MAX)[:, None, None], raw, np.nan)


def _symmetrized(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0.5 (V + V^T) of each matrix, with roundoff-level entries set to zero,
    max |V - V^T| and max(1, max |0.5 (V + V^T)|).

    Entries within machine epsilon of max(1, max |V|) of their own matrix are
    below the solve's own forward error. Clearing them keeps structural zeros
    of V (decoupled quadratures) free of roundoff that would otherwise depend
    on the scale.
    """
    raw_t = _transpose(raw)
    v = 0.5 * (raw + raw_t)
    abs_v = np.abs(v)
    scale = np.maximum(1.0, abs_v.max(axis=(-2, -1)))
    v = np.where(abs_v <= _EPS * scale[:, None, None], 0.0, v)
    return v, np.abs(raw - raw_t).max(axis=(-2, -1)), scale


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix of an (N, n, n) stack (einsum: half the time of
    x * x and a reduce on (128, 10, 10) stacks), each bit for bit the same
    whatever else is in the stack."""
    return np.sqrt(np.einsum("nij,nij->n", x, x))


def _relative_residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """||A V + V A^T + D||_F / ||D||_F of each point, for a V exactly
    symmetric, as :func:`_symmetrized` leaves it; where D vanishes, the
    absolute residual, so that a NaN V still misses the gate."""
    av = a @ v
    norms = _frobenius(np.concatenate((av + _transpose(av) + d, d)))
    d_norm = norms[len(a):]
    return norms[: len(a)] / np.where(d_norm != 0.0, d_norm, 1.0)


def solve_lyapunov_stack(
    a: np.ndarray, d: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray
) -> tuple[np.ndarray, list[OmmlabError | None], np.ndarray]:
    """Stationary covariances of a stack of stable points, solved together.

    ``a`` and ``d`` are (N, n, n) in one unit, and the eigenpairs are each
    drift's, as :func:`ommlab.dynamics.stability_stack` returns them. A
    point with an asymmetric D fails at once; the others' eigenbasis results
    are screened with the 1e-10 residual gate (a NaN residual misses it) and
    those that miss go, together, to the Kronecker-form fallback,
    :func:`solve_lyapunov_vech_stack`, whose results are symmetrized and
    gated in turn; a point it fails keeps its error. Each point that passes
    is checked for the asymmetry warning and non-negative variances. Returns
    V (N, n, n), exactly symmetric, rows of failed points undefined, per
    point the error that point raises, or None, and the mask (N,) of the
    points solved in Kronecker form, for which that solve is no independent
    check.
    """
    raw = _eigenbasis_solve(eigenvalues, eigenvectors, d)
    v, asym, scale = _symmetrized(raw)
    residual = _relative_residual(a, v, d)
    over = ~(residual <= _RESIDUAL_RTOL)
    asymmetric_d = _asymmetric(d)
    kronecker = over & ~asymmetric_d
    errors: list[OmmlabError | None] = [None] * len(a)
    if kronecker.any():
        missed = kronecker.nonzero()[0]
        raw[missed], fallback_errors = solve_lyapunov_vech_stack(a[missed], d[missed])
        for i, error in zip(missed, fallback_errors):
            errors[i] = error
        v[missed], asym[missed], scale[missed] = _symmetrized(raw[missed])
        residual[missed] = _relative_residual(a[missed], v[missed], d[missed])
        over = ~(residual <= _RESIDUAL_RTOL)
    # max |V| <= max |raw V|: below the bound on the first, below it on the second
    warn = asym > _ASYMMETRY_RTOL * scale
    negative = v.diagonal(axis1=-2, axis2=-1).min(axis=-1) < 0.0
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
        if warn[i] and asym[i] > _ASYMMETRY_RTOL * max(1.0, np.abs(raw[i]).max()):
            warnings.warn(
                f"Lyapunov solution asymmetry {asym[i]:.3e} exceeds "
                f"{_ASYMMETRY_RTOL:.0e} of max |V|; solve may be ill conditioned",
                RuntimeWarning,
                stacklevel=2,
            )
        if negative[i]:
            errors[i] = DomainError("variances on the diagonal must be non-negative")
    return v, errors, kronecker


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
    :func:`solve_lyapunov_stack` on a stack of one (eigenbasis solve,
    Kronecker-form fallback when the basis is singular, worse conditioned
    than :data:`_EIGENBASIS_COND_MAX` or misses the 1e-10 residual gate, the
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
        raise StabilityError(
            f"drift is not asymptotically stable (max Re eig = {max_real[0] * scale:.6e})"
        )
    v, errors, _ = solve_lyapunov_stack(a_s, d_s, eigs, vecs)
    if errors[0] is not None:
        raise errors[0]
    return CovarianceMatrix(v=v[0])


@functools.cache
def _vech_gathers(n: int) -> tuple[np.ndarray, ...]:
    """Index tables of the Kronecker-form operator of n x n matrices: the flat
    position in V of each of the m = n(n+1)/2 entries of vech V, (i, j) with
    i <= j, and the entry of vech V at each flat position; then for the two
    sums in row (i, j) of A V + V A^T = sum_k A_ik V_kj + sum_k A_jk V_ik, the
    flat positions in the (m, m) operator that the first reaches or the
    second alone, with the flat indices into A they put there, and the
    positions both reach, with the second's. The first gives v_pq the
    coefficient A_iq where j = p, else A_ip where j = q; the second A_jq
    where i = p, else A_jp where i = q. For n = 10 each reaches 550 of the
    3025 entries, the two 955, both 145."""
    rows, cols = np.triu_indices(n)
    i, j, p, q = rows[:, None], cols[:, None], rows[None, :], cols[None, :]
    first = np.where(j == p, i * n + q, np.where(j == q, i * n + p, -1)).ravel()
    second = np.where(i == p, j * n + q, np.where(i == q, j * n + p, -1)).ravel()
    unvech = np.empty((n, n), dtype=int)
    unvech[rows, cols] = unvech[cols, rows] = np.arange(len(rows))
    at_set = np.flatnonzero((first >= 0) | (second >= 0))
    at_add = np.flatnonzero((first >= 0) & (second >= 0))
    tables = (
        rows * n + cols, unvech.ravel(), at_set,
        np.where(first >= 0, first, second)[at_set], at_add, second[at_add],
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def solve_lyapunov_vech_stack(
    a: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Solve A V + V A^T + D = 0 for each point of an (N, n, n) stack, D
    symmetric, in Kronecker form: LU with partial pivoting (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 16) of each point's operator on
    vech V, from :func:`_vech_gathers`, against -vech D, in one batched call of
    at most a stage-2 block (:data:`ommlab.harness.BLOCK_SIZE` points, 24 kB
    each), point by point should it raise. The operator is singular exactly
    where two eigenvalues of A sum to zero, never for a stable A; no verdict is
    given. Returns V, exactly symmetric, and per point None, or a
    :class:`NumericalError` and an all-NaN V where V is not finite."""
    if not len(a):
        return np.empty(a.shape), []
    n = a.shape[-1]
    vech, unvech, at_set, src_set, at_add, src_add = _vech_gathers(n)
    m = len(vech)
    flat = a.reshape(-1, n * n)
    # each sum gathered only where it reaches: 3 against 24 us a point for
    # two gathers of all m^2 entries from a zero-padded A, on stacks of 32
    op = np.zeros((len(flat), m * m))
    op[:, at_set] = flat[:, src_set]
    op[:, at_add] += flat[:, src_add]
    rhs = -d.reshape(-1, n * n)[:, vech, None]
    x = _batched(np.linalg.solve, lambda n: np.full((n, m, 1), np.nan), op.reshape(-1, m, m), rhs)
    v = x[:, unvech, 0].reshape(a.shape)
    errors: list[OmmlabError | None] = [None] * len(a)
    for i in (~np.isfinite(v).all(axis=(-2, -1))).nonzero()[0]:
        errors[i] = NumericalError(
            "Kronecker-form Lyapunov solve failed: singular operator or non-finite solution"
        )
        v[i] = np.nan
    return v, errors


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
    "physicality_margin",
    "solve_lyapunov",
    "solve_lyapunov_stack",
    "solve_lyapunov_vech_stack",
    "symplectic_form",
]
