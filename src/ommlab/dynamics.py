"""Linearized dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering, used everywhere downstream:

    u = [x_a, y_a, x_c1, y_c1, x_c2, y_c2, q, p, x_m, y_m]

indices 0..9: atomic ensemble (0, 1), cavity 1 (2, 3), cavity 2 (4, 5),
mechanical oscillator (6, 7), magnon (8, 9). The fluctuations obey

    du/dt = A u + n(t),    <n n^T>_sym = D delta(t - t'),

and the steady-state covariance solves A V + V A^T + D = 0.

Sweeps classify their drifts a chunk at a time: :func:`stability_stack` runs
one batched eigensolve over an (N, 10, 10) stack, and :func:`stability` is that
stack with one matrix in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import SystemParams, thermal_occupation
from .semiclassics import SemiclassicalState, coupling_phase

#: Phase-space dimension: five modes, two quadratures each.
DIM = 10

MODE_LABELS = ("atom", "cavity1", "cavity2", "phonon", "magnon")


@dataclass(frozen=True)
class DriftMatrix:
    """Drift matrix A of the linearized Langevin equations, rad/s.

    ``omega_b`` rides along as the natural frequency scale used to
    de-dimensionalize solves.
    """

    a: np.ndarray
    omega_b: float

    def __post_init__(self) -> None:
        if self.a.shape != (DIM, DIM):
            raise DomainError(f"drift matrix must be {DIM}x{DIM}")
        self.a.setflags(write=False)


@dataclass(frozen=True)
class DiffusionMatrix:
    """Diagonal diffusion matrix D of the input noise, rad/s."""

    d: np.ndarray

    def __post_init__(self) -> None:
        if self.d.shape != (DIM, DIM):
            raise DomainError(f"diffusion matrix must be {DIM}x{DIM}")
        self.d.setflags(write=False)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.d)


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues of the drift and the verdict they imply.

    Asymptotic stability requires every eigenvalue to sit strictly in the
    left half plane. ``margin`` is -max(Re), positive when stable.
    ``eigenvectors`` holds the right eigenvectors as columns, in the order of
    ``eigenvalues``; the steady-state solve works in that basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_real: float
    stable: bool

    @property
    def margin(self) -> float:
        return -self.max_real


def build_drift(params: SystemParams, state: SemiclassicalState) -> DriftMatrix:
    """Assemble the 10x10 drift matrix for a working point.

    The atom and cavity-1 blocks rotate at the bare detunings; cavity 2 and
    the magnon rotate at the shifted detunings carried by ``state``. Coupling
    phases rotate the quadratures the mechanical element talks to: the drive
    column picks up (cos, sin) of theta + arg(G), and the backaction row is
    placed per ``params.g_c_backaction`` (see SystemParams).
    """
    a = np.zeros((DIM, DIM))

    rotating_blocks = (
        (0, params.kappa_a, params.delta_a),
        (2, params.kappa_c1, params.delta_c1),
        (4, params.kappa_c2, state.delta_c2_eff),
        (8, params.kappa_m, state.delta_m_eff),
    )
    for i, kappa, delta in rotating_blocks:
        a[i, i] = -kappa
        a[i + 1, i + 1] = -kappa
        a[i, i + 1] = delta
        a[i + 1, i] = -delta

    a[6, 7] = params.omega_b
    a[7, 6] = -params.omega_b
    a[7, 7] = -params.gamma_b

    # beam-splitter couplings of the atomic ensemble to both cavities
    a[0, 3] += params.g_n1
    a[1, 2] -= params.g_n1
    a[2, 1] += params.g_n1
    a[3, 0] -= params.g_n1
    a[0, 5] += params.g_n2
    a[1, 4] -= params.g_n2
    a[4, 1] += params.g_n2
    a[5, 0] -= params.g_n2

    g_c = abs(state.g_c_eff)
    theta_c = params.theta_c + coupling_phase(state.g_c_eff)
    cc, sc = math.cos(theta_c), math.sin(theta_c)
    a[4, 6] += g_c * cc
    a[5, 6] += g_c * sc
    if params.g_c_backaction == "y_quadrature":
        a[7, 4] += g_c * sc
        a[7, 5] -= g_c * cc
    else:
        a[7, 4] -= g_c * cc
        a[7, 5] -= g_c * sc

    g_mb = abs(state.g_mb_eff)
    theta_m = params.theta_m + coupling_phase(state.g_mb_eff)
    cm, sm = math.cos(theta_m), math.sin(theta_m)
    a[8, 6] -= g_mb * cm
    a[9, 6] -= g_mb * sm
    a[7, 8] -= g_mb * sm
    a[7, 9] += g_mb * cm

    return DriftMatrix(a=a, omega_b=params.omega_b)


def build_diffusion(params: SystemParams) -> DiffusionMatrix:
    """Assemble the diagonal diffusion matrix for the input noise.

    Optical and atomic baths enter at zero occupation; the mechanical and
    magnon baths carry their thermal factors 2 N + 1. The momentum row is the
    only mechanical entry because thermal force noise drives p directly.
    """
    n_b = thermal_occupation(params.omega_b, params.temperature)
    n_m = thermal_occupation(params.omega_m, params.temperature)
    diag = np.array(
        [
            params.kappa_a,
            params.kappa_a,
            params.kappa_c1,
            params.kappa_c1,
            params.kappa_c2,
            params.kappa_c2,
            0.0,
            params.gamma_b * (2.0 * n_b + 1.0),
            params.kappa_m * (2.0 * n_m + 1.0),
            params.kappa_m * (2.0 * n_m + 1.0),
        ]
    )
    return DiffusionMatrix(d=np.diag(diag))


def _as_matrix(a: DriftMatrix | np.ndarray) -> tuple[np.ndarray, float]:
    """Unwrap a drift argument into (array, natural scale)."""
    if isinstance(a, DriftMatrix):
        return a.a, a.omega_b
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("drift must be a square matrix")
    scale = float(np.max(np.abs(arr)))
    return arr, scale if scale > 0.0 else 1.0


def stability_stack(
    a: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of every drift in an (N, n, n) stack, from one batched eig.

    Each matrix is divided by its own entry of ``scale`` (shape (N,)) to keep
    the problem well conditioned; LAPACK dgeev with vectors runs on each
    (numpy loops over the stack), and the eigenvalues are scaled back. Every
    row is sorted by real part, then imaginary part, exactly as
    :func:`stability` sorts one matrix. Returns the eigenvalues (N, n), the
    right eigenvectors as columns (N, n, n) in that order, and max Re (N,).
    Raises :class:`NumericalError` when the eigensolve fails for the stack.
    """
    try:
        eigs, vecs = np.linalg.eig(a / scale[:, None, None])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    order = np.lexsort((eigs.imag, eigs.real), axis=-1)
    eigs = np.take_along_axis(eigs, order, axis=-1) * scale[:, None]
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    return eigs, vecs, eigs.real.max(axis=-1)


def stability(a: DriftMatrix | np.ndarray) -> StabilityReport:
    """Classify a drift matrix by its spectrum.

    Eigenvalues and right eigenvectors come from one call of the QR algorithm
    on the balanced Hessenberg form (LAPACK dgeev with vectors), computed on
    the matrix scaled by its natural frequency to keep the problem well
    conditioned; the eigenvalues are scaled back to rad/s. Both are returned
    sorted by real part, then imaginary part, so reports are deterministic.
    This is :func:`stability_stack` on a stack of one.
    """
    arr, scale = _as_matrix(a)
    eigs, vecs, max_real = stability_stack(arr[None], np.array([scale]))
    eigs, vecs = eigs[0], vecs[0]
    eigs.setflags(write=False)
    vecs.setflags(write=False)
    max_real = float(max_real[0])
    return StabilityReport(
        eigenvalues=eigs, eigenvectors=vecs, max_real=max_real, stable=max_real < 0.0
    )


__all__ = [
    "DIM",
    "DiffusionMatrix",
    "DriftMatrix",
    "MODE_LABELS",
    "StabilityReport",
    "build_diffusion",
    "build_drift",
    "stability",
    "stability_stack",
]
