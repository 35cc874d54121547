"""Linearized dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering, used everywhere downstream:

    u = [x_a, y_a, x_c1, y_c1, x_c2, y_c2, q, p, x_m, y_m]

indices 0..9: atomic ensemble (0, 1), cavity 1 (2, 3), cavity 2 (4, 5),
mechanical oscillator (6, 7), magnon (8, 9). The fluctuations obey

    du/dt = A u + n(t),    <n n^T>_sym = D delta(t - t'),

and the steady-state covariance solves A V + V A^T + D = 0.

Sweeps build and classify (N, 10, 10) stacks a chunk at a time with
:func:`drift_stack`, :func:`diffusion_stack` and :func:`stability_stack`;
:func:`build_drift`, :func:`build_diffusion` and :func:`stability` are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .model import Points, SystemParams, columns, thermal_occupation
from .semiclassics import SemiclassicalState

#: Phase-space dimension: five modes, two quadratures each.
DIM = 10


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


# Entry (i, j) of the drift is sign(k) times term |k| of drift_stack, for k the entry
# below. The terms: 0 is zero, then the ten parameters it reads first, the shifted
# detunings, and |G| cos and |G| sin of the phase of each coupling. Row p holds the
# backaction where the quadratic interaction Hamiltonian places it.
_KA, _K1, _K2, _KM, _DA, _D1, _WB, _GB, _G1, _G2 = range(1, 11)
_D2, _DM, _GCC, _GMC, _GCS, _GMS = range(11, 17)
_DRIFT_LAYOUT = np.array([
    #  x_a    y_a   x_c1   y_c1   x_c2   y_c2      q      p    x_m    y_m
    [-_KA,   _DA,     0,   _G1,     0,   _G2,     0,     0,     0,     0],  # x_a
    [-_DA,  -_KA,  -_G1,     0,  -_G2,     0,     0,     0,     0,     0],  # y_a
    [   0,   _G1,  -_K1,   _D1,     0,     0,     0,     0,     0,     0],  # x_c1
    [-_G1,     0,  -_D1,  -_K1,     0,     0,     0,     0,     0,     0],  # y_c1
    [   0,   _G2,     0,     0,  -_K2,   _D2,  _GCC,     0,     0,     0],  # x_c2
    [-_G2,     0,     0,     0,  -_D2,  -_K2,  _GCS,     0,     0,     0],  # y_c2
    [   0,     0,     0,     0,     0,     0,     0,   _WB,     0,     0],  # q
    [   0,     0,     0,     0,  _GCS, -_GCC,  -_WB,  -_GB, -_GMS,  _GMC],  # p
    [   0,     0,     0,     0,     0,     0, -_GMC,     0,  -_KM,   _DM],  # x_m
    [   0,     0,     0,     0,     0,     0, -_GMS,     0,  -_DM,  -_KM],  # y_m
])
_DRIFT_TERM, _DRIFT_SIGN = np.abs(_DRIFT_LAYOUT), np.sign(_DRIFT_LAYOUT) * 1.0


def drift_stack(params_list: Points, states: Sequence[SemiclassicalState]) -> np.ndarray:
    """The 10x10 drift matrices of a stack of working points, (N, 10, 10).

    The atom and cavity-1 blocks rotate at the bare detunings; cavity 2 and
    the magnon rotate at the shifted detunings carried by each state. The
    column and row each coupling G gives the mechanical element hold |G| cos
    and |G| sin of arg(G), with arg(0) = 0: a table fill, see _DRIFT_LAYOUT.
    """
    fields = columns(
        params_list, "kappa_a", "kappa_c1", "kappa_c2", "kappa_m", "delta_a", "delta_c1",
        "omega_b", "gamma_b", "g_n1", "g_n2",
    )
    state = columns(states, "delta_c2_eff", "delta_m_eff", "g_c_eff", "g_mb_eff")
    g_eff = state[2:]
    g = np.hypot(g_eff.real, g_eff.imag)
    phase = np.where(g == 0.0, 0.0, np.arctan2(g_eff.imag, g_eff.real))
    terms = np.concatenate(
        [np.zeros_like(g[:1]), fields, state[:2].real, g * np.cos(phase), g * np.sin(phase)]
    )
    return terms.T[:, _DRIFT_TERM] * _DRIFT_SIGN


def build_drift(params: SystemParams, state: SemiclassicalState) -> DriftMatrix:
    """The drift matrix of one working point, a :func:`drift_stack` of one."""
    return DriftMatrix(a=drift_stack([params], [state])[0], omega_b=params.omega_b)


#: Where each noise rate of :func:`diffusion_stack` sits in D, flattened: on both
#: quadratures of its mode, but gamma_b (2 N_b + 1) on p alone.
_NOISE_ON_DIAGONAL = np.insert(np.repeat(np.eye(5), [2, 2, 2, 1, 2], 1), 6, 0.0, 1)
_NOISE_PLACES = (_NOISE_ON_DIAGONAL[:, :, None] * np.eye(DIM)).reshape(5, DIM * DIM)


def diffusion_stack(params_list: Points) -> np.ndarray:
    """The diagonal diffusion matrices of a stack of points, (N, 10, 10).

    Optical and atomic baths enter at zero occupation; the mechanical and
    magnon baths carry their thermal factors 2 N + 1. The momentum row is the
    only mechanical entry because thermal force noise drives p directly.
    """
    noise = columns(
        params_list, "kappa_a", "kappa_c1", "kappa_c2", "gamma_b", "kappa_m", "omega_b",
        "omega_m", "temperature",
    )
    noise[3:5] *= 2.0 * thermal_occupation(noise[5:7], noise[7]) + 1.0
    return (noise[:5].T @ _NOISE_PLACES).reshape(-1, DIM, DIM)


def build_diffusion(params: SystemParams) -> DiffusionMatrix:
    """The diffusion matrix of one point, a :func:`diffusion_stack` of one."""
    return DiffusionMatrix(d=diffusion_stack([params])[0])


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
    points = np.arange(len(a))[:, None]
    eigs = eigs[points, order] * scale[:, None]
    vecs = vecs[points[:, :, None], np.arange(a.shape[-1])[:, None], order[:, None, :]]
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
    "StabilityReport",
    "build_diffusion",
    "build_drift",
    "diffusion_stack",
    "drift_stack",
    "stability",
    "stability_stack",
]
