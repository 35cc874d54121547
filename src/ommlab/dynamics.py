"""Linearized dynamics: drift matrix, diffusion matrix, stability.

Quadrature ordering, used everywhere downstream:

    u = [x_a, y_a, x_c1, y_c1, x_c2, y_c2, q, p, x_m, y_m]

indices 0..9: atomic ensemble (0, 1), cavity 1 (2, 3), cavity 2 (4, 5),
mechanical oscillator (6, 7), magnon (8, 9). The fluctuations obey

    du/dt = A u + n(t),    <n n^T>_sym = D delta(t - t'),

and the steady-state covariance solves A V + V A^T + D = 0.

Sweeps build and classify (N, 10, 10) stacks a chunk at a time with
:func:`drift_stack`, :func:`diffusion_stack` and :func:`stability_stack`;
:func:`build_drift` and :func:`build_diffusion` are stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .model import Points, SystemParams, _occupation, columns
from .semiclassics import SemiclassicalState, state_column

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


def drift_stack(params_list: Points, states: np.ndarray) -> np.ndarray:
    """The 10x10 drift matrices of a stack of working points, (N, 10, 10).

    ``states`` is the (N,) state column of the points' working points (see
    :data:`~ommlab.semiclassics.STATE_DTYPE`), whose fields are read as
    arrays. The atom and cavity-1 blocks rotate at the bare detunings; cavity
    2 and the magnon rotate at the shifted detunings carried by each state.
    The column and row each coupling G gives the mechanical element hold |G|
    cos and |G| sin of arg(G), with arg(0) = 0: a table fill, see
    _DRIFT_LAYOUT.
    """
    fields = columns(
        params_list, "kappa_a", "kappa_c1", "kappa_c2", "kappa_m", "delta_a", "delta_c1",
        "omega_b", "gamma_b", "g_n1", "g_n2",
    )
    g_eff = np.array([states["g_c_eff"], states["g_mb_eff"]])
    g = np.hypot(g_eff.real, g_eff.imag)
    phase = np.where(g == 0.0, 0.0, np.arctan2(g_eff.imag, g_eff.real))
    terms = np.concatenate([
        np.zeros_like(g[:1]), fields, [states["delta_c2_eff"], states["delta_m_eff"]],
        g * np.cos(phase), g * np.sin(phase),
    ])
    return terms.T[:, _DRIFT_TERM] * _DRIFT_SIGN


def build_drift(params: SystemParams, state: SemiclassicalState) -> DriftMatrix:
    """The drift matrix of one working point, a :func:`drift_stack` of one."""
    return DriftMatrix(a=drift_stack([params], state_column([state]))[0], omega_b=params.omega_b)


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
    noise[3:5] *= 2.0 * _occupation(noise[5:7], noise[7]) + 1.0
    return (noise[:5].T @ _NOISE_PLACES).reshape(-1, DIM, DIM)


def build_diffusion(params: SystemParams) -> DiffusionMatrix:
    """The diffusion matrix of one point, a :func:`diffusion_stack` of one."""
    return DiffusionMatrix(d=diffusion_stack([params])[0])


def stability_stack(
    a: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of every drift in an (N, n, n) stack, from one batched eig.

    Each matrix is divided by its own entry of ``scale`` (shape (N,)) to keep
    the problem well conditioned; LAPACK dgeev with vectors runs on each
    (numpy loops over the stack), and the eigenvalues are scaled back. Every
    row is sorted by real part, then imaginary part, so results are
    deterministic. Returns the eigenvalues (N, n), the right eigenvectors as
    columns (N, n, n) in that order, and max Re (N,): a drift is
    asymptotically stable when its max Re is strictly negative, and -max Re
    is its stability margin. Raises :class:`NumericalError` when the
    eigensolve fails for the stack.
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


__all__ = [
    "DIM",
    "DiffusionMatrix",
    "DriftMatrix",
    "build_diffusion",
    "build_drift",
    "diffusion_stack",
    "drift_stack",
    "stability_stack",
]
