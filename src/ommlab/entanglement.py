"""Bipartite Gaussian entanglement from covariance matrices.

A two-mode reduction of the steady-state covariance carries everything needed
for the logarithmic negativity: with the 4x4 block written as

    V0 = [[V1, V12], [V12^T, V2]],

the smaller symplectic eigenvalue of the partially transposed state is

    nu = 2^{-1/2} sqrt(Sigma - sqrt(Sigma^2 - 4 det V0)),
    Sigma = det V1 + det V2 - 2 det V12,

and E_N = max(0, -ln 2 nu) in the vacuum-is-one-half convention. An
eigenvalue-based evaluation of the same quantity (partial transpose, then the
spectrum of i Omega V) is exposed alongside as an independent cross-check; it
also supplies nu when the two symplectic eigenvalues nearly coincide, where the
closed form loses half its digits.

:func:`nu_minus_stack` evaluates the closed form over an (N, 4, 4) stack of
blocks, with the clamps and the spectral route decided for each block on its
own; :func:`symplectic_nu_minus` and :func:`log_negativity` are that stack
with one block in it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, OmmlabError
from .steadystate import (
    CovarianceMatrix,
    _asymmetric,
    _require_symmetric,
    symplectic_form,
)

#: Tolerance scale for the radicand and inner-argument clamps: tiny negative
#: values are roundoff and clamp to zero, anything worse is an error.
_CLAMP_TOL = 1e-12

#: The radicand Sigma^2 - 4 det V0 equals (nu_+^2 - nu_-^2)^2 and carries an
#: absolute roundoff of a few epsilon Sigma^2, so its square root is off by
#: up to about sqrt(epsilon) Sigma when nu_+ ~ nu_-. Below this fraction of
#: Sigma^2 (nu_+ and nu_- within about 0.1%) nu_- comes from the spectral
#: route instead. At the fraction itself the closed form's nu_- was within
#: 1e-12 relative on locally squeezed states; no pair of the 51x51 paper map
#: comes within a factor 20 of it.
_DEGENERATE_RTOL = 1e-6


class Mode(enum.Enum):
    """The five modes, with their rows in the 10x10 covariance."""

    ATOM = "a"
    CAVITY1 = "c1"
    CAVITY2 = "c2"
    PHONON = "b"
    MAGNON = "m"

    @property
    def rows(self) -> tuple[int, int]:
        return _MODE_ROWS[self]


_MODE_ROWS = {
    Mode.ATOM: (0, 1),
    Mode.CAVITY1: (2, 3),
    Mode.CAVITY2: (4, 5),
    Mode.PHONON: (6, 7),
    Mode.MAGNON: (8, 9),
}

#: Every pair label, the abbreviations of two distinct modes ("c2b" is cavity 2
#: and the phonon), with its modes: a label parses in one lookup.
_PAIRS = {m1.value + m2.value: (m1, m2) for m1 in Mode for m2 in Mode if m1 is not m2}


def parse_pair(label: str) -> tuple[Mode, Mode]:
    """Parse a pair label like "am" or "c2b" into two distinct modes."""
    if not isinstance(label, str) or label not in _PAIRS:
        modes = ", ".join(mode.value for mode in Mode)
        raise DomainError(f"pair label {label!r} must name two distinct modes of {modes}")
    return _PAIRS[label]


def pair_label(pair: tuple[Mode, Mode]) -> str:
    return pair[0].value + pair[1].value


def two_mode_block(
    v: CovarianceMatrix | np.ndarray, mode1: Mode, mode2: Mode
) -> np.ndarray:
    """Extract the 4x4 covariance block of two distinct modes."""
    if mode1 is mode2:
        raise DomainError("two_mode_block needs two distinct modes")
    arr = v.v if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
    if arr.shape != (10, 10):
        raise DomainError("expected the full 10x10 covariance")
    rows = mode1.rows + mode2.rows
    return arr[np.ix_(rows, rows)].copy()


def _check_two_mode(v0: np.ndarray) -> np.ndarray:
    arr = np.asarray(v0, dtype=float)
    if arr.shape != (4, 4):
        raise DomainError("expected a 4x4 two-mode covariance")
    _require_symmetric(arr, "two-mode covariance")
    return arr


def _det2(b: np.ndarray) -> np.ndarray:
    """Determinant of each 2x2 matrix in a stack."""
    return b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]


def nu_minus_stack(blocks: np.ndarray) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Smaller symplectic eigenvalue of each partially transposed block.

    ``blocks`` is an (N, 4, 4) stack of two-mode covariances. Each block is
    checked and evaluated as :func:`symplectic_nu_minus` evaluates one: its
    symmetry, the radicand and inner-argument clamps, the spectral route at a
    nearly degenerate symplectic spectrum, and a vanishing nu_-. Returns nu_-
    (N,), undefined where a block failed, and per block the error it raises,
    or None.
    """
    # the determinants of the four 2x2 blocks of each, [n, I, J] of block (I, J)
    det = _det2(blocks.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4))
    det_v1, det_v2, det_v12 = det[:, 0, 0], det[:, 1, 1], det[:, 0, 1]
    det_v0 = np.linalg.det(blocks)
    sigma = det_v1 + det_v2 - 2.0 * det_v12
    sigma_sq = sigma * sigma

    radicand = sigma_sq - 4.0 * det_v0
    inner = 0.5 * (sigma - np.sqrt(np.maximum(radicand, 0.0)))
    nu = np.sqrt(np.maximum(inner, 0.0))
    bad_radicand = radicand < -_CLAMP_TOL * np.maximum(1.0, sigma_sq)
    bad_inner = inner < -_CLAMP_TOL * np.maximum(1.0, np.abs(sigma))
    degenerate = radicand <= _DEGENERATE_RTOL * sigma * sigma

    errors: list[OmmlabError | None] = [None] * len(blocks)
    asymmetric = _asymmetric(blocks)
    for i in (asymmetric | bad_radicand | bad_inner | degenerate).nonzero()[0]:
        if asymmetric[i]:
            errors[i] = DomainError("two-mode covariance must be symmetric")
        elif bad_radicand[i]:
            errors[i] = NumericalError(
                f"negative radicand {radicand[i]:.3e} in the symplectic eigenvalue; "
                "input is not a physical covariance"
            )
        elif bad_inner[i]:
            errors[i] = NumericalError(
                f"negative argument {inner[i]:.3e} under the square root; "
                "input is not a physical covariance"
            )
        else:
            try:
                nu[i] = nu_minus_via_partial_transpose(blocks[i])
            except OmmlabError as exc:
                errors[i] = exc
    for i in (nu <= 0.0).nonzero()[0]:
        if errors[i] is None:
            errors[i] = NumericalError(
                "vanishing symplectic eigenvalue; state is singular"
            )
    return nu, errors


def symplectic_nu_minus(v0: np.ndarray) -> float:
    """Smaller symplectic eigenvalue of the partially transposed state.

    Evaluated through the determinant closed form. The radicand and the inner
    argument are clamped at zero when they dip below it by roundoff; dips
    beyond 1e-12 (relative to the natural square scale of the matrix) mean
    the input was not a physical covariance and raise instead. At a nearly
    degenerate symplectic spectrum (radicand below 1e-6 Sigma^2) the closed
    form loses half its digits, and :func:`nu_minus_via_partial_transpose`
    supplies nu_- instead. This is :func:`nu_minus_stack` on a stack of one.
    """
    nu, errors = nu_minus_stack(_check_two_mode(v0)[None])
    if errors[0] is not None:
        raise errors[0]
    return float(nu[0])


def nu_minus_via_partial_transpose(v0: np.ndarray) -> float:
    """Same quantity via the spectrum of i Omega V-tilde; independent path.

    Partial transposition flips the momentum of the second mode,
    V-tilde = P V0 P with P = diag(1, 1, 1, -1); the symplectic spectrum is
    |eig(i Omega V-tilde)|.
    """
    arr = _check_two_mode(v0)
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    v_tilde = p @ arr @ p
    omega = symplectic_form(2)
    try:
        eigs = np.linalg.eigvals(1j * omega @ v_tilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    return float(np.min(np.abs(eigs)))


def log_negativity(
    v: CovarianceMatrix | np.ndarray, pair: tuple[Mode, Mode] | None = None
) -> float:
    """Logarithmic negativity E_N = max(0, -ln 2 nu) of a bipartition.

    Accepts either a 4x4 two-mode covariance directly, or the full 10x10
    covariance together with the pair of modes to reduce to.
    """
    if pair is not None:
        block = two_mode_block(v, pair[0], pair[1])
    else:
        block = v.v if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
        if block.shape == (10, 10):
            raise DomainError("a 10x10 covariance needs an explicit mode pair")
    return _e_n(symplectic_nu_minus(block))


def _e_n(nu: float) -> float:
    """E_N = max(0, -ln 2 nu) from the smaller symplectic eigenvalue."""
    return max(0.0, -math.log(2.0 * nu))


@dataclass(frozen=True)
class EntanglementReport:
    """One bipartition's measures; None when the point could not be evaluated."""

    pair: tuple[Mode, Mode]
    nu_minus: float | None
    e_n: float | None


def random_two_mode_covariance(rng: np.random.Generator) -> np.ndarray:
    """Draw a random physical two-mode covariance matrix.

    Built as S N S^T with N a thermal diagonal (symplectic eigenvalues in
    [0.5, 5]) and S a random symplectic composed of local squeezes, a
    two-mode squeeze, and local rotations. Covers separable and entangled,
    pure and mixed states.
    """
    nu1, nu2 = rng.uniform(0.5, 5.0, size=2)
    thermal = np.diag([nu1, nu1, nu2, nu2])

    s1, s2 = rng.uniform(-1.0, 1.0, size=2)
    local_squeeze = np.diag([math.exp(s1), math.exp(-s1), math.exp(s2), math.exp(-s2)])

    r = rng.uniform(0.0, 1.5)
    ch, sh = math.cosh(r), math.sinh(r)
    tms = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )

    def rotation(phi: float) -> np.ndarray:
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, s], [-s, c]])

    phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    local_rot = np.zeros((4, 4))
    local_rot[0:2, 0:2] = rotation(phi1)
    local_rot[2:4, 2:4] = rotation(phi2)

    s_total = local_rot @ tms @ local_squeeze
    v = s_total @ thermal @ s_total.T
    return 0.5 * (v + v.T)


def transformation_efficiency(e_ab: float, e_am: float) -> float | None:
    """Ratio E_am / E_ab of magnon-side to phonon-side atomic entanglement.

    Returns None (the designated undefined marker) when the denominator
    vanishes; never raises a division error. Negative inputs are outside the
    domain since log-negativities are non-negative by construction.
    """
    if e_ab < 0.0 or e_am < 0.0:
        raise DomainError("log-negativities are non-negative")
    if e_ab == 0.0:
        return None
    return e_am / e_ab


__all__ = [
    "EntanglementReport",
    "Mode",
    "log_negativity",
    "nu_minus_stack",
    "nu_minus_via_partial_transpose",
    "pair_label",
    "parse_pair",
    "random_two_mode_covariance",
    "symplectic_nu_minus",
    "transformation_efficiency",
    "two_mode_block",
]
