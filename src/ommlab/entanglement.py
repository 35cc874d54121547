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
own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, OmmlabError
from .steadystate import _asymmetric, _require_symmetric, _transpose, symplectic_form

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


def nu_minus_stack(blocks: np.ndarray) -> tuple[np.ndarray, list[OmmlabError | None]]:
    """Smaller symplectic eigenvalue of each partially transposed block.

    ``blocks`` is an (N, 4, 4) stack of two-mode covariances, each checked
    for symmetry and evaluated through the determinant closed form on its
    own. The radicand and the inner argument are clamped at zero when they
    dip below it by roundoff; dips beyond 1e-12 (relative to the natural
    square scale of the block) mean the input was not a physical covariance
    and fail the block. At a nearly degenerate symplectic spectrum (radicand
    below 1e-6 Sigma^2) the closed form loses half its digits, and
    :func:`nu_minus_via_partial_transpose` supplies nu_- instead. A block
    with a NaN or an infinite entry, and a vanishing nu_-, fail their block
    too. Returns nu_- (N,), undefined where a block failed, and per block the
    error it raises, or None. A stack of any other shape raises
    :class:`DomainError`.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 3 or blocks.shape[1:] != (4, 4):
        raise DomainError(f"expected an (N, 4, 4) stack of covariances, got {blocks.shape}")
    # a block with a NaN or an infinite entry fails as such below, unwarned
    with np.errstate(invalid="ignore"):
        # the four 2x2 blocks of each, b[n, I, J] the block (I, J), and their determinants
        b = blocks.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
        sigma = det[:, 0, 0] + det[:, 1, 1] - 2.0 * det[:, 0, 1]
        det_v0 = np.linalg.det(blocks)
        sigma_sq = sigma * sigma
        radicand = sigma_sq - 4.0 * det_v0
        inner = 0.5 * (sigma - np.sqrt(np.maximum(radicand, 0.0)))
        nu = np.sqrt(np.maximum(inner, 0.0))
        degenerate = radicand <= _DEGENERATE_RTOL * sigma * sigma
        # in a stack of exactly symmetric blocks, as the harness builds them,
        # a block whose Sigma is finite is finite, since each entry of V1, V2
        # and V12 enters one of its determinants; the other blocks, and every
        # block of any other stack, are checked entry by entry
        if np.count_nonzero(blocks != _transpose(blocks)):
            unchecked = np.ones(len(blocks), dtype=bool)
        else:
            unchecked = ~np.isfinite(sigma)
    errors: list[OmmlabError | None] = [None] * len(blocks)
    # a radicand that fails its clamp is degenerate too, and an inner argument
    # below zero leaves nu_- = 0
    for i in (unchecked | degenerate | (nu <= 0.0)).nonzero()[0]:
        if not np.isfinite(blocks[i]).all():
            errors[i] = DomainError("two-mode covariance must be finite")
        elif _asymmetric(blocks[i]):
            errors[i] = DomainError("two-mode covariance must be symmetric")
        elif radicand[i] < -_CLAMP_TOL * max(1.0, sigma_sq[i]):
            errors[i] = NumericalError(
                f"negative radicand {radicand[i]:.3e} in the symplectic eigenvalue; "
                "input is not a physical covariance"
            )
        elif inner[i] < -_CLAMP_TOL * max(1.0, abs(sigma[i])):
            errors[i] = NumericalError(
                f"negative argument {inner[i]:.3e} under the square root; "
                "input is not a physical covariance"
            )
        elif degenerate[i]:
            try:
                nu[i] = nu_minus_via_partial_transpose(blocks[i])
            except OmmlabError as exc:
                errors[i] = exc
        if errors[i] is None and nu[i] <= 0.0:
            errors[i] = NumericalError("vanishing symplectic eigenvalue; state is singular")
    return nu, errors


def nu_minus_via_partial_transpose(v0: np.ndarray) -> float:
    """Same quantity via the spectrum of i Omega V-tilde; independent path.

    Partial transposition flips the momentum of the second mode,
    V-tilde = P V0 P with P = diag(1, 1, 1, -1); the symplectic spectrum is
    |eig(i Omega V-tilde)|.
    """
    arr = np.asarray(v0, dtype=float)
    if arr.shape != (4, 4):
        raise DomainError("expected a 4x4 two-mode covariance")
    _require_symmetric(arr, "two-mode covariance")
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    v_tilde = p @ arr @ p
    omega = symplectic_form(2)
    try:
        eigs = np.linalg.eigvals(1j * omega @ v_tilde)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    return float(np.min(np.abs(eigs)))


def _e_n(nu: float) -> float:
    """E_N = max(0, -ln 2 nu) from the smaller symplectic eigenvalue."""
    return max(0.0, -math.log(2.0 * nu))


@dataclass(frozen=True)
class EntanglementReport:
    """One bipartition's measures; None when the point could not be evaluated."""

    pair: tuple[Mode, Mode]
    nu_minus: float | None
    e_n: float | None


__all__ = [
    "EntanglementReport",
    "Mode",
    "nu_minus_stack",
    "nu_minus_via_partial_transpose",
    "parse_pair",
]
