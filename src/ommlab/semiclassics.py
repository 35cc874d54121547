"""Semiclassical working point: steady-state amplitudes and effective couplings.

The linearized dynamics need the mean fields the system settles into under the
coherent drives: the magnon amplitude <m>, the driven-cavity amplitude <c2>,
the static mechanical displacement <q>, and the effective couplings
G_c = i sqrt(2) g_c <c2> and G_mb = i sqrt(2) g_m <m> built from them.

Two ways to get there:

* direct mode: the effective coupling magnitudes are taken straight from the
  configuration (the usual way to reproduce published operating points), the
  displacement is zero, and no amplitudes are computed.
* derived mode: amplitudes follow from the drive powers via a fixed-point
  iteration on <q>, since the displacement shifts the detunings that determine
  the amplitudes that determine the displacement.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateOperatingPointError, DomainError
from .model import SystemParams, laser_drive_strength, rabi_frequency

logger = logging.getLogger(__name__)

#: Relative tolerance on successive <q> iterates in derived mode.
_Q_FIXED_POINT_RTOL = 1e-12
_Q_FIXED_POINT_MAX_ITER = 200

#: Denominator floor below which the linear response is treated as singular.
_SINGULAR_FLOOR = 1e-30

#: Relative disagreement between the linear solve and the closed form for
#: <c2> beyond which a warning is logged.
_C2_MISMATCH_WARN = 1e-9


@dataclass(frozen=True)
class SemiclassicalState:
    """Mean-field working point consumed by the drift builder.

    ``g_c_eff`` and ``g_mb_eff`` are complex: the drift builder uses their
    magnitudes as coupling strengths and their phases as quadrature-rotation
    angles. ``delta_c2_eff`` already includes both the sign convention applied
    to the configured detuning and the radiation-pressure shift -g_c <q>;
    ``delta_m_eff`` includes the magnetostrictive shift +g_m <q>.
    """

    q_avg: float
    m_avg: complex | None
    c2_avg: complex | None
    g_c_eff: complex
    g_mb_eff: complex
    delta_c2_eff: float
    delta_m_eff: float
    drive_e: float | None
    rabi: float | None
    iterations: int
    c2_mismatch: float | None


def magnon_average(rabi: float, kappa_m: float, delta_m_eff: float) -> complex:
    """Steady-state magnon amplitude <m> = Omega / (kappa_m + i delta_m).

    At zero detuning this is real and positive, Omega/kappa_m.
    """
    if kappa_m <= 0.0:
        raise DomainError("kappa_m must be strictly positive")
    den = complex(kappa_m, delta_m_eff)
    if abs(den) < _SINGULAR_FLOOR:
        raise DegenerateOperatingPointError("magnon response denominator vanishes")
    return rabi / den


def cavity2_average_closed_form(
    drive_e: float,
    kappa_a: float,
    kappa_c1: float,
    kappa_c2: float,
    delta_a: float,
    delta_c1: float,
    delta_c2_eff: float,
    g_n1: float,
    g_n2: float,
) -> complex:
    """Closed form for <c2> from eliminating <a> and <c1>.

    With D_k = kappa_k + i Delta_k,

        <c2> = E (D_a D_1 + g1^2 - g1 g2) / (D_a D_1 D_2 + g2^2 D_1 + g1^2 D_2).

    In the decoupled limit g1 = g2 = 0 this reduces to E / D_2.
    """
    d_a = complex(kappa_a, delta_a)
    d_1 = complex(kappa_c1, delta_c1)
    d_2 = complex(kappa_c2, delta_c2_eff)
    den = d_a * d_1 * d_2 + g_n2 * g_n2 * d_1 + g_n1 * g_n1 * d_2
    if abs(den) < _SINGULAR_FLOOR:
        raise DegenerateOperatingPointError(
            "cavity response denominator vanishes; the operating point is degenerate"
        )
    return drive_e * (d_a * d_1 + g_n1 * g_n1 - g_n1 * g_n2) / den


def cavity2_average(
    drive_e: float,
    kappa_a: float,
    kappa_c1: float,
    kappa_c2: float,
    delta_a: float,
    delta_c1: float,
    delta_c2_eff: float,
    g_n1: float,
    g_n2: float,
    formula: str = "linsolve",
) -> complex:
    """Steady-state amplitude of the driven cavity, coupled to atoms and c1.

    The primary path solves the full 3x3 complex linear system

        (i Delta_a + kappa_a) <a>  + i g1 <c1> + i g2 <c2> = 0
        i g1 <a> + (i Delta_c1 + kappa_c1) <c1>            = E
        i g2 <a> + (i Delta_c2 + kappa_c2) <c2>            = E

    with a pivoted LU solve. The closed form obtained by eliminating <a> and
    <c1> is always evaluated as a cross-check; disagreement beyond 1e-9
    relative is logged. ``formula`` selects which value is returned.
    """
    if formula not in ("linsolve", "closed_form"):
        raise DomainError(f"unknown c2 formula {formula!r}")
    return _cavity2(
        formula, drive_e, kappa_a, kappa_c1, kappa_c2,
        delta_a, delta_c1, delta_c2_eff, g_n1, g_n2,
    )[0]


def _cavity2(formula: str, *args: float) -> tuple[complex, float]:
    """<c2> by ``formula``, and the relative mismatch of the two formulas.

    ``args`` are those of :func:`cavity2_average` before ``formula``.
    """
    drive_e, kappa_a, kappa_c1, kappa_c2, delta_a, delta_c1, delta_c2_eff, g_n1, g_n2 = args
    mat = np.array(
        [
            [complex(kappa_a, delta_a), 1j * g_n1, 1j * g_n2],
            [1j * g_n1, complex(kappa_c1, delta_c1), 0.0],
            [1j * g_n2, 0.0, complex(kappa_c2, delta_c2_eff)],
        ]
    )
    rhs = np.array([0.0, drive_e, drive_e], dtype=complex)
    try:
        amps = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateOperatingPointError(
            "cavity response system is singular; the operating point is degenerate"
        ) from exc
    if not np.all(np.isfinite(amps.view(float))):
        raise DegenerateOperatingPointError(
            "cavity response system is numerically degenerate"
        )
    c2_lin = complex(amps[2])
    c2_cf = cavity2_average_closed_form(*args)
    mismatch = abs(c2_lin - c2_cf) / max(abs(c2_lin), abs(c2_cf), _SINGULAR_FLOOR)
    if drive_e != 0.0 and mismatch > _C2_MISMATCH_WARN:
        logger.warning(
            "cavity amplitude formulas disagree by %.3e relative "
            "(linsolve %s, closed form %s)", mismatch, c2_lin, c2_cf,
        )
    return (c2_lin if formula == "linsolve" else c2_cf), mismatch


def mechanical_displacement(
    g_c: float, c2_avg: complex, g_m: float, m_avg: complex, omega_b: float
) -> float:
    """Static displacement <q> = (g_c |<c2>|^2 - g_m |<m>|^2) / omega_b.

    Radiation pressure pushes the oscillator one way, magnetostriction the
    other; the restoring force balances them.
    """
    if omega_b <= 0.0:
        raise DomainError("omega_b must be strictly positive")
    return (g_c * abs(c2_avg) ** 2 - g_m * abs(m_avg) ** 2) / omega_b


def effective_couplings(
    g_c: float, c2_avg: complex, g_m: float, m_avg: complex
) -> tuple[complex, complex]:
    """Linearized coupling rates G_c = i sqrt(2) g_c <c2>, G_mb = i sqrt(2) g_m <m>."""
    root2 = math.sqrt(2.0)
    return 1j * root2 * g_c * c2_avg, 1j * root2 * g_m * m_avg


def solve_semiclassics(params: SystemParams) -> SemiclassicalState:
    """Compute the working point for a parameter set.

    Direct mode takes the configured effective couplings at face value with
    zero static displacement. Derived mode iterates the displacement to its
    fixed point; each pass recomputes the shifted detunings, the amplitudes,
    and the displacement they imply, until successive iterates agree to
    1e-12 relative.
    """
    sign = params.delta_c2_sign
    drive_e = laser_drive_strength(params.p_laser, params.kappa_c2, params.lambda_laser)
    rabi = (
        None
        if params.b_field is None
        else rabi_frequency(params.b_field, params.v_yig, params.rho_spin)
    )
    if params.coupling_mode == "direct":
        return SemiclassicalState(
            q_avg=0.0,
            m_avg=None,
            c2_avg=None,
            g_c_eff=complex(params.g_c_eff),
            g_mb_eff=complex(params.g_mb_eff),
            delta_c2_eff=sign * params.delta_c2,
            delta_m_eff=params.delta_m,
            drive_e=drive_e,
            rabi=rabi,
            iterations=0,
            c2_mismatch=None,
        )

    q = 0.0
    for iteration in range(1, _Q_FIXED_POINT_MAX_ITER + 1):
        delta_m_eff = params.delta_m + params.g_m * q
        magnon_detuning = params.delta_c2 if params.eq9_verbatim else delta_m_eff
        m_avg = magnon_average(rabi, params.kappa_m, magnon_detuning)
        delta_c2_eff = sign * params.delta_c2 - params.g_c * q
        c2_avg, mismatch = _cavity2(
            params.c2_formula, drive_e,
            params.kappa_a, params.kappa_c1, params.kappa_c2,
            params.delta_a, params.delta_c1, delta_c2_eff,
            params.g_n1, params.g_n2,
        )
        q_next = mechanical_displacement(
            params.g_c, c2_avg, params.g_m, m_avg, params.omega_b
        )
        if abs(q_next - q) <= _Q_FIXED_POINT_RTOL * max(1.0, abs(q_next)):
            q = q_next
            break
        q = q_next
    else:
        raise ConvergenceError(
            f"displacement fixed point did not settle in {_Q_FIXED_POINT_MAX_ITER} iterations"
        )

    delta_m_eff = params.delta_m + params.g_m * q
    delta_c2_eff = sign * params.delta_c2 - params.g_c * q
    g_c_eff, g_mb_eff = effective_couplings(params.g_c, c2_avg, params.g_m, m_avg)
    return SemiclassicalState(
        q_avg=q,
        m_avg=m_avg,
        c2_avg=c2_avg,
        g_c_eff=g_c_eff,
        g_mb_eff=g_mb_eff,
        delta_c2_eff=delta_c2_eff,
        delta_m_eff=delta_m_eff,
        drive_e=drive_e,
        rabi=rabi,
        iterations=iteration,
        c2_mismatch=mismatch,
    )


def coupling_phase(g_eff: complex) -> float:
    """Phase of a complex effective coupling, zero for real non-negative ones."""
    if g_eff == 0:
        return 0.0
    return cmath.phase(g_eff)


__all__ = [
    "SemiclassicalState",
    "cavity2_average",
    "cavity2_average_closed_form",
    "coupling_phase",
    "effective_couplings",
    "magnon_average",
    "mechanical_displacement",
    "solve_semiclassics",
]
