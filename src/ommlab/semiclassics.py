"""Semiclassical working point: steady-state amplitudes and effective couplings.

The linearized dynamics need the mean fields the system settles into under the
coherent drives: the magnon amplitude <m>, the driven-cavity amplitude <c2>,
the static mechanical displacement <q>, and the effective couplings
G_c = i sqrt(2) g_c <c2> and G_mb = i sqrt(2) g_m <m> built from them.

Two ways to get there:

* direct mode: the effective coupling magnitudes are taken straight from the
  configuration (the usual way to reproduce published operating points), the
  displacement is zero, and no amplitudes are computed.
* derived mode: amplitudes follow from the drive powers, and the displacement
  shifts the detunings that set them. The working point solves
  omega_b q = omega_b F(q) = g_c |<c2>(q)|^2 - g_m |<m>(q)|^2, where both
  amplitudes are Lorentzian in q: |<m>|^2 = Omega^2 / (kappa_m^2 +
  (Delta_m + g_m q)^2), and <c2> is the closed form that eliminates <a> and
  <c1>, E N / (u + v q), its denominator linear in q through
  Delta_c2,eff = +-Delta_c2 - g_c q. Clearing both denominators turns
  q = F(q) into the real polynomial equation

      omega_b q |u + v q|^2 L(q) = g_c |E N|^2 L(q) - g_m Omega^2 |u + v q|^2,
      L(q) = kappa_m^2 + (Delta_m + g_m q)^2,

  of degree 5. With ``eq9_verbatim`` the magnon detuning is Delta_c2, which
  does not move with q, so L is constant and the degree is 3: the cubic of
  optomechanical bistability.

  All roots of a stack of points come from one batched ``eigvals`` on their
  companion matrices, in the scaled variable x = q / |u/v|; the real ones are
  polished by Newton's method on the rational form F(q) - q. The branches of
  a point are its roots with F'(q) < 1, where the displacement is statically
  stable, ordered by |F'|. <c2> comes from the closed form; the full 3x3
  amplitude system is solved by pivoted LU at every branch, as its
  cross-check.

:func:`solve_semiclassics_stack` solves the points of each mode in a stack
together, and returns their branches as columns: a state column, one
:data:`STATE_DTYPE` record per branch, and each point's offsets into it.
Which branch is a point's working point is the harness's choice, made in
its stage 1 on the spectrum of each branch's drift: the first dynamically
stable branch, else the first branch, reported unstable. So
:func:`solve_semiclassics`, which returns the first branch, need not return
the working point; ``evaluate_point(params).state`` is that. An error stays
with its point: the stack returns each point's first error, and the
branches of a point with one are undefined.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Any, Iterable

import numpy as np

from .errors import ConvergenceError, DegenerateOperatingPointError, _batched
from .model import SystemParams, _check, _drive, _rabi, _Real, columns, rows

#: Newton polish of a root of F(q) - q: it ends at the first step smaller
#: than this fraction of |q|, and a candidate still moving after the step
#: budget is not a root.
_NEWTON_RTOL = 1e-12
_NEWTON_MAX_STEPS = 50

#: Largest |Im x| / |x| of a companion eigenvalue taken as a real-root
#: candidate; near-double real roots come out as a pair this close to the axis.
_REAL_ROOT_RTOL = 1e-6

#: Polished roots closer than this fraction of |q| are one root.
_SAME_ROOT_RTOL = 1e-9

#: Denominator floor below which the linear response is treated as singular.
_SINGULAR_FLOOR = 1e-30

#: A scalar, or an array of one value per point of a stack.
_Complex = complex | np.ndarray


@dataclass(frozen=True)
class SemiclassicalState:
    """Mean-field working point consumed by the drift builder.

    ``g_c_eff`` and ``g_mb_eff`` are complex: the drift builder uses their
    magnitudes as coupling strengths and their phases as quadrature-rotation
    angles. ``delta_c2_eff`` already includes both the sign convention applied
    to the configured detuning and the radiation-pressure shift -g_c <q>;
    ``delta_m_eff`` includes the magnetostrictive shift +g_m <q>.
    ``iterations`` counts the Newton steps that polished <q> (0 in direct
    mode).
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


#: A :class:`SemiclassicalState` as one record. A stack of working points is a
#: state column, an array of these, whose fields are the columns; NaN stands
#: for None, and a NaN ``q_avg`` for no state at all.
STATE_DTYPE = np.dtype([
    ("q_avg", float), ("m_avg", complex), ("c2_avg", complex), ("g_c_eff", complex),
    ("g_mb_eff", complex), ("delta_c2_eff", float), ("delta_m_eff", float),
    ("drive_e", float), ("rabi", float), ("iterations", int), ("c2_mismatch", float),
])

#: The record of no state.
_NO_STATE = (math.nan,) * 9 + (0, math.nan)

#: A direct-mode state before its couplings, detunings, drive and Rabi frequency.
_DIRECT_STATE = np.array((0.0, math.nan, math.nan, 0, 0, 0, 0, 0, 0, 0, math.nan), STATE_DTYPE)


def _states(n: int, *fields: Any) -> np.ndarray:
    """A column of ``n`` states from a value or (n,) array per field."""
    states = np.empty(n, STATE_DTYPE)
    for name, values in zip(STATE_DTYPE.names, fields):
        states[name] = values
    return states


def state_at(states: np.ndarray, k: int) -> SemiclassicalState | None:
    """The state at row ``k`` of a state column, or None where it has none."""
    values = states[k].item()
    if values[0] != values[0]:
        return None
    return SemiclassicalState(*[None if x != x else x for x in values])


def state_column(states: Iterable[SemiclassicalState | None]) -> np.ndarray:
    """The state column of ``states``, the inverse of :func:`state_at`."""
    return np.array([
        _NO_STATE if s is None else tuple(math.nan if x is None else x for x in astuple(s))
        for s in states
    ], STATE_DTYPE)


def magnon_average(
    rabi: _Real, kappa_m: _Real, delta_m_eff: _Real
) -> complex | np.ndarray:
    """Steady-state magnon amplitude <m> = Omega / (kappa_m + i delta_m).

    At zero detuning this is real and positive, Omega/kappa_m. Takes scalars
    or equal-shape arrays.
    """
    _check(kappa_m <= 0.0, "kappa_m must be strictly positive")
    den = kappa_m + 1j * delta_m_eff
    _check(np.abs(den) < _SINGULAR_FLOOR, "magnon response denominator vanishes",
           DegenerateOperatingPointError)
    return rabi / den


def cavity2_average_closed_form(
    drive_e: _Real,
    kappa_a: _Real,
    kappa_c1: _Real,
    kappa_c2: _Real,
    delta_a: _Real,
    delta_c1: _Real,
    delta_c2_eff: _Real,
    g_n1: _Real,
    g_n2: _Real,
) -> complex | np.ndarray:
    """Closed form for <c2> from eliminating <a> and <c1>.

    With D_k = kappa_k + i Delta_k,

        <c2> = E (D_a D_1 + g1^2 - g1 g2) / (D_a D_1 D_2 + g2^2 D_1 + g1^2 D_2).

    In the decoupled limit g1 = g2 = 0 this reduces to E / D_2. Takes
    scalars or equal-shape arrays.
    """
    d_a = kappa_a + 1j * delta_a
    d_1 = kappa_c1 + 1j * delta_c1
    d_2 = kappa_c2 + 1j * delta_c2_eff
    den = d_a * d_1 * d_2 + g_n2 * g_n2 * d_1 + g_n1 * g_n1 * d_2
    _check(np.abs(den) < _SINGULAR_FLOOR, "cavity response denominator vanishes; the "
           "operating point is degenerate", DegenerateOperatingPointError)
    return drive_e * (d_a * d_1 + g_n1 * g_n1 - g_n1 * g_n2) / den


def _cavity2(c2_avg: np.ndarray, *args: np.ndarray) -> np.ndarray:
    """Cross-check a stack of closed-form ``c2_avg``; return the relative mismatches.

    ``args`` are those of :func:`cavity2_average_closed_form`, as arrays
    shaped like ``c2_avg``. The cross-check solves

        (i Delta_a + kappa_a) <a>  + i g1 <c1> + i g2 <c2> = 0
        i g1 <a> + (i Delta_c1 + kappa_c1) <c1>            = E
        i g2 <a> + (i Delta_c2 + kappa_c2) <c2>            = E

    for the whole stack in one pivoted LU call, and raises
    DegenerateOperatingPointError if a system is singular or its solution is
    not finite. Each mismatch is kept as its branch's ``c2_mismatch``.
    """
    drive_e, kappa_a, kappa_c1, kappa_c2, delta_a, delta_c1, delta_c2_eff, g_n1, g_n2 = args
    mat = np.zeros((len(c2_avg), 3, 3), dtype=complex)
    mat[:, 0, 0] = kappa_a + 1j * delta_a
    mat[:, 0, 1] = mat[:, 1, 0] = 1j * g_n1
    mat[:, 0, 2] = mat[:, 2, 0] = 1j * g_n2
    mat[:, 1, 1] = kappa_c1 + 1j * delta_c1
    mat[:, 2, 2] = kappa_c2 + 1j * delta_c2_eff
    rhs = np.zeros((len(c2_avg), 3, 1), dtype=complex)
    rhs[:, 1:, 0] = drive_e[:, None]
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
    c2_lin = amps[:, 2, 0]
    return np.abs(c2_lin - c2_avg) / np.maximum(
        np.maximum(np.abs(c2_lin), np.abs(c2_avg)), _SINGULAR_FLOOR
    )


def mechanical_displacement(
    g_c: float, c2_avg: complex, g_m: float, m_avg: complex, omega_b: float
) -> float:
    """Static displacement <q> = (g_c |<c2>|^2 - g_m |<m>|^2) / omega_b.

    Radiation pressure pushes the oscillator one way, magnetostriction the
    other; the restoring force balances them.
    """
    _check(omega_b <= 0.0, "omega_b must be strictly positive")
    return (g_c * abs(c2_avg) ** 2 - g_m * abs(m_avg) ** 2) / omega_b


def effective_couplings(
    g_c: _Real, c2_avg: _Complex, g_m: _Real, m_avg: _Complex
) -> tuple[_Complex, _Complex]:
    """Linearized coupling rates G_c = i sqrt(2) g_c <c2>, G_mb = i sqrt(2) g_m <m>."""
    root2 = math.sqrt(2.0)
    return 1j * root2 * g_c * c2_avg, 1j * root2 * g_m * m_avg


_DISPLACEMENT_ROWS = rows(
    "omega_b", "g_c", "g_m", "kappa_m", "delta_m", "delta_c2", "delta_c2_sign", "eq9_verbatim",
    "kappa_a", "kappa_c1", "kappa_c2", "delta_a", "delta_c1", "g_n1", "g_n2", "p_laser",
    "lambda_laser", "b_field", "v_yig", "rho_spin",
)


class _Displacement:
    """The displacement map of a stack of derived-mode points,

        F(q) = (g_c |<c2>(q)|^2 - g_m |<m>(q)|^2) / omega_b
             = c_amp / |u + v q|^2 - m_amp / (kappa_m^2 + (m0 + m1 q)^2).

    <c2> = E N / (u + v q) is the closed form, whose denominator
    D_2 (D_a D_1 + g1^2) + g2^2 D_1 is linear in q through D_2. The magnon
    detuning m0 + m1 q is Delta_m + g_m q, or Delta_c2 held fixed with
    ``eq9_verbatim``. Every parameter and coefficient is an (N,) column.
    """

    def __init__(self, table: np.ndarray) -> None:
        (
            self.omega_b, self.g_c, self.g_m, self.kappa_m, self.delta_m, delta_c2, sign,
            verbatim, self.kappa_a, self.kappa_c1, self.kappa_c2, self.delta_a,
            self.delta_c1, self.g_n1, self.g_n2, p_laser, lambda_laser, b_field, v_yig,
            rho_spin,
        ) = table[_DISPLACEMENT_ROWS]
        self.delta_c2_signed = sign * delta_c2
        self.drive_e = _drive(p_laser, self.kappa_c2, lambda_laser)
        self.rabi = _rabi(b_field, v_yig, rho_spin)
        self.m0 = np.where(verbatim, delta_c2, self.delta_m)
        self.m1 = np.where(verbatim, 0.0, self.g_m)

        d_a = self.kappa_a + 1j * self.delta_a
        d_1 = self.kappa_c1 + 1j * self.delta_c1
        p = d_a * d_1 + self.g_n1 * self.g_n1
        self.u = p * (self.kappa_c2 + 1j * self.delta_c2_signed) + self.g_n2 * self.g_n2 * d_1
        self.v = -1j * self.g_c * p
        num = self.drive_e * (d_a * d_1 + self.g_n1 * self.g_n1 - self.g_n1 * self.g_n2)
        self.c_amp = self.g_c * (num.real**2 + num.imag**2) / self.omega_b
        self.m_amp = self.g_m * self.rabi * self.rabi / self.omega_b

    def __call__(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F(q) and F'(q) for (N, k) displacements."""
        ur, ui, vr, vi, c_amp, m_amp, kappa_m, m0, m1 = (
            col[:, None]
            for col in (
                self.u.real, self.u.imag, self.v.real, self.v.imag,
                self.c_amp, self.m_amp, self.kappa_m, self.m0, self.m1,
            )
        )
        wr, wi = ur + vr * q, ui + vi * q
        q_c = wr * wr + wi * wi
        det_m = m0 + m1 * q
        q_m = kappa_m * kappa_m + det_m * det_m
        f_c, f_m = c_amp / q_c, m_amp / q_m
        slope = -2.0 * f_c * (vr * wr + vi * wi) / q_c + 2.0 * f_m * m1 * det_m / q_m
        return f_c - f_m, slope

    def _candidates(self, rows: np.ndarray, errors: np.ndarray) -> np.ndarray:
        """Real-root candidates of q = F(q) at ``rows``, points of one degree;
        a point whose eigensolve fails has none, and its error in ``errors``.

        In x = q / s with s = |u / v|, |u + v q|^2 = |u|^2 Qc(x) with
        Qc = x^2 + 2 c x + 1, c the cosine between u and v. The magnon term
        has kappa_m^2 + (m0 + m1 q)^2 = (m1 s)^2 Qm(x), or is constant
        (Qm = 1) when m1 = 0. So q = F(q) reads x = a / Qc - b / Qm, and
        cleared, x Qc Qm - a Qm + b Qc = 0, monic of degree 5, or 3 with
        Qm = 1. The candidates are s times the real parts of the eigenvalues
        of its companion matrix that lie near the real axis.
        """
        u, v, kappa_m, m0, m1 = (
            col[rows] for col in (self.u, self.v, self.kappa_m, self.m0, self.m1)
        )
        u_abs, v_abs = np.abs(u), np.abs(v)
        s = u_abs / v_abs
        cosine = (u.real * v.real + u.imag * v.imag) / (u_abs * v_abs)
        ones = np.ones_like(s)
        q_c = np.stack([ones, 2.0 * cosine, ones], axis=1)
        a = self.c_amp[rows] / (u_abs * u_abs * s)
        if m1[0] != 0.0:
            ms = m1 * s
            q_m = np.stack([ones, 2.0 * m0 / ms, (kappa_m**2 + m0**2) / ms**2], axis=1)
            b = self.m_amp[rows] / (ms * ms * s)
        else:
            q_m = ones[:, None]
            b = self.m_amp[rows] / ((kappa_m**2 + m0**2) * s)
        coeffs = np.zeros((len(s), q_m.shape[1] + 3))
        for k in range(q_m.shape[1]):
            coeffs[:, k : k + 3] += q_c * q_m[:, k : k + 1]
        coeffs[:, -q_m.shape[1] :] -= a[:, None] * q_m
        coeffs[:, -3:] += b[:, None] * q_c
        degree = coeffs.shape[1] - 1
        companion = np.zeros((len(s), degree, degree))
        companion[:, 0, :] = -coeffs[:, 1:]
        companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
        x = _batched(
            np.linalg.eigvals, lambda n: np.full((n, degree), np.nan + 0j), companion,
            owner=rows.nonzero()[0], errors=errors,
            message="displacement polynomial root solve failed: ",
        )
        real = np.abs(x.imag) <= _REAL_ROOT_RTOL * np.abs(x)
        return np.where(real, x.real * s[:, None], np.nan)

    def roots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The real roots of q = F(q), (N, 5) ascending and NaN-padded, the
        Newton steps that polished each, and each point's error or None.

        The points of each degree share one batched ``eigvals``. Newton's
        method on F(q) - q starts from every candidate; each stops at its own
        first small step, so that its result does not depend on the rest of
        the stack. A candidate that diverges or is still moving after the
        step budget is dropped, and candidates that polish onto one root
        count once. A point whose eigensolve fails has no root.
        """
        q = np.full((len(self.m1), 5), np.nan)
        errors = np.full(len(q), None, dtype=object)
        for rows, degree in ((self.m1 != 0.0, 5), (self.m1 == 0.0, 3)):
            if rows.any():
                q[rows, :degree] = self._candidates(rows, errors)

        steps = np.zeros(q.shape, dtype=int)
        active = np.isfinite(q)
        with np.errstate(all="ignore"):
            for _ in range(_NEWTON_MAX_STEPS):
                if not active.any():
                    break
                f, slope = self(q)
                dq = (f - q) / (slope - 1.0)
                q = np.where(active, q - dq, q)
                steps += active
                active &= np.isfinite(q) & ~(np.abs(dq) <= _NEWTON_RTOL * np.abs(q))
        q[active | ~np.isfinite(q)] = np.nan

        order = (np.arange(len(q))[:, None], np.argsort(q, axis=1))
        q, steps = q[order], steps[order]
        q[:, 1:][np.abs(np.diff(q, axis=1)) <= _SAME_ROOT_RTOL * np.abs(q[:, 1:])] = np.nan
        return q, steps, errors


def _amplitudes(*args: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<m>, <c2> and the mismatch of its cross-check at a stack of branches,
    from the arguments of :func:`magnon_average`, then of
    :func:`cavity2_average_closed_form`."""
    rabi, kappa_m, det_m, *c2_args = args
    m_avg = magnon_average(rabi, kappa_m, det_m)
    c2_avg = cavity2_average_closed_form(*c2_args)
    return m_avg, c2_avg, _cavity2(c2_avg, *c2_args)


def _derived_branches(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branches of a stack of derived-mode points, their offsets and the
    points' errors, as :func:`solve_semiclassics_stack` returns them: the
    roots of q = F(q) with F' < 1, ordered by |F'|, each with its amplitudes
    and couplings."""
    disp = _Displacement(table)
    roots, steps, errors = disp.roots()
    with np.errstate(invalid="ignore"):
        slope = disp(roots)[1]
        static = np.isfinite(roots) & (slope < 1.0)
    counts = static.sum(axis=1)
    if not counts.all():
        errors[(counts == 0) & np.equal(errors, None)] = ConvergenceError(
            "no real root of the displacement polynomial has F'(q) < 1"
        )
        # a point without a root keeps one branch all the same, left out of
        # the amplitudes' stack for its error
        counts = np.maximum(counts, 1)
    order = (
        np.arange(len(roots))[:, None],
        np.argsort(np.where(static, np.abs(slope), np.inf), axis=1, kind="stable"),
    )
    taken = np.arange(5) < counts[:, None]
    q, steps = roots[order][taken], steps[order][taken]
    pt = np.repeat(np.arange(len(counts)), counts)

    delta_m_eff = disp.delta_m[pt] + disp.g_m[pt] * q
    delta_c2_eff = disp.delta_c2_signed[pt] - disp.g_c[pt] * q
    c2_args = (
        disp.drive_e[pt], disp.kappa_a[pt], disp.kappa_c1[pt], disp.kappa_c2[pt],
        disp.delta_a[pt], disp.delta_c1[pt], delta_c2_eff, disp.g_n1[pt], disp.g_n2[pt],
    )
    m_avg, c2_avg, mismatch = _batched(
        _amplitudes, lambda n: (*np.full((2, n), np.nan + 0j), np.full(n, np.nan)),
        disp.rabi[pt], disp.kappa_m[pt], disp.m0[pt] + disp.m1[pt] * q, *c2_args,
        owner=pt, errors=errors,
    )
    g_c_eff, g_mb_eff = effective_couplings(disp.g_c[pt], c2_avg, disp.g_m[pt], m_avg)
    states = _states(
        len(q), q, m_avg, c2_avg, g_c_eff, g_mb_eff, delta_c2_eff, delta_m_eff, c2_args[0],
        disp.rabi[pt], steps, mismatch,
    )
    return states, np.concatenate([[0], np.cumsum(counts)]), errors


_DERIVED = rows("derived")[0]
_DIRECT_ROWS = rows(
    "g_c_eff", "g_mb_eff", "delta_c2_sign", "delta_c2", "delta_m", "p_laser", "kappa_c2",
    "lambda_laser", "b_field", "v_yig", "rho_spin",
)


def _direct_branches(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one branch of each point of a direct-mode stack, their offsets and
    errors (none): the configured effective couplings at face value, with
    zero static displacement."""
    g_c, g_mb, sign, delta_c2, delta_m, p_laser, kappa_c2, wavelength, b_field, v_yig, rho = (
        table[_DIRECT_ROWS]
    )
    states = _DIRECT_STATE.repeat(len(g_c))
    # an unset b_field reads as NaN, and so does its Rabi frequency
    for name, values in (
        ("g_c_eff", g_c), ("g_mb_eff", g_mb), ("delta_c2_eff", sign * delta_c2),
        ("delta_m_eff", delta_m), ("drive_e", _drive(p_laser, kappa_c2, wavelength)),
        ("rabi", _rabi(b_field, v_yig, rho)),
    ):
        states[name] = values
    return states, np.arange(len(g_c) + 1), np.full(len(g_c), None, dtype=object)


def solve_semiclassics_stack(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Working-point branches for a stack of points, from their point table
    (:func:`ommlab.model.columns`), as columns.

    Returns a state column of every point's branches, one point after
    another (B,), and the offsets (N + 1,) at which each point's branches
    start: point k's are ``states[offsets[k]:offsets[k + 1]]``, and each
    point's first error, or None (N,). A direct-mode point has one branch; a
    point with an error has at least one, undefined. The points of each mode
    are solved together, as the module docstring describes.
    """
    derived = table[_DERIVED] != 0.0
    n_derived = np.count_nonzero(derived)
    if n_derived in (0, len(derived)):
        return (_derived_branches if n_derived else _direct_branches)(table)
    (states, offsets, failed), (direct, _, _) = (
        branches(table[:, rows]) for rows, branches in (
            (derived, _derived_branches), (~derived, _direct_branches)
        )
    )
    counts = np.ones(len(derived), dtype=int)
    counts[derived] = np.diff(offsets)
    of_derived = np.repeat(derived, counts)
    merged = np.empty(len(of_derived), STATE_DTYPE)
    merged[of_derived], merged[~of_derived] = states, direct
    errors = np.full(len(derived), None, dtype=object)
    errors[derived] = failed
    return merged, np.concatenate([[0], np.cumsum(counts)]), errors


def solve_semiclassics(params: SystemParams) -> SemiclassicalState:
    """The first branch of one parameter set, a stack of one.

    In derived mode this need not be the working point the harness keeps
    (see the module docstring). The point's error, if it has one, is raised.
    """
    states, _, (error,) = solve_semiclassics_stack(columns([params]))
    if error is not None:
        raise error
    return state_at(states, 0)


__all__ = [
    "STATE_DTYPE",
    "SemiclassicalState",
    "cavity2_average_closed_form",
    "effective_couplings",
    "magnon_average",
    "mechanical_displacement",
    "solve_semiclassics",
    "solve_semiclassics_stack",
    "state_at",
    "state_column",
]
