"""Mean-field working point: amplitudes, displacement, effective couplings."""

import cmath
import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ommlab import (
    ConfigError,
    DegenerateOperatingPointError,
    DomainError,
    build_drift,
    cavity2_average_closed_form,
    default_params,
    effective_couplings,
    evaluate_point,
    magnon_average,
    mechanical_displacement,
    params_from_mapping,
    solve_semiclassics,
)
from ommlab import semiclassics
from ommlab.dynamics import stability_stack
from ommlab.model import TWO_PI, columns
import references


class TestMagnonAverage:
    def test_zero_drive_gives_zero(self):
        assert magnon_average(0.0, TWO_PI * 1e6, TWO_PI * 40e6) == 0.0

    def test_resonant_drive_is_real(self):
        omega_rabi, kappa = 2.02e13, TWO_PI * 1e6
        m = magnon_average(omega_rabi, kappa, 0.0)
        assert m.imag == 0.0
        assert m.real == pytest.approx(omega_rabi / kappa, rel=1e-14)

    def test_magnitude_is_lorentzian(self):
        omega_rabi, kappa, delta = 2.02e13, TWO_PI * 1e6, TWO_PI * 40e6
        m = magnon_average(omega_rabi, kappa, delta)
        assert abs(m) == pytest.approx(omega_rabi / math.hypot(kappa, delta), rel=1e-14)
        # detuning rotates the phase to -atan2(delta, kappa)
        assert cmath.phase(m) == pytest.approx(-math.atan2(delta, kappa), rel=1e-12)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(DomainError):
            magnon_average(1.0, 0.0, 1.0)


# default-point rates, reused below
KAPPA_A = TWO_PI * 1e6
KAPPA_C1 = TWO_PI * 2e6
KAPPA_C2 = TWO_PI * 2e6
DELTA_A = -0.95 * TWO_PI * 40e6
DELTA_C1 = -0.8 * TWO_PI * 40e6
DELTA_C2_EFF = +0.8 * TWO_PI * 40e6
G1 = TWO_PI * 4e6
G2 = TWO_PI * 8e6


def linsolve_c2(e, ka, k1, k2, da, d1, d2, g1, g2):
    """<c2> as the third component of the full 3x3 system, by pivoted LU."""
    mat = np.array(
        [
            [complex(ka, da), 1j * g1, 1j * g2],
            [1j * g1, complex(k1, d1), 0.0],
            [1j * g2, 0.0, complex(k2, d2)],
        ]
    )
    return complex(np.linalg.solve(mat, np.array([0.0, e, e], dtype=complex))[2])


def cross_check(c2_avg, *args):
    """The stacked LU cross-check of one closed-form <c2>: its relative mismatch."""
    return semiclassics._cavity2(np.array([c2_avg]), *(np.array([arg]) for arg in args))[0]


class TestCavity2Average:
    def test_zero_drive_gives_zero(self):
        args = (0.0, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1, DELTA_C2_EFF, G1, G2)
        c2 = cavity2_average_closed_form(*args)
        assert c2 == 0.0
        assert cross_check(c2, *args) == 0.0

    def test_decoupled_limit_is_single_cavity_response(self):
        e = 7.7e11
        c2 = cavity2_average_closed_form(
            e, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1, DELTA_C2_EFF, 0.0, 0.0
        )
        expected = e / complex(KAPPA_C2, DELTA_C2_EFF)
        assert abs(c2 - expected) <= 1e-12 * abs(expected)

    def test_linsolve_matches_closed_form(self):
        rng = np.random.default_rng(11)
        e = 7.7e11
        for _ in range(200):
            ka, k1, k2 = TWO_PI * rng.uniform(0.5e6, 4e6, size=3)
            da, d1, d2 = TWO_PI * 40e6 * rng.uniform(-2.0, 2.0, size=3)
            g1, g2 = TWO_PI * rng.uniform(0.0, 10e6, size=2)
            lin = linsolve_c2(e, ka, k1, k2, da, d1, d2, g1, g2)
            cf = cavity2_average_closed_form(e, ka, k1, k2, da, d1, d2, g1, g2)
            assert abs(lin - cf) <= 1e-10 * max(abs(lin), abs(cf))
            assert cross_check(cf, e, ka, k1, k2, da, d1, d2, g1, g2) <= 1e-10

    def test_elimination_identity(self):
        # the closed form is the third component of the solved 3x3 system,
        # so both must satisfy the original equations
        e = 7.7e11
        c2 = cavity2_average_closed_form(
            e, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1, DELTA_C2_EFF, G1, G2
        )
        d_a = complex(KAPPA_A, DELTA_A)
        d_1 = complex(KAPPA_C1, DELTA_C1)
        d_2 = complex(KAPPA_C2, DELTA_C2_EFF)
        # back-substitute: c1 = (E - i g1 a)/D1, a = -i(g1 c1 + g2 c2)/D_a
        a = -(1j * G1 * e / d_1 + 1j * G2 * c2) / (d_a - 1j * G1 * 1j * G1 / d_1)
        c1 = (e - 1j * G1 * a) / d_1
        residual = 1j * G2 * a + d_2 * c2 - e
        assert abs(residual) <= 1e-9 * abs(e)
        assert abs(1j * G1 * a + d_1 * c1 - e) <= 1e-9 * abs(e)

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateOperatingPointError):
            cavity2_average_closed_form(1.0, 1e-11, 1e-11, 1e-11, 0.0, 0.0, 0.0, 0.0, 0.0)
        # with every rate zero the 3x3 system of the cross-check is singular
        with pytest.raises(DegenerateOperatingPointError, match="singular"):
            cross_check(0j, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class TestMechanicalDisplacement:
    def test_balanced_pressures_cancel(self):
        # g_c |c2|^2 == g_m |m|^2  ->  q = 0
        q = mechanical_displacement(2.0, 3.0 + 4.0j, 50.0, 1.0j, TWO_PI * 40e6)
        assert q == pytest.approx(0.0, abs=1e-18)

    def test_sign_convention(self):
        wb = TWO_PI * 40e6
        assert mechanical_displacement(1.0, 2.0, 0.0, 0.0, wb) == pytest.approx(4.0 / wb)
        assert mechanical_displacement(0.0, 0.0, 1.0, 2.0, wb) == pytest.approx(-4.0 / wb)

    def test_matches_damped_oscillator_relaxation(self):
        # independent check: integrate dq/dt = wb p, dp/dt = -wb q - gamma p + F
        # to its rest point and compare with the closed form F / wb
        g_c, c2, g_m, m = 2.0 * math.pi * 1.5e3, 3819.0 - 120.0j, TWO_PI * 20.0, 8000.0j
        wb, gamma = TWO_PI * 40e6, TWO_PI * 2e6
        force = g_c * abs(c2) ** 2 - g_m * abs(m) ** 2
        q, p = 0.0, 0.0
        dt = 0.5 / wb

        def deriv(q, p):
            return wb * p, -wb * q - gamma * p + force

        for _ in range(5000):
            k1q, k1p = deriv(q, p)
            k2q, k2p = deriv(q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
            k3q, k3p = deriv(q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
            k4q, k4p = deriv(q + dt * k3q, p + dt * k3p)
            q += dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
            p += dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        closed = mechanical_displacement(g_c, c2, g_m, m, wb)
        assert q == pytest.approx(closed, rel=1e-9)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            mechanical_displacement(1.0, 1.0, 1.0, 1.0, 0.0)


class TestEffectiveCouplings:
    def test_prefactor_and_phase(self):
        g_c, g_m = 100.0, 20.0
        gc_eff, gmb_eff = effective_couplings(g_c, -1j * 5.0, g_m, 2.0)
        # i sqrt(2) g (-i alpha) = sqrt(2) g alpha, real positive
        assert gc_eff == pytest.approx(math.sqrt(2.0) * g_c * 5.0)
        assert gc_eff.imag == 0.0
        assert gmb_eff == pytest.approx(1j * math.sqrt(2.0) * g_m * 2.0)


class TestSolveSemiclassicsDirect:
    def test_default_point(self):
        p = default_params()
        state = solve_semiclassics(p)
        assert state.q_avg == 0.0
        assert state.m_avg is None and state.c2_avg is None
        assert state.g_c_eff == complex(TWO_PI * 8e6)
        assert state.g_mb_eff == complex(TWO_PI * 2.5e6)
        # quoted -0.8 wb enters with the sign convention applied
        assert state.delta_c2_eff == pytest.approx(+0.8 * p.omega_b, rel=1e-14)
        assert state.delta_m_eff == p.delta_m
        assert state.iterations == 0

    def test_drive_strength_always_reported(self):
        p = default_params()
        state = solve_semiclassics(p)
        expected = references.drive(p.p_laser, p.kappa_c2, p.lambda_laser)
        assert state.drive_e == pytest.approx(expected, rel=1e-14)
        assert state.rabi is None  # no b_field configured

    def test_positive_sign_branch(self):
        p = default_params(delta_c2_sign=1.0)
        state = solve_semiclassics(p)
        assert state.delta_c2_eff == pytest.approx(-0.8 * p.omega_b, rel=1e-14)


    def test_stack_equals_each_stack_of_one(self):
        # and each equals the point's fields read one by one, the reference
        points = [
            default_params(),
            default_params(b_field_t=1.1e-3),
            default_params(T=0.0),
            default_params(delta_c2_sign=1.0),
        ]
        stack, offsets, _ = semiclassics.solve_semiclassics_stack(columns(points))
        assert offsets.tolist() == [0, 1, 2, 3, 4]
        for k, p in enumerate(points):
            alone, alone_offsets, _ = semiclassics.solve_semiclassics_stack(columns([p]))
            assert alone_offsets.tolist() == [0, 1]
            reference = semiclassics.SemiclassicalState(
                q_avg=0.0, m_avg=None, c2_avg=None, g_c_eff=complex(p.g_c_eff),
                g_mb_eff=complex(p.g_mb_eff), delta_c2_eff=p.delta_c2_sign * p.delta_c2,
                delta_m_eff=p.delta_m,
                drive_e=references.drive(p.p_laser, p.kappa_c2, p.lambda_laser),
                rabi=None if p.b_field is None else references.rabi(
                    p.b_field, p.v_yig, p.rho_spin
                ),
                iterations=0, c2_mismatch=None,
            )
            assert len(alone) == 1
            for field in dataclasses.fields(reference):
                want = getattr(reference, field.name)
                for state in (semiclassics.state_at(stack, k), semiclassics.state_at(alone, 0)):
                    got = getattr(state, field.name)
                    assert type(got) is type(want) and repr(got) == repr(want), field.name
        assert np.isnan(stack["rabi"]).tolist() == [True, False, True, True]


class TestSolveSemiclassicsDerived:
    OVERRIDES = {
        "coupling_mode": "derived",
        "b_field_t": 1.1e-3,
        "g_c_hz": 1.5e3,
    }

    def test_internal_identities(self):
        p = default_params(**self.OVERRIDES)
        state = solve_semiclassics(p)
        assert state.iterations >= 1
        assert state.c2_mismatch is not None and state.c2_mismatch < 1e-9
        q = state.q_avg
        assert state.delta_m_eff == pytest.approx(p.delta_m + p.g_m * q, rel=1e-12)
        assert state.delta_c2_eff == pytest.approx(
            p.delta_c2_sign * p.delta_c2 - p.g_c * q, rel=1e-12
        )
        assert state.m_avg == pytest.approx(
            magnon_average(state.rabi, p.kappa_m, state.delta_m_eff), rel=1e-12
        )
        gc, gmb = effective_couplings(p.g_c, state.c2_avg, p.g_m, state.m_avg)
        assert state.g_c_eff == gc and state.g_mb_eff == gmb
        assert q == pytest.approx(
            mechanical_displacement(p.g_c, state.c2_avg, p.g_m, state.m_avg, p.omega_b),
            rel=1e-10,
        )

    def test_independent_fixed_point_iteration(self):
        # re-derive <q> with a from-scratch loop over the same physics
        p = default_params(**self.OVERRIDES)
        state = solve_semiclassics(p)
        rabi = references.rabi(p.b_field, p.v_yig, p.rho_spin)
        drive = references.drive(p.p_laser, p.kappa_c2, p.lambda_laser)
        q = 0.0
        for _ in range(100):
            m = rabi / complex(p.kappa_m, p.delta_m + p.g_m * q)
            d2 = p.delta_c2_sign * p.delta_c2 - p.g_c * q
            c2 = cavity2_average_closed_form(
                drive, p.kappa_a, p.kappa_c1, p.kappa_c2,
                p.delta_a, p.delta_c1, d2, p.g_n1, p.g_n2,
            )
            q_next = (p.g_c * abs(c2) ** 2 - p.g_m * abs(m) ** 2) / p.omega_b
            if abs(q_next - q) <= 1e-13 * max(1.0, abs(q_next)):
                q = q_next
                break
            q = q_next
        assert state.q_avg == pytest.approx(q, rel=1e-10)

    def test_derived_couplings_have_plausible_magnitudes(self):
        # with the bare rates above, |G_c| and |G_mb| land near the usual
        # published operating scale of a few MHz
        p = default_params(**self.OVERRIDES)
        state = solve_semiclassics(p)
        assert 1e6 < abs(state.g_c_eff) / TWO_PI < 20e6
        assert 1e6 < abs(state.g_mb_eff) / TWO_PI < 10e6

    def test_verbatim_magnon_denominator(self):
        p = default_params(**self.OVERRIDES, eq9_verbatim=True)
        state = solve_semiclassics(p)
        expected = state.rabi / complex(p.kappa_m, p.delta_c2)
        assert state.m_avg == pytest.approx(expected, rel=1e-12)

    def test_mismatch_compares_both_formulas(self, monkeypatch, caplog):
        # a closed form off by 1e-6 relative shows in c2_mismatch, and
        # nowhere else: nothing is logged
        exact = semiclassics.cavity2_average_closed_form
        monkeypatch.setattr(
            semiclassics,
            "cavity2_average_closed_form",
            lambda *args: exact(*args) * (1.0 + 1e-6),
        )
        with caplog.at_level(logging.DEBUG):
            state = solve_semiclassics(default_params(**self.OVERRIDES))
        assert state.c2_mismatch == pytest.approx(1e-6, rel=1e-5)
        assert caplog.records == []

    def test_mismatch_stays_with_every_branch(self, monkeypatch, caplog):
        # a working point whose three branches all carry the mismatch keeps it
        # in each branch's c2_mismatch, and a direct cross-check of the closed
        # form returns its own; no log record is emitted
        exact = semiclassics.cavity2_average_closed_form
        monkeypatch.setattr(
            semiclassics,
            "cavity2_average_closed_form",
            lambda *args: exact(*args) * (1.0 + 1e-6),
        )
        with caplog.at_level(logging.DEBUG):
            branches, offsets, _ = semiclassics.solve_semiclassics_stack(
                columns([default_params(**self.OVERRIDES)])
            )
            args = (7.7e11, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1,
                    DELTA_C2_EFF, G1, G2)
            direct = cross_check(semiclassics.cavity2_average_closed_form(*args), *args)
        assert offsets.tolist() == [0, 3]
        assert all(m == pytest.approx(1e-6, rel=1e-5) for m in branches["c2_mismatch"])
        assert direct == pytest.approx(1e-6, rel=1e-5)
        assert caplog.records == []

    def test_linear_solve_runs_once_per_working_point(self):
        # the working point is a stack of one: one stacked 3x3 LU
        # cross-checks the closed form at all of its branches
        p = default_params(**self.OVERRIDES)
        assert semiclassics.solve_semiclassics_stack(columns([p]))[1].tolist() == [0, 3]
        with mock.patch.object(
            semiclassics.np.linalg, "solve", wraps=np.linalg.solve
        ) as solve:
            state = solve_semiclassics(p)
        assert state.iterations >= 1
        assert solve.call_count == 1

    def test_config_carrying_c2_formula_is_rejected(self):
        with pytest.raises(ConfigError, match="c2_formula"):
            params_from_mapping({**self.OVERRIDES, "c2_formula": "closed_form"})


def test_config_rejects_half_specified_derived_mode():
    with pytest.raises(ConfigError):
        default_params(coupling_mode="derived")


def displacement_map(p, q):
    """F(q) = (g_c |<c2>|^2 - g_m |<m>|^2) / omega_b at an array of q, with <c2>
    from the full 3x3 system by batched LU rather than the closed form."""
    q = np.asarray(q, dtype=float)
    rabi = references.rabi(p.b_field, p.v_yig, p.rho_spin)
    drive = references.drive(p.p_laser, p.kappa_c2, p.lambda_laser)
    magnon_detuning = p.delta_c2 if p.eq9_verbatim else p.delta_m + p.g_m * q
    m_sq = rabi**2 / (p.kappa_m**2 + magnon_detuning**2)
    mat = np.zeros(q.shape + (3, 3), dtype=complex)
    mat[..., 0, 0] = complex(p.kappa_a, p.delta_a)
    mat[..., 0, 1] = mat[..., 1, 0] = 1j * p.g_n1
    mat[..., 0, 2] = mat[..., 2, 0] = 1j * p.g_n2
    mat[..., 1, 1] = complex(p.kappa_c1, p.delta_c1)
    mat[..., 2, 2] = p.kappa_c2 + 1j * (p.delta_c2_sign * p.delta_c2 - p.g_c * q)
    rhs = np.zeros(q.shape + (3, 1), dtype=complex)
    rhs[..., 1:, 0] = drive
    c2 = np.linalg.solve(mat, rhs)[..., 2, 0]
    return (p.g_c * np.abs(c2) ** 2 - p.g_m * m_sq) / p.omega_b


def state_at(p, q):
    """A working point at displacement q, built from scratch."""
    rabi = references.rabi(p.b_field, p.v_yig, p.rho_spin)
    drive = references.drive(p.p_laser, p.kappa_c2, p.lambda_laser)
    delta_m_eff = p.delta_m + p.g_m * q
    delta_c2_eff = p.delta_c2_sign * p.delta_c2 - p.g_c * q
    m = rabi / complex(p.kappa_m, p.delta_c2 if p.eq9_verbatim else delta_m_eff)
    c2 = linsolve_c2(drive, p.kappa_a, p.kappa_c1, p.kappa_c2, p.delta_a,
                     p.delta_c1, delta_c2_eff, p.g_n1, p.g_n2)
    return semiclassics.SemiclassicalState(
        q_avg=q, m_avg=m, c2_avg=c2,
        g_c_eff=1j * math.sqrt(2.0) * p.g_c * c2,
        g_mb_eff=1j * math.sqrt(2.0) * p.g_m * m,
        delta_c2_eff=delta_c2_eff, delta_m_eff=delta_m_eff,
        drive_e=drive, rabi=rabi, iterations=0, c2_mismatch=None,
    )


#: Dense bracket over |q| <= 1e8: 0 and 20001 log-spaced points each side.
BRACKET = np.concatenate([-np.logspace(8, -2, 20001), [0.0], np.logspace(-2, 8, 20001)])


class TestDisplacementRoots:
    OVERRIDES = TestSolveSemiclassicsDerived.OVERRIDES

    @settings(max_examples=30, deadline=None)
    @given(
        verbatim=st.booleans(),
        b_field=st.floats(0.4, 2.0),
        g_c=st.floats(0.4, 2.0),
        g_m=st.floats(0.5, 2.0),
        delta_c2=st.floats(-2.0, 0.0),
        delta_m=st.floats(0.0, 2.0),
    )
    # the benchmark map's reference point, which the iteration settles on,
    # a point where it diverges, and one where the first branch attracts
    # only its own neighbourhood: from q = 0 the iteration wanders for good
    @example(verbatim=False, b_field=1.0, g_c=1.0, g_m=1.0, delta_c2=-0.8, delta_m=1.0)
    @example(verbatim=False, b_field=1.0, g_c=1.0, g_m=1.0, delta_c2=-1.9, delta_m=0.1)
    @example(verbatim=False, b_field=0.400390625, g_c=0.400390625, g_m=1.55078125,
             delta_c2=0.0, delta_m=0.12998101900788675)
    def test_roots_and_branches(self, verbatim, b_field, g_c, g_m, delta_c2, delta_m):
        p = default_params(
            coupling_mode="derived", eq9_verbatim=verbatim,
            b_field_t=1.1e-3 * b_field, g_c_hz=1.5e3 * g_c, g_m_hz=20.0 * g_m,
            delta_c2_over_wb=delta_c2, delta_m_over_wb=delta_m,
        )
        roots = semiclassics._Displacement(columns([p])).roots()[0][0]
        roots = roots[np.isfinite(roots)]
        branches, offsets, _ = semiclassics.solve_semiclassics_stack(columns([p]))
        assert offsets.tolist() == [0, len(branches)]
        branch_q = branches["q_avg"]

        # every sign change of F(q) - q is a returned root; a falling one is
        # a root with F' < 1, so a branch
        g = displacement_map(p, BRACKET) - BRACKET
        for i in np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:])):
            lo, hi = BRACKET[i], BRACKET[i + 1]
            slack = 1e-9 * max(abs(lo), abs(hi))
            found = branch_q if g[i] > 0 else roots
            assert np.any((found >= lo - slack) & (found <= hi + slack)), (lo, hi, roots)
        assert set(branch_q) <= set(roots)

        def iterate(q):
            """q <- F(q) from q; the last q, and whether it settled."""
            for _ in range(20000):
                q_next = float(displacement_map(p, q))
                if abs(q_next - q) <= 1e-13 * max(1.0, abs(q_next)):
                    return q_next, True
                q = q_next
            return q, False

        # a from-scratch q <- F(q) that settles, settles on a branch; none
        # settles when not even the first branch attracts
        q0 = branch_q[0]
        h = 1e-6 * abs(q0)
        slope = (displacement_map(p, q0 + h) - displacement_map(p, q0 - h)) / (2 * h)
        q, settled = iterate(0.0)
        if settled:
            assert np.any(np.isclose(branch_q, q, rtol=1e-9, atol=0.0)), (q, branch_q)
        if abs(slope) > 1.01:
            assert not settled
        elif abs(slope) < 0.99:
            # q = 0 need not lie in the first branch's basin, its own
            # neighbourhood does: started there, q <- F(q) settles on it
            q, settled = iterate(q0 * (1.0 + 1e-6))
            assert settled
            assert q0 == pytest.approx(q, rel=1e-11)
            # and the branch evaluate_point reports has the verdict of that q
            a = build_drift(p, state_at(p, q)).a
            verdict = stability_stack(a[None] / p.omega_b)[2][0] < 0.0
            assert evaluate_point(p, ("ab",)).stable == verdict

    def test_diverging_iteration_point_is_unstable_not_an_error(self):
        # the plain iteration q <- F(q) used to end here in ConvergenceError:
        # the one root has F' = -3.8
        p = default_params(**self.OVERRIDES, delta_c2_over_wb=-1.9, delta_m_over_wb=0.1)
        report = evaluate_point(p, ("ab", "am"))
        assert report.error is None
        assert report.stable is False
        assert report.margin is not None and math.isfinite(report.margin)
        q = report.state.q_avg
        assert q == pytest.approx(-3.93e5, rel=1e-3)
        h = 1e-6 * abs(q)
        slope = (displacement_map(p, q + h) - displacement_map(p, q - h)) / (2 * h)
        assert slope == pytest.approx(-3.8, rel=0.01)
        a = build_drift(p, report.state).a
        assert -stability_stack(a[None] / p.omega_b)[2][0] * p.omega_b == report.margin

    def test_iterations_count_the_newton_steps(self):
        # the companion eigenvalues are close to the roots already, so the
        # polish takes a few Newton steps, not the fixed point's dozen
        branches, offsets, _ = semiclassics.solve_semiclassics_stack(
            columns([default_params(**self.OVERRIDES)])
        )
        assert offsets.tolist() == [0, 3]
        assert all(1 <= n <= 3 for n in branches["iterations"].tolist())
