"""Mean-field working point: amplitudes, displacement, effective couplings."""

import cmath
import math

import numpy as np
import pytest

from ommlab import (
    ConfigError,
    DegenerateOperatingPointError,
    DomainError,
    cavity2_average,
    cavity2_average_closed_form,
    default_params,
    effective_couplings,
    laser_drive_strength,
    magnon_average,
    mechanical_displacement,
    rabi_frequency,
    solve_semiclassics,
)
from ommlab import semiclassics
from ommlab.model import TWO_PI
from ommlab.semiclassics import coupling_phase


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


class TestCavity2Average:
    def test_zero_drive_gives_zero(self):
        c2 = cavity2_average(
            0.0, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1, DELTA_C2_EFF, G1, G2
        )
        assert c2 == 0.0

    def test_decoupled_limit_is_single_cavity_response(self):
        e = 7.7e11
        c2 = cavity2_average(
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
            lin = cavity2_average(e, ka, k1, k2, da, d1, d2, g1, g2, formula="linsolve")
            cf = cavity2_average(e, ka, k1, k2, da, d1, d2, g1, g2, formula="closed_form")
            assert abs(lin - cf) <= 1e-10 * max(abs(lin), abs(cf))

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
        with pytest.raises(DegenerateOperatingPointError):
            cavity2_average(1.0, 1e-11, 1e-11, 1e-11, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_unknown_formula_rejected(self):
        with pytest.raises(DomainError):
            cavity2_average(
                1.0, KAPPA_A, KAPPA_C1, KAPPA_C2, DELTA_A, DELTA_C1, DELTA_C2_EFF,
                G1, G2, formula="pade",
            )


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

    def test_coupling_phase(self):
        assert coupling_phase(0.0) == 0.0
        assert coupling_phase(3.0) == 0.0
        assert coupling_phase(2.0j) == pytest.approx(math.pi / 2.0)
        assert coupling_phase(-1.0) == pytest.approx(math.pi)


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
        expected = laser_drive_strength(p.p_laser, p.kappa_c2, p.lambda_laser)
        assert state.drive_e == pytest.approx(expected, rel=1e-14)
        assert state.rabi is None  # no b_field configured

    def test_positive_sign_branch(self):
        p = default_params(delta_c2_sign=1.0)
        state = solve_semiclassics(p)
        assert state.delta_c2_eff == pytest.approx(-0.8 * p.omega_b, rel=1e-14)


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
        rabi = rabi_frequency(p.b_field, p.v_yig, p.rho_spin)
        drive = laser_drive_strength(p.p_laser, p.kappa_c2, p.lambda_laser)
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

    @pytest.mark.parametrize("formula", ["linsolve", "closed_form"])
    def test_mismatch_compares_both_formulas(self, formula, monkeypatch, caplog):
        # a closed form off by 1e-6 relative shows in c2_mismatch, and in the
        # logged warning, whichever formula the iteration runs on
        exact = semiclassics.cavity2_average_closed_form
        monkeypatch.setattr(
            semiclassics,
            "cavity2_average_closed_form",
            lambda *args: exact(*args) * (1.0 + 1e-6),
        )
        state = solve_semiclassics(default_params(**self.OVERRIDES, c2_formula=formula))
        assert state.c2_mismatch == pytest.approx(1e-6, rel=1e-5)
        assert "cavity amplitude formulas disagree" in caplog.text

    def test_closed_form_mode_matches_linsolve_mode(self):
        a = solve_semiclassics(default_params(**self.OVERRIDES))
        b = solve_semiclassics(default_params(**self.OVERRIDES, c2_formula="closed_form"))
        assert a.q_avg == pytest.approx(b.q_avg, rel=1e-9)
        assert abs(a.c2_avg - b.c2_avg) <= 1e-9 * abs(a.c2_avg)


def test_config_rejects_half_specified_derived_mode():
    with pytest.raises(ConfigError):
        default_params(coupling_mode="derived")
