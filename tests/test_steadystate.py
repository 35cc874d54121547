"""Lyapunov solve, RK4 relaxation cross-check, and covariance physicality."""

import inspect
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ommlab import (
    ConvergenceError,
    CovarianceMatrix,
    DomainError,
    NumericalError,
    StabilityError,
    build_diffusion,
    build_drift,
    default_params,
    integrate_to_steady_state,
    physicality_margin,
    solve_lyapunov,
    solve_semiclassics,
    symplectic_form,
    thermal_occupation,
)
from ommlab import steadystate
from ommlab.dynamics import stability_stack


def single_cavity(kappa=2.0, delta=0.7):
    a = np.array([[-kappa, delta], [-delta, -kappa]])
    d = kappa * np.eye(2)
    return a, d


def default_system():
    p = default_params()
    state = solve_semiclassics(p)
    return p, build_drift(p, state), build_diffusion(p)


def nearly_defective(delta, seed):
    """A stable 6x6 drift with a Jordan-like 2x2 block split by ``delta``.

    The block [[lam, 1], [0, lam + delta]] has eigenvectors at an angle of
    about delta, so they coalesce as delta -> 0; a random orthogonal
    similarity hides the structure, and the noise is a random PSD matrix.
    """
    rng = np.random.default_rng(seed)
    lam = -rng.uniform(0.1, 1.0)
    b = np.zeros((6, 6))
    b[0:2, 0:2] = [[lam, 1.0], [0.0, lam + delta]]
    b[2:4, 2:4] = [[-0.3, 1.0], [-1.0, -0.3]]
    b[4:6, 4:6] = [[-0.5, 2.0], [-2.0, -0.5]]
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    g = rng.normal(size=(6, 6))
    return q @ b @ q.T, g @ g.T


class TestSymplecticForm:
    def test_single_mode_block(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(5)
        np.testing.assert_array_equal(omega @ omega, -np.eye(10))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            symplectic_form(0)


class TestCovarianceMatrix:
    def test_accepts_vacuum(self):
        cm = CovarianceMatrix(v=0.5 * np.eye(4))
        assert cm.n_modes == 2

    def test_rejects_odd_dimension(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(v=np.eye(3))

    def test_rejects_asymmetry(self):
        v = np.eye(4)
        v[0, 1] = 1e-6
        with pytest.raises(DomainError):
            CovarianceMatrix(v=v)

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(v=np.diag([1.0, -0.1, 1.0, 1.0]))


class TestSolveLyapunov:
    def test_vacuum_fixture(self):
        # a lone damped cavity driven by vacuum noise settles into vacuum
        a, d = single_cavity()
        v = solve_lyapunov(a, d).v
        assert np.max(np.abs(v - 0.5 * np.eye(2))) <= 1e-12

    def test_zero_noise_zero_covariance(self):
        a, _ = single_cavity()
        v = solve_lyapunov(a, np.zeros((2, 2))).v
        np.testing.assert_array_equal(v, np.zeros((2, 2)))

    def test_analytic_mechanical_block(self):
        # damping and noise on p only: V = (n + 1/2) I exactly
        wb, gamma, n = 2.0, 1e-3, 4.7
        a = np.array([[0.0, wb], [-wb, -gamma]])
        d = np.diag([0.0, gamma * (2 * n + 1)])
        v = solve_lyapunov(a, d).v
        np.testing.assert_allclose(v, (n + 0.5) * np.eye(2), rtol=1e-9, atol=1e-12)

    @given(scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    @settings(max_examples=10, deadline=None)
    def test_solution_invariant_under_time_rescaling(self, scale):
        a, d = single_cavity(kappa=1.3, delta=-0.4)
        v_ref = solve_lyapunov(a, d).v
        v_scaled = solve_lyapunov(scale * a, scale * d).v
        np.testing.assert_allclose(v_scaled, v_ref, rtol=1e-10)

    def test_unstable_drift_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_unstable_operating_point_rejected(self):
        p = default_params(delta_m_over_wb=-1.0)
        state = solve_semiclassics(p)
        with pytest.raises(StabilityError):
            solve_lyapunov(build_drift(p, state), build_diffusion(p), scale=p.omega_b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            solve_lyapunov(-np.eye(2), np.eye(4))

    def test_asymmetric_diffusion_rejected(self):
        d = np.eye(2)
        d[0, 1] = 0.1
        with pytest.raises(DomainError):
            solve_lyapunov(-np.eye(2), d)

    def test_default_point_stays_in_the_eigenbasis(self):
        p, drift, diffusion = default_system()
        with mock.patch.object(steadystate, "_schur_solve") as schur:
            v = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        schur.assert_not_called()
        v_ref = scipy.linalg.solve_continuous_lyapunov(
            drift.a / p.omega_b, -diffusion.d / p.omega_b
        )
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))

    def test_takes_no_stability_report(self):
        assert "stability_report" not in inspect.signature(solve_lyapunov).parameters

    def test_residual_gate_message_is_built_once(self):
        assert inspect.getsource(steadystate).count('f"Lyapunov residual') == 1

    def test_without_a_report_one_eigensolve_runs(self):
        a, d = single_cavity()
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
            solve_lyapunov(a, d)
        assert eig.call_count == 1

    @given(
        delta=st.floats(min_value=1e-12, max_value=1e-6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(delta=0.0, seed=0)  # exactly defective: S is singular
    @settings(max_examples=25, deadline=None)
    def test_nearly_defective_drift_takes_the_schur_fallback(self, delta, seed):
        a, d = nearly_defective(delta, seed)
        with mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v = solve_lyapunov(a, d, scale=1.0).v
        assert schur.call_count == 1
        assert np.linalg.norm(a @ v + v @ a.T + d) <= 1e-10 * np.linalg.norm(d)
        v_ref = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))

    def test_fallback_taken_when_the_eigenbasis_misses_the_gate(self):
        a, d = single_cavity()
        with mock.patch.object(
            steadystate, "_eigenbasis_solve", return_value=np.eye(2)[None]
        ), mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v = solve_lyapunov(a, d).v
        assert schur.call_count == 1
        assert np.max(np.abs(v - 0.5 * np.eye(2))) <= 1e-12

    def test_fallback_missing_the_gate_raises(self):
        a, d = single_cavity()
        with mock.patch.object(
            steadystate, "_eigenbasis_solve", return_value=np.full((1, 2, 2), np.nan)
        ), mock.patch.object(steadystate, "_schur_solve", return_value=np.eye(2)):
            with pytest.raises(NumericalError, match="residual"):
                solve_lyapunov(a, d)

    def test_nan_noise_raises_instead_of_returning_nan(self):
        a, d = single_cavity()
        d[0, 0] = np.nan
        with pytest.raises(NumericalError):
            solve_lyapunov(a, d)

    def test_default_point_residual_and_symmetry(self):
        p, drift, diffusion = default_system()
        v = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        a, d = drift.a / p.omega_b, diffusion.d / p.omega_b
        residual = np.linalg.norm(a @ v + v @ a.T + d)
        assert residual <= 1e-10 * np.linalg.norm(d)
        np.testing.assert_array_equal(v, v.T)


class TestLyapunovStack:
    """A failing row of :func:`solve_lyapunov_stack` fails alone."""

    @staticmethod
    def solve(a, d):
        a, d = np.array(a), np.array(d)
        scale = np.ones(len(a))
        eigs, vecs, _ = stability_stack(a, scale)
        return steadystate.solve_lyapunov_stack(a, d, scale, eigs, vecs)

    def test_asymmetric_diffusion_fails_its_row_without_the_fallback(self):
        a, d = single_cavity()
        d_bad = d.copy()
        d_bad[0, 1] = 0.1
        with mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v, errors = self.solve([a, a], [d, d_bad])
        schur.assert_not_called()
        assert errors[0] is None
        assert isinstance(errors[1], DomainError)
        assert str(errors[1]) == "diffusion must be symmetric"
        assert np.max(np.abs(v[0] - 0.5 * np.eye(2))) <= 1e-12

    def test_raw_asymmetry_warns_for_its_row_only(self):
        a, d = single_cavity()
        skew = np.array([[0.0, 1e-6], [-1e-6, 0.0]])
        raw = np.array([0.5 * np.eye(2) + skew, 0.5 * np.eye(2)])
        with mock.patch.object(steadystate, "_eigenbasis_solve", return_value=raw):
            with pytest.warns(RuntimeWarning, match="asymmetry") as record:
                v, errors = self.solve([a, a], [d, d])
        assert len(record) == 1
        assert errors == [None, None]
        np.testing.assert_array_equal(v, [0.5 * np.eye(2)] * 2)

    def test_negative_variance_fails_its_row(self):
        a, d = single_cavity()
        v, errors = self.solve([a, -np.eye(2)], [d, np.diag([1.0, -1.0])])
        assert errors[0] is None
        assert isinstance(errors[1], DomainError)
        assert "non-negative" in str(errors[1])
        assert np.max(np.abs(v[0] - 0.5 * np.eye(2))) <= 1e-12


class TestRelaxationIntegrator:
    def test_verdict_comes_from_one_stability_call(self):
        a, d = single_cavity()
        with mock.patch.object(
            np.linalg, "eig", wraps=np.linalg.eig
        ) as eig, mock.patch.object(
            np.linalg, "eigvals", wraps=np.linalg.eigvals
        ) as eigvals:
            integrate_to_steady_state(a, d)
        assert eig.call_count == 1
        assert eigvals.call_count == 0

    def test_unstable_message_matches_the_direct_solve(self):
        # max Re eig is given in the drift's own units, not the scaled ones
        a = np.array([[3.0, 1.0], [-1.0, 3.0]])
        with pytest.raises(StabilityError) as direct:
            solve_lyapunov(a, np.eye(2))
        with pytest.raises(StabilityError) as oracle:
            integrate_to_steady_state(a, np.eye(2))
        assert str(oracle.value) == str(direct.value)
        assert "max Re eig = 3.000000e+00" in str(oracle.value)

    def test_loop_keeps_no_preallocated_buffers(self):
        source = inspect.getsource(integrate_to_steady_state)
        assert "empty_like" not in source and "out=" not in source

    def test_vacuum_fixture_from_far_start(self):
        a, d = single_cavity()
        v = integrate_to_steady_state(a, d, v0=2.0 * np.eye(2)).v
        assert np.max(np.abs(v - 0.5 * np.eye(2))) <= 1e-10

    def test_fixed_point_is_left_alone(self):
        p, drift, diffusion = default_system()
        v_star = solve_lyapunov(drift, diffusion, scale=p.omega_b)
        v = integrate_to_steady_state(drift, diffusion, v0=v_star, scale=p.omega_b).v
        assert np.max(np.abs(v - v_star.v)) <= 1e-12 * np.max(np.abs(v_star.v))

    def test_agrees_with_direct_solve(self):
        p, drift, diffusion = default_system()
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        v_rk4 = integrate_to_steady_state(drift, diffusion, scale=p.omega_b).v
        rel = np.linalg.norm(v_direct - v_rk4) / np.linalg.norm(v_direct)
        assert rel <= 1e-9

    def test_result_independent_of_step_size(self):
        # the flow is affine, so the RK4 fixed point is the Lyapunov solution
        # for every stable step size
        a, d = single_cavity(kappa=1.1, delta=0.9)
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        v_small = integrate_to_steady_state(a, d, dt=0.01 / rho).v
        v_large = integrate_to_steady_state(a, d, dt=0.099 / rho).v
        np.testing.assert_allclose(v_large, v_small, rtol=1e-10, atol=1e-13)

    def test_oversized_step_rejected(self):
        a, d = single_cavity()
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        with pytest.raises(DomainError, match="stability budget"):
            integrate_to_steady_state(a, d, dt=0.2 / rho)

    def test_unstable_drift_rejected(self):
        with pytest.raises(StabilityError):
            integrate_to_steady_state(np.eye(2), np.eye(2))

    def test_asymmetric_start_rejected(self):
        a, d = single_cavity()
        v0 = np.eye(2)
        v0[0, 1] = 0.5
        with pytest.raises(DomainError, match="symmetric"):
            integrate_to_steady_state(a, d, v0=v0)

    def test_tiny_horizon_gives_up(self):
        a, d = single_cavity()
        with pytest.raises(ConvergenceError):
            integrate_to_steady_state(a, d, v0=5.0 * np.eye(2), horizon=1e-3)

    def test_bad_tolerances_rejected(self):
        a, d = single_cavity()
        with pytest.raises(DomainError):
            integrate_to_steady_state(a, d, rtol=0.0)
        with pytest.raises(DomainError):
            integrate_to_steady_state(a, d, horizon=-1.0)


class TestPhysicalityMargin:
    def test_vacuum_saturates_uncertainty(self):
        assert physicality_margin(0.5 * np.eye(10)) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_margin_is_occupation(self):
        n = 3.7
        v = (n + 0.5) * np.eye(4)
        assert physicality_margin(v) == pytest.approx(n, rel=1e-12)

    def test_default_steady_state_is_physical(self):
        p, drift, diffusion = default_system()
        v = solve_lyapunov(drift, diffusion, scale=p.omega_b)
        margin = physicality_margin(v)
        assert margin >= -1e-8
        assert margin == pytest.approx(0.0005883893040123479, rel=1e-6)

    def test_squeezed_below_vacuum_is_still_physical(self):
        r = 1.0
        v = np.diag([np.exp(-2 * r), np.exp(2 * r)]) / 2.0
        assert physicality_margin(v) >= -1e-12

    def test_decoupled_thermal_mechanics(self):
        # all couplings off: optical blocks at vacuum, mechanics thermal
        p = default_params(g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        state = solve_semiclassics(p)
        v = solve_lyapunov(build_drift(p, state), build_diffusion(p), scale=p.omega_b).v
        n_b = thermal_occupation(p.omega_b, p.temperature)
        expected = 0.5 * np.eye(10)
        expected[6, 6] = expected[7, 7] = n_b + 0.5
        np.testing.assert_allclose(v, expected, rtol=1e-9, atol=1e-9)
