"""Lyapunov solve, exact-flow relaxation cross-check, and covariance physicality."""

import inspect
import math
import re
import time
import tracemalloc
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
    evaluate_point,
    physicality_margin,
    solve_lyapunov,
    solve_semiclassics,
    symplectic_form,
    thermal_occupation,
)
from ommlab import steadystate
from ommlab.dynamics import stability_stack
from ommlab.steadystate import integrate_to_steady_state_stack


def single_cavity(kappa=2.0, delta=0.7):
    a = np.array([[-kappa, delta], [-delta, -kappa]])
    d = kappa * np.eye(2)
    return a, d


def default_system():
    p = default_params()
    state = solve_semiclassics(p)
    return p, build_drift(p, state), build_diffusion(p)


def two_mode():
    """Two damped rotating modes exchanging excitations at rate 0.35."""
    a = np.array([
        [-0.6, 1.3, 0.0, 0.35],
        [-1.3, -0.6, -0.35, 0.0],
        [0.0, 0.35, -0.9, 0.8],
        [-0.35, 0.0, -0.8, -0.9],
    ])
    d = np.diag([0.6, 0.6, 2.7, 2.7])
    return a, d


def lyapunov_rhs(a, d, v):
    return a @ v + v @ a.T + d


def rk4_steps(a, d, v, dt, count):
    """``count`` plain classical RK4 steps on dV/dt = A V + V A^T + D."""
    for _ in range(count):
        k1 = lyapunov_rhs(a, d, v)
        k2 = lyapunov_rhs(a, d, v + 0.5 * dt * k1)
        k3 = lyapunov_rhs(a, d, v + 0.5 * dt * k2)
        k4 = lyapunov_rhs(a, d, v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def stepped_rk4(a, d, v, dt, tol):
    """Plain RK4 from ``v`` until ||dV/dt||_F <= tol, read after 0, 1, 3, 7,
    ... steps, where the doubling integrator reads it."""
    steps = 0
    while np.linalg.norm(lyapunov_rhs(a, d, v)) > tol:
        v = rk4_steps(a, d, v, dt, steps + 1)
        steps = 2 * steps + 1
    return v


def single_cavity_flow(v0, t, kappa=2.0, delta=0.7):
    """V(t) of :func:`single_cavity` in closed form: e^(At) = e^(-kappa t) R(delta t)."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    rot = np.array([[c, s], [-s, c]])
    decay = math.exp(-2.0 * kappa * t)
    return decay * rot @ v0 @ rot.T + 0.5 * (1.0 - decay) * np.eye(2)


def two_mode_flow(v0, t):
    """V(t) of :func:`two_mode` in closed form, V* + e^(At) (V0 - V*) e^(A^T t),
    with e^(At) from the eigendecomposition of A and V* from scipy."""
    a, d = two_mode()
    lam, s = np.linalg.eig(a)
    e = (s @ np.diag(np.exp(lam * t)) @ np.linalg.inv(s)).real
    v_star = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return v_star + e @ (v0 - v_star) @ e.T


def stepped_flow(flow, a, d, v0, dt, tol):
    """The closed-form flow from ``v0`` read after 0, 1, 3, 7, ... steps of
    ``dt`` until ||dV/dt||_F <= tol, where the doubling integrator reads it."""
    steps = 0
    while np.linalg.norm(lyapunov_rhs(a, d, flow(v0, steps * dt))) > tol:
        steps = 2 * steps + 1
    return flow(v0, steps * dt)


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
        np.testing.assert_array_equal(cm.v, 0.5 * np.eye(4))

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

    def test_rejects_non_square(self):
        with pytest.raises(DomainError, match="square"):
            solve_lyapunov(np.zeros((3, 4)), np.zeros((3, 4)))

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


def relax(a, d, scale, **kwargs):
    """:func:`integrate_to_steady_state_stack` on (N, n, n) stacks, given the
    eigenvalues :func:`stability_stack` finds at the same scales."""
    return integrate_to_steady_state_stack(a, d, scale, stability_stack(a, scale)[0], **kwargs)


def max_abs(a):
    """Each drift's largest |entry|, (N,): a lone array drift's natural scale."""
    return np.abs(a).max(axis=(-2, -1))


class TestRelaxationIntegrator:
    def test_verdict_comes_from_one_stability_call(self):
        a, d = single_cavity()
        with mock.patch.object(
            np.linalg, "eig", wraps=np.linalg.eig
        ) as eig, mock.patch.object(
            np.linalg, "eigvals", wraps=np.linalg.eigvals
        ) as eigvals:
            _, errors = relax(a[None], d[None], max_abs(a[None]))
        assert errors == [None]
        assert eig.call_count == 1
        assert eigvals.call_count == 0

    def test_unstable_message_matches_the_direct_solve(self):
        # max Re eig is given in the drift's own units, not the scaled ones
        a = np.array([[3.0, 1.0], [-1.0, 3.0]])
        with pytest.raises(StabilityError) as direct:
            solve_lyapunov(a, np.eye(2))
        _, errors = relax(a[None], np.eye(2)[None], max_abs(a[None]))
        assert isinstance(errors[0], StabilityError)
        assert str(errors[0]) == str(direct.value)
        assert "max Re eig = 3.000000e+00" in str(errors[0])

    def test_loop_keeps_no_preallocated_buffers(self):
        source = inspect.getsource(integrate_to_steady_state_stack)
        assert "empty_like" not in source and "out=" not in source

    @pytest.mark.parametrize("system", [single_cavity, two_mode])
    @pytest.mark.parametrize("rtol", [1e-1, 1e-12])
    def test_doubling_follows_plain_stepping(self, system, rtol):
        # a loose rtol stops mid-transient, so the trajectory itself is
        # compared with the closed-form flow stepped one step at a time; the
        # converged result is compared with plain RK4 stepping
        a, d = system()
        v0 = 3.0 * np.eye(len(a))
        dt = 0.07 / np.max(np.abs(np.linalg.eigvals(a)))
        tol = rtol * np.linalg.norm(d)
        v_doubled, errors = relax(
            a[None], d[None], np.ones(1), v0=v0[None], dt=np.array([dt]), rtol=rtol
        )
        assert errors == [None]
        if rtol == 1e-1:
            flow = {single_cavity: single_cavity_flow, two_mode: two_mode_flow}[system]
            v_stepped = stepped_flow(flow, a, d, v0, dt, tol)
        else:
            v_stepped = stepped_rk4(a, d, v0, dt, tol)
        rel = np.linalg.norm(v_doubled[0] - v_stepped) / np.linalg.norm(v_stepped)
        assert rel <= 1e-10
        v_star = solve_lyapunov(a, d).v
        if rtol == 1e-1:
            assert np.linalg.norm(v_stepped - v_star) > 1e-2 * np.linalg.norm(v_star)

    def test_convergence_error_gives_budget_and_final_residual(self):
        a, d = single_cavity()
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        dt = 0.05 / rho
        budget = math.ceil(0.5 / 2.0 / dt)  # horizon over the decay rate kappa
        _, errors = relax(
            a[None], d[None], np.ones(1), v0=5.0 * np.eye(2)[None], horizon=0.5
        )
        assert isinstance(errors[0], ConvergenceError)
        found = re.search(
            r"\((\d+) steps, checked at (\d+); final residual (\S+)\)", str(errors[0])
        )
        assert found is not None, str(errors[0])
        assert int(found.group(1)) == budget == 11
        assert int(found.group(2)) == 15  # the first 2^K - 1 >= the budget
        v15 = rk4_steps(a, d, 5.0 * np.eye(2), dt, 15)
        expected = np.linalg.norm(lyapunov_rhs(a, d, v15))
        assert float(found.group(3)) == pytest.approx(expected, rel=1e-3)

    def test_near_the_stability_boundary_converges_fast(self):
        # margin 3.0e-4 omega_b, max |V| about 30, a budget of 3.4e6 steps:
        # one-at-a-time stepping stalls here at a roundoff floor above the
        # tolerance, which the correction form does not carry
        p = default_params(delta_m_over_wb=-0.974)
        drift = build_drift(p, solve_semiclassics(p))
        diffusion = build_diffusion(p)
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        t0 = time.perf_counter()
        v_rk4, errors = relax(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        elapsed = time.perf_counter() - t0
        assert errors == [None]
        rel = np.linalg.norm(v_rk4[0] - v_direct) / np.linalg.norm(v_direct)
        assert rel <= 1e-6
        assert elapsed < 1.0

    def test_plain_flow_stalls_near_the_boundary_and_one_correction_converges(self):
        # at dt = 0.05 / spectral radius the plain update V <- Phi V Phi^T + Q
        # stalls at a roundoff floor above the tolerance; the point stalls
        # once, and its correction pass takes it below
        p = default_params(delta_m_over_wb=-0.974)
        drift = build_drift(p, solve_semiclassics(p))
        diffusion = build_diffusion(p)
        a, d = drift.a / p.omega_b, diffusion.d / p.omega_b
        h = 0.05 / np.max(np.abs(np.linalg.eigvals(a)))
        n = len(a)
        e = scipy.linalg.expm(np.block([[-a, d], [np.zeros((n, n)), a.T]]) * h)
        phi = e[n:, n:].T
        q = phi @ e[:n, n:]
        v = 0.5 * np.eye(n)
        residuals = []
        for _ in range(40):
            residuals.append(np.linalg.norm(lyapunov_rhs(a, d, v)))
            v = phi @ v @ phi.T + q
            phi, q = phi @ phi, q + phi @ q @ phi.T
        assert min(residuals) > 1e-12 * np.linalg.norm(d)
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        with mock.patch.object(scipy.linalg, "expm", wraps=scipy.linalg.expm) as expm:
            v_flow, errors = relax(
                drift.a[None], diffusion.d[None], np.array([p.omega_b]),
                dt=np.array([h / p.omega_b]),
            )
        assert errors == [None]
        assert expm.call_count == 2  # the flow of D, then the flow of the residual
        assert np.linalg.norm(v_flow[0] - v_direct) <= 1e-9 * np.linalg.norm(v_direct)

    def test_floor_reached_two_checks_before_the_horizon_is_corrected(self):
        # a derived-mode point of the acceptance map, margin 1.6e-5 omega_b:
        # its plain update reaches the floor at the check 2^25 - 1, still
        # falling but by less than ||Phi||_F^2 allows, and two checks before
        # its horizon, so the stall must be seen before the residual rises
        p = default_params(
            coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3,
            delta_c2_over_wb=-1.55, delta_m_over_wb=2.0,
        )
        report = evaluate_point(p, ("ab",), oracle=True)
        assert report.error is None
        assert report.oracle_deviation <= 1e-9

    def test_vacuum_fixture_from_far_start(self):
        a, d = single_cavity()
        v, errors = relax(a[None], d[None], max_abs(a[None]), v0=2.0 * np.eye(2)[None])
        assert errors == [None]
        assert np.max(np.abs(v[0] - 0.5 * np.eye(2))) <= 1e-10

    def test_fixed_point_is_left_alone(self):
        p, drift, diffusion = default_system()
        v_star = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        v, errors = relax(
            drift.a[None], diffusion.d[None], np.array([p.omega_b]), v0=v_star[None]
        )
        assert errors == [None]
        assert np.max(np.abs(v[0] - v_star)) <= 1e-12 * np.max(np.abs(v_star))

    def test_agrees_with_direct_solve(self):
        p, drift, diffusion = default_system()
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        v_rk4, errors = relax(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        assert errors == [None]
        rel = np.linalg.norm(v_direct - v_rk4[0]) / np.linalg.norm(v_direct)
        assert rel <= 1e-9

    def test_result_independent_of_step_size(self):
        # the flow is affine, so the RK4 fixed point is the Lyapunov solution
        # for every stable step size
        a, d = single_cavity(kappa=1.1, delta=0.9)
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        a2, d2 = np.array([a, a]), np.array([d, d])
        v, errors = relax(a2, d2, max_abs(a2), dt=np.array([0.01, 0.099]) / rho)
        assert errors == [None, None]
        np.testing.assert_allclose(v[1], v[0], rtol=1e-10, atol=1e-13)

    def test_oversized_step_rejected(self):
        a, d = single_cavity()
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        _, errors = relax(a[None], d[None], max_abs(a[None]), dt=np.array([0.2 / rho]))
        assert isinstance(errors[0], DomainError)
        assert "stability budget" in str(errors[0])

    def test_unstable_drift_rejected(self):
        _, errors = relax(np.eye(2)[None], np.eye(2)[None], np.ones(1))
        assert isinstance(errors[0], StabilityError)

    def test_tiny_horizon_gives_up(self):
        a, d = single_cavity()
        _, errors = relax(
            a[None], d[None], max_abs(a[None]), v0=5.0 * np.eye(2)[None], horizon=1e-3
        )
        assert isinstance(errors[0], ConvergenceError)


class TestFlowStack:
    def test_each_point_keeps_its_own_result_and_error(self):
        a1, d1 = single_cavity()
        a2, d2 = single_cavity(kappa=1.1, delta=0.9)
        unstable = np.array([[3.0, 1.0], [-1.0, 3.0]])
        rho = np.max(np.abs(np.linalg.eigvals(a1)))
        a = np.array([a1, unstable, a1, a2])
        v, errors = steadystate.integrate_to_steady_state_stack(
            a, np.array([d1, np.eye(2), d1, d2]), np.ones(4), stability_stack(a, np.ones(4))[0],
            dt=np.array([0.05, 0.05, 0.2, 0.05]) / rho,
        )
        assert errors[0] is None and errors[3] is None
        assert isinstance(errors[1], StabilityError)
        assert isinstance(errors[2], DomainError) and "stability budget" in str(errors[2])
        alone = relax(a1[None], d1[None], np.ones(1), dt=np.array([0.05 / rho]))[0]
        np.testing.assert_array_equal(v[0], alone[0])
        alone = relax(a2[None], d2[None], max_abs(a2[None]), dt=np.array([0.05 / rho]))[0]
        np.testing.assert_array_equal(v[3], alone[0])

    def test_a_point_past_its_horizon_fails_alone(self):
        a, d = single_cavity()
        eigs = stability_stack(np.array([a, a]), np.ones(2))[0]
        v, errors = steadystate.integrate_to_steady_state_stack(
            np.array([a, a]), np.array([d, d]), np.ones(2), eigs,
            np.array([0.5 * np.eye(2), 5.0 * np.eye(2)]), horizon=1e-3,
        )
        assert errors[0] is None
        assert isinstance(errors[1], ConvergenceError)
        assert "checked at 1" in str(errors[1])
        np.testing.assert_array_equal(v[0], 0.5 * np.eye(2))

    def test_a_lone_point_builds_no_kronecker_operator(self):
        # an n^2 x n^2 operator of the 10x10 system alone takes 80 kB
        p, drift, diffusion = default_system()
        scale = np.array([p.omega_b])
        eigs = stability_stack(drift.a[None], scale)[0]
        args = drift.a[None], diffusion.d[None], scale, eigs
        steadystate.integrate_to_steady_state_stack(*args)
        tracemalloc.start()
        try:
            steadystate.integrate_to_steady_state_stack(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 100 * 8


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_covariance_rejected(self, bad):
        # no margin, rather than a NaN or an eigensolver failure
        v = 0.5 * np.eye(4)
        v[0, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            physicality_margin(v)
