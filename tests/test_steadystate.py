"""Lyapunov solve, exact-flow relaxation cross-check, and covariance physicality."""

import inspect
import math
import re
import time
import tracemalloc
from functools import partial
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
)
from ommlab import steadystate
from ommlab.dynamics import stability_stack
from ommlab.entanglement import nu_minus_stack
from ommlab.harness import CHUNK_SIZE, Axis, SweepSpec, run_sweep
from ommlab.steadystate import integrate_to_steady_state_stack
from references import occupation


def single_cavity(kappa=2.0, delta=0.7, n=0.0):
    """A damped rotating mode whose bath holds ``n`` quanta: its steady state
    is (n + 1/2) I, the vacuum at n = 0."""
    a = np.array([[-kappa, delta], [-delta, -kappa]])
    d = kappa * (2.0 * n + 1.0) * np.eye(2)
    return a, d


def default_system():
    p = default_params()
    state = solve_semiclassics(p)
    return p, build_drift(p, state), build_diffusion(p)


def two_mode():
    """Two damped rotating modes exchanging excitations at rate 0.35, each
    with a bath of 2 quanta."""
    a = np.array([
        [-0.6, 1.3, 0.0, 0.35],
        [-1.3, -0.6, -0.35, 0.0],
        [0.0, 0.35, -0.9, 0.8],
        [-0.35, 0.0, -0.8, -0.9],
    ])
    d = np.diag([3.0, 3.0, 4.5, 4.5])
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
    ... steps."""
    steps = 0
    while np.linalg.norm(lyapunov_rhs(a, d, v)) > tol:
        v = rk4_steps(a, d, v, dt, steps + 1)
        steps = 2 * steps + 1
    return v


def single_cavity_flow(v0, t, kappa=2.0, delta=0.7, n=0.0):
    """V(t) of :func:`single_cavity` in closed form: e^(At) = e^(-kappa t) R(delta t)."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    rot = np.array([[c, s], [-s, c]])
    decay = math.exp(-2.0 * kappa * t)
    return decay * rot @ v0 @ rot.T + (n + 0.5) * (1.0 - decay) * np.eye(2)


def two_mode_flow(v0, t):
    """V(t) of :func:`two_mode` in closed form, V* + e^(At) (V0 - V*) e^(A^T t),
    with e^(At) from the eigendecomposition of A and V* from scipy."""
    a, d = two_mode()
    lam, s = np.linalg.eig(a)
    e = (s @ np.diag(np.exp(lam * t)) @ np.linalg.inv(s)).real
    v_star = scipy.linalg.solve_continuous_lyapunov(a, -d)
    return v_star + e @ (v0 - v_star) @ e.T


def stepped_flow(flow, a, d, v0, dt, tol):
    """The closed-form flow from ``v0`` read where the doubling integrator
    reads it: at step 0 if ||dV/dt||_F <= tol there, else at the first 2^k
    steps of ``dt`` where ||e^(A t)||_F^2 ||dV/dt (0)||_F <= tol."""
    r0 = np.linalg.norm(lyapunov_rhs(a, d, v0))
    if r0 <= tol:
        return v0
    steps = 1
    while np.linalg.norm(scipy.linalg.expm(a * steps * dt)) ** 2 * r0 > tol:
        steps *= 2
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
        eigs, vecs, _ = stability_stack(a)
        return steadystate.solve_lyapunov_stack(a, d, eigs, vecs)

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

    def test_zero_noise_with_an_ill_conditioned_basis_falls_back(self):
        # a Jordan block in a random basis: the eigenbasis solve marks its V
        # NaN, and with D = 0 only the absolute residual can send it on
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        a = q @ np.array([[-1.0, 1.0], [1e-18, -1.0]]) @ q.T
        d = np.zeros((2, 2))
        with mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v, errors = self.solve([a], [d])
        assert schur.call_count == 1
        assert errors == [None]
        np.testing.assert_array_equal(v[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(solve_lyapunov(a, d).v, np.zeros((2, 2)))


class TestUnitFreeStacks:
    """The stacks work in whatever unit their drifts and diffusions are in:
    two physical points, in rad/s divided by c, give eigenvalues that scale
    as 1 / c, the same V and the same flow errors for every c."""

    @staticmethod
    def stacks(c):
        points = [default_params(), default_params(delta_a_over_wb=-0.3)]
        a = np.array([build_drift(p, solve_semiclassics(p)).a for p in points]) / c
        d = np.array([build_diffusion(p).d for p in points]) / c
        eigs, vecs, max_real = stability_stack(a)
        v, errors = steadystate.solve_lyapunov_stack(a, d, eigs, vecs)
        v_flow, flow_errors = integrate_to_steady_state_stack(a, d, eigs)
        return eigs * c, max_real * c, (v, errors), (v_flow, flow_errors)

    @pytest.mark.parametrize(
        "c", [1.0, default_params().omega_b, 1e9], ids=["1", "omega_b", "1e9"]
    )
    def test_same_results_in_any_unit(self, c):
        eigs, max_real, (v, errors), (v_flow, flow_errors) = self.stacks(c)
        want_eigs, want_max_real, (want_v, want_errors), (want_flow, want_flow_errors) = (
            self.stacks(default_params().omega_b)
        )
        assert np.abs(eigs - want_eigs).max() <= 1e-12 * np.abs(want_eigs).max()
        np.testing.assert_allclose(max_real, want_max_real, rtol=1e-12)
        assert errors == want_errors == [None, None]
        assert flow_errors == want_flow_errors == [None, None]
        for got, want in ((v, want_v), (v_flow, want_flow)):
            distance = np.linalg.norm(got - want, axis=(1, 2))
            assert (distance <= 1e-12 * np.linalg.norm(want, axis=(1, 2))).all()


def relax(a, d, scale):
    """:func:`integrate_to_steady_state_stack`, with the eigenvalues
    :func:`stability_stack` finds, on (N, n, n) stacks each divided by its
    ``scale`` (N,) first, as stage 1 divides by omega_b."""
    a, d = a / scale[:, None, None], d / scale[:, None, None]
    return integrate_to_steady_state_stack(a, d, stability_stack(a)[0])


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
        # max Re eig is given in the stack's own units: here the drift's, as
        # solve_lyapunov gives it whatever scale it divides by
        a = np.array([[3.0, 1.0], [-1.0, 3.0]])
        with pytest.raises(StabilityError) as direct:
            solve_lyapunov(a, np.eye(2))
        _, errors = relax(a[None], np.eye(2)[None], np.ones(1))
        assert isinstance(errors[0], StabilityError)
        assert str(errors[0]) == str(direct.value)
        assert "max Re eig = 3.000000e+00" in str(errors[0])

    def test_takes_only_the_drifts_diffusions_and_eigenvalues(self):
        # start, step, tolerance and horizon are the module's, not the caller's
        params = inspect.signature(integrate_to_steady_state_stack).parameters
        assert list(params) == ["a", "d", "eigenvalues"]

    def test_loop_keeps_no_preallocated_buffers(self):
        source = inspect.getsource(integrate_to_steady_state_stack)
        assert "empty_like" not in source and "out=" not in source

    @pytest.mark.parametrize("system", [single_cavity, two_mode])
    @pytest.mark.parametrize("rtol", [0.3, 1e-12])
    def test_doubling_follows_plain_stepping(self, system, rtol, monkeypatch):
        # a loose rtol stops mid-transient, so the trajectory itself is
        # compared with the closed-form flow read at the same time; the
        # converged result is compared with plain RK4 stepping. The cavity's
        # bath holds 2 quanta, so that the flow from the vacuum moves.
        system, flow = {
            single_cavity: (partial(single_cavity, n=2.0), partial(single_cavity_flow, n=2.0)),
            two_mode: (two_mode, two_mode_flow),
        }[system]
        a, d = system()
        v0 = 0.5 * np.eye(len(a))
        dt = 0.07 / np.max(np.abs(np.linalg.eigvals(a)))
        tol = rtol * np.linalg.norm(d)
        monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", 0.07)
        monkeypatch.setattr(steadystate, "_FLOW_RTOL", rtol)
        v_doubled, errors = relax(a[None], d[None], np.ones(1))
        assert errors == [None]
        if rtol == 0.3:
            v_stepped = stepped_flow(flow, a, d, v0, dt, tol)
        else:
            v_stepped = stepped_rk4(a, d, v0, dt, tol)
        rel = np.linalg.norm(v_doubled[0] - v_stepped) / np.linalg.norm(v_stepped)
        assert rel <= 1e-10
        v_star = solve_lyapunov(a, d).v
        if rtol == 0.3:
            assert np.linalg.norm(v_stepped - v_star) > 1e-2 * np.linalg.norm(v_star)

    def test_convergence_error_gives_budget_and_final_residual(self, monkeypatch):
        a, d = single_cavity(n=2.0)
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        dt = 0.05 / rho
        budget = math.ceil(0.5 / 2.0 / dt)  # horizon over the decay rate kappa
        monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", 0.05)
        monkeypatch.setattr(steadystate, "_FLOW_HORIZON", 0.5)
        _, errors = relax(a[None], d[None], np.ones(1))
        assert isinstance(errors[0], ConvergenceError)
        found = re.search(
            r"\((\d+) steps, checked at (\d+); final residual (\S+)\)", str(errors[0])
        )
        assert found is not None, str(errors[0])
        assert int(found.group(1)) == budget == 11
        assert int(found.group(2)) == 16  # the first 2^K >= the budget
        v16 = single_cavity_flow(0.5 * np.eye(2), 16 * dt, n=2.0)
        expected = np.linalg.norm(lyapunov_rhs(a, d, v16))
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

    def test_plain_flow_stalls_near_the_boundary_and_one_correction_converges(
        self, monkeypatch
    ):
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
        monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", 0.05)
        with mock.patch.object(scipy.linalg, "expm", wraps=scipy.linalg.expm) as expm:
            v_flow, errors = relax(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        assert errors == [None]
        assert expm.call_count == 2  # the flow of D, then the flow of the residual
        assert np.linalg.norm(v_flow[0] - v_direct) <= 1e-9 * np.linalg.norm(v_direct)

    def test_floor_reached_two_checks_before_the_horizon_is_corrected(self, monkeypatch):
        # a derived-mode point of the acceptance map, margin 1.6e-5 omega_b:
        # at 0.05 / spectral radius its plain update reaches the floor at the
        # check 2^26, still falling but by less than ||Phi||_F^2 allows, and
        # the next check, 2^27 steps, is past its horizon of 1.3e8, so the
        # stall must be seen there (at the default step nothing stalls)
        p = default_params(
            coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3,
            delta_c2_over_wb=-1.55, delta_m_over_wb=2.0,
        )
        monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", 0.05)
        with mock.patch.object(steadystate, "_flow", wraps=steadystate._flow) as flow:
            report = evaluate_point(p, ("ab",), oracle=True)
        assert report.error is None
        assert flow.call_count == 2  # the flow of D, then the flow of the residual
        assert report.oracle_deviation <= 1e-9

    def test_thermal_fixture_from_far_start(self):
        # from the vacuum to 2 I, four times as far out
        a, d = single_cavity(n=1.5)
        v, errors = relax(a[None], d[None], max_abs(a[None]))
        assert errors == [None]
        assert np.max(np.abs(v[0] - 2.0 * np.eye(2))) <= 1e-10

    def test_fixed_point_is_left_alone(self):
        # every coupling off at T = 0: each mode's steady state is its vacuum,
        # the start, whose residual is exactly zero
        p = default_params(T=0.0, g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        drift, diffusion = build_drift(p, solve_semiclassics(p)), build_diffusion(p)
        with mock.patch.object(steadystate, "_flow", wraps=steadystate._flow) as flow:
            v, errors = relax(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        assert errors == [None]
        assert [call.args[0].shape[0] for call in flow.call_args_list] == [0]
        np.testing.assert_array_equal(v[0], 0.5 * np.eye(10))

    def test_agrees_with_direct_solve(self):
        p, drift, diffusion = default_system()
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        v_rk4, errors = relax(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        assert errors == [None]
        rel = np.linalg.norm(v_direct - v_rk4[0]) / np.linalg.norm(v_direct)
        assert rel <= 1e-9

    def test_result_independent_of_step_size(self, monkeypatch):
        # the flow is exact, so its fixed point is the Lyapunov solution for
        # every step size
        a, d = single_cavity(kappa=1.1, delta=0.9, n=1.5)
        v = []
        for fraction in (0.01, 0.099):
            monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", fraction)
            v_flow, errors = relax(a[None], d[None], max_abs(a[None]))
            assert errors == [None]
            v.append(v_flow[0])
        np.testing.assert_allclose(v[1], v[0], rtol=1e-10, atol=1e-13)

    def test_unstable_drift_rejected(self):
        _, errors = relax(np.eye(2)[None], np.eye(2)[None], np.ones(1))
        assert isinstance(errors[0], StabilityError)

    def test_tiny_horizon_gives_up(self, monkeypatch):
        a, d = single_cavity(n=2.0)
        monkeypatch.setattr(steadystate, "_FLOW_HORIZON", 1e-3)
        _, errors = relax(a[None], d[None], max_abs(a[None]))
        assert isinstance(errors[0], ConvergenceError)


class TestFlowStack:
    def test_each_point_keeps_its_own_result_and_error(self):
        a1, d1 = single_cavity(n=2.0)
        a2, d2 = single_cavity(kappa=1.1, delta=0.9, n=1.5)
        unstable = np.array([[3.0, 1.0], [-1.0, 3.0]])
        a = np.array([a1, unstable, a2])
        v, errors = steadystate.integrate_to_steady_state_stack(
            a, np.array([d1, np.eye(2), d2]), stability_stack(a)[0]
        )
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], StabilityError)
        alone = relax(a1[None], d1[None], np.ones(1))[0]
        np.testing.assert_array_equal(v[0], alone[0])
        alone = relax(a2[None], d2[None], np.ones(1))[0]
        np.testing.assert_array_equal(v[2], alone[0])

    def test_a_point_past_its_horizon_fails_alone(self, monkeypatch):
        # one drift, two baths: at the vacuum the first point starts at its
        # fixed point, R0 = 0, and the thermal one starts far from it
        a, d = single_cavity()
        d_thermal = single_cavity(n=2.0)[1]
        eigs = stability_stack(np.array([a, a]))[0]
        monkeypatch.setattr(steadystate, "_FLOW_HORIZON", 1e-3)
        v, errors = steadystate.integrate_to_steady_state_stack(
            np.array([a, a]), np.array([d, d_thermal]), eigs
        )
        assert errors[0] is None
        assert isinstance(errors[1], ConvergenceError)
        assert "checked at 1" in str(errors[1])
        np.testing.assert_array_equal(v[0], 0.5 * np.eye(2))

    def test_mixed_stack_keeps_each_point_as_it_is_alone(self, monkeypatch):
        # every kind of point in one stack: unstable, at its fixed point (read
        # at step 0), stalled at the plain form's floor (corrected), past its
        # horizon, and ordinary points; at 0.05 / spectral radius, a step at
        # which the plain update of the near-boundary point stalls above the
        # tolerance
        def system(**overrides):
            p = default_params(**overrides)
            return build_drift(p, solve_semiclassics(p)).a, build_diffusion(p).d, p.omega_b

        ordinary, other = system(), system(T=0.0, delta_m_over_wb=-0.5)
        stalls = system(delta_m_over_wb=-0.974)
        # every coupling off at T = 0: its steady state is the vacuum, the start
        vacuum = system(T=0.0, g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        # 1e-100 of the noise: a steady state too far from the vacuum, in units
        # of its tolerance, to relax within the horizon
        quiet = (ordinary[0], 1e-100 * ordinary[1], ordinary[2])
        unstable = (ordinary[0] + 0.1 * ordinary[2] * np.eye(10), *ordinary[1:])
        points = [unstable, ordinary, vacuum, stalls, quiet, other]
        a, d, scale = (np.array(column) for column in zip(*points))
        a, d = a / scale[:, None, None], d / scale[:, None, None]
        eigs = stability_stack(a)[0]
        monkeypatch.setattr(steadystate, "_FLOW_STEP_FRACTION", 0.05)
        with mock.patch.object(steadystate, "_flow", wraps=steadystate._flow) as flow:
            v, errors = integrate_to_steady_state_stack(a, d, eigs)
        # the flow of D over the four points that move, then of point 3's residual
        assert [call.args[0].shape[0] for call in flow.call_args_list] == [4, 1]
        assert [type(e) for e in errors] == [
            StabilityError, type(None), type(None), type(None), ConvergenceError, type(None),
        ]
        np.testing.assert_array_equal(v[2], 0.5 * np.eye(10))
        for k in range(len(points)):
            alone, alone_errors = integrate_to_steady_state_stack(
                *(x[k:k + 1] for x in (a, d, eigs))
            )
            np.testing.assert_array_equal(v[k], alone[0])
            assert repr(errors[k]) == repr(alone_errors[0])

    @pytest.mark.parametrize("n", [2, 10])
    def test_empty_stacks(self, n):
        empty = np.zeros((0, n, n))
        eigs, vecs, max_real = stability_stack(empty)
        assert (eigs.shape, vecs.shape, max_real.shape) == ((0, n), (0, n, n), (0,))
        v, errors = steadystate.solve_lyapunov_stack(empty, empty, eigs, vecs)
        assert v.shape == (0, n, n) and errors == []
        v, errors = integrate_to_steady_state_stack(empty, empty, eigs)
        assert v.shape == (0, n, n) and errors == []
        nu, errors = nu_minus_stack(np.zeros((0, 4, 4)))
        assert nu.shape == (0,) and errors == []

    def test_a_lone_point_builds_no_kronecker_operator(self):
        # an n^2 x n^2 operator of the 10x10 system alone takes 80 kB
        p, drift, diffusion = default_system()
        a, d = drift.a[None] / p.omega_b, diffusion.d[None] / p.omega_b
        args = a, d, stability_stack(a)[0]
        steadystate.integrate_to_steady_state_stack(*args)
        tracemalloc.start()
        try:
            steadystate.integrate_to_steady_state_stack(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 100 * 8


class TestFlowEdgeCases:
    """At each edge the first certified read passes, with no correction, and
    agrees with the direct solve."""

    def assert_certified(self, a, d, scale):
        v_direct = solve_lyapunov(a, d, scale=scale).v
        with mock.patch.object(steadystate, "_flow", wraps=steadystate._flow) as flow:
            v, errors = relax(a[None], d[None], np.array([scale]))
        assert errors == [None]
        assert flow.call_count == 1  # the flow of D, and no flow of a residual
        assert np.linalg.norm(v[0] - v_direct) <= 1e-9 * np.linalg.norm(v_direct)

    @pytest.mark.parametrize("overrides", [{"T": 0.0}, {"g_n2_hz": 0.0}], ids=["T0", "g_n2_0"])
    def test_physical_edge(self, overrides):
        p = default_params(**overrides)
        drift = build_drift(p, solve_semiclassics(p))
        self.assert_certified(drift.a, build_diffusion(p).d, p.omega_b)

    @pytest.mark.parametrize("delta", [1e-5, 1e-9])
    def test_nearly_coalescing_eigenvectors(self, delta):
        a, d = nearly_defective(delta, seed=1)
        self.assert_certified(a, d, float(np.abs(a).max()))


class TestFlowWork:
    """Exact counts of the flow's work, so the pass structure cannot grow
    unseen: one flow of D per stack, one residual per point at step 0 and one
    per read, one doubling per pass. The Lyapunov gate forms its residuals
    with the same helper, once per point before the flow."""

    def counted(self):
        return (
            mock.patch.object(steadystate, name, wraps=getattr(steadystate, name))
            for name in ("_flow", "_rhs", "_doubled")
        )

    def test_default_point_is_read_once_after_eleven_doublings(self):
        flow_patch, rhs_patch, doubled_patch = self.counted()
        with flow_patch as flow, rhs_patch as rhs, doubled_patch as doubled:
            report = evaluate_point(default_params(), ("ab",), oracle=True)
        assert report.oracle_deviation <= 1e-9
        assert flow.call_count == 1
        # the gate, step 0, then one read at 2^11 steps of 1 / spectral radius
        assert [call.args[1].shape[0] for call in rhs.call_args_list] == [1, 1, 1]
        assert doubled.call_count == 11

    def test_a_chunk_takes_one_flow_and_reads_each_point_once(self):
        # 144 points: chunks of 128 and 16, none of which stalls
        spec = SweepSpec(
            Axis("delta_a_over_wb", -2.0, 0.0, 12), Axis("delta_c1_over_wb", 0.0, 2.0, 12)
        )
        flow_patch, rhs_patch, _ = self.counted()
        with flow_patch as flow, rhs_patch as rhs:
            result = run_sweep(default_params(), spec, ("ab",), threads=1, oracle=True)
        assert all(r.oracle_deviation is not None for r in result.reports)
        assert [call.args[0].shape[0] for call in flow.call_args_list] == [CHUNK_SIZE, 16]
        # each chunk: every point's gate and step 0 in one call each, then one
        # read per point
        rows = [call.args[1].shape[0] for call in rhs.call_args_list]
        ends = np.cumsum(rows)
        second = int(np.searchsorted(ends, 3 * CHUNK_SIZE)) + 1
        assert rows[:2] == [CHUNK_SIZE] * 2 and ends[second - 1] == 3 * CHUNK_SIZE
        assert rows[second:second + 2] == [16] * 2 and ends[-1] == 3 * (CHUNK_SIZE + 16)


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
        n_b = occupation(p.omega_b, p.temperature)
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
