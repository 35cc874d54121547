"""Lyapunov solve, Kronecker-form cross-check, and covariance physicality."""

import inspect
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ommlab import (
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
from ommlab import harness, steadystate
from ommlab.dynamics import stability_stack
from ommlab.entanglement import nu_minus_stack
from ommlab.harness import BLOCK_SIZE, CHUNK_SIZE, Axis, SweepSpec, run_sweep
from ommlab.steadystate import solve_lyapunov_vech_stack
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
        with mock.patch.object(steadystate, "solve_lyapunov_vech_stack") as fallback:
            v = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        fallback.assert_not_called()
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
    def test_nearly_defective_drift_takes_the_kronecker_fallback(self, delta, seed):
        # scipy's Schur solve is the reference
        a, d = nearly_defective(delta, seed)
        with mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as fallback:
            v = solve_lyapunov(a, d, scale=1.0).v
        assert fallback.call_count == 1
        assert np.linalg.norm(a @ v + v @ a.T + d) <= 1e-10 * np.linalg.norm(d)
        v_ref = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))

    def test_fallback_taken_when_the_eigenbasis_misses_the_gate(self):
        a, d = single_cavity()
        with mock.patch.object(
            steadystate, "_eigenbasis_solve", return_value=np.eye(2)[None]
        ), mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as fallback:
            v = solve_lyapunov(a, d).v
        assert fallback.call_count == 1
        assert np.max(np.abs(v - 0.5 * np.eye(2))) <= 1e-12

    def test_fallback_missing_the_gate_raises(self):
        a, d = single_cavity()
        with mock.patch.object(
            steadystate, "_eigenbasis_solve", return_value=np.full((1, 2, 2), np.nan)
        ), mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", return_value=(np.eye(2)[None], [None])
        ):
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
            steadystate, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as fallback:
            v, errors, kronecker = self.solve([a, a], [d, d_bad])
        fallback.assert_not_called()
        assert not kronecker.any()
        assert errors[0] is None
        assert isinstance(errors[1], DomainError)
        assert str(errors[1]) == "diffusion must be symmetric"
        assert np.max(np.abs(v[0] - 0.5 * np.eye(2))) <= 1e-12

    def test_raw_asymmetry_sends_its_row_alone_to_the_fallback(self):
        # a raw V skewed by 1e-6 passes the residual gate once symmetrized,
        # but its asymmetry, 2e-6, is over 1e-9 of max(1, max |V|): that row
        # alone is solved in Kronecker form, with no error and no warning
        a, d = single_cavity()
        skew = np.array([[0.0, 1e-6], [-1e-6, 0.0]])
        raw = np.array([0.5 * np.eye(2) + skew, 0.5 * np.eye(2)])
        with mock.patch.object(steadystate, "_eigenbasis_solve", return_value=raw), \
                mock.patch.object(steadystate, "solve_lyapunov_vech_stack",
                                  wraps=solve_lyapunov_vech_stack) as fallback, \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            v, errors, kronecker = self.solve([a, a], [d, d])
        assert kronecker.tolist() == [True, False]
        assert fallback.call_count == 1
        assert len(fallback.call_args.args[0]) == 1
        assert errors == [None, None]
        np.testing.assert_array_equal(v, [0.5 * np.eye(2)] * 2)

    def test_raw_asymmetry_point_gets_no_oracle_deviation(self):
        # the default point with a skew of 1e-6 max |V| added to its raw V,
        # which leaves its symmetric part as it was: the oracle would rerun
        # the Kronecker-form solve the point took, so it is skipped
        eigenbasis_solve = steadystate._eigenbasis_solve

        def skewed(*args):
            raw = eigenbasis_solve(*args)
            skew = 1e-6 * np.abs(raw).max(axis=(-2, -1))
            raw[:, 0, 1] += skew
            raw[:, 1, 0] -= skew
            return raw

        with mock.patch.object(steadystate, "_eigenbasis_solve", side_effect=skewed), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_point(default_params(), oracle=True)
        plain = evaluate_point(default_params())
        assert report.error is None and report.oracle_deviation is None
        for pair, entry in report.entanglement.items():
            assert entry.e_n == pytest.approx(plain.entanglement[pair].e_n, rel=1e-9)

    def test_negative_variance_fails_its_row(self):
        a, d = single_cavity()
        v, errors, _ = self.solve([a, -np.eye(2)], [d, np.diag([1.0, -1.0])])
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
            steadystate, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as fallback:
            v, errors, kronecker = self.solve([a], [d])
        assert fallback.call_count == 1
        assert kronecker.tolist() == [True]
        assert errors == [None]
        np.testing.assert_array_equal(v[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(solve_lyapunov(a, d).v, np.zeros((2, 2)))


class TestUnitFreeStacks:
    """The stacks work in whatever unit their drifts and diffusions are in:
    two physical points, in rad/s divided by c, give eigenvalues that scale
    as 1 / c and the same V from both Lyapunov stacks, for every c."""

    @staticmethod
    def stacks(c):
        points = [default_params(), default_params(delta_a_over_wb=-0.3)]
        a = np.array([build_drift(p, solve_semiclassics(p)).a for p in points]) / c
        d = np.array([build_diffusion(p).d for p in points]) / c
        eigs, vecs, max_real = stability_stack(a)
        v, errors, _ = steadystate.solve_lyapunov_stack(a, d, eigs, vecs)
        v_oracle, oracle_errors = solve_lyapunov_vech_stack(a, d)
        return eigs * c, max_real * c, (v, errors), (v_oracle, oracle_errors)

    @pytest.mark.parametrize(
        "c", [1.0, default_params().omega_b, 1e9], ids=["1", "omega_b", "1e9"]
    )
    def test_same_results_in_any_unit(self, c):
        eigs, max_real, (v, errors), (v_oracle, oracle_errors) = self.stacks(c)
        want_eigs, want_max_real, (want_v, want_errors), (want_oracle, want_oracle_errors) = (
            self.stacks(default_params().omega_b)
        )
        assert np.abs(eigs - want_eigs).max() <= 1e-12 * np.abs(want_eigs).max()
        np.testing.assert_allclose(max_real, want_max_real, rtol=1e-12)
        assert errors == want_errors == [None, None]
        assert oracle_errors == want_oracle_errors == [None, None]
        for got, want in ((v, want_v), (v_oracle, want_oracle)):
            distance = np.linalg.norm(got - want, axis=(1, 2))
            assert (distance <= 1e-12 * np.linalg.norm(want, axis=(1, 2))).all()


def oracle(a, d, scale):
    """:func:`solve_lyapunov_vech_stack` on (N, n, n) stacks each divided by
    its ``scale`` (N,) first, as stage 1 divides by omega_b."""
    return solve_lyapunov_vech_stack(a / scale[:, None, None], d / scale[:, None, None])


def max_abs(a):
    """Each drift's largest |entry|, (N,): a lone array drift's natural scale."""
    return np.abs(a).max(axis=(-2, -1))


def kronecker_operator(a):
    """The operator of V -> A V + V A^T on symmetric V, column by column from
    its definition: column (p, q), p <= q, is vech(A E + E A^T) for the
    symmetric unit matrix E of (p, q)."""
    n = len(a)
    rows, cols = np.triu_indices(n)
    op = np.zeros((len(rows), len(rows)))
    for column, (p, q) in enumerate(zip(rows, cols)):
        e = np.zeros((n, n))
        e[p, q] = e[q, p] = 1.0
        op[:, column] = (a @ e + e @ a.T)[rows, cols]
    return op


def system(**overrides):
    """Drift, diffusion and omega_b of the model at ``overrides``, in rad/s."""
    p = default_params(**overrides)
    return build_drift(p, solve_semiclassics(p)).a, build_diffusion(p).d, p.omega_b


class TestKroneckerSolve:
    """The Kronecker-form oracle, :func:`solve_lyapunov_vech_stack`, on
    systems whose steady state is known, and the stability verdict of the
    oracle path, which is stage 1's."""

    def test_verdict_comes_from_one_stability_call(self):
        # stage 1's eigensolve, and none in the oracle, which reads no eigenpairs
        a, d = single_cavity()
        with mock.patch.object(
            np.linalg, "eig", wraps=np.linalg.eig
        ) as eig, mock.patch.object(
            np.linalg, "eigvals", wraps=np.linalg.eigvals
        ) as eigvals:
            max_real = stability_stack(a[None])[2]
            _, errors = solve_lyapunov_vech_stack(a[None], d[None])
        assert max_real[0] < 0.0 and errors == [None]
        assert eig.call_count == 1
        assert eigvals.call_count == 0

    def test_unstable_message_matches_the_direct_solve(self):
        # with the oracle on, an unstable point's margin is minus the max Re
        # eig, in rad/s, that solve_lyapunov's StabilityError gives
        a, d, omega_b = system(delta_m_over_wb=-1.0)
        with pytest.raises(StabilityError) as direct:
            solve_lyapunov(a, d, scale=omega_b)
        report = evaluate_point(default_params(delta_m_over_wb=-1.0), ("ab",), oracle=True)
        assert not report.stable and report.error is None
        assert f"(max Re eig = {-report.margin:.6e})" in str(direct.value)
        assert "max Re eig = 2.074467e+06" in str(direct.value)

    def test_unstable_drift_rejected(self):
        # by stage 1: the oracle is never called on the point
        with mock.patch.object(
            harness, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as oracle_stack:
            report = evaluate_point(default_params(delta_m_over_wb=-1.0), ("ab",), oracle=True)
        assert not report.stable and report.margin < 0.0
        assert report.oracle_deviation is None
        assert oracle_stack.call_count == 0

    def test_takes_only_the_drifts_and_diffusions(self):
        # no eigenpairs, tolerance or horizon: the stability verdict is stage 1's
        params = inspect.signature(solve_lyapunov_vech_stack).parameters
        assert list(params) == ["a", "d"]

    def test_loop_keeps_no_preallocated_buffers(self):
        source = inspect.getsource(solve_lyapunov_vech_stack)
        assert "empty_like" not in source and "out=" not in source

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_operator_matches_its_definition(self, n):
        # each entry is the sum of at most two entries of A, as the loop forms
        # it, so the two agree exactly; for n = 10 the two gathers reach 955
        # of the 3025 entries
        a = np.random.default_rng(n).normal(size=(n, n))
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            solve_lyapunov_vech_stack(a[None], np.eye(n)[None])
        op = solve.call_args.args[0]
        assert op.shape == (1, n * (n + 1) // 2, n * (n + 1) // 2)
        np.testing.assert_array_equal(op[0], kronecker_operator(a))
        if n == 10:
            assert np.count_nonzero(op[0]) == 955

    def test_near_the_stability_boundary_converges_fast(self):
        # margin 3.0e-4 omega_b and max |V| about 30, where the old relaxation
        # needed its correction pass
        a, d, omega_b = system(delta_m_over_wb=-0.974)
        v_direct = solve_lyapunov(a, d, scale=omega_b).v
        t0 = time.perf_counter()
        v, errors = oracle(a[None], d[None], np.array([omega_b]))
        elapsed = time.perf_counter() - t0
        assert errors == [None]
        rel = np.linalg.norm(v[0] - v_direct) / np.linalg.norm(v_direct)
        assert rel <= 1e-9
        assert elapsed < 1.0

    def test_thermal_fixture_from_far_start(self):
        # a cavity whose bath holds 1.5 quanta: its steady state is 2 I
        a, d = single_cavity(n=1.5)
        v, errors = oracle(a[None], d[None], max_abs(a[None]))
        assert errors == [None]
        assert np.max(np.abs(v[0] - 2.0 * np.eye(2))) <= 1e-12

    def test_two_mode_system_matches_the_schur_solve(self):
        a, d = two_mode()
        v, errors = solve_lyapunov_vech_stack(a[None], d[None])
        assert errors == [None]
        v_ref = scipy.linalg.solve_continuous_lyapunov(a, -d)
        assert np.linalg.norm(v[0] - v_ref) <= 1e-12 * np.linalg.norm(v_ref)
        np.testing.assert_array_equal(v[0], v[0].T)

    def test_fixed_point_is_left_alone(self):
        # every coupling off at T = 0: each mode's steady state is its vacuum
        a, d, omega_b = system(T=0.0, g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        v, errors = oracle(a[None], d[None], np.array([omega_b]))
        assert errors == [None]
        assert np.max(np.abs(v[0] - 0.5 * np.eye(10))) <= 1e-12

    def test_agrees_with_direct_solve(self):
        p, drift, diffusion = default_system()
        v_direct = solve_lyapunov(drift, diffusion, scale=p.omega_b).v
        v, errors = oracle(drift.a[None], diffusion.d[None], np.array([p.omega_b]))
        assert errors == [None]
        rel = np.linalg.norm(v_direct - v[0]) / np.linalg.norm(v_direct)
        assert rel <= 1e-12

    def test_result_independent_of_step_size(self):
        # the points handed over in stacks of 1 (each alone), 4 or 32 (all
        # nine in one): each point's LU is its own, so V and the errors are
        # the same bit for bit at every step, a singular point in a stack
        # included
        points = [system(delta_m_over_wb=x) for x in np.linspace(-0.97, 0.5, 9)]
        points[4] = (np.zeros((10, 10)), *points[4][1:])
        a, d, scale = (np.array(column) for column in zip(*points))
        a, d = a / scale[:, None, None], d / scale[:, None, None]
        results = []
        for step in (1, 4, 32):
            parts = [
                solve_lyapunov_vech_stack(a[k : k + step], d[k : k + step])
                for k in range(0, len(a), step)
            ]
            results.append((
                np.concatenate([v for v, _ in parts]), [e for _, errors in parts for e in errors]
            ))
        v, errors = results[0]
        assert [e is None for e in errors] == [k != 4 for k in range(9)]
        for other_v, other_errors in results[1:]:
            np.testing.assert_array_equal(other_v, v)
            assert [repr(e) for e in other_errors] == [repr(e) for e in errors]


class TestKroneckerStack:
    """Each point of the oracle's stack is solved, and fails, on its own."""

    def test_each_point_keeps_its_own_result_and_error(self):
        # a singular operator (eigenvalues +-i sum to zero) and a NaN drift
        # beside two cavities: the batched call raises, and the block is
        # solved point by point
        a1, d1 = single_cavity(n=2.0)
        a2, d2 = single_cavity(kappa=1.1, delta=0.9, n=1.5)
        undamped = np.array([[0.0, 1.0], [-1.0, 0.0]])
        a = np.array([a1, undamped, a2, np.full((2, 2), np.nan)])
        d = np.array([d1, np.eye(2), d2, np.eye(2)])
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            v, errors = solve_lyapunov_vech_stack(a, d)
        assert solve.call_count == 1 + len(a)
        assert errors[0] is None and errors[2] is None
        assert [type(errors[k]) for k in (1, 3)] == [NumericalError] * 2
        assert str(errors[1]) == str(errors[3]) == (
            "Kronecker-form Lyapunov solve failed: singular operator or non-finite solution"
        )
        assert np.isnan(v[1]).all() and np.isnan(v[3]).all()
        assert np.max(np.abs(v[0] - 2.5 * np.eye(2))) <= 1e-12
        for k in (0, 2):
            alone = solve_lyapunov_vech_stack(a[k:k + 1], d[k:k + 1])[0]
            np.testing.assert_array_equal(v[k], alone[0])

    @pytest.mark.parametrize("n", [2, 10])
    def test_empty_stacks(self, n):
        empty = np.zeros((0, n, n))
        eigs, vecs, max_real = stability_stack(empty)
        assert (eigs.shape, vecs.shape, max_real.shape) == ((0, n), (0, n, n), (0,))
        v, errors, kronecker = steadystate.solve_lyapunov_stack(empty, empty, eigs, vecs)
        assert v.shape == (0, n, n) and errors == [] and kronecker.shape == (0,)
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            v, errors = solve_lyapunov_vech_stack(empty, empty)
        assert v.shape == (0, n, n) and errors == []
        assert solve.call_count == 0
        nu, errors = nu_minus_stack(np.zeros((0, 4, 4)))
        assert nu.shape == (0,) and errors == []

    def test_mixed_stack_keeps_each_point_as_it_is_alone(self):
        # every kind of point, in one stack: ordinary points, one near the
        # stability boundary, one whose steady state is the vacuum, one with
        # 1e-100 of its noise, an unstable drift (the oracle gives no verdict:
        # its V solves the equation), and a singular and a NaN drift that
        # fail alone
        ordinary, other = system(), system(T=0.0, delta_m_over_wb=-0.5)
        near = system(delta_m_over_wb=-0.974)
        vacuum = system(T=0.0, g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        quiet = (ordinary[0], 1e-100 * ordinary[1], ordinary[2])
        unstable = (ordinary[0] + 0.1 * ordinary[2] * np.eye(10), *ordinary[1:])
        singular = (np.zeros((10, 10)), *ordinary[1:])
        nan = (np.full((10, 10), np.nan), *ordinary[1:])
        kinds = [unstable, ordinary, vacuum, near, singular, quiet, nan, other]
        points = kinds * 5  # 40 points, more than a stage-2 block
        a, d, scale = (np.array(column) for column in zip(*points))
        a, d = a / scale[:, None, None], d / scale[:, None, None]
        v, errors = solve_lyapunov_vech_stack(a, d)
        failed = [k for k, kind in enumerate(points) if kind is singular or kind is nan]
        assert [k for k, e in enumerate(errors) if e is not None] == failed
        for k in range(len(points)):
            alone, alone_errors = solve_lyapunov_vech_stack(a[k:k + 1], d[k:k + 1])
            np.testing.assert_array_equal(v[k], alone[0])
            assert repr(errors[k]) == repr(alone_errors[0])


    def test_a_lone_point_builds_no_kronecker_operator(self):
        # no n^2 x n^2 operator I (x) A + A (x) I, which for the 10x10 system
        # alone takes 80 kB: the operator on vech V is 55 x 55, 24 kB
        p, drift, diffusion = default_system()
        a, d = drift.a[None] / p.omega_b, diffusion.d[None] / p.omega_b
        solve_lyapunov_vech_stack(a, d)
        tracemalloc.start()
        try:
            solve_lyapunov_vech_stack(a, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 100 * 8


class TestKroneckerEdgeCases:
    """At each edge the Kronecker-form solve agrees with a second solve: the
    direct one at the physical edges, scipy's Schur solve where the direct
    solve falls back to the Kronecker form itself."""

    def assert_agrees(self, a, d, scale):
        v_direct = solve_lyapunov(a, d, scale=scale).v
        v, errors = oracle(a[None], d[None], np.array([scale]))
        assert errors == [None]
        assert np.linalg.norm(v[0] - v_direct) <= 1e-9 * np.linalg.norm(v_direct)

    @pytest.mark.parametrize("overrides", [{"T": 0.0}, {"g_n2_hz": 0.0}], ids=["T0", "g_n2_0"])
    def test_physical_edge(self, overrides):
        self.assert_agrees(*system(**overrides))

    @pytest.mark.parametrize("delta", [1e-5, 1e-9])
    def test_nearly_coalescing_eigenvectors(self, delta):
        # the direct solve falls back to the Kronecker form here, so scipy's
        # Bartels-Stewart solve is the reference
        a, d = nearly_defective(delta, seed=1)
        scale = float(np.abs(a).max())
        v, errors = oracle(a[None], d[None], np.array([scale]))
        assert errors == [None]
        v_ref = scipy.linalg.solve_continuous_lyapunov(a / scale, -d / scale)
        assert np.linalg.norm(v[0] - v_ref) <= 1e-9 * np.linalg.norm(v_ref)


class TestOracleWork:
    """Exact counts of the oracle's work, so its pass structure cannot grow
    unseen: one Kronecker-form stack per stage-2 block, and each point's
    operator gathered and solved once, BLOCK_SIZE points to a call."""

    def test_a_block_takes_one_oracle_stack_and_reads_each_point_once(self):
        # 144 points, every one stable and solved: chunks of 128 and 16,
        # whose points pass through the oracle a stage-2 block to a stack
        spec = SweepSpec(
            Axis("delta_a_over_wb", -2.0, 0.0, 12), Axis("delta_c1_over_wb", 0.0, 2.0, 12)
        )
        with mock.patch.object(
            harness, "solve_lyapunov_vech_stack", wraps=solve_lyapunov_vech_stack
        ) as oracle_stack, mock.patch.object(
            np.linalg, "solve", wraps=np.linalg.solve
        ) as solve:
            result = run_sweep(default_params(), spec, ("ab",), threads=1, oracle=True)
        assert all(r.oracle_deviation is not None for r in result.reports)
        blocks = [BLOCK_SIZE] * (CHUNK_SIZE // BLOCK_SIZE) + [16]
        assert [call.args[0].shape[0] for call in oracle_stack.call_args_list] == blocks
        assert [call.args[0].shape[0] for call in solve.call_args_list] == blocks


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
