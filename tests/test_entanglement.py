"""Two-mode reduction, symplectic eigenvalues, and logarithmic negativity."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ommlab import (
    DomainError,
    Mode,
    NumericalError,
    build_diffusion,
    build_drift,
    default_params,
    evaluate_point,
    harness,
    nu_minus_via_partial_transpose,
    parse_pair,
    physicality_margin,
    random_two_mode_covariance,
    solve_lyapunov,
    solve_semiclassics,
    transformation_efficiency,
)
from ommlab.entanglement import _e_n, nu_minus_stack


def two_mode_squeezed(r: float) -> np.ndarray:
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    return np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])


class TestPairLabels:
    @pytest.mark.parametrize(
        "label, modes",
        [
            ("ab", (Mode.ATOM, Mode.PHONON)),
            ("am", (Mode.ATOM, Mode.MAGNON)),
            ("c2b", (Mode.CAVITY2, Mode.PHONON)),
            ("c1c2", (Mode.CAVITY1, Mode.CAVITY2)),
            ("bm", (Mode.PHONON, Mode.MAGNON)),
            ("ma", (Mode.MAGNON, Mode.ATOM)),
        ],
    )
    def test_round_trip(self, label, modes):
        assert parse_pair(label) == modes

    @pytest.mark.parametrize("bad", ["", "a", "abm", "ax", "aa", "c2c2", 3, ["a", "b"]])
    def test_rejects_malformed_labels(self, bad):
        with pytest.raises(DomainError):
            parse_pair(bad)

    def test_mode_rows(self):
        assert Mode.ATOM.rows == (0, 1)
        assert Mode.CAVITY2.rows == (4, 5)
        assert Mode.MAGNON.rows == (8, 9)


def stage_two_blocks(v, pairs):
    """The 4x4 blocks of the covariance ``v`` that harness stage 2 hands to
    :func:`nu_minus_stack`, one per pair, with V standing in for its solve."""
    with mock.patch.object(
        harness, "solve_lyapunov_stack", return_value=(v[None], [None])
    ), mock.patch.object(harness, "nu_minus_stack", wraps=nu_minus_stack) as nu:
        # one point: only the length of the drift stack is read
        harness._steady_state(np.zeros((1, 10, 10)), None, None, None, None, pairs)
    return nu.call_args.args[0]


class TestTwoModeBlock:
    def test_picks_the_right_rows(self):
        v = np.zeros((10, 10))
        v[0, 0], v[8, 8] = 1.0, 2.0
        v[0, 8] = v[8, 0] = 3.0
        (block,) = stage_two_blocks(v, [(Mode.ATOM, Mode.MAGNON)])
        assert block[0, 0] == 1.0 and block[2, 2] == 2.0
        assert block[0, 2] == 3.0 and block[2, 0] == 3.0

    def test_swapped_modes_permute(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(10, 10))
        v = 0.5 * (v + v.T)
        ab, ba = stage_two_blocks(v, [(Mode.ATOM, Mode.PHONON), (Mode.PHONON, Mode.ATOM)])
        perm = [2, 3, 0, 1]
        np.testing.assert_array_equal(ba, ab[np.ix_(perm, perm)])

    def test_vacuum_reduces_to_vacuum(self):
        (block,) = stage_two_blocks(0.5 * np.eye(10), [(Mode.CAVITY1, Mode.MAGNON)])
        np.testing.assert_array_equal(block, 0.5 * np.eye(4))

    def test_returns_a_copy(self):
        v = 0.5 * np.eye(10)
        (block,) = stage_two_blocks(v, [(Mode.ATOM, Mode.PHONON)])
        block[0, 0] = 99.0
        assert v[0, 0] == 0.5


class TestLogNegativity:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_two_mode_squeezed_value(self, r):
        # E_N of a two-mode squeezed vacuum is exactly 2r
        nu, errors = nu_minus_stack(two_mode_squeezed(r)[None])
        assert errors == [None]
        assert _e_n(nu[0]) == pytest.approx(2 * r, abs=1e-9)

    def test_vacuum_is_exactly_zero(self):
        nu, errors = nu_minus_stack(0.5 * np.eye(4)[None])
        assert errors == [None]
        assert _e_n(nu[0]) == 0.0

    def test_separable_thermal_product_is_zero(self):
        nu, errors = nu_minus_stack(np.diag([1.5, 1.5, 0.7, 0.7])[None])
        assert errors == [None]
        assert _e_n(nu[0]) == 0.0

    def test_asymmetric_input_rejected(self):
        v = 0.5 * np.eye(4)
        v[0, 1] = 1e-3
        _, errors = nu_minus_stack(v[None])
        assert isinstance(errors[0], DomainError)

    def test_local_rotations_do_not_change_it(self):
        rng = np.random.default_rng(17)
        v = two_mode_squeezed(0.8)
        rotated = [v]
        for _ in range(16):
            phi1, phi2 = rng.uniform(0, 2 * math.pi, size=2)
            s = np.zeros((4, 4))
            for k, phi in ((0, phi1), (2, phi2)):
                c, sn = math.cos(phi), math.sin(phi)
                s[k : k + 2, k : k + 2] = [[c, sn], [-sn, c]]
            rotated.append(s @ v @ s.T)
        nu, errors = nu_minus_stack(np.array(rotated))
        assert errors == [None] * 17
        base, *others = (_e_n(x) for x in nu)
        assert others == pytest.approx([base] * 16, abs=1e-10)

    def test_symmetric_under_mode_swap(self):
        rng = np.random.default_rng(23)
        perm = [2, 3, 0, 1]
        v = np.array([random_two_mode_covariance(rng) for _ in range(25)])
        swapped = v[:, perm][:, :, perm]
        nu, errors = nu_minus_stack(np.concatenate([v, swapped]))
        assert errors == [None] * 50
        e_n = [_e_n(x) for x in nu]
        assert e_n[25:] == pytest.approx(e_n[:25], abs=1e-12)

    @given(eps=st.sampled_from([0.01, 0.03, 0.1, 0.3]), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_added_noise_never_helps(self, eps, seed):
        v = random_two_mode_covariance(np.random.default_rng(seed))
        nu, errors = nu_minus_stack(np.array([v + eps * np.eye(4), v]))
        assert errors == [None, None]
        assert _e_n(nu[0]) <= _e_n(nu[1]) + 1e-12


class TestSymplecticNuMinus:
    def test_vacuum_value(self):
        nu, errors = nu_minus_stack(0.5 * np.eye(4)[None])
        assert errors == [None]
        assert nu[0] == pytest.approx(0.5, rel=1e-14)

    def test_two_mode_squeezed_value(self):
        r = 0.5
        nu, errors = nu_minus_stack(two_mode_squeezed(r)[None])
        assert errors == [None]
        assert nu[0] == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)

    def test_closed_form_matches_partial_transpose_spectrum(self):
        rng = np.random.default_rng(20260825)
        v = np.array([random_two_mode_covariance(rng) for _ in range(200)])
        closed, errors = nu_minus_stack(v)
        assert errors == [None] * 200
        for v_k, closed_k in zip(v, closed):
            spectral = nu_minus_via_partial_transpose(v_k)
            assert abs(closed_k - spectral) <= 1e-10 * max(1.0, closed_k)

    @given(
        n=st.floats(min_value=0.5, max_value=5.0),
        squeezes=st.tuples(
            st.floats(min_value=-1.0, max_value=1.0),
            st.floats(min_value=-1.0, max_value=1.0),
        ),
        angles=st.tuples(
            st.floats(min_value=0.0, max_value=2 * math.pi),
            st.floats(min_value=0.0, max_value=2 * math.pi),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_degenerate_spectrum_keeps_full_precision(self, n, squeezes, angles):
        # two equal thermal modes under local squeezes and rotations: a
        # product state with nu_+ = nu_- = n, where the closed form's radicand
        # is pure roundoff
        s_local = np.zeros((4, 4))
        for k, (r, phi) in enumerate(zip(squeezes, angles)):
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, s], [-s, c]])
            s_local[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rot @ np.diag(
                [math.exp(r), math.exp(-r)]
            )
        v = s_local @ (n * np.eye(4)) @ s_local.T
        v = 0.5 * (v + v.T)
        nu, errors = nu_minus_stack(v[None])
        assert errors == [None]
        assert nu[0] == pytest.approx(n, rel=1e-12)

    def test_decoupled_point_matches_spectral_route(self):
        # all couplings off: every pair of optical, atomic and magnon modes is
        # vacuum x vacuum, the most degenerate spectrum the pipeline meets
        params = default_params(
            g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0
        )
        labels = [a.value + b.value for a, b in itertools.combinations(Mode, 2)]
        report = evaluate_point(params, labels)
        state = solve_semiclassics(params)
        cov = solve_lyapunov(
            build_drift(params, state), build_diffusion(params), scale=params.omega_b
        )
        for label, rep in report.entanglement.items():
            rows = rep.pair[0].rows + rep.pair[1].rows
            nu = nu_minus_via_partial_transpose(cov.v[np.ix_(rows, rows)])
            assert rep.e_n == pytest.approx(max(0.0, -math.log(2.0 * nu)), abs=1e-12)

    def test_unphysical_input_raises(self):
        # strong cross correlations with tiny local variances cannot come
        # from a covariance matrix; the radicand goes negative
        v = np.block(
            [[0.1 * np.eye(2), 5.0 * np.eye(2)], [5.0 * np.eye(2), 0.1 * np.eye(2)]]
        )
        _, errors = nu_minus_stack(v[None])
        assert isinstance(errors[0], NumericalError)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            nu_minus_via_partial_transpose(np.eye(6))


class TestNuMinusStack:
    """A failing block of a stack fails alone; its neighbours keep their nu_-."""

    GOOD = two_mode_squeezed(0.5)

    def assert_only_middle_block_fails(self, bad, error_type, match):
        nu, errors = nu_minus_stack(np.array([self.GOOD, bad, self.GOOD]))
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], error_type)
        assert match in str(errors[1])
        assert nu[0] == nu[2] == nu_minus_stack(self.GOOD[None])[0][0]

    def test_asymmetric_block(self):
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 0.1
        self.assert_only_middle_block_fails(bad, DomainError, "symmetric")

    def test_negative_radicand(self):
        # Sigma = 0 and det V = 1: the radicand Sigma^2 - 4 det V is -4
        bad = np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
             [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
        )
        self.assert_only_middle_block_fails(bad, NumericalError, "negative radicand")

    def test_failure_on_the_spectral_route(self):
        # vacuum x vacuum is degenerate, so only that block takes the route
        with mock.patch.object(
            np.linalg, "eigvals", side_effect=np.linalg.LinAlgError("no convergence")
        ):
            self.assert_only_middle_block_fails(
                0.5 * np.eye(4), NumericalError, "eigensolve failed: no convergence"
            )

    def test_vanishing_nu_minus(self):
        self.assert_only_middle_block_fails(
            np.zeros((4, 4)), NumericalError, "vanishing symplectic eigenvalue"
        )

    @pytest.mark.parametrize("shape", [(1, 6, 6), (1, 8, 8), (2, 2, 8), (4, 4), (1, 4, 4, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DomainError, match=r"\(N, 4, 4\) stack"):
            nu_minus_stack(np.full(shape, 0.5))


class TestRandomCovariances:
    def test_generated_states_are_physical(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = random_two_mode_covariance(rng)
            assert physicality_margin(v) >= -1e-10

    def test_deterministic_given_seed(self):
        a = random_two_mode_covariance(np.random.default_rng(42))
        b = random_two_mode_covariance(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestTransformationEfficiency:
    def test_plain_ratio(self):
        assert transformation_efficiency(0.5, 0.25) == pytest.approx(0.5)

    def test_zero_numerator(self):
        assert transformation_efficiency(0.5, 0.0) == 0.0

    def test_undefined_when_denominator_vanishes(self):
        assert transformation_efficiency(0.0, 0.3) is None

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            transformation_efficiency(-0.1, 0.3)
        with pytest.raises(DomainError):
            transformation_efficiency(0.1, -0.3)
