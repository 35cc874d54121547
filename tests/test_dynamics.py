"""Drift and diffusion assembly, and the stability classifier."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from ommlab import (
    DEFAULT_CONFIG,
    DomainError,
    NumericalError,
    build_diffusion,
    build_drift,
    default_params,
    solve_semiclassics,
    thermal_occupation,
)
from ommlab.dynamics import DIM, DriftMatrix, diffusion_stack, drift_stack, stability_stack
from ommlab.model import TWO_PI
from ommlab.semiclassics import solve_semiclassics_stack, state_at


def drift_at(**overrides) -> np.ndarray:
    p = default_params(**overrides)
    return build_drift(p, solve_semiclassics(p)).a


def reference_drift(params, delta_c2_eff, g_c, g_mb, backaction="y_quadrature"):
    """Element-by-element reference, written independently of the builder.

    Quadrature order (x_a, y_a, x_c1, y_c1, x_c2, y_c2, q, p, x_m, y_m),
    all coupling phases zero. ``backaction="x_quadrature"`` gives the layout
    printed for this model family, which no quadratic Hamiltonian generates.
    """
    a = np.zeros((10, 10))
    for i, kappa, delta in (
        (0, params.kappa_a, params.delta_a),
        (2, params.kappa_c1, params.delta_c1),
        (4, params.kappa_c2, delta_c2_eff),
        (8, params.kappa_m, params.delta_m),
    ):
        a[i, i] = a[i + 1, i + 1] = -kappa
        a[i, i + 1] = delta
        a[i + 1, i] = -delta
    a[6, 7] = params.omega_b
    a[7, 6] = -params.omega_b
    a[7, 7] = -params.gamma_b
    # beam splitters: x couples to the partner's y and vice versa
    a[0, 3] = a[2, 1] = params.g_n1
    a[1, 2] = a[3, 0] = -params.g_n1
    a[0, 5] = a[4, 1] = params.g_n2
    a[1, 4] = a[5, 0] = -params.g_n2
    # cavity drive column is common to both layouts at zero phase
    a[4, 6] = g_c
    if backaction == "y_quadrature":
        a[7, 5] = -g_c
    else:
        a[7, 4] = -g_c
    # magnon-phonon block at zero phase
    a[8, 6] = -g_mb
    a[7, 9] = g_mb
    return a


class TestDriftLayout:
    def test_default_point_matches_reference(self):
        p = default_params()
        got = drift_at()
        want = reference_drift(
            p,
            delta_c2_eff=-p.delta_c2,  # sign convention flips the quoted value
            g_c=p.g_c_eff,
            g_mb=p.g_mb_eff,
        )
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_printed_layout_differs_only_in_the_backaction_row(self):
        # docs/drift_conventions.md: the printed layout moves the backaction
        # from (p, y_c2) to (p, x_c2) and changes no other entry
        p = default_params()
        printed = reference_drift(
            p, delta_c2_eff=-p.delta_c2, g_c=p.g_c_eff, g_mb=p.g_mb_eff,
            backaction="x_quadrature",
        )
        got = drift_at()
        differ = np.abs(got - printed) > 1e-15 * np.abs(printed)
        assert {tuple(idx) for idx in np.argwhere(differ)} == {(7, 4), (7, 5)}

    def test_sparsity_pattern(self):
        # 31 structurally nonzero entries at zero coupling phase
        expected = {
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (8, 8), (9, 9),
            (0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (8, 9), (9, 8),
            (6, 7), (7, 6), (7, 7),
            (0, 3), (1, 2), (2, 1), (3, 0),
            (0, 5), (1, 4), (4, 1), (5, 0),
            (4, 6), (7, 5),
            (8, 6), (7, 9),
        }
        assert len(expected) == 31
        a = drift_at()
        got = {tuple(idx) for idx in np.argwhere(a != 0.0)}
        assert got == expected

    def test_named_coupling_entries(self):
        # row/column bookkeeping against the quoted operating point: the
        # drive coupling sits in the (x_c2, q) slot and the magnon backaction
        # in the (p, y_m) slot
        a = drift_at()
        assert a[4, 6] == pytest.approx(TWO_PI * 8e6, rel=1e-14)
        assert a[7, 9] == pytest.approx(TWO_PI * 2.5e6, rel=1e-14)
        assert a[7, 5] == pytest.approx(-TWO_PI * 8e6, rel=1e-14)
        assert a[8, 6] == pytest.approx(-TWO_PI * 2.5e6, rel=1e-14)

    def test_trace_is_total_damping(self):
        for overrides in ({}, DERIVED):  # real and complex couplings
            a = drift_at(**overrides)
            expected = -2.0 * TWO_PI * (1e6 + 2e6 + 2e6 + 1e6) - TWO_PI * 100.0
            assert np.trace(a) == pytest.approx(expected, rel=1e-14)

    def test_linearity_in_couplings(self):
        base = drift_at(g_n1_hz=0.0)
        one = drift_at(g_n1_hz=4e6)
        two = drift_at(g_n1_hz=8e6)
        np.testing.assert_allclose(two - base, 2.0 * (one - base), rtol=1e-14, atol=1e-6)

    def test_zero_couplings_block_diagonalize(self):
        a = drift_at(g_n1_hz=0.0, g_n2_hz=0.0, g_c_eff_hz=0.0, g_mb_eff_hz=0.0)
        mask = np.ones((10, 10), dtype=bool)
        for i in range(0, 10, 2):
            mask[i : i + 2, i : i + 2] = False
        assert np.all(a[mask] == 0.0)

    def test_phase_rotates_drive_column(self):
        # a working point whose cavity-2 coupling is complex, arg G = theta
        theta, g = 0.6, TWO_PI * 8e6
        p = default_params()
        state = dataclasses.replace(solve_semiclassics(p), g_c_eff=g * cmath.exp(1j * theta))
        a = build_drift(p, state).a
        assert a[4, 6] == pytest.approx(g * math.cos(theta), rel=1e-12)
        assert a[5, 6] == pytest.approx(g * math.sin(theta), rel=1e-12)
        assert a[7, 4] == pytest.approx(g * math.sin(theta), rel=1e-12)
        assert a[7, 5] == pytest.approx(-g * math.cos(theta), rel=1e-12)

    def test_wrapper_validates_shape(self):
        with pytest.raises(DomainError):
            DriftMatrix(a=np.zeros((4, 4)), omega_b=1.0)

    def test_matrix_is_read_only(self):
        a = drift_at()
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


#: Derived-mode points: the reference point, whose working point has three
#: branches, and a point with two, whose second is its working point.
DERIVED = {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3}
LATER_BRANCH = {
    "coupling_mode": "derived", "b_field_t": 3.3e-3, "g_c_hz": 960, "g_m_hz": 280,
    "p_laser_w": 4e-3, "delta_c2_over_wb": 0.28, "delta_m_over_wb": -2.3,
    "delta_a_over_wb": 1.0, "delta_c1_over_wb": 1.8,
}


class TestDriftStack:
    @staticmethod
    def mixed_stack():
        """Every branch of points that take each path through the builders:
        each branch's parameters, and their state column."""
        params_list, branches = [], []
        for overrides in (
            {}, DERIVED, LATER_BRANCH, {"T": 0.0}, {"g_c_eff_hz": 0.0},
        ):
            p = default_params(**overrides)
            states, offsets = solve_semiclassics_stack([p])
            assert offsets.tolist() == [0, len(states)]
            params_list += [p] * len(states)
            branches.append(states)
        return params_list, np.concatenate(branches)

    def test_stacks_equal_their_stacks_of_one(self):
        params_list, states = self.mixed_stack()
        assert len(states) == 8
        a, d = drift_stack(params_list, states), diffusion_stack(params_list)
        assert a.shape == d.shape == (8, DIM, DIM)
        for i, p in enumerate(params_list):
            assert a[i].tobytes() == drift_stack([p], states[i : i + 1])[0].tobytes()
            assert a[i].tobytes() == build_drift(p, state_at(states, i)).a.tobytes()
            assert d[i].tobytes() == diffusion_stack([p])[0].tobytes()
            assert d[i].tobytes() == build_diffusion(p).d.tobytes()

    def test_coupling_phase(self):
        # the cavity-2 drive column is |G| (cos, sin) of arg G
        p = default_params()
        base = solve_semiclassics(p)

        def drive_column(g_c_eff):
            a = build_drift(p, dataclasses.replace(base, g_c_eff=complex(g_c_eff))).a
            return a[4, 6], a[5, 6]

        for g_c_eff, phase in ((3.0, 0.0), (2.0j, math.pi / 2.0), (-1.0, math.pi)):
            want = (abs(g_c_eff) * math.cos(phase), abs(g_c_eff) * math.sin(phase))
            assert drive_column(g_c_eff) == pytest.approx(want, abs=1e-15)
        # a vanishing coupling has phase 0 whatever the signs of its zeros
        # (arg(-0 + 0j) is pi, and 0 cos(pi) would be -0)
        assert [math.copysign(1.0, x) for x in drive_column(complex(-0.0, 0.0))] == [1.0, 1.0]


class TestDiffusion:
    def test_zero_temperature_diagonal(self):
        p = default_params(T=0.0)
        d = build_diffusion(p)
        k = TWO_PI
        expected = np.diag(
            [k * 1e6, k * 1e6, k * 2e6, k * 2e6, k * 2e6, k * 2e6,
             0.0, k * 100.0, k * 1e6, k * 1e6]
        )
        np.testing.assert_array_equal(d.d, expected)

    def test_thermal_factors(self):
        p = default_params()  # 10 mK
        d = build_diffusion(p)
        n_b = thermal_occupation(p.omega_b, p.temperature)
        n_m = thermal_occupation(p.omega_m, p.temperature)
        assert d.d[7, 7] == pytest.approx(p.gamma_b * (2 * n_b + 1), rel=1e-12)
        assert d.d[8, 8] == pytest.approx(p.kappa_m * (2 * n_m + 1), rel=1e-12)
        assert d.d[8, 8] == d.d[9, 9]

    def test_position_row_carries_no_noise(self):
        for t in (0.0, 0.01, 10.0):
            assert build_diffusion(default_params(T=t)).d[6, 6] == 0.0

    def test_off_diagonal_is_zero(self):
        d = build_diffusion(default_params()).d
        assert np.all((d - np.diag(np.diagonal(d))) == 0.0)


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """det(lambda I - A) coefficients via the Faddeev-LeVerrier recursion.

    Eigenvalue-free on purpose: the stability cross-check below must not
    share machinery with np.linalg.eigvals.
    """
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def routh_hurwitz_stable(coeffs: np.ndarray) -> bool:
    """All roots strictly in the left half plane, by the Routh table."""
    n = len(coeffs) - 1
    rows = [coeffs[0::2].copy(), coeffs[1::2].copy()]
    if len(rows[1]) < len(rows[0]):
        rows[1] = np.append(rows[1], 0.0)
    first_column = [rows[0][0], rows[1][0]]
    for _ in range(n - 1):
        upper, lower = rows[-2], rows[-1]
        if lower[0] == 0.0:
            return False  # marginal/degenerate rows are not asymptotically stable
        new = np.zeros_like(lower)
        for j in range(len(lower) - 1):
            new[j] = (lower[0] * upper[j + 1] - upper[0] * lower[j + 1]) / lower[0]
        rows.append(new)
        first_column.append(new[0])
    return all(c > 0.0 for c in first_column)


class TestStability:
    def test_plain_contraction(self):
        _, _, max_real = stability_stack(-np.eye(3)[None], np.ones(1))
        assert max_real[0] < 0.0
        assert -max_real[0] == pytest.approx(1.0, rel=1e-12)

    def test_marginal_growth_detected(self):
        _, _, max_real = stability_stack(np.diag([1e-3, -1.0])[None], np.ones(1))
        assert not max_real[0] < 0.0
        assert max_real[0] == pytest.approx(1e-3, rel=1e-9)

    def test_eigenvalues_sorted_and_conjugate(self):
        p = default_params()
        eigs = stability_stack(drift_at()[None], np.array([p.omega_b]))[0][0]
        assert len(eigs) == DIM
        order = np.lexsort((eigs.imag, eigs.real))
        assert np.all(order == np.arange(DIM))
        # a real matrix has a conjugation-symmetric spectrum
        sorted_conj = np.sort_complex(np.conj(eigs))
        np.testing.assert_allclose(np.sort_complex(eigs), sorted_conj, rtol=1e-9)

    def test_eigenvectors_match_sorted_eigenvalues(self):
        p = default_params()
        a = drift_at()
        eigs, vecs, _ = stability_stack(a[None], np.array([p.omega_b]))
        assert vecs.shape == (1, DIM, DIM)
        # column k is the right eigenvector of eigenvalue k, in sorted order
        np.testing.assert_allclose(a @ vecs[0], vecs[0] * eigs[0], atol=1e-9 * p.omega_b)

    def test_default_point_margin(self):
        p = default_params()
        _, _, max_real = stability_stack(drift_at()[None], np.array([p.omega_b]))
        assert max_real[0] < 0.0
        assert -max_real[0] == pytest.approx(2623055.823813708, rel=1e-6)

    def test_known_unstable_point(self):
        p = default_params(delta_m_over_wb=-1.0)
        a = drift_at(delta_m_over_wb=-1.0)
        _, _, max_real = stability_stack(a[None], np.array([p.omega_b]))
        assert not max_real[0] < 0.0

    def test_agrees_with_routh_hurwitz(self):
        # 100 jittered operating points, the magnon detuning drawn wide so a
        # sizeable fraction is unstable; verdicts must agree point for point
        rng = np.random.default_rng(20260825)
        keys = [
            "kappa_a_hz", "kappa_c1_hz", "kappa_c2_hz", "kappa_m_hz", "gamma_b_hz",
            "g_n1_hz", "g_n2_hz", "g_c_eff_hz", "g_mb_eff_hz",
            "delta_a_over_wb", "delta_c1_over_wb", "delta_c2_over_wb", "T",
        ]
        wb = TWO_PI * 40e6
        draws = []
        for _ in range(100):
            factors = rng.uniform(0.4, 1.6, size=len(keys))
            overrides = {k: DEFAULT_CONFIG[k] * f for k, f in zip(keys, factors)}
            overrides["delta_m_over_wb"] = rng.uniform(-1.2, 1.2)
            draws.append(overrides)
        # each drift is scaled by its own largest |entry|, as a lone array is
        a = np.array([drift_at(**overrides) for overrides in draws])
        _, _, max_real = stability_stack(a, np.abs(a).max(axis=(1, 2)))
        n_unstable = 0
        for overrides, a_k, max_real_k in zip(draws, a, max_real):
            if abs(max_real_k) / wb < 1e-6:
                continue  # too close to the boundary for a binary cross-check
            stable = max_real_k < 0.0
            verdict = routh_hurwitz_stable(char_poly_coefficients(a_k / wb))
            assert verdict == stable, overrides
            n_unstable += 0 if stable else 1
        assert n_unstable >= 5  # the draw must actually exercise both branches

    def test_eigensolver_failure_wrapped(self):
        with pytest.raises((NumericalError, DomainError)):
            stability_stack(np.full((1, 3, 3), np.nan), np.ones(1))
