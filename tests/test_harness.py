"""Config loading, sweep execution, and CSV/PGM artifact formats."""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ommlab import (
    Axis,
    ConfigError,
    ConvergenceError,
    DEFAULT_PAIRS,
    DomainError,
    NumericalError,
    SweepSpec,
    VERSION,
    default_params,
    evaluate_point,
    load_config,
    run_sweep,
    write_csv,
    write_pgm,
)
from ommlab import build_diffusion, build_drift, solve_semiclassics, steadystate
from ommlab import DegenerateOperatingPointError, rabi_frequency, semiclassics
from ommlab.dynamics import drift_stack, stability_stack
from ommlab import harness
from ommlab.entanglement import nu_minus_stack, parse_pair
from ommlab.harness import CHUNK_SIZE, SWEEP_AXES
from ommlab.semiclassics import solve_semiclassics_stack, state_at

# Frozen outputs of the default operating point. These pin the full pipeline
# (semiclassics through log-negativity) against accidental drift; they are
# regression anchors, not externally derived truths.
DEFAULT_E_AB = 0.21298039805586402
DEFAULT_E_AM = 0.09206853625054841
DEFAULT_E_C2B = 0.05094526121623421
DEFAULT_EFFICIENCY = 0.4322864314790094
DEFAULT_MARGIN = 2623055.823813708


class TestAxis:
    def test_values_are_linspace(self):
        axis = Axis(name="T", start=0.001, stop=0.4, count=5)
        np.testing.assert_allclose(axis.values(), np.linspace(0.001, 0.4, 5))

    def test_unknown_name_lists_valid_axes(self):
        with pytest.raises(ConfigError, match="valid axes"):
            Axis(name="kappa_a", start=0.0, stop=1.0, count=3)

    @pytest.mark.parametrize("count", [1, 0, -2, 2.0, True])
    def test_bad_count(self, count):
        with pytest.raises(ConfigError):
            Axis(name="T", start=0.0, stop=1.0, count=count)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), "0", True])
    def test_bad_endpoint(self, start):
        with pytest.raises(ConfigError):
            Axis(name="T", start=start, stop=1.0, count=3)

    def test_duplicate_axes_rejected(self):
        axis = Axis(name="T", start=0.0, stop=1.0, count=3)
        with pytest.raises(ConfigError, match="different"):
            SweepSpec(axis1=axis, axis2=axis)

    def test_every_axis_setter_round_trips(self):
        params = default_params()
        for name, setter in SWEEP_AXES.items():
            updated = setter(params, 0.123)
            assert updated is not params
            # the setter must touch exactly one field
            changed = [
                f.name
                for f in dataclasses.fields(params)
                if getattr(updated, f.name) != getattr(params, f.name)
            ]
            assert len(changed) == 1, name


class TestLoadConfig:
    def test_none_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.params == default_params()
        assert cfg.sweep is None
        assert cfg.pairs == DEFAULT_PAIRS

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_full_config_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "delta_a_over_wb": -0.9,
                    "T": 0.02,
                    "pairs": ["am", "c2b"],
                    "sweep": {
                        "axis1": {
                            "name": "delta_a_over_wb",
                            "start": -2.0,
                            "stop": 0.0,
                            "count": 11,
                        },
                        "axis2": {
                            "name": "delta_c1_over_wb",
                            "start": 0.0,
                            "stop": 2.0,
                            "count": 5,
                        },
                    },
                }
            )
        )
        cfg = load_config(path)
        assert cfg.params.delta_a == pytest.approx(-0.9 * cfg.params.omega_b)
        assert cfg.params.temperature == 0.02
        assert cfg.pairs == ("am", "c2b")
        assert cfg.sweep.axis1.count == 11
        assert cfg.sweep.axis2.name == "delta_c1_over_wb"

    def test_model_keys_still_validated(self, tmp_path):
        path = tmp_path / "bad_key.json"
        path.write_text(json.dumps({"temperature": 0.01}))
        with pytest.raises(ConfigError, match="temperature"):
            load_config(path)

    @pytest.mark.parametrize(
        "sweep, message",
        [
            (["x"], "sweep must be an object"),
            ({"axis2": {"name": "T", "start": 0, "stop": 1, "count": 3}}, "axis1"),
            ({"axis1": {"name": "T", "start": 0, "stop": 1, "count": 3}, "step": 1}, "unknown keys"),
            ({"axis1": {"name": "T", "start": 0, "count": 3}}, "missing keys: stop"),
            ({"axis1": {"name": "T", "start": 0, "stop": 1, "count": 3, "log": True}}, "unknown keys"),
            ({"axis1": {"name": 7, "start": 0, "stop": 1, "count": 3}}, "name must be a string"),
            ({"axis1": [1]}, "must be an object"),
        ],
    )
    def test_malformed_sweep_blocks(self, tmp_path, sweep, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": sweep}))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "non-empty"),
            ("ab", "non-empty list"),
            ([3], "must be a string"),
            (["ab", "ab"], "duplicate"),
            (["ax"], "pair"),
        ],
    )
    def test_malformed_pairs(self, tmp_path, pairs, message):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ((), "non-empty"), (("ab", "ab"), "duplicate"), (("ax",), "pair"),
            ("ab", "non-empty list"),  # a string is not a list of labels
        ],
    )
    def test_evaluate_point_checks_pairs_as_a_config_does(self, pairs, message):
        with pytest.raises(ConfigError, match=message):
            evaluate_point(default_params(), pairs=pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "non-empty"), (["am", "am"], "duplicate"), (["ax"], "pair"),
            ("am", "non-empty list"),  # a string is not a list of labels
        ],
    )
    def test_run_sweep_checks_pairs_as_a_config_does(self, pairs, message):
        spec = SweepSpec(Axis("T", 0.01, 0.02, 2))
        with pytest.raises(ConfigError, match=message):
            run_sweep(default_params(), spec, pairs=pairs)

    def test_derived_mode_conflicts_with_coupling_axis(self, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(
            json.dumps(
                {
                    "coupling_mode": "derived",
                    "b_field_t": 1.1e-3,
                    "g_c_hz": 1.5e3,
                    "g_c_eff_hz": None,
                    "g_mb_eff_hz": None,
                    "sweep": {
                        "axis1": {
                            "name": "g_c_eff_hz",
                            "start": 1e6,
                            "stop": 1e7,
                            "count": 4,
                        }
                    },
                }
            )
        )
        with pytest.raises(ConfigError, match="derived"):
            load_config(path)


class TestDefaultPoint:
    """Regression anchors for the default operating point."""

    def test_is_stable_with_expected_margin(self, default_point):
        assert default_point.stable
        assert default_point.error is None
        assert default_point.margin == pytest.approx(DEFAULT_MARGIN, rel=1e-6)

    def test_entanglement_anchors(self, default_point):
        ent = default_point.entanglement
        assert ent["ab"].e_n == pytest.approx(DEFAULT_E_AB, rel=1e-6)
        assert ent["am"].e_n == pytest.approx(DEFAULT_E_AM, rel=1e-6)
        assert ent["c2b"].e_n == pytest.approx(DEFAULT_E_C2B, rel=1e-6)

    def test_efficiency_anchor(self, default_point):
        assert default_point.efficiency == pytest.approx(
            DEFAULT_EFFICIENCY, rel=1e-6
        )

    def test_nu_consistent_with_e_n(self, default_point):
        for rep in default_point.entanglement.values():
            assert rep.e_n == pytest.approx(
                max(0.0, -math.log(2.0 * rep.nu_minus)), abs=1e-15
            )

    def test_one_eigensolve_per_point(self):
        with mock.patch.object(
            np.linalg, "eig", wraps=np.linalg.eig
        ) as eig, mock.patch.object(
            np.linalg, "eigvals", wraps=np.linalg.eigvals
        ) as eigvals:
            report = evaluate_point(default_params())
        assert report.error is None
        assert eig.call_count == 1
        assert eigvals.call_count == 0

    def test_point_evaluation_leaves_scipy_out(self):
        # the Lyapunov solve imports scipy only on its rare fallback branch
        code = (
            "import sys, ommlab; "
            "report = ommlab.evaluate_point(ommlab.default_params()); "
            "assert report.error is None; "
            "spec = ommlab.SweepSpec(ommlab.Axis('delta_a_over_wb', -2.0, 0.0, 7), "
            "ommlab.Axis('delta_c1_over_wb', 0.0, 2.0, 5)); "
            "result = ommlab.run_sweep(ommlab.default_params(), spec, ('ab', 'am')); "
            "assert all(r.error is None for r in result.reports); "
            "print('scipy' in sys.modules)"
        )
        src = Path(harness.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"

    def test_oracle_deviation_is_tiny(self):
        report = evaluate_point(default_params(), pairs=("ab",), oracle=True)
        assert report.oracle_deviation is not None
        assert report.oracle_deviation < 1e-9

    def test_oracle_takes_its_verdict_from_stability(self):
        with mock.patch.object(
            np.linalg, "eig", wraps=np.linalg.eig
        ) as eig, mock.patch.object(
            np.linalg, "eigvals", wraps=np.linalg.eigvals
        ) as eigvals:
            report = evaluate_point(default_params(), pairs=("ab",), oracle=True)
        assert report.oracle_deviation is not None
        assert eig.call_count == 1  # the point's stack; the oracle reuses its eigenvalues
        assert eigvals.call_count == 0

    #: one chunk of the paper's detuning map, every point stable
    CHUNK_SPEC = SweepSpec(
        Axis("delta_a_over_wb", -1.5, -0.5, 16), Axis("delta_c1_over_wb", 0.5, 1.5, 8)
    )

    def test_oracle_deviation_is_the_same_alone_and_in_a_chunk(self):
        # from the point near the stability boundary, which freezes last and
        # after a correction pass, to points that freeze several checks earlier
        spec = SweepSpec(Axis("delta_m_over_wb", -0.974, 0.5, CHUNK_SIZE))
        result = run_sweep(default_params(), spec, ("ab",), oracle=True)
        for i in (0, 1, 40, CHUNK_SIZE - 1):
            point = SWEEP_AXES["delta_m_over_wb"](default_params(), float(result.values1[i]))
            alone = evaluate_point(point, ("ab",), oracle=True)
            assert alone.oracle_deviation is not None
            assert alone.oracle_deviation == result.report_at(i).oracle_deviation

    def test_a_chunk_makes_one_expm_call(self):
        import scipy.linalg

        base = default_params(delta_c2_over_wb=-0.8)
        with mock.patch.object(scipy.linalg, "expm", wraps=scipy.linalg.expm) as expm:
            result = run_sweep(base, self.CHUNK_SPEC, ("ab",), oracle=True)
        assert all(r.oracle_deviation is not None for r in result.reports)
        assert expm.call_count == 1
        assert expm.call_args.args[0].shape == (CHUNK_SIZE, 20, 20)

    def test_unstable_point_reports_margin_without_measures(self):
        params = SWEEP_AXES["delta_m_over_wb"](default_params(), -1.0)
        report = evaluate_point(params, pairs=("am",))
        assert not report.stable
        assert report.margin is not None and report.margin < 0
        assert report.error is None
        assert report.entanglement["am"].e_n is None
        assert report.efficiency is None


class TestPointFailures:
    """A stable point whose later stage fails keeps its stability verdict."""

    @staticmethod
    def assert_stable_without_measures(report, reference, error):
        assert report.stable and report.margin == reference.margin
        assert report.error == error
        assert all(rep.e_n is None for rep in report.entanglement.values())
        assert report.efficiency is None

    def test_failed_lyapunov_solve(self, default_point):
        message = "Schur-based Lyapunov solve failed: test"
        with mock.patch.object(
            steadystate, "_eigenbasis_solve",
            side_effect=lambda lam, vecs, d_s: np.full(d_s.shape, np.nan),
        ), mock.patch.object(
            steadystate, "_schur_solve", side_effect=NumericalError(message)
        ):
            report = evaluate_point(default_params())
        self.assert_stable_without_measures(report, default_point, message)

    def test_failed_nu_minus(self, default_point):
        message = "vanishing symplectic eigenvalue; state is singular"

        def second_block_fails(blocks):
            nu, errors = nu_minus_stack(blocks)
            errors[1] = NumericalError(message)
            return nu, errors

        with mock.patch.object(harness, "nu_minus_stack", second_block_fails):
            report = evaluate_point(default_params())
        self.assert_stable_without_measures(report, default_point, message)

    def test_oracle_convergence_error_keeps_the_measures(self, default_point):
        def flow_fails(a, d, scale, eigenvalues):
            return np.full_like(a, np.nan), [ConvergenceError("the flow did not converge")]

        with mock.patch.object(harness, "integrate_to_steady_state_stack", flow_fails):
            report = evaluate_point(default_params(), oracle=True)
        assert report.error == "oracle: the flow did not converge"
        assert report.oracle_deviation is None
        assert report.stable and report.margin == default_point.margin
        assert report.entanglement == default_point.entanglement
        assert report.efficiency == default_point.efficiency


class TestWorkingPointBranches:
    """A point takes its first dynamically stable branch, else its first."""

    DERIVED = {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3}
    # two branches: q about -6.48e4 with an unstable drift, then -1.27e4, stable
    LATER_BRANCH = {
        "coupling_mode": "derived", "b_field_t": 3.3e-3, "g_c_hz": 960, "g_m_hz": 280,
        "p_laser_w": 4e-3, "delta_c2_over_wb": 0.28, "delta_m_over_wb": -2.3,
        "delta_a_over_wb": 1.0, "delta_c1_over_wb": 1.8,
    }

    @staticmethod
    def branches(p):
        """The state column of one point's branches."""
        states, offsets = solve_semiclassics_stack([p])
        assert offsets.tolist() == [0, len(states)]
        return states

    @staticmethod
    def margins(p, branches):
        """Each branch's stability margin, from one drift stack and eig."""
        a = drift_stack([p] * len(branches), branches)
        return list(-stability_stack(a, np.full(len(branches), p.omega_b))[2])

    @staticmethod
    def reorder(monkeypatch, pick):
        """Hand stage 1 ``pick`` of each point's branches, a state column."""
        solve = harness.solve_semiclassics_stack

        def picked(params_list):
            states, offsets = solve(params_list)
            kept = [pick(states[start:end]) for start, end in zip(offsets[:-1], offsets[1:])]
            return np.concatenate(kept), np.cumsum([0] + [len(point) for point in kept])

        monkeypatch.setattr(harness, "solve_semiclassics_stack", picked)

    def test_reference_point_has_one_stable_branch_of_three(self):
        p = default_params(**self.DERIVED)
        branches = self.branches(p)
        verdicts = [margin > 0.0 for margin in self.margins(p, branches)]
        assert verdicts == [True, False, False]
        assert evaluate_point(p).state == state_at(branches, 0)

    def test_stable_branch_found_behind_unstable_ones(self, monkeypatch):
        # listed last, the stable branch is still the one reported, with the
        # same numbers as when it comes first, alone and in a chunk of two
        p = default_params(**self.DERIVED)
        expected = evaluate_point(p)
        self.reorder(monkeypatch, lambda branches: branches[::-1])
        assert evaluate_point(p) == expected
        assert run_sweep(p, SweepSpec(Axis("T", 0.01, 0.01, 2))).reports == [expected] * 2

    def test_no_stable_branch_reports_the_first(self, monkeypatch):
        p = default_params(**self.DERIVED)
        first = self.branches(p)[1:2]
        self.reorder(monkeypatch, lambda branches: branches[1:])
        report = evaluate_point(p)
        assert report.error is None and not report.stable
        assert report.state == state_at(first, 0)
        assert [report.margin] == self.margins(p, first)
        assert all(rep.e_n is None for rep in report.entanglement.values())


    def test_a_later_branch_is_the_working_point(self):
        p = default_params(**self.LATER_BRANCH)
        branches = self.branches(p)
        first, second = branches["q_avg"]
        assert first == pytest.approx(-6.48e4, rel=1e-3)
        assert second == pytest.approx(-1.27e4, rel=1e-2)
        margins = self.margins(p, branches)
        assert margins[0] == pytest.approx(-1.30e5, rel=1e-2)
        report = evaluate_point(p)
        assert report.error is None and report.stable
        assert report.state == state_at(branches, 1)
        assert report.margin == margins[1]
        assert report.margin == pytest.approx(4.05e5, rel=1e-2)
        assert all(rep.e_n is not None for rep in report.entanglement.values())

    # three branches: q about -3.70e3 and 2.00e3, both dynamically stable,
    # then -1.53e5, unstable
    TWO_STABLE = {
        "coupling_mode": "derived", "b_field_t": 2.3e-4, "g_c_hz": 3906, "g_m_hz": 211,
        "p_laser_w": 2e-4, "delta_c2_over_wb": -0.16, "delta_m_over_wb": 0.7,
        "delta_a_over_wb": 1.09, "delta_c1_over_wb": 0.62,
    }

    @pytest.mark.parametrize("order", [(2, 0, 1), (2, 1, 0)])
    def test_earliest_stable_later_branch_is_kept(self, monkeypatch, order):
        # behind an unstable first branch, the earlier of two stable branches
        # is the working point, alone and in a chunk whose other points try
        # later branches too
        p = default_params(**self.TWO_STABLE)
        branches = self.branches(p)
        margins = self.margins(p, branches)
        assert [margin > 0.0 for margin in margins] == [True, True, False]
        self.reorder(
            monkeypatch,
            lambda found: found[list(order)] if found.tobytes() == branches.tobytes() else found,
        )
        report = evaluate_point(p)
        assert report.stable and report.state == state_at(branches, order[1])
        assert report.margin == margins[order[1]]
        chunk = [default_params(), default_params(**self.LATER_BRANCH), p]
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        reports = harness._evaluate_chunk(chunk, parsed)
        assert reports == [evaluate_point(point) for point in chunk]
        assert reports[2] == report

    def test_stage_one_takes_at_most_two_eigensolves_per_chunk(self, monkeypatch):
        # one eig with vectors for the first branches of a chunk; every later
        # branch of a point whose first branch is unstable goes through one
        # batched eigvals as a screen, and only the tries that pass it through
        # a second eig, whose verdict and eigenpairs are the ones kept
        spec = SweepSpec(
            Axis("delta_c2_over_wb", -2.0, 0.0, 41), Axis("delta_m_over_wb", 0.0, 2.0, 41)
        )
        params = default_params(**self.DERIVED)
        points = [
            dataclasses.replace(params, delta_c2=x * params.omega_b, delta_m=y * params.omega_b)
            for x in np.linspace(-2.0, 0.0, 41) for y in np.linspace(0.0, 2.0, 41)
        ]
        states, offsets = solve_semiclassics_stack(points)
        a = drift_stack(points, states[offsets[:-1]])
        unstable = ~(stability_stack(a, np.full(len(points), params.omega_b))[2] < 0.0)
        tries = int(np.sum(np.diff(offsets)[unstable] - 1))
        assert tries == 734

        eig_rows, screened = [], []
        eig, eigvals = np.linalg.eig, np.linalg.eigvals

        def counted_eig(a):
            eig_rows.append(len(a))
            return eig(a)

        def counted_eigvals(a):
            if a.shape[-1] == 10:  # not a displacement polynomial's companion
                screened.append(len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        result = run_sweep(params, spec, ("ab", "am"))
        assert all(report.error is None for report in result.reports)
        # no try on this map passes: the first branches are all the eig sees
        assert sum(eig_rows) == 41 * 41
        assert len(eig_rows) == math.ceil(41 * 41 / CHUNK_SIZE)
        assert sum(screened) == tries and len(screened) <= len(eig_rows)

        # a point whose second branch is kept, and one whose two stable
        # branches are tried behind its unstable one: both pass the screen,
        # and the earlier of the second point's is kept
        later, two = default_params(**self.LATER_BRANCH), default_params(**self.TWO_STABLE)
        kept = [self.branches(later)[1:2], self.branches(two)[:1]]
        self.reorder(monkeypatch, lambda found: found[[2, 0, 1]] if len(found) == 3 else found)
        eig_rows.clear()
        screened.clear()
        scale, _, states, a, eigs, vecs, max_real = harness._working_points([later, two])
        assert eig_rows == [2, 3] and screened == [3]
        for k, (p, branch) in enumerate(zip([later, two], kept)):
            assert states[k : k + 1].tobytes() == branch.tobytes()
            drift = drift_stack([p], branch)
            np.testing.assert_array_equal(a[k], drift[0])
            found = stability_stack(drift, scale[k : k + 1])
            for got, want in zip((eigs, vecs, max_real), found):
                np.testing.assert_array_equal(got[k], want[0])
            assert max_real[k] < 0.0

    def test_later_branch_row_in_a_chunk_equals_its_lone_evaluation(self):
        points = _chunk_points()
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        reports = harness._evaluate_chunk(points, parsed)
        assert reports[3] == evaluate_point(points[3])
        assert reports[3].state.q_avg == pytest.approx(-1.27e4, rel=1e-2)
        assert [r.stable for r in reports] == [True, False, True, True]

    BAD = {**DERIVED, "b_field_t": 1.2e-3}

    #: the laser drive amplitude overflows to inf, and so does the
    #: displacement polynomial
    OVERFLOW = {**DERIVED, "p_laser_w": 1e300}

    def test_non_finite_polynomial_is_its_points_error(self):
        good = default_params(**self.DERIVED)
        bad = default_params(**self.OVERFLOW)
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalError, match="displacement polynomial"):
                solve_semiclassics_stack([good, bad])
            first, error = harness._evaluate_chunk([good, bad], parsed)
        assert first == evaluate_point(good)
        assert error.error.startswith("displacement polynomial root solve failed")
        assert error.state is None and error.margin is None and not error.stable

    def test_non_finite_polynomial_keeps_every_row_of_a_sweep(self):
        spec = SweepSpec(Axis("T", 0.01, 0.02, 2))
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = run_sweep(default_params(**self.OVERFLOW), spec, ("ab",))
        assert len(result.reports) == 2
        for report in result.reports:
            assert report.error.startswith("displacement polynomial root solve failed")

    @classmethod
    def fail_at_bad(cls, monkeypatch):
        """Make the working-point solve raise for any stack that holds the
        point ``BAD``, as a degenerate point would."""
        bad = default_params(**cls.BAD)
        bad_rabi = rabi_frequency(bad.b_field, bad.v_yig, bad.rho_spin)
        exact = semiclassics.magnon_average

        def magnon_average(rabi, *args):
            if np.any(rabi == bad_rabi):
                raise DegenerateOperatingPointError("magnon response denominator vanishes")
            return exact(rabi, *args)

        monkeypatch.setattr(semiclassics, "magnon_average", magnon_average)
        return bad

    def test_error_in_a_stack_stays_with_its_point(self, monkeypatch):
        # the stacked working-point solve raises for the chunk, whose halves
        # are then evaluated apart, down to the point that raises
        good = default_params(**self.DERIVED)
        alone = evaluate_point(good)
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        bad = self.fail_at_bad(monkeypatch)
        with pytest.raises(DegenerateOperatingPointError):
            solve_semiclassics_stack([good, bad, good])
        first, error, last = harness._evaluate_chunk([good, bad, good], parsed)
        assert error.error == "magnon response denominator vanishes"
        assert error.state is None and error.margin is None and not error.stable
        assert first == alone and last == alone

    def test_a_failing_chunk_is_bisected(self, monkeypatch):
        # one point of 16 raises: the chunk is halved down to it, which takes
        # 2 log2(16) + 1 = 9 stacked solves (one point at a time took 17),
        # and every row is the one the point gets alone
        points = [
            default_params(**{**self.DERIVED, "delta_m_over_wb": x})
            for x in np.linspace(0.5, 1.5, 15)
        ]
        points.insert(11, self.fail_at_bad(monkeypatch))
        parsed = [(label, parse_pair(label)) for label in ("ab", "am")]
        alone = [harness._evaluate_chunk([p], parsed)[0] for p in points]
        assert alone[11].error == "magnon response denominator vanishes"
        with mock.patch.object(harness, "_solve_chunk", wraps=harness._solve_chunk) as solve:
            assert harness._evaluate_chunk(points, parsed) == alone
        assert solve.call_count == 9


def _set_on_the_point(params, spec, result, i1, i2):
    """Grid point (i1, i2) set point by point: the axis-1 setter on the base,
    then the axis-2 setter on that row. Returns the point, or the message of
    the first setter that raises."""
    try:
        point = SWEEP_AXES[spec.axis1.name](params, float(result.values1[i1]))
        if spec.axis2 is not None:
            point = SWEEP_AXES[spec.axis2.name](point, float(result.values2[i2]))
    except DomainError as exc:
        return str(exc)
    return point


#: a derived sub-map whose T axis crosses 0: stable, unstable and error rows
MIXED_SPEC = SweepSpec(Axis("T", -0.02, 0.02, 5), Axis("delta_m_over_wb", -1.5, 1.5, 7))
MIXED_BASE = {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3}


def _reference_csv_rows(result):
    """The CSV body written report by report, one row at a time: the reference
    for the writer that formats columns."""

    def fmt(value):
        return "" if value is None else format(value, ".9g")

    n2 = 1 if result.values2 is None else len(result.values2)
    lines = []
    for index, report in enumerate(result.reports):
        i1, i2 = divmod(index, n2)
        row = [result.spec.axis1.name, fmt(float(result.values1[i1]))]
        if result.values2 is not None:
            row += [result.spec.axis2.name, fmt(float(result.values2[i2]))]
        row.append("true" if report.stable else "false")
        row += [fmt(report.entanglement[label].e_n) for label in result.pairs]
        row.append(fmt(report.efficiency))
        lines.append(",".join(row))
    return lines


class TestColumnarSweep:
    """Checking each axis value once, and writing from columns, give what
    setting each point and writing report by report give."""

    def test_each_error_is_the_per_point_setters_message(self):
        # T below 0 breaks axis 1, g_n1 below 0 axis 2; (0, 0) breaks both
        spec = SweepSpec(Axis("T", -0.01, 0.01, 3), Axis("g_n1_hz", -1e6, 1e6, 3))
        params = default_params()
        result = run_sweep(params, spec, ("ab",))
        for i1 in range(3):
            for i2 in range(3):
                expected = _set_on_the_point(params, spec, result, i1, i2)
                report = result.report_at(i1, i2)
                if isinstance(expected, str):
                    assert report.error == expected
                    assert report.margin is None and report.state is None
                else:
                    assert report == evaluate_point(expected, ("ab",))
        both = result.report_at(0, 0).error
        assert "temperature" in both and both == result.report_at(0, 2).error
        assert "g_n1" in result.report_at(1, 0).error

    @pytest.mark.parametrize("g_c_eff_axis", [1, 2])
    def test_derived_base_swept_along_g_c_eff_fails_every_row(self, g_c_eff_axis):
        # load_config rejects this sweep, run_sweep records it row by row
        axes = [Axis("delta_m_over_wb", -1.0, 1.0, 2), Axis("g_c_eff_hz", 1e6, 2e6, 2)]
        spec = SweepSpec(*(axes if g_c_eff_axis == 2 else axes[::-1]))
        params = default_params(**MIXED_BASE)
        result = run_sweep(params, spec, ("ab",))
        message = "derived coupling mode must not carry g_c_eff or g_mb_eff"
        assert len(result.reports) == 4
        for index, report in enumerate(result.reports):
            expected = _set_on_the_point(params, spec, result, *divmod(index, 2))
            assert report.error == expected and expected.startswith(message)

    def test_each_axis_value_is_set_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("delta_a_over_wb", "delta_c1_over_wb"):
            setter = SWEEP_AXES[name]
            monkeypatch.setitem(
                SWEEP_AXES, name,
                lambda p, v, name=name, setter=setter: calls.update([name]) or setter(p, v),
            )
        spec = SweepSpec(Axis("delta_a_over_wb", -2.0, 0.0, 9), Axis("delta_c1_over_wb", 0, 2, 7))
        result = run_sweep(default_params(), spec, ("ab",))
        assert len(result.reports) == 63
        assert calls == {"delta_a_over_wb": 9, "delta_c1_over_wb": 7}

    def test_e_n_column_is_math_log_value_by_value(self):
        # np.log differs from math.log in the last bit of some values, and a
        # sweep's E_N column must equal the lone point's formula bit for bit;
        # a vacuum nu of 1/2 gives +0.0 (np.maximum would keep -0.0)
        nu = np.random.default_rng(7).uniform(0.44, 0.51, size=(400, 3))
        nu[0] = [0.5, np.nan, 0.5]
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        e_n = harness._reports(parsed, [None] * 400, nu=nu).e_n
        expected = [[max(0.0, -math.log(2.0 * x)) for x in row] for row in nu[1:].tolist()]
        assert e_n[1:].tolist() == expected
        assert (np.maximum(0.0, -np.log(2.0 * nu[1:])) != expected).any()
        assert e_n[0, 0] == 0.0 and math.copysign(1.0, e_n[0, 2]) == 1.0
        assert math.isnan(e_n[0, 1])

    def test_no_state_is_built_until_a_report_is_read(self, monkeypatch):
        # stage 1 keeps every branch as columns: a derived map of two chunks,
        # some of whose points try later branches, builds no state object
        built = []
        init = semiclassics.SemiclassicalState.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(semiclassics.SemiclassicalState, "__init__", counted)
        spec = SweepSpec(Axis("delta_c2_over_wb", -2.0, 0.0, 12), Axis("delta_m_over_wb", 0, 2, 12))
        result = run_sweep(default_params(**TestWorkingPointBranches.DERIVED), spec, ("ab",))
        assert len(result.reports) == 144 > CHUNK_SIZE and not result.reports.stable.all()
        assert built == []
        state = result.report_at(5, 7).state
        assert len(built) == 1 and state.m_avg is not None and state.c2_mismatch is not None

    @pytest.mark.parametrize("b_field_t", [None, 1e-3])
    def test_state_column_round_trips_every_none(self, b_field_t):
        # a direct point has no amplitudes and no mismatch, and no Rabi
        # frequency without a b_field; an error row has no state. Each reads
        # back as None from the joined columns of two chunks and the failed
        # rows, at one thread and at two
        params = default_params(b_field_t=b_field_t)
        spec = SweepSpec(Axis("T", -0.01, 0.03, 5), Axis("delta_a_over_wb", -1.2, -0.8, 30))
        results = [run_sweep(params, spec, ("ab",), threads=n) for n in (1, 2)]
        assert results[0].reports == results[1].reports
        reports = results[0].reports
        assert len(reports) == 150
        for index, report in enumerate(reports):
            point = _set_on_the_point(params, spec, results[0], *divmod(index, 30))
            if isinstance(point, str):
                assert report.error == point and report.state is None
                continue
            state = report.state
            assert state == evaluate_point(point, ("ab",)).state
            assert state.m_avg is None and state.c2_avg is None and state.c2_mismatch is None
            assert (state.rabi is None) == (b_field_t is None)
        assert sum(report.state is None for report in reports) == 30

    @pytest.fixture(scope="class")
    def mixed(self):
        params = default_params(**MIXED_BASE)
        return params, run_sweep(params, MIXED_SPEC, ("ab", "am", "c2b"))

    def test_mixed_map_has_every_kind_of_row(self, mixed):
        _, result = mixed
        kinds = collections.Counter(
            "error" if r.error else "stable" if r.stable else "unstable" for r in result.reports
        )
        assert kinds == {"stable": 18, "unstable": 3, "error": 14}

    def test_every_report_equals_its_lone_evaluation(self, mixed):
        params, result = mixed
        for index, report in enumerate(result.reports):
            point = _set_on_the_point(params, MIXED_SPEC, result, *divmod(index, 7))
            if isinstance(point, str):
                assert report.error == point and not report.stable
                assert all(e.e_n is None for e in report.entanglement.values())
            else:
                assert report == evaluate_point(point, result.pairs)
        assert list(result.reports) == [result.report_at(*divmod(k, 7)) for k in range(35)]

    def test_csv_bytes_equal_the_row_by_row_writer(self, mixed, tmp_path):
        _, result = mixed
        path = tmp_path / "mixed.csv"
        write_csv(result, path, reproducible=True)
        lines = path.read_bytes().decode("ascii").split("\n")
        assert lines[-1] == "" and lines[4:-1] == _reference_csv_rows(result)

    def test_pgm_bytes_equal_the_report_by_report_heatmap(self, mixed, tmp_path):
        _, result = mixed
        values = np.array(
            [r.entanglement["am"].e_n if r.stable else None for r in result.reports], dtype=float
        ).reshape(5, 7).T
        known = ~np.isnan(values)
        pixels = np.zeros((7, 5), dtype=np.uint8)
        lo, hi = values[known].min(), values[known].max()
        pixels[known] = np.rint(255.0 * (values[known] - lo) / (hi - lo))
        write_pgm(result, "am", tmp_path / "mixed.pgm")
        assert (tmp_path / "mixed.pgm").read_bytes() == b"P5\n5 7\n255\n" + pixels.tobytes()


class TestRunSweep:
    def test_report_at_rejects_indices_outside_the_grid(self):
        # point k of the grid is the error row "k", so a report names its index
        def result(values2):
            n2 = 1 if values2 is None else len(values2)
            rows = harness._reports([("ab", parse_pair("ab"))], [str(k) for k in range(3 * n2)])
            return harness.SweepResult(
                params=default_params(), spec=None, pairs=("ab",),
                values1=np.arange(3.0), values2=values2, reports=rows,
            )

        def at(grid, *index):
            return int(grid.report_at(*index).error)

        grid = result(np.arange(2.0))
        assert [at(grid, i1, i2) for i1 in range(3) for i2 in range(2)] == list(range(6))
        for i1, i2 in ((0, 2), (-1, 0), (3, 0), (0, -1)):
            with pytest.raises(IndexError, match="3x2 grid"):
                grid.report_at(i1, i2)
        line = result(None)
        assert [at(line, i1) for i1 in range(3)] == [0, 1, 2]
        for i1, i2 in ((0, 1), (3, 0), (-1, 0)):
            with pytest.raises(IndexError, match="3x1 grid"):
                line.report_at(i1, i2)

    def test_row_major_matches_direct_evaluation(self):
        params = default_params()
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-1.2, stop=-0.8, count=2),
            axis2=Axis(name="delta_c1_over_wb", start=0.5, stop=1.5, count=3),
        )
        result = run_sweep(params, spec, pairs=("ab",), threads=1)
        assert len(result.reports) == 6
        for i1, v1 in enumerate(result.values1):
            for i2, v2 in enumerate(result.values2):
                point = SWEEP_AXES["delta_a_over_wb"](params, float(v1))
                point = SWEEP_AXES["delta_c1_over_wb"](point, float(v2))
                direct = evaluate_point(point, pairs=("ab",))
                got = result.report_at(i1, i2)
                assert got.stable == direct.stable
                assert got.entanglement["ab"].e_n == pytest.approx(
                    direct.entanglement["ab"].e_n, rel=1e-12
                )

    @pytest.mark.parametrize(
        "overrides, axes",
        [
            ({}, ("delta_a_over_wb", -2.0, 0.0, "delta_c1_over_wb", 0.0, 2.0)),
            (
                {"coupling_mode": "derived", "b_field_t": 1.1e-3, "g_c_hz": 1.5e3},
                ("delta_c2_over_wb", -2.0, 0.0, "delta_m_over_wb", 0.0, 2.0),
            ),
        ],
        ids=["direct", "derived"],
    )
    def test_rows_equal_single_point_evaluation_bit_for_bit(self, overrides, axes):
        # 17 x 17 = 289 points: two full chunks and a partial third one
        name1, start1, stop1, name2, start2, stop2 = axes
        params = default_params(**overrides)
        spec = SweepSpec(
            axis1=Axis(name=name1, start=start1, stop=stop1, count=17),
            axis2=Axis(name=name2, start=start2, stop=stop2, count=17),
        )
        assert len(range(0, 17 * 17, CHUNK_SIZE)) >= 3 and 17 * 17 % CHUNK_SIZE
        result = run_sweep(params, spec, pairs=("ab", "am"), threads=1)

        def point_at(index):
            i1, i2 = divmod(index, 17)
            return SWEEP_AXES[name2](
                SWEEP_AXES[name1](params, float(result.values1[i1])),
                float(result.values2[i2]),
            )

        kinds = []
        for index, got in enumerate(result.reports):
            direct = evaluate_point(point_at(index), pairs=("ab", "am"))
            assert got.stable == direct.stable
            assert got.margin == direct.margin
            assert got.error == direct.error
            assert got.efficiency == direct.efficiency
            for label in ("ab", "am"):
                assert got.entanglement[label] == direct.entanglement[label]
            kinds.append(
                "error" if got.error else "stable" if got.stable else "unstable"
            )
        if overrides:
            chunks = [
                set(kinds[start : start + CHUNK_SIZE])
                for start in range(0, len(kinds), CHUNK_SIZE)
            ]
            # no derived point fails; the unstable ones tried their later
            # branches inside the chunk, as evaluate_point does alone
            assert {"stable", "unstable"} in chunks
            assert "error" not in kinds
            assert any(
                solve_semiclassics_stack([point_at(index)])[1][1] > 1
                for index, kind in enumerate(kinds) if kind == "unstable"
            )

    def test_no_eigensolve_sees_more_than_a_chunk(self):
        params = default_params(delta_c2_over_wb=-0.8, T=0.01)
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-2.0, stop=0.0, count=51),
            axis2=Axis(name="delta_c1_over_wb", start=0.0, stop=2.0, count=51),
        )
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
            result = run_sweep(params, spec, pairs=("ab", "am"))
        sizes = [len(call.args[0]) for call in eig.call_args_list]
        assert max(sizes) <= CHUNK_SIZE
        assert sum(sizes) == len(result.reports) == 51 * 51

    def test_chunked_thread_pool_does_not_change_bytes(self, tmp_path):
        # 23 x 17 = 391 points: three full chunks and a partial fourth one
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-2.0, stop=0.0, count=23),
            axis2=Axis(name="delta_c1_over_wb", start=0.0, stop=2.0, count=17),
        )
        assert 23 * 17 > 3 * CHUNK_SIZE and 23 * 17 % CHUNK_SIZE
        blobs = []
        for threads in (1, 3):
            result = run_sweep(default_params(), spec, ("ab", "am"), threads=threads)
            path = tmp_path / f"t{threads}.csv"
            write_csv(result, path, reproducible=True)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_axis1_value_that_breaks_validation_fails_its_whole_row(self):
        spec = SweepSpec(
            axis1=Axis(name="T", start=-0.01, stop=0.01, count=3),
            axis2=Axis(name="delta_a_over_wb", start=-1.2, stop=-0.8, count=2),
        )
        result = run_sweep(default_params(), spec, pairs=("am",), threads=1)
        try:
            SWEEP_AXES["T"](default_params(), -0.01)
        except DomainError as exc:
            message = str(exc)
        for i2 in range(2):
            assert result.report_at(0, i2).error == message
            assert not result.report_at(0, i2).stable
            assert result.report_at(2, i2).stable

    def test_axis2_value_that_breaks_validation_fails_its_point_only(self):
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-1.2, stop=-0.8, count=2),
            axis2=Axis(name="T", start=-0.01, stop=0.01, count=3),
        )
        result = run_sweep(default_params(), spec, pairs=("am",), threads=1)
        for i1, v1 in enumerate(result.values1):
            row = SWEEP_AXES["delta_a_over_wb"](default_params(), float(v1))
            with pytest.raises(DomainError) as exc:
                SWEEP_AXES["T"](row, -0.01)
            failed = result.report_at(i1, 0)
            assert failed.error == str(exc.value)
            assert not failed.stable and failed.margin is None
            for i2 in (1, 2):
                assert result.report_at(i1, i2).error is None
                assert result.report_at(i1, i2).stable

    def test_axis_value_that_breaks_validation_becomes_error_row(self):
        spec = SweepSpec(axis1=Axis(name="T", start=-0.01, stop=0.01, count=3))
        result = run_sweep(default_params(), spec, pairs=("am",), threads=1)
        first = result.report_at(0)
        assert not first.stable
        assert first.error is not None and "temperature" in first.error
        assert result.report_at(2).stable

    def test_temperature_sweep_kills_entanglement_monotonically(self):
        spec = SweepSpec(axis1=Axis(name="T", start=0.001, stop=0.4, count=13))
        result = run_sweep(default_params(), spec, pairs=("am",), threads=1)
        values = [r.entanglement["am"].e_n for r in result.reports]
        assert all(v is not None for v in values)
        assert values[0] > 0.05
        assert values[-1] == 0.0
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        params = default_params()
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-1.5, stop=-0.5, count=3),
            axis2=Axis(name="T", start=0.001, stop=0.3, count=3),
        )
        paths = []
        for threads in (1, 3):
            result = run_sweep(params, spec, threads=threads)
            path = tmp_path / f"t{threads}.csv"
            write_csv(result, path, reproducible=True)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_default_runs_no_pool(self):
        spec = SweepSpec(axis1=Axis(name="T", start=0.001, stop=0.01, count=2))
        with mock.patch.object(harness, "ThreadPoolExecutor") as pool:
            result = run_sweep(default_params(), spec, pairs=("ab",))
        pool.assert_not_called()
        assert len(result.reports) == 2

    def test_an_error_outside_the_package_propagates(self):
        # only an OmmlabError becomes an error row; anything else is a bug
        spec = SweepSpec(Axis("T", 0.01, 0.02, 2))
        with mock.patch.object(
            harness, "diffusion_stack", side_effect=ZeroDivisionError("float division by zero")
        ), pytest.raises(ZeroDivisionError):
            run_sweep(default_params(), spec)

    def test_zero_threads_rejected(self):
        spec = SweepSpec(axis1=Axis(name="T", start=0.001, stop=0.01, count=2))
        with pytest.raises(DomainError):
            run_sweep(default_params(), spec, threads=0)

    def test_threads_must_be_an_integer(self):
        spec = SweepSpec(axis1=Axis(name="T", start=0.001, stop=0.01, count=2))
        for threads in ("2", 2.5, None):
            with pytest.raises(DomainError, match="threads must be an integer"):
                run_sweep(default_params(), spec, threads=threads)
        # any integer type will do
        assert len(run_sweep(default_params(), spec, threads=np.int64(2)).reports) == 2

    def test_fine_grids_agree_on_the_best_operating_point(self):
        # the location of the strongest atom-magnon entanglement should not
        # depend on grid resolution once the grid contains it
        params = default_params()
        best = []
        for count in (11, 21):
            spec = SweepSpec(
                axis1=Axis(name="delta_a_over_wb", start=-2.0, stop=0.0, count=count),
                axis2=Axis(name="delta_c1_over_wb", start=0.0, stop=2.0, count=count),
            )
            result = run_sweep(params, spec, pairs=("am",), threads=1)
            n2 = len(result.values2)
            scores = [
                (r.entanglement["am"].e_n or 0.0) if r.stable else 0.0
                for r in result.reports
            ]
            flat = int(np.argmax(scores))
            i1, i2 = divmod(flat, n2)
            best.append((float(result.values1[i1]), float(result.values2[i2])))
        assert best[0] == pytest.approx(best[1], abs=1e-12)


def _physical_point(d_factor=1.0, **overrides):
    p = default_params(**overrides)
    drift = build_drift(p, solve_semiclassics(p))
    return drift.a, d_factor * build_diffusion(p).d, p.omega_b


def _nearly_defective_point(delta=1e-9, seed=3):
    """A stable 10x10 drift whose first two eigenvectors nearly coincide.

    The block [[-0.5, 1], [0, -0.5 + delta]] sits beside four damped
    rotations, hidden by a random orthogonal similarity; the noise is
    positive definite, so the steady state is a positive definite V.
    """
    rng = np.random.default_rng(seed)
    b = np.zeros((10, 10))
    b[0:2, 0:2] = [[-0.5, 1.0], [0.0, -0.5 + delta]]
    for i, (k, w) in zip(range(2, 10, 2), ((0.3, 1.0), (0.5, 2.0), (0.2, 0.7), (0.4, 1.5))):
        b[i : i + 2, i : i + 2] = [[-k, w], [-w, -k]]
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    g = rng.normal(size=(10, 10))
    return q @ b @ q.T, g @ g.T + np.eye(10), 1.0


def _chunk_points():
    """A mixed chunk: the default point, an unstable one, and two derived
    points, the second of which keeps its second branch."""
    return [
        default_params(),
        default_params(delta_m_over_wb=-1.0),
        default_params(**TestWorkingPointBranches.DERIVED),
        default_params(**TestWorkingPointBranches.LATER_BRANCH),
    ]


class TestStackedCore:
    """Each point of a mixed chunk comes out as it does alone: through the
    chunk engine, and through its steady-state stage on a stack of stable
    points."""

    PAIRS = [parse_pair(label) for label in ("ab", "am", "c2b")]
    PARSED = list(zip(("ab", "am", "c2b"), PAIRS))

    @classmethod
    def steady_state(cls, a, d, scale):
        eigs, vecs, _ = stability_stack(a, scale)
        return harness._steady_state(a, d, scale, eigs, vecs, cls.PAIRS)

    @pytest.fixture(scope="class")
    def stack(self):
        points = [
            _physical_point(),
            _nearly_defective_point(),
            _physical_point(delta_a_over_wb=-0.3),
            # the same weakly coupled point at max |V| about 0.5 and 5e5
            _physical_point(g_n2_hz=1e-2),
            _physical_point(d_factor=1e6, g_n2_hz=1e-2),
        ]
        a, d, scale = (np.array(column) for column in zip(*points))
        with mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v, nu, errors = self.steady_state(a, d, scale)
        return a, d, scale, (v, nu, errors), schur.call_count

    def test_every_point_equals_its_stack_of_one(self, stack):
        a, d, scale, (v, nu, errors), _ = stack
        for i in range(len(a)):
            v1, nu1, errors1 = self.steady_state(
                a[i : i + 1], d[i : i + 1], scale[i : i + 1]
            )
            np.testing.assert_array_equal(v[i], v1[0])
            np.testing.assert_array_equal(nu[i], nu1[0])
            assert errors[i] == errors1[0]

    def test_failures_stay_with_their_point(self, stack):
        _, _, _, (_, nu, errors), schur_calls = stack
        assert schur_calls == 1  # the nearly defective point only
        assert errors == [None] * 5 and np.all(nu > 0.0)

        # a non-finite drift fails the chunk's check, and only its own row
        points = _chunk_points()
        parsed = self.PARSED
        build = harness.drift_stack

        def nan_drift_at_point_1(params_list, states):
            a = build(params_list, states)
            for i, params in enumerate(params_list):
                if params is points[1]:
                    a[i, 3, 2] = np.nan
            return a

        with mock.patch.object(harness, "drift_stack", nan_drift_at_point_1):
            reports = harness._evaluate_chunk(points, parsed)
        assert reports[1].error == "non-finite entry in the drift or diffusion matrix"
        assert reports[1].margin is None and reports[1].state is None
        assert not reports[1].stable
        for i in (0, 2, 3):
            assert reports[i] == harness._evaluate_chunk([points[i]], parsed)[0]

    def test_lyapunov_and_nu_minus_errors_stay_with_their_point(self, stack):
        # point 1 (nearly defective) fails its fallback Lyapunov solve and
        # one of its pairs; point 3 fails one pair; each keeps its first error
        a, d, scale, (v, nu, errors), _ = stack
        lyapunov_message = "Schur-based Lyapunov solve failed: test"
        nu_message = "vanishing symplectic eigenvalue; state is singular"

        def failing_blocks(blocks):
            nu, block_errors = nu_minus_stack(blocks)
            for k in (3 * 1 + 0, 3 * 3 + 2):
                block_errors[k] = NumericalError(nu_message)
            return nu, block_errors

        with mock.patch.object(
            steadystate, "_schur_solve", side_effect=NumericalError(lyapunov_message)
        ), mock.patch.object(harness, "nu_minus_stack", failing_blocks):
            v2, nu2, errors2 = self.steady_state(a, d, scale)
        assert errors2 == [None, lyapunov_message, None, nu_message, None]
        for i in (0, 2, 4):
            np.testing.assert_array_equal(v2[i], v[i])
            np.testing.assert_array_equal(nu2[i], nu[i])

    def test_failed_batched_eigensolve_reruns_point_by_point(self):
        points = _chunk_points()
        parsed = self.PARSED
        reports = harness._evaluate_chunk(points, parsed)
        eig = np.linalg.eig

        def eig_failing_on_stacks(x):
            if len(x) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(x)

        with mock.patch.object(np.linalg, "eig", side_effect=eig_failing_on_stacks):
            assert harness._evaluate_chunk(points, parsed) == reports
        with mock.patch.object(
            np.linalg, "eig", side_effect=np.linalg.LinAlgError("no convergence")
        ):
            (failed,) = harness._evaluate_chunk(points[:1], parsed)
        assert failed.error == "eigensolve failed: no convergence"
        assert failed.margin is None and failed.state is None and not failed.stable

    def test_singular_basis_falls_back_for_its_point_only(self, stack):
        # make the basis of the nearly defective point (index 1) singular
        a, d, scale, (v, nu, errors), _ = stack
        inv = np.linalg.inv
        basis = stability_stack(a[1:2], scale[1:2])[1][0]

        def inv_singular_at_point_1(x):
            if x.ndim == 3 or np.array_equal(x, basis):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(x)

        with mock.patch.object(
            np.linalg, "inv", side_effect=inv_singular_at_point_1
        ), mock.patch.object(
            steadystate, "_schur_solve", wraps=steadystate._schur_solve
        ) as schur:
            v2, nu2, errors2 = self.steady_state(a, d, scale)
        assert schur.call_count == 1
        assert errors2 == errors
        np.testing.assert_array_equal(nu2, nu)

    def test_one_index_space(self):
        # nu_- and the first error are read straight from the two stacks
        names = set(harness._steady_state.__code__.co_varnames)
        assert not names & {"solved", "nus"}

    def test_every_returned_covariance_is_exactly_symmetric(self, stack):
        _, _, _, (v, _, errors), _ = stack
        assert errors == [None] * len(v)
        np.testing.assert_array_equal(v, np.swapaxes(v, 1, 2))

    def test_roundoff_floor_is_per_point(self, stack):
        # entries between epsilon and 1e6 epsilon of max |V| survive at the
        # small point; a floor taken from the stack's largest V would clear them
        _, _, _, (v, _, _), _ = stack
        small = np.abs(v[3])
        eps = np.finfo(float).eps
        assert np.any((small > eps) & (small <= 1e6 * eps))
        assert np.abs(v[4]).max() > 1e5


@pytest.fixture(scope="module")
def small_sweep():
    params = default_params()
    spec = SweepSpec(
        axis1=Axis(name="delta_a_over_wb", start=-1.0, stop=-0.9, count=2),
        axis2=Axis(name="delta_m_over_wb", start=-1.0, stop=0.9, count=2),
    )
    return run_sweep(params, spec, pairs=("ab", "am"), threads=1)


@pytest.fixture(scope="module")
def pgm_grid():
    spec = SweepSpec(
        axis1=Axis(name="delta_a_over_wb", start=-1.4, stop=-0.6, count=5),
        axis2=Axis(name="delta_c1_over_wb", start=0.4, stop=1.6, count=3),
    )
    return run_sweep(default_params(), spec, pairs=("ab",), threads=1)


class TestCsvFormat:
    def test_comment_header_and_columns(self, small_sweep, tmp_path):
        path = tmp_path / "map.csv"
        write_csv(small_sweep, path, reproducible=True)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == f"# ommlab {VERSION}"
        assert lines[1].startswith("# params: {")
        params_doc = json.loads(lines[1].removeprefix("# params: "))
        # the snapshot records the base parameters, not the axis values
        assert params_doc["delta_a_over_wb"] == pytest.approx(-0.95)
        sweep_doc = json.loads(lines[2].removeprefix("# sweep: "))
        assert sweep_doc["axis1"]["count"] == 2
        assert sweep_doc["pairs"] == ["ab", "am"]
        assert (
            lines[3]
            == "axis1_name,axis1_value,axis2_name,axis2_value,stable,E_ab,E_am,efficiency"
        )
        assert len(lines) == 4 + 4

    def test_reproducible_flag_controls_timestamp(self, small_sweep, tmp_path):
        stamped = tmp_path / "a.csv"
        bare = tmp_path / "b.csv"
        write_csv(small_sweep, stamped, reproducible=False)
        write_csv(small_sweep, bare, reproducible=True)
        assert any(
            line.startswith("# generated: ")
            for line in stamped.read_text().splitlines()
        )
        assert not any(
            line.startswith("# generated: ") for line in bare.read_text().splitlines()
        )

    def test_rows_carry_nine_digit_values_and_empty_cells(self, small_sweep, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(small_sweep, path, reproducible=True)
        rows = [
            line.split(",")
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        # axis2 = delta_m_over_wb: -1.0 is an unstable operating point,
        # +0.9 (the default) is stable
        for i1 in (0, 1):
            unstable = rows[2 * i1]
            stable = rows[2 * i1 + 1]
            assert unstable[4] == "false"
            assert unstable[5] == unstable[6] == unstable[7] == ""
            assert stable[4] == "true"
            assert float(stable[5]) > 0.0
            assert stable[5] == format(float(stable[5]), ".9g")
        assert rows[3][1] == format(-0.9, ".9g")

    def test_one_dimensional_layout(self, tmp_path):
        spec = SweepSpec(axis1=Axis(name="T", start=0.01, stop=0.02, count=2))
        result = run_sweep(default_params(), spec, pairs=("ab",), threads=1)
        path = tmp_path / "one.csv"
        write_csv(result, path, reproducible=True)
        lines = path.read_text().splitlines()
        assert lines[3] == "axis1_name,axis1_value,stable,E_ab,efficiency"
        first = lines[4].split(",")
        assert first[0] == "T"
        assert first[1] == "0.01"
        # efficiency needs both ab and am, so a single-pair sweep leaves it blank
        assert first[4] == ""


class TestPgmFormat:
    def test_header_and_size(self, pgm_grid, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(pgm_grid, "ab", path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n5 3\n255\n")
        assert len(blob) == len(b"P5\n5 3\n255\n") + 5 * 3

    def test_brightest_pixel_is_the_grid_maximum(self, pgm_grid, tmp_path):
        path = tmp_path / "max.pgm"
        write_pgm(pgm_grid, "ab", path)
        header = b"P5\n5 3\n255\n"
        pixels = path.read_bytes()[len(header) :]
        bright = int(np.argmax(np.frombuffer(pixels, dtype=np.uint8)))
        y, x = divmod(bright, 5)
        scores = [
            (r.entanglement["ab"].e_n or 0.0) if r.stable else 0.0
            for r in pgm_grid.reports
        ]
        i1, i2 = divmod(int(np.argmax(scores)), 3)
        assert (x, y) == (i1, i2)
        assert pixels[y * 5 + x] == 255

    def test_all_unstable_grid_renders_black(self, tmp_path):
        spec = SweepSpec(
            axis1=Axis(name="delta_m_over_wb", start=-1.05, stop=-1.0, count=2),
            axis2=Axis(name="delta_a_over_wb", start=-1.05, stop=-1.0, count=2),
        )
        result = run_sweep(default_params(), spec, pairs=("ab",), threads=1)
        assert not any(r.stable for r in result.reports)
        path = tmp_path / "black.pgm"
        write_pgm(result, "ab", path)
        pixels = path.read_bytes()[len(b"P5\n2 2\n255\n") :]
        assert pixels == bytes(4)

    @pytest.mark.parametrize(
        "overrides, axes",
        [
            ({}, (("delta_a_over_wb", -2.0, 0.0, 7), ("delta_c1_over_wb", 0.0, 2.0, 6))),
            # a row of negative T fails validation; delta_m = -1 is unstable
            ({}, (("T", -0.1, 0.3, 5), ("delta_m_over_wb", -1.5, 1.5, 7))),
            # decoupled: every E_N is 0, an all-equal field
            (
                {"g_n1_hz": 0.0, "g_n2_hz": 0.0, "g_c_eff_hz": 0.0, "g_mb_eff_hz": 0.0},
                (("delta_a_over_wb", -2.0, 0.0, 3), ("delta_c1_over_wb", 0.0, 2.0, 4)),
            ),
        ],
    )
    def test_pixels_equal_the_per_pixel_loop(self, tmp_path, overrides, axes):
        spec = SweepSpec(*(Axis(*axis) for axis in axes))
        result = run_sweep(default_params(**overrides), spec, pairs=("ab",))
        write_pgm(result, "ab", tmp_path / "map.pgm")
        width, height = len(result.values1), len(result.values2)
        values = [r.entanglement["ab"].e_n if r.stable else None for r in result.reports]
        finite = [v for v in values if v is not None]
        vmin = min(finite, default=0.0)
        span = max(finite, default=0.0) - vmin
        pixels = bytearray(width * height)
        for y in range(height):
            for x in range(width):
                value = values[x * height + y]
                if value is not None and span > 0.0:
                    pixels[y * width + x] = round(255.0 * (value - vmin) / span)
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        assert (tmp_path / "map.pgm").read_bytes() == header + pixels

    def test_needs_two_dimensions(self, tmp_path):
        spec = SweepSpec(axis1=Axis(name="T", start=0.01, stop=0.02, count=2))
        result = run_sweep(default_params(), spec, pairs=("ab",), threads=1)
        with pytest.raises(DomainError, match="2D"):
            write_pgm(result, "ab", tmp_path / "no.pgm")

    def test_pair_must_have_been_requested(self, pgm_grid, tmp_path):
        with pytest.raises(DomainError, match="not requested"):
            write_pgm(pgm_grid, "am", tmp_path / "no.pgm")
