"""Config loading, sweep execution, and CSV/PGM artifact formats."""

import collections
import contextlib
import dataclasses
import functools
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
from ommlab import DegenerateOperatingPointError, dynamics, semiclassics
from ommlab.dynamics import drift_stack, stability_stack
from ommlab import harness
from ommlab.entanglement import _e_n, nu_minus_stack, parse_pair
from ommlab.harness import BLOCK_SIZE, CHUNK_SIZE, SWEEP_AXES
from ommlab.model import PARAM_TABLE, columns, config_snapshot, rows
from ommlab.semiclassics import solve_semiclassics_stack, state_at
from references import rabi

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
        # any real endpoints but bools, numpy scalars too
        for start in (0.001, np.float32(0.001), np.int64(0), np.int32(0)):
            axis = Axis(name="T", start=start, stop=0.4, count=5)
            np.testing.assert_allclose(axis.values(), np.linspace(float(start), 0.4, 5))

    def test_unknown_name_lists_valid_axes(self):
        with pytest.raises(ConfigError, match="valid axes"):
            Axis(name="kappa_a", start=0.0, stop=1.0, count=3)

    @pytest.mark.parametrize(
        "count, message",
        [
            (1, "at least 2"), (0, "at least 2"), (-2, "at least 2"),
            (np.int64(1), "at least 2"), (2.0, "an integer"), (3.0, "an integer"),
            (True, "an integer"), ("3", "an integer"), (None, "an integer"),
        ],
    )
    def test_bad_count(self, count, message):
        with pytest.raises(ConfigError, match=f"^axis count must be {message}$"):
            Axis(name="T", start=0.0, stop=1.0, count=count)

    def test_numpy_integer_count_is_stored_as_an_int(self, tmp_path):
        axis = Axis("T", 0.01, 0.02, np.int64(3))
        assert type(axis.count) is int and axis.count == 3
        result = run_sweep(default_params(), SweepSpec(axis), ("ab",))
        path = tmp_path / "count.csv"
        write_csv(result, path, reproducible=True)
        sweep_line = path.read_text().splitlines()[2]
        assert '"count": 3' in sweep_line

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), "0", True])
    def test_bad_endpoint(self, start):
        with pytest.raises(ConfigError):
            Axis(name="T", start=start, stop=1.0, count=3)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (1e308, -1e308)])
    def test_span_that_overflows_rejected(self, start, stop):
        # each end is finite, but stop - start is not: np.linspace would overflow
        with pytest.raises(ConfigError, match="^axis stop - start must be finite"):
            Axis("delta_a_over_wb", start, stop, 3)

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
        # neither the Lyapunov solve nor its Kronecker-form fallback imports scipy
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

    def test_lone_oracle_point_call_budget(self):
        # one solve of each kind, counted rather than timed: a lone point may
        # not hide a second eigensolve, basis inverse, nu_- stack or oracle
        # solve, and the oracle runs no matrix exponential
        import scipy.linalg

        calls = [(np.linalg, "eig"), (np.linalg, "eigvals"), (np.linalg, "inv"),
                 (np.linalg, "det"), (np.linalg, "solve"), (scipy.linalg, "expm")]
        with contextlib.ExitStack() as stack:
            counted = [
                stack.enter_context(mock.patch.object(owner, name, wraps=getattr(owner, name)))
                for owner, name in calls
            ]
            report = evaluate_point(default_params(), oracle=True)
        assert report.error is None and report.oracle_deviation < 1e-9
        assert [call.call_count for call in counted] == [1, 0, 1, 1, 1, 0]

    def test_stiff_derived_point_has_no_oracle_error(self):
        # an eq9_verbatim point with rho / gamma about 1e8, where a relaxation
        # from the vacuum stopped short of its tolerance
        p = default_params(
            eq9_verbatim=True, coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3,
            delta_c2_over_wb=-1.8684146445878467, delta_m_over_wb=0.7502738500170149,
        )
        report = evaluate_point(p, oracle=True)
        assert report.error is None
        assert report.oracle_deviation <= 1e-9

    @pytest.mark.parametrize("delta_c2, delta_m", [
        (-1.7587378066359114, 0.7265917117738873),
        (-1.6363456585699114, 1.3812595647101173),
    ])
    def test_stiff_census_points_match_the_schur_solve(self, delta_c2, delta_m):
        # two eq9_verbatim points of the shifted-map census, where the
        # Kronecker-form oracle is the outlier: stage 2 agrees with scipy's
        # Bartels-Stewart solve to 2.0e-10 and 7.0e-11, the bound 5e-10
        p = default_params(
            eq9_verbatim=True, coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3,
            delta_c2_over_wb=delta_c2, delta_m_over_wb=delta_m,
        )
        import scipy.linalg

        d, _, a, eigs, vecs, max_real, _ = harness._working_points(columns([p]))
        assert max_real[0] < 0.0
        v, _, errors, _ = harness._steady_state(a, d, eigs, vecs, [parse_pair("ab")])
        assert errors == [None]
        reference = scipy.linalg.solve_continuous_lyapunov(a[0], -d[0])
        assert np.linalg.norm(v[0] - reference) <= 5e-10 * np.linalg.norm(reference)
        assert evaluate_point(p).error is None

    @pytest.mark.parametrize("delta_c2, delta_m, gated", [
        (-1.550279006421079, 0.34808353387762303, True),
        (-1.802001207619217, 1.2732372919639303, True),
        (-1.623386972770771, 1.4038934407622188, True),
        (-1.5540922357302556, 0.3869404411091681, True),
        (-1.5603198767736242, 1.7083320046923478, True),
        (-1.5551056325062236, 0.39600451393090963, False),
    ])
    def test_census_fallback_points(self, delta_c2, delta_m, gated):
        # the six eq9_verbatim points of the 200-shift census whose eigenbasis
        # solve misses the residual gate, each within 5e-8 omega_b of
        # instability: one Kronecker-form fallback solve each, five within
        # 1e-8 of scipy's Bartels-Stewart solve (5.5e-9 at worst), the sixth
        # still over the gate; the oracle skips them, as it would rerun the
        # same solve
        p = default_params(
            eq9_verbatim=True, coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3,
            delta_c2_over_wb=delta_c2, delta_m_over_wb=delta_m,
        )
        import scipy.linalg

        d, _, a, eigs, vecs, _, _ = harness._working_points(columns([p]))
        with mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", wraps=steadystate.solve_lyapunov_vech_stack
        ) as fallback:
            v, _, errors, kronecker = harness._steady_state(a, d, eigs, vecs, [parse_pair("ab")])
        assert fallback.call_count == 1 and kronecker.tolist() == [True]
        with mock.patch.object(harness, "solve_lyapunov_vech_stack") as oracle:
            report = evaluate_point(p, oracle=True)
        oracle.assert_not_called()
        message = None if errors[0] is None else str(errors[0])
        assert report.error == message and report.oracle_deviation is None
        if gated:
            assert errors == [None] and report.entanglement["ab"].e_n is not None
            reference = scipy.linalg.solve_continuous_lyapunov(a[0], -d[0])
            assert np.linalg.norm(v[0] - reference) <= 1e-8 * np.linalg.norm(reference)
        else:
            assert message.startswith("Lyapunov residual ")
            assert message.endswith(" ||D||_F exceeds 1e-10 ||D||_F")

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
        assert eig.call_count == 1  # the point's stack; the oracle reads no eigenpairs
        assert eigvals.call_count == 0

    #: one chunk of the paper's detuning map, every point stable
    CHUNK_SPEC = SweepSpec(
        Axis("delta_a_over_wb", -1.5, -0.5, 16), Axis("delta_c1_over_wb", 0.5, 1.5, 8)
    )

    def test_oracle_deviation_is_the_same_alone_and_in_a_chunk(self):
        # from the point near the stability boundary to points in the
        # chunk's second and last blocks of the oracle's batched solve
        spec = SweepSpec(Axis("delta_m_over_wb", -0.974, 0.5, CHUNK_SIZE))
        result = run_sweep(default_params(), spec, ("ab",), oracle=True)
        for i in (0, 1, 40, CHUNK_SIZE - 1):
            point = SWEEP_AXES["delta_m_over_wb"](default_params(), float(result.values1[i]))
            alone = evaluate_point(point, ("ab",), oracle=True)
            assert alone.oracle_deviation is not None
            assert alone.oracle_deviation == result.report_at(i).oracle_deviation

    def test_jittered_oracle_points_are_the_same_alone_and_in_a_chunk(self):
        # 16 points, each of the 15 parameters the benchmark's oracle points
        # jitter moved by up to 20% as it moves them: each lone report, the
        # oracle deviation included, is its row of one chunk of all 16
        keys = (
            "delta_a_over_wb", "delta_c1_over_wb", "delta_c2_over_wb", "delta_m_over_wb",
            "g_c_eff_hz", "g_mb_eff_hz", "g_n1_hz", "g_n2_hz", "gamma_b_hz", "kappa_a_hz",
            "kappa_c1_hz", "kappa_c2_hz", "kappa_m_hz", "omega_b_hz", "T",
        )
        base = config_snapshot(default_params())
        rng = np.random.default_rng(7)
        points = [
            default_params(**{key: base[key] * rng.uniform(0.8, 1.2) for key in keys})
            for _ in range(16)
        ]
        pairs = ("ab", "am", "c2b")
        chunk = harness._evaluate_chunk(columns(points), harness._parse_pairs(pairs), oracle=True)
        assert sum(report.oracle_deviation is not None for report in chunk) >= 8
        for point, row in zip(points, chunk):
            assert repr(evaluate_point(point, pairs, oracle=True)) == repr(row)

    @pytest.mark.parametrize("overrides", [{}, {
        "coupling_mode": "derived", "b_field_t": 3.3e-3, "g_c_hz": 960, "g_m_hz": 280,
        "p_laser_w": 4e-3, "delta_c2_over_wb": 0.28, "delta_m_over_wb": -2.3,
        "delta_a_over_wb": 1.0, "delta_c1_over_wb": 1.8,
    }], ids=["direct", "derived-later-branch"])
    def test_a_lone_point_reads_its_parameters_once(self, overrides):
        # one point table per stack: the drift of a later branch (the derived
        # point keeps its second branch), too, takes its rows from it
        with contextlib.ExitStack() as stack:
            reads = [
                stack.enter_context(mock.patch.object(owner, "columns", wraps=columns))
                for owner in (harness, dynamics, semiclassics)
            ]
            report = evaluate_point(default_params(**overrides), oracle=True)
        assert report.error is None and report.stable
        assert sum(read.call_count for read in reads) == 1

    def test_repeated_pairs_are_parsed_once(self):
        # the parse of a tuple of labels is kept; a bad label raises every time
        labels = ("c1m", "ab", "c2b")
        harness._parsed.cache_clear()
        with mock.patch.object(harness, "parse_pair", wraps=parse_pair) as parse:
            first = harness._parse_pairs(list(labels))
            assert parse.call_count == 3
            second = harness._parse_pairs(labels)
        assert parse.call_count == 3
        assert second is first and isinstance(first, tuple)
        assert first == tuple((label, parse_pair(label)) for label in labels)
        for _ in range(2):
            with pytest.raises(ConfigError, match="pair label 'xy'"):
                harness._parse_pairs(("ab", "xy"))
            with pytest.raises(ConfigError, match="duplicate pair label 'ab'"):
                harness._parse_pairs(("ab", "ab"))

    def test_a_chunk_makes_four_oracle_solve_calls(self):
        base = default_params(delta_c2_over_wb=-0.8)
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            result = run_sweep(base, self.CHUNK_SPEC, ("ab",), oracle=True)
        assert all(r.oracle_deviation is not None for r in result.reports)
        assert [call.args[0].shape for call in solve.call_args_list] == [(32, 55, 55)] * 4

    def test_oracle_sees_only_the_points_stage_two_solved(self):
        # a chunk of unstable and stable points, one of whose Lyapunov solves
        # fails: the oracle gets the drifts of the others, in order
        spec = SweepSpec(Axis("delta_m_over_wb", -1.2, 0.5, 16))
        base = default_params()
        stable_only = run_sweep(base, spec, ("ab",))
        stable = [k for k, r in enumerate(stable_only.reports) if r.stable]
        assert 0 < len(stable) < 16
        failing = stable[1]

        def one_point_fails(a, d, eigs, vecs):
            v, errors, kronecker = steadystate.solve_lyapunov_stack(a, d, eigs, vecs)
            errors[1] = NumericalError("Lyapunov solve failed: test")
            return v, errors, kronecker

        with mock.patch.object(
            harness, "solve_lyapunov_stack", one_point_fails
        ), mock.patch.object(
            harness, "solve_lyapunov_vech_stack", wraps=harness.solve_lyapunov_vech_stack
        ) as oracle:
            result = run_sweep(base, spec, ("ab",), oracle=True)
        assert oracle.call_count == 1
        checked = [k for k in stable if k != failing]
        a = oracle.call_args.args[0]
        points = [SWEEP_AXES["delta_m_over_wb"](base, float(x)) for x in spec.axis1.values()]
        want = np.array([harness._working_points(columns([points[k]]))[2][0] for k in checked])
        np.testing.assert_array_equal(a, want)
        assert result.report_at(failing).error == "Lyapunov solve failed: test"
        assert result.report_at(failing).oracle_deviation is None
        assert all(result.report_at(k).oracle_deviation is not None for k in checked)
        assert all(not result.report_at(k).stable for k in range(16) if k not in stable)

    def test_unstable_point_reports_margin_without_measures(self):
        params = SWEEP_AXES["delta_m_over_wb"](default_params(), -1.0)
        report = evaluate_point(params, pairs=("am",))
        assert not report.stable
        assert report.margin is not None and report.margin < 0
        assert report.error is None
        assert report.entanglement["am"].e_n is None
        assert report.efficiency is None


def _failing_fallback(message):
    """A Kronecker-form Lyapunov stack that fails every point it is given,
    through its own error return: NaN V and ``message``."""
    return lambda a, d: (np.full(a.shape, np.nan), [NumericalError(message)] * len(a))


class TestPointFailures:
    """A stable point whose later stage fails keeps its stability verdict."""

    @staticmethod
    def assert_stable_without_measures(report, reference, error):
        assert report.stable and report.margin == reference.margin
        assert report.error == error
        assert all(rep.e_n is None for rep in report.entanglement.values())
        assert report.efficiency is None

    def test_failed_lyapunov_solve(self, default_point):
        message = "Kronecker-form Lyapunov solve failed: test"
        with mock.patch.object(
            steadystate, "_eigenbasis_solve",
            side_effect=lambda lam, vecs, d_s: np.full(d_s.shape, np.nan),
        ), mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", side_effect=_failing_fallback(message)
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
        # the harness passes on whatever error the oracle reports for a point,
        # of any class, under its "oracle:" prefix
        def oracle_fails(a, d):
            return np.full_like(a, np.nan), [ConvergenceError("the oracle did not converge")]

        with mock.patch.object(harness, "solve_lyapunov_vech_stack", oracle_fails):
            report = evaluate_point(default_params(), oracle=True)
        assert report.error == "oracle: the oracle did not converge"
        assert report.oracle_deviation is None
        assert report.stable and report.margin == default_point.margin
        assert report.entanglement == default_point.entanglement
        assert report.efficiency == default_point.efficiency

    def test_oracle_failure_keeps_the_measures(self, default_point):
        # the Kronecker-form solve itself fails: its LU raises in the batched
        # call and again for the lone point, and it leaves the point's V NaN
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        with mock.patch.object(np.linalg, "solve", singular):
            report = evaluate_point(default_params(), oracle=True)
        assert report.error == (
            "oracle: Kronecker-form Lyapunov solve failed: singular operator or non-finite solution"
        )
        assert report.oracle_deviation is None
        assert report.stable and report.margin == default_point.margin
        assert report.entanglement == default_point.entanglement
        assert report.efficiency == default_point.efficiency


class TestEfficiencyColumn:
    """E_am / E_ab as :func:`harness._reports` builds it from the rows' E_N."""

    PAIRS = [(label, parse_pair(label)) for label in ("ab", "am")]

    @staticmethod
    def reports(nu, pairs=PAIRS, error=None):
        nu = np.array(nu, dtype=float)
        error = [None] * len(nu) if error is None else error
        return harness._reports(pairs, error, np.full(len(nu), -1.0), None, nu)

    def test_plain_ratio_is_the_division(self):
        table = self.reports([[0.3, 0.4]])
        e_ab, e_am = table.e_n[0].tolist()
        assert 0.0 < e_am < e_ab
        assert table.efficiency[0] == e_am / e_ab
        assert table[0].efficiency == e_am / e_ab

    def test_no_magnon_entanglement_gives_zero(self):
        table = self.reports([[0.3, 0.5]])
        assert table.e_n[0, 1] == 0.0
        assert table[0].efficiency == 0.0

    def test_undefined_without_phonon_entanglement(self, tmp_path):
        table = self.reports([[0.7, 0.4], [0.3, 0.4]])
        assert table.e_n[0, 0] == 0.0
        assert table[0].efficiency is None and table[1].efficiency is not None
        spec = SweepSpec(Axis("T", 0.01, 0.02, 2))
        result = harness.SweepResult(
            default_params(), spec, ("ab", "am"), spec.axis1.values(), None, table
        )
        path = tmp_path / "efficiency.csv"
        write_csv(result, path, reproducible=True)
        rows = [line.split(",") for line in path.read_text().splitlines()[4:]]
        assert rows[0][-1] == "" and float(rows[1][-1]) > 0.0

    def test_failed_point_has_none(self):
        table = self.reports([[np.nan, np.nan]], error=["Lyapunov solve failed"])
        assert table[0].efficiency is None

    @pytest.mark.parametrize("labels", [("ab", "c2b"), ("am", "c2b")])
    def test_none_unless_both_pairs_are_requested(self, labels):
        pairs = [(label, parse_pair(label)) for label in labels]
        assert self.reports([[0.3, 0.4]], pairs)[0].efficiency is None


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
        states, offsets, _ = solve_semiclassics_stack(columns([p]))
        assert offsets.tolist() == [0, len(states)]
        return states

    @staticmethod
    def margins(p, branches):
        """Each branch's stability margin (rad/s), from one drift stack and eig."""
        a = drift_stack(columns([p] * len(branches)), branches) / p.omega_b
        return list(-stability_stack(a)[2] * p.omega_b)

    @staticmethod
    def reorder(monkeypatch, pick):
        """Hand stage 1 ``pick`` of each point's branches, a state column."""
        solve = harness.solve_semiclassics_stack

        def picked(params_list):
            states, offsets, errors = solve(params_list)
            kept = [pick(states[start:end]) for start, end in zip(offsets[:-1], offsets[1:])]
            return np.concatenate(kept), np.cumsum([0] + [len(point) for point in kept]), errors

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
        reports = harness._evaluate_chunk(columns(chunk), parsed)
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
        states, offsets, _ = solve_semiclassics_stack(columns(points))
        a = drift_stack(columns(points), states[offsets[:-1]]) / params.omega_b
        unstable = ~(stability_stack(a)[2] < 0.0)
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
        _, states, a, eigs, vecs, max_real, _ = harness._working_points(columns([later, two]))
        assert eig_rows == [2, 3] and screened == [3]
        for k, (p, branch) in enumerate(zip([later, two], kept)):
            assert states[k : k + 1].tobytes() == branch.tobytes()
            # stage 1 keeps drifts and eigenvalues in units of omega_b, max Re in rad/s
            drift = drift_stack(columns([p]), branch) / p.omega_b
            np.testing.assert_array_equal(a[k], drift[0])
            found_eigs, found_vecs, found_max_real = stability_stack(drift)
            np.testing.assert_array_equal(eigs[k], found_eigs[0])
            np.testing.assert_array_equal(vecs[k], found_vecs[0])
            assert max_real[k] == found_max_real[0] * p.omega_b
            assert max_real[k] < 0.0

    def test_later_branch_row_in_a_chunk_equals_its_lone_evaluation(self):
        points = _chunk_points()
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        reports = harness._evaluate_chunk(columns(points), parsed)
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
            states, offsets, errors = solve_semiclassics_stack(columns([good, bad]))
            first, error = harness._evaluate_chunk(columns([good, bad]), parsed)
        assert errors[0] is None and isinstance(errors[1], NumericalError)
        assert str(errors[1]).startswith("displacement polynomial root solve failed")
        assert offsets[2] - offsets[1] == 1 and state_at(states, offsets[1]) is None
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
        bad_rabi = rabi(bad.b_field, bad.v_yig, bad.rho_spin)
        exact = semiclassics.magnon_average

        def magnon_average(rabi, *args):
            if np.any(rabi == bad_rabi):
                raise DegenerateOperatingPointError("magnon response denominator vanishes")
            return exact(rabi, *args)

        monkeypatch.setattr(semiclassics, "magnon_average", magnon_average)
        return bad

    def test_error_in_a_stack_stays_with_its_point(self, monkeypatch):
        # the stacked working-point solve raises for the stack, is made again
        # point by point, and gives the point that raises its own error
        good = default_params(**self.DERIVED)
        alone = evaluate_point(good)
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        bad = self.fail_at_bad(monkeypatch)
        _, _, errors = solve_semiclassics_stack(columns([good, bad, good]))
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], DegenerateOperatingPointError)
        first, error, last = harness._evaluate_chunk(columns([good, bad, good]), parsed)
        assert error.error == "magnon response denominator vanishes"
        assert error.state is None and error.margin is None and not error.stable
        assert first == alone and last == alone

    def test_a_failing_point_adds_only_its_retried_block(self, monkeypatch):
        # one point of 16 fails its eigensolve: the chunk makes the stage-1
        # eig, eigvals and solve calls of the clean chunk, but for the block
        # retried point by point, and every row is the one the point gets alone
        points = [
            default_params(**{**self.DERIVED, "delta_m_over_wb": x})
            for x in np.linspace(0.5, 1.5, 15)
        ]
        points.insert(11, default_params(**self.BAD))
        parsed = [(label, parse_pair(label)) for label in ("ab", "am")]
        bad_drift = harness._working_points(columns(points[11:12]))[2][0]
        calls = []
        originals = {name: getattr(np.linalg, name) for name in ("eig", "eigvals", "solve")}

        def recorded(name, fail):
            def call(x, *rest):
                calls.append((name, len(x)))
                if fail and any(np.array_equal(m, bad_drift) for m in x):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return originals[name](x, *rest)
            return call

        for name in originals:
            monkeypatch.setattr(np.linalg, name, recorded(name, False))
        clean = harness._evaluate_chunk(columns(points), parsed)
        assert all(report.error is None for report in clean)
        clean_calls, calls[:] = calls[:], []
        monkeypatch.setattr(np.linalg, "eig", recorded("eig", True))
        reports = harness._evaluate_chunk(columns(points), parsed)
        k = clean_calls.index(("eig", 16))
        assert calls == clean_calls[: k + 1] + [("eig", 1)] * 16 + clean_calls[k + 1 :]
        assert reports[11].error == "eigensolve failed: Eigenvalues did not converge"
        assert reports == [harness._evaluate_chunk(columns([p]), parsed)[0] for p in points]
        assert [r == c for r, c in zip(reports, clean)] == [i != 11 for i in range(16)]


class TestStageOneFailures:
    """Each stage-1 check fails one point between good ones in one chunk: the
    point's row keeps its message, with no state and no margin, and every
    row is the one its point gets alone, bit for bit. Real inputs fail where
    they exist; elsewhere a LAPACK call is made to fail on any stack that
    holds the failing point's matrix, the batched call and the point's own.
    The non-finite drift check has its test in TestStackedCore."""

    DERIVED = TestWorkingPointBranches.DERIVED
    LATER_BRANCH = TestWorkingPointBranches.LATER_BRANCH
    GOOD = [{}, DERIVED, LATER_BRANCH]

    @staticmethod
    def assert_fails_alone(bad, message, warns=contextlib.nullcontext):
        points = [default_params(**over) for over in TestStageOneFailures.GOOD]
        points.insert(1, bad)
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        with warns():
            reports = harness._evaluate_chunk(columns(points), parsed)
            alone = [evaluate_point(p) for p in points]
        assert reports[1].error == message
        assert not reports[1].stable and reports[1].margin is None and reports[1].state is None
        assert [repr(r) for r in reports] == [repr(r) for r in alone]
        assert all(r.error is None for k, r in enumerate(reports) if k != 1)

    @staticmethod
    def failing(monkeypatch, name, holds_bad, raised=True):
        """np.linalg.``name`` raising on a stack for which ``holds_bad`` is
        true, or, with ``raised`` False, returning inf in the rows it marks."""
        exact = getattr(np.linalg, name)

        def call(x, *rest):
            bad = holds_bad(x)
            if raised and np.any(bad):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            out = exact(x, *rest)
            if not raised:
                out[bad] = np.inf
            return out

        monkeypatch.setattr(np.linalg, name, call)

    def test_displacement_roots(self):
        # the drive amplitude, and with it the polynomial, overflows
        self.assert_fails_alone(
            default_params(**{**self.DERIVED, "p_laser_w": 1e300}),
            "displacement polynomial root solve failed: Array must not contain infs or NaNs",
            functools.partial(pytest.warns, RuntimeWarning, match="overflow"),
        )

    def test_no_statically_stable_root(self, monkeypatch):
        # the cubic of the eq9_verbatim point, the chunk's only one, gets
        # roots off the real axis
        exact = np.linalg.eigvals

        def eigvals(x):
            roots = exact(x)
            return roots + 1j * np.abs(roots) if x.shape[-1] == 3 else roots

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        self.assert_fails_alone(
            default_params(**self.DERIVED, eq9_verbatim=True),
            "no real root of the displacement polynomial has F'(q) < 1",
        )

    def test_magnon_denominator(self):
        # kappa_m about 6e-40 rad/s, and the magnon detuning Delta_c2 = 0
        self.assert_fails_alone(
            default_params(
                **self.DERIVED, eq9_verbatim=True, delta_c2_over_wb=0.0, kappa_m_hz=1e-40
            ),
            "magnon response denominator vanishes",
        )

    def test_cavity_denominator(self):
        bad = default_params(
            **self.DERIVED, kappa_a_hz=1e-20, kappa_c1_hz=1e-20, delta_a_over_wb=0.0,
            delta_c1_over_wb=0.0, g_n1_hz=0.0, g_n2_hz=0.0,
        )
        self.assert_fails_alone(
            bad, "cavity response denominator vanishes; the operating point is degenerate"
        )

    @pytest.mark.parametrize("raised, message", [
        (True, "cavity response system is singular; the operating point is degenerate"),
        (False, "cavity response system is numerically degenerate"),
    ])
    def test_cavity_cross_check(self, monkeypatch, raised, message):
        bad = default_params(**self.DERIVED, delta_a_over_wb=-0.9)
        self.failing(
            monkeypatch, "solve",
            lambda x: (x.shape[-1] == 3) & (x[:, 0, 0].imag == bad.delta_a), raised,
        )
        self.assert_fails_alone(bad, message)

    @pytest.mark.parametrize("name, overrides", [
        ("eig", {"g_n1_hz": 4.1e6}),  # the first branch's eigensolve
        ("eigvals", {**LATER_BRANCH, "gamma_b_hz": 101.0}),  # a later branch's screen
        ("eig", {**LATER_BRANCH, "gamma_b_hz": 101.0}),  # its eigensolve
    ])
    def test_stability(self, monkeypatch, name, overrides):
        bad = default_params(**overrides)
        # the drift stage 1 keeps, a later branch's for the later-branch point
        drift = harness._working_points(columns([bad]))[2][0]
        self.failing(monkeypatch, name, lambda x: [np.array_equal(m, drift) for m in x])
        self.assert_fails_alone(bad, "eigensolve failed: Eigenvalues did not converge")


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

    #: Every sweepable field with a domain rule, by config key: run_sweep's
    #: check of each axis value is the only one its swept values get.
    RULED = {p.key: p.field for p in PARAM_TABLE if p.sweepable and p.rule is not None}

    def test_each_error_is_the_per_point_setters_message(self):
        # each ruled field on axis 1, the next on axis 2: values below 0 break
        # an axis, and (0, 0) breaks both
        names = [*self.RULED]
        params = default_params()
        for name1, name2 in zip(names, names[1:] + names[:1]):
            spec = SweepSpec(*(
                Axis(name, *((-0.01, 0.01) if name == "T" else (-1e6, 1e6)), 3)
                for name in (name1, name2)
            ))
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
            assert both.startswith(self.RULED[name1]) and both == result.report_at(0, 2).error
            assert result.report_at(1, 0).error.startswith(self.RULED[name2])

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

    def test_e_n_column_is_one_formula_with_the_lone_point(self):
        # every E_N is _e_n of its nu_-, on the whole column: a vacuum nu of
        # 1/2 gives +0.0 (np.maximum alone would keep -0.0) and NaN stays NaN
        nu = np.random.default_rng(7).uniform(0.44, 0.51, size=(400, 3))
        nu[0] = [0.5, np.nan, 0.5]
        parsed = [(label, parse_pair(label)) for label in DEFAULT_PAIRS]
        e_n = harness._reports(parsed, [None] * 400, nu=nu).e_n
        assert e_n.tobytes() == _e_n(nu).tobytes()
        assert e_n[0, 0] == 0.0 and math.copysign(1.0, e_n[0, 0]) == 1.0
        assert e_n[0, 2] == 0.0 and math.copysign(1.0, e_n[0, 2]) == 1.0
        assert math.isnan(e_n[0, 1])
        # a sweep's column and each lone point's E_N, bit for bit: zeros in
        # c2m, NaN on the error rows of the negative temperature
        params, pairs = default_params(), ("ab", "am", "c2m")
        spec = SweepSpec(Axis("T", -0.01, 0.02, 4), Axis("delta_a_over_wb", -2.0, 0.0, 3))
        result = run_sweep(params, spec, pairs)
        column = result.reports.e_n
        assert column.tobytes() == _e_n(result.reports.nu_minus).tobytes()
        assert (column == 0.0).any() and np.isnan(column).any()
        for index, row in enumerate(column):
            point = _set_on_the_point(params, spec, result, *divmod(index, 3))
            if isinstance(point, str):
                assert np.isnan(row).all()
                continue
            lone = evaluate_point(point, pairs).entanglement
            assert np.array([lone[label].e_n for label in pairs]).tobytes() == row.tobytes()

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
        # back as None from the grid's columns, two chunks written over its
        # error rows, at one thread and at two
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
                solve_semiclassics_stack(columns([point_at(index)]))[1][1] > 1
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

    def test_no_stage_two_call_sees_more_than_a_block(self):
        # the paper map with the oracle: the eigenbasis solve's inv, the nu_-
        # stack's det (one 4x4 block per pair) and the Kronecker-form solve
        # each see at most 32 points (BLOCK_SIZE), and every point once
        params = default_params(delta_c2_over_wb=-0.8, T=0.01)
        spec = SweepSpec(
            axis1=Axis(name="delta_a_over_wb", start=-2.0, stop=0.0, count=51),
            axis2=Axis(name="delta_c1_over_wb", start=0.0, stop=2.0, count=51),
        )
        pairs = ("ab", "am")
        with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv, mock.patch.object(
            np.linalg, "det", wraps=np.linalg.det
        ) as det, mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            result = run_sweep(params, spec, pairs, oracle=True)
        assert all(r.stable and r.oracle_deviation is not None for r in result.reports)
        calls = [(inv, (10, 10), 1), (det, (4, 4), len(pairs)), (solve, (55, 55), 1)]
        for call, shape, per_point in calls:
            shapes = [c.args[0].shape for c in call.call_args_list]
            assert {s[1:] for s in shapes} == {shape}
            assert max(s[0] for s in shapes) == 32 * per_point
            assert sum(s[0] for s in shapes) == 51 * 51 * per_point

    @pytest.mark.parametrize("oracle", [False, True])
    def test_stage_two_blocks_write_their_own_rows(self, oracle):
        # one chunk of 64 points, 59 stable and 5 unstable among them (4 to
        # 8): stage 2 takes the stable ones in blocks of 32 and 27, and one
        # point of the second block fails its Lyapunov solve; every row is
        # that point's alone, and the error stays on its own row
        params = default_params()
        spec = SweepSpec(Axis("delta_m_over_wb", -1.2, 0.5, 64))
        points = [SWEEP_AXES["delta_m_over_wb"](params, float(x)) for x in spec.axis1.values()]
        failing = 45
        drift = harness._working_points(columns([points[failing]]))[2][0]
        message = "Lyapunov solve failed: test"

        def one_point_fails(a, d, eigs, vecs):
            v, errors, kronecker = steadystate.solve_lyapunov_stack(a, d, eigs, vecs)
            for k in (a == drift).all(axis=(1, 2)).nonzero()[0]:
                errors[k] = NumericalError(message)
            return v, errors, kronecker

        with mock.patch.object(harness, "solve_lyapunov_stack", one_point_fails):
            result = run_sweep(params, spec, ("ab", "am"), oracle=oracle)
            alone = [evaluate_point(p, ("ab", "am"), oracle=oracle) for p in points]
        stable = [k for k, report in enumerate(alone) if report.stable]
        assert len(stable) == 59 and stable.index(failing) >= BLOCK_SIZE
        assert [k for k in range(64) if k not in stable] == list(range(4, 9))
        assert [repr(report) for report in result.reports] == list(map(repr, alone))
        assert [k for k, report in enumerate(result.reports) if report.error] == [failing]
        assert result.reports[failing].error == message

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
        for threads in ("2", 2.5, None, True, False):
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
        """Stage 2 on drifts and diffusions given with each point's scale,
        in that scale's units as stage 1 hands them over."""
        a, d = a / scale[:, None, None], d / scale[:, None, None]
        eigs, vecs, _ = stability_stack(a)
        return harness._steady_state(a, d, eigs, vecs, cls.PAIRS)

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
            steadystate, "solve_lyapunov_vech_stack", wraps=steadystate.solve_lyapunov_vech_stack
        ) as fallback:
            v, nu, errors, kronecker = self.steady_state(a, d, scale)
        return a, d, scale, (v, nu, errors, kronecker), fallback.call_count

    def test_every_point_equals_its_stack_of_one(self, stack):
        a, d, scale, (v, nu, errors, kronecker), _ = stack
        for i in range(len(a)):
            v1, nu1, errors1, kronecker1 = self.steady_state(
                a[i : i + 1], d[i : i + 1], scale[i : i + 1]
            )
            np.testing.assert_array_equal(v[i], v1[0])
            np.testing.assert_array_equal(nu[i], nu1[0])
            assert errors[i] == errors1[0] and kronecker[i] == kronecker1[0]

    def test_failures_stay_with_their_point(self, stack):
        _, _, _, (_, nu, errors, kronecker), fallback_calls = stack
        assert fallback_calls == 1  # the nearly defective point only
        assert kronecker.tolist() == [False, True, False, False, False]
        assert errors == [None] * 5 and np.all(nu > 0.0)

        # a non-finite drift fails the chunk's check, and only its own row
        points = _chunk_points()
        parsed = self.PARSED
        build = harness.drift_stack

        def nan_drift_at_point_1(table, states):
            # point 1 is the only one at delta_m = -omega_b
            a = build(table, states)
            a[table[rows("delta_m")[0]] == points[1].delta_m, 3, 2] = np.nan
            return a

        with mock.patch.object(harness, "drift_stack", nan_drift_at_point_1):
            reports = harness._evaluate_chunk(columns(points), parsed)
        assert reports[1].error == "non-finite entry in the drift or diffusion matrix"
        assert reports[1].margin is None and reports[1].state is None
        assert not reports[1].stable
        for i in (0, 2, 3):
            assert reports[i] == harness._evaluate_chunk(columns([points[i]]), parsed)[0]

    def test_lyapunov_and_nu_minus_errors_stay_with_their_point(self, stack):
        # point 1 (nearly defective) fails its fallback Lyapunov solve and
        # one of its pairs; point 3 fails one pair; each keeps its first error
        a, d, scale, (v, nu, errors, _), _ = stack
        lyapunov_message = "Kronecker-form Lyapunov solve failed: test"
        nu_message = "vanishing symplectic eigenvalue; state is singular"

        def failing_blocks(blocks):
            nu, block_errors = nu_minus_stack(blocks)
            for k in (3 * 1 + 0, 3 * 3 + 2):
                block_errors[k] = NumericalError(nu_message)
            return nu, block_errors

        with mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack",
            side_effect=_failing_fallback(lyapunov_message),
        ), mock.patch.object(harness, "nu_minus_stack", failing_blocks):
            v2, nu2, errors2, _ = self.steady_state(a, d, scale)
        # each point's exception itself, class and message, until the report
        assert [e if e is None else (type(e), str(e)) for e in errors2] == [
            None, (NumericalError, lyapunov_message), None, (NumericalError, nu_message), None
        ]
        for i in (0, 2, 4):
            np.testing.assert_array_equal(v2[i], v[i])
            np.testing.assert_array_equal(nu2[i], nu[i])

    def test_failed_batched_eigensolve_reruns_point_by_point(self):
        points = _chunk_points()
        parsed = self.PARSED
        reports = harness._evaluate_chunk(columns(points), parsed)
        eig = np.linalg.eig

        def eig_failing_on_stacks(x):
            if len(x) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(x)

        with mock.patch.object(np.linalg, "eig", side_effect=eig_failing_on_stacks):
            assert harness._evaluate_chunk(columns(points), parsed) == reports
        with mock.patch.object(
            np.linalg, "eig", side_effect=np.linalg.LinAlgError("no convergence")
        ):
            (failed,) = harness._evaluate_chunk(columns(points[:1]), parsed)
        assert failed.error == "eigensolve failed: no convergence"
        assert failed.margin is None and failed.state is None and not failed.stable

    def test_singular_basis_falls_back_for_its_point_only(self, stack):
        # make the basis of the nearly defective point (index 1) singular
        a, d, scale, (v, nu, errors, _), _ = stack
        inv = np.linalg.inv
        basis = stability_stack(a[1:2] / scale[1])[1][0]

        def inv_singular_at_point_1(x):
            # the batched call fails, and the point's own call, as a stack of one
            if len(x) > 1 or np.array_equal(x[0], basis):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(x)

        with mock.patch.object(
            np.linalg, "inv", side_effect=inv_singular_at_point_1
        ), mock.patch.object(
            steadystate, "solve_lyapunov_vech_stack", wraps=steadystate.solve_lyapunov_vech_stack
        ) as fallback:
            v2, nu2, errors2, _ = self.steady_state(a, d, scale)
        assert fallback.call_count == 1
        assert errors2 == errors
        np.testing.assert_array_equal(nu2, nu)

    def test_one_index_space(self):
        # nu_- and the first error are read straight from the two stacks
        names = set(harness._steady_state.__code__.co_varnames)
        assert not names & {"solved", "nus"}

    def test_every_returned_covariance_is_exactly_symmetric(self, stack):
        _, _, _, (v, _, errors, _), _ = stack
        assert errors == [None] * len(v)
        np.testing.assert_array_equal(v, np.swapaxes(v, 1, 2))

    def test_roundoff_floor_is_per_point(self, stack):
        # entries between epsilon and 1e6 epsilon of max |V| survive at the
        # small point; a floor taken from the stack's largest V would clear them
        _, _, _, (v, _, _, _), _ = stack
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
