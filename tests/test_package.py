"""The package surface: every exported name resolves, and the names the
benchmark under perfbench/ imports stay there."""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ommlab
import ommlab.cli  # noqa: F401  perfbench's "from ommlab import cli" loads it too

#: The modules that declare an ``__all__``.
MODULES = ("dynamics", "entanglement", "harness", "model", "semiclassics", "steadystate")

#: What perfbench/ imports from the package root.
BENCHMARK_NAMES = (
    "build_drift", "build_diffusion", "solve_lyapunov", "solve_semiclassics",
    "physicality_margin", "nu_minus_via_partial_transpose", "magnon_average",
    "cavity2_average_closed_form", "mechanical_displacement", "config_snapshot",
    "default_params", "evaluate_point", "load_config", "cli", "harness",
)

#: What perfbench/ reads as attributes of the package's modules.
BENCHMARK_ATTRIBUTES = {
    "cli": ("main",),
    "dynamics": ("build_diffusion", "build_drift"),
    "entanglement": ("nu_minus_via_partial_transpose",),
    "errors": ("ConvergenceError",),
    "harness": (
        "Axis", "PointReport", "SWEEP_AXES", "SweepResult", "SweepSpec", "evaluate_point",
        "load_config", "run_sweep", "write_csv", "write_pgm",
    ),
    "semiclassics": (
        "SemiclassicalState", "cavity2_average_closed_form", "magnon_average",
        "mechanical_displacement", "solve_semiclassics",
    ),
    "steadystate": ("physicality_margin", "solve_lyapunov"),
}


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("ommlab" + (f".{module}" if module else ""))
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_benchmark_imports_stay_exported():
    assert [name for name in BENCHMARK_NAMES if not hasattr(ommlab, name)] == []
    assert set(BENCHMARK_NAMES) - {"cli", "harness"} <= set(ommlab.__all__)
    for module, names in BENCHMARK_ATTRIBUTES.items():
        mod = importlib.import_module(f"ommlab.{module}")
        assert [name for name in names if not hasattr(mod, name)] == [], module


def test_readme_module_names_resolve():
    # README names library entries as `module.name`; a renamed or deleted one
    # must not stay there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {info.name for info in pkgutil.iter_modules(ommlab.__path__)}
    named = {
        (module, name) for module, name in re.findall(r"`(\w+)\.(\w+)[^`]*`", readme)
        if module in modules
    }
    assert named
    missing = [
        f"{module}.{name}" for module, name in sorted(named)
        if not hasattr(importlib.import_module(f"ommlab.{module}"), name)
    ]
    assert missing == []


#: A derived point whose kept working point is its second branch.
LATER_BRANCH = {
    "coupling_mode": "derived", "b_field_t": 3.3e-3, "g_c_hz": 960, "g_m_hz": 280,
    "p_laser_w": 4e-3, "delta_c2_over_wb": 0.28, "delta_m_over_wb": -2.3,
    "delta_a_over_wb": 1.0, "delta_c1_over_wb": 1.8,
}


@pytest.mark.parametrize("overrides", [{}, LATER_BRANCH], ids=["direct", "later-branch"])
def test_benchmark_reads_states_as_objects(overrides):
    # perfbench/ builds drifts from a report's state and perturbs states
    # with dataclasses.replace
    p = ommlab.default_params(**overrides)
    assert type(ommlab.solve_semiclassics(p)) is ommlab.SemiclassicalState
    report = ommlab.evaluate_point(p)
    assert type(report.state) is ommlab.SemiclassicalState
    _, _, a, _, _, _, _ = ommlab.harness._working_points(ommlab.model.columns([p]))
    # stage 1 holds the drift in units of omega_b
    assert (ommlab.build_drift(p, report.state).a / p.omega_b).tobytes() == a[0].tobytes()
    moved = dataclasses.replace(report.state, q_avg=report.state.q_avg * (1 + 1e-7) + 1.0)
    assert moved.q_avg != report.state.q_avg and moved.g_c_eff == report.state.g_c_eff


@pytest.mark.parametrize("overrides", [{}, LATER_BRANCH], ids=["direct", "later-branch"])
def test_benchmark_reference_covariance_is_stage_two(overrides):
    # perfbench/ checks a point against solve_lyapunov on the rad/s drift and
    # diffusion of its state at scale omega_b: the same V, to the bit, as the
    # harness's own stage 2 on the stacks stage 1 scaled
    p = ommlab.default_params(**overrides)
    report = ommlab.evaluate_point(p)
    d, _, a, eigs, vecs, _, _ = ommlab.harness._working_points(ommlab.model.columns([p]))
    pairs = [ommlab.entanglement.parse_pair(label) for label in report.entanglement]
    v, _, errors, _ = ommlab.harness._steady_state(a, d, eigs, vecs, pairs)
    assert errors == [None]
    reference = ommlab.solve_lyapunov(
        ommlab.build_drift(p, report.state), ommlab.build_diffusion(p), scale=p.omega_b
    )
    assert reference.v.tobytes() == v[0].tobytes()


def test_cold_start_imports_no_scipy():
    # the benchmark's set-up imports the package and its CLI and evaluates a
    # point; an eager scipy import (scipy.constants alone takes 0.2 s) would
    # cost more than the rest of that set-up. The oracle imports none either,
    # nor does the Lyapunov solve's fallback.
    code = (
        "import sys, ommlab, ommlab.cli; "
        "report = ommlab.evaluate_point(ommlab.default_params()); "
        "assert report.error is None; "
        "report = ommlab.evaluate_point(ommlab.default_params(), oracle=True); "
        "assert report.error is None and report.oracle_deviation < 1e-9; "
        # the census gate point, whose Lyapunov solve takes the fallback
        "report = ommlab.evaluate_point(ommlab.default_params(eq9_verbatim=True, "
        "coupling_mode='derived', b_field_t=1.1e-3, g_c_hz=1.5e3, "
        "delta_c2_over_wb=-1.550279006421079, delta_m_over_wb=0.34808353387762303), "
        "oracle=True); "
        "assert report.error is None and report.oracle_deviation is None; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = Path(ommlab.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
