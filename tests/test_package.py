"""The package surface: every exported name resolves, and the names the
benchmark under perfbench/ imports stay there."""

import dataclasses
import importlib

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
    _, _, _, a, _, _, _ = ommlab.harness._working_points([p])
    assert ommlab.build_drift(p, report.state).a.tobytes() == a[0].tobytes()
    moved = dataclasses.replace(report.state, q_avg=report.state.q_avg * (1 + 1e-7) + 1.0)
    assert moved.q_avg != report.state.q_avg and moved.g_c_eff == report.state.g_c_eff
