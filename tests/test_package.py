"""The package surface: every exported name resolves, and the names the
benchmark under perfbench/ imports stay there."""

import importlib

import pytest

import ommlab

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
