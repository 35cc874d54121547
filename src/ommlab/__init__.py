"""Steady-state Gaussian entanglement of a five-mode system: two optical
cavities bridged by an atomic ensemble, with one cavity coupled by radiation
pressure to a mechanical oscillator that a magnon mode drives
magnetostrictively.

The pipeline: physical parameters -> semiclassical working point -> linearized
drift and diffusion matrices -> steady-state covariance (Lyapunov solve, with
an independent relaxation along the exact flow as cross-check) -> bipartite
logarithmic negativities and detuning/temperature sweeps.
"""

from .dynamics import (
    DIM,
    DiffusionMatrix,
    DriftMatrix,
    build_diffusion,
    build_drift,
)
from .entanglement import (
    EntanglementReport,
    Mode,
    nu_minus_via_partial_transpose,
    parse_pair,
    random_two_mode_covariance,
    transformation_efficiency,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateOperatingPointError,
    DomainError,
    NumericalError,
    OmmlabError,
    StabilityError,
)
from .harness import (
    DEFAULT_PAIRS,
    Axis,
    PointReport,
    RunConfig,
    SweepResult,
    SweepSpec,
    VERSION,
    evaluate_point,
    load_config,
    run_sweep,
    write_csv,
    write_pgm,
)
from .model import (
    DEFAULT_CONFIG,
    SystemParams,
    config_snapshot,
    default_params,
    laser_drive_strength,
    params_from_mapping,
    rabi_frequency,
    thermal_occupation,
)
from .semiclassics import (
    SemiclassicalState,
    cavity2_average_closed_form,
    effective_couplings,
    magnon_average,
    mechanical_displacement,
    solve_semiclassics,
)
from .steadystate import (
    CovarianceMatrix,
    physicality_margin,
    solve_lyapunov,
    symplectic_form,
)

__version__ = VERSION

__all__ = [
    "Axis",
    "ConfigError",
    "ConvergenceError",
    "CovarianceMatrix",
    "DEFAULT_CONFIG",
    "DEFAULT_PAIRS",
    "DIM",
    "DegenerateOperatingPointError",
    "DiffusionMatrix",
    "DomainError",
    "DriftMatrix",
    "EntanglementReport",
    "Mode",
    "NumericalError",
    "OmmlabError",
    "PointReport",
    "RunConfig",
    "SemiclassicalState",
    "StabilityError",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "VERSION",
    "build_diffusion",
    "build_drift",
    "cavity2_average_closed_form",
    "config_snapshot",
    "default_params",
    "effective_couplings",
    "evaluate_point",
    "laser_drive_strength",
    "load_config",
    "magnon_average",
    "mechanical_displacement",
    "nu_minus_via_partial_transpose",
    "params_from_mapping",
    "parse_pair",
    "physicality_margin",
    "rabi_frequency",
    "random_two_mode_covariance",
    "run_sweep",
    "solve_lyapunov",
    "solve_semiclassics",
    "symplectic_form",
    "thermal_occupation",
    "transformation_efficiency",
    "write_csv",
    "write_pgm",
]
