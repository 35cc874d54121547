"""System parameters, unit conventions, and the input formulas the stacks use.

Everything downstream works in angular units (rad/s). Configuration happens in
laboratory units (Hz for rates and couplings, multiples of the mechanical
frequency for detunings, kelvin for temperature); the conversion happens here,
exactly once, when a parameter set is built.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

#: Exact 2019 SI values: speed of light, Boltzmann constant, hbar = h / 2 pi.
_c_light = 299792458.0
_k_boltzmann = 1.380649e-23
_hbar = 6.62607015e-34 / TWO_PI

#: Gyromagnetic ratio of the ferrimagnetic spin ensemble, rad s^-1 T^-1.
GYROMAGNETIC_RATIO = TWO_PI * 28e9

#: Argument cutoff for the Bose factor: exp(x) overflows double precision
#: near x = 710, and the occupation is already ~1e-304 there.
_BOSE_OVERFLOW_CUTOFF = 700.0

#: A scalar, or an array of one value per point of a stack.
_Real = float | np.ndarray


@dataclass(frozen=True)
class Param:
    """One row of :data:`PARAM_TABLE`: a config key and the field it sets.

    ``unit`` says how a config value becomes a field value: ``"hz"`` is a
    rate in Hz stored in rad/s (times 2 pi), ``"wb"`` a multiple of the
    mechanical frequency omega_b, and None keeps the value as is (SI units,
    kelvin, strings and flags). ``kind`` is the config value's type.
    ``rule`` is the field's domain check in :class:`SystemParams`:
    ``"positive"``, ``"non_negative"`` (both also finite), a tuple of the
    allowed values, or None. A ``nullable`` key may be null; a
    ``sweepable`` one may name a sweep axis.
    """

    key: str
    field: str
    default: Any
    unit: str | None
    kind: type
    rule: str | tuple | None
    nullable: bool = False
    sweepable: bool = False

    def to_field(self, value: Any, omega_b: float) -> Any:
        """A value in config units, in the units of :class:`SystemParams`."""
        if value is None or self.unit is None:
            return value
        return value * (TWO_PI if self.unit == "hz" else omega_b)

    def to_config(self, value: Any, omega_b: float) -> Any:
        """The inverse of :meth:`to_field`."""
        if value is None or self.unit is None:
            return value
        return value / (TWO_PI if self.unit == "hz" else omega_b)


#: Every model parameter, in :class:`SystemParams` field order, with its
#: default operating point in config units. The one list of config keys.
PARAM_TABLE: tuple[Param, ...] = (
    Param("omega_m_hz", "omega_m", 10e9, "hz", float, "positive"),
    Param("omega_b_hz", "omega_b", 40e6, "hz", float, "positive"),
    Param("kappa_a_hz", "kappa_a", 1e6, "hz", float, "positive"),
    Param("kappa_c1_hz", "kappa_c1", 2e6, "hz", float, "positive"),
    Param("kappa_c2_hz", "kappa_c2", 2e6, "hz", float, "positive"),
    Param("kappa_m_hz", "kappa_m", 1e6, "hz", float, "positive"),
    Param("gamma_b_hz", "gamma_b", 100.0, "hz", float, "positive"),
    Param("g_n1_hz", "g_n1", 4e6, "hz", float, "non_negative", sweepable=True),
    Param("g_n2_hz", "g_n2", 8e6, "hz", float, "non_negative", sweepable=True),
    Param("g_c_hz", "g_c", 0.0, "hz", float, "non_negative"),
    Param("g_m_hz", "g_m", 20.0, "hz", float, "non_negative"),
    Param("g_c_eff_hz", "g_c_eff", 8e6, "hz", float, "non_negative",
          nullable=True, sweepable=True),
    Param("g_mb_eff_hz", "g_mb_eff", 2.5e6, "hz", float, "non_negative",
          nullable=True, sweepable=True),
    Param("delta_a_over_wb", "delta_a", -0.95, "wb", float, None, sweepable=True),
    Param("delta_c1_over_wb", "delta_c1", -0.8, "wb", float, None, sweepable=True),
    Param("delta_c2_over_wb", "delta_c2", -0.8, "wb", float, None, sweepable=True),
    Param("delta_m_over_wb", "delta_m", 1.0, "wb", float, None, sweepable=True),
    Param("T", "temperature", 0.01, None, float, "non_negative", sweepable=True),
    Param("p_laser_w", "p_laser", 4.4e-3, None, float, "non_negative"),
    Param("lambda_laser_m", "lambda_laser", 1064e-9, None, float, "positive"),
    Param("b_field_t", "b_field", None, None, float, "non_negative", nullable=True),
    Param("v_yig_m3", "v_yig", 1e-17, None, float, "positive"),
    Param("rho_spin_m3", "rho_spin", 4.22e27, None, float, "positive"),
    Param("coupling_mode", "coupling_mode", "direct", None, str, ("direct", "derived")),
    Param("delta_c2_sign", "delta_c2_sign", -1.0, None, float, (1.0, -1.0)),
    Param("eq9_verbatim", "eq9_verbatim", False, None, bool, None),
)


# The per-field checks run once per axis step of a sweep, so each rule's
# fields are gathered here once rather than looked up row by row.
_POSITIVE = tuple(p.field for p in PARAM_TABLE if p.rule == "positive")
_NON_NEGATIVE = tuple(p.field for p in PARAM_TABLE if p.rule == "non_negative")
_CHOICES = tuple((p.field, p.rule) for p in PARAM_TABLE if isinstance(p.rule, tuple))
_NULLABLE = frozenset(p.field for p in PARAM_TABLE if p.nullable)


@dataclass(frozen=True)
class SystemParams:
    """Immutable parameter set for the five-mode system, in rad/s and SI.

    Mode frequencies, decay rates, detunings, and couplings are angular
    (rad/s). Drive-power fields stay in SI and only matter when
    ``coupling_mode == "derived"``; in direct mode they ride along as
    metadata.

    One sign convention is configurable, ``delta_c2_sign``: the sign applied
    to ``delta_c2`` before the radiation-pressure shift. Quoted operating
    points for this system state the driven cavity's detuning in the
    opposite sense to the Langevin convention used by the drift builder; the
    default -1.0 maps the quoted red-detuned values onto the cooling branch
    that produces the reported entanglement. Set +1.0 to read delta_c2 in the
    same sense as the other detunings. Where the backaction enters the drift
    and the coupling phases are fixed by the interaction Hamiltonian, not
    configured (docs/drift_conventions.md).
    """

    omega_m: float
    omega_b: float
    kappa_a: float
    kappa_c1: float
    kappa_c2: float
    kappa_m: float
    gamma_b: float
    g_n1: float
    g_n2: float
    g_c: float
    g_m: float
    g_c_eff: float | None
    g_mb_eff: float | None
    delta_a: float
    delta_c1: float
    delta_c2: float
    delta_m: float
    temperature: float
    p_laser: float
    lambda_laser: float
    b_field: float | None
    v_yig: float
    rho_spin: float
    coupling_mode: str
    delta_c2_sign: float
    eq9_verbatim: bool

    def __post_init__(self) -> None:
        values = self.__dict__
        for name in _POSITIVE:
            if not 0.0 < values[name] < math.inf:
                raise DomainError(f"{name} must be finite and strictly positive")
        for name in _NON_NEGATIVE:
            value = values[name]
            if not (0.0 <= value < math.inf if value is not None else name in _NULLABLE):
                raise DomainError(f"{name} must be finite and non-negative")
        for name, allowed in _CHOICES:
            if values[name] not in allowed:
                raise DomainError(
                    f"{name} must be one of {allowed}, got {values[name]!r}"
                )
        if self.coupling_mode == "direct":
            if self.g_c_eff is None or self.g_mb_eff is None:
                raise DomainError(
                    "direct coupling mode needs explicit g_c_eff and g_mb_eff"
                )
        else:
            if self.g_c_eff is not None or self.g_mb_eff is not None:
                raise DomainError(
                    "derived coupling mode must not carry g_c_eff or g_mb_eff; "
                    "exactly one source per coupling is allowed"
                )
            if self.b_field is None:
                raise DomainError("derived coupling mode needs b_field (tesla)")
            if not (self.g_c > 0.0 and self.g_m > 0.0):
                raise DomainError(
                    "derived coupling mode needs strictly positive bare g_c and g_m"
                )
            if not self.p_laser > 0.0:
                raise DomainError("derived coupling mode needs strictly positive p_laser")

    @property
    def derived(self) -> bool:
        """The coupling mode as the flag that a point table reads."""
        return self.coupling_mode == "derived"


#: The rows of a point table, see :func:`columns`: every field of
#: :class:`SystemParams` in field order, the coupling mode as the flag ``derived``.
TABLE_FIELDS = tuple("derived" if p.field == "coupling_mode" else p.field for p in PARAM_TABLE)
_READ = operator.attrgetter(*TABLE_FIELDS)
_ROW = {field: k for k, field in enumerate(TABLE_FIELDS)}


def rows(*fields: str) -> np.ndarray:
    """The rows of ``fields`` in a point table."""
    return np.array([_ROW[field] for field in fields])


def columns(points: Sequence[SystemParams]) -> np.ndarray:
    """The point table of N parameter sets, (len(TABLE_FIELDS), N): row k holds
    field ``TABLE_FIELDS[k]`` of each point, flags as 0.0 and 1.0 and None as
    NaN. A stack reads its points once, here; its builders take rows of the table."""
    return np.array([_READ(p) for p in points], float).reshape(-1, len(TABLE_FIELDS)).T


def _check(bad: Any, message: str, error: type[Exception] = DomainError) -> None:
    """Raise ``error(message)`` where a scalar or array comparison ``bad``
    holds anywhere (ndarray.any costs 3x more on small stacks)."""
    if np.count_nonzero(bad) if isinstance(bad, np.ndarray) else bad:
        raise error(message)


# The three input formulas. They check no domain: a SystemParams holds its
# fields to their rules, and harness.run_sweep each swept value. Each takes
# scalars or equal-shape arrays.

def _occupation(omega: _Real, temperature: _Real) -> _Real:
    """Mean thermal occupation of a bath mode at angular frequency omega.

    Returns 1/(exp(hbar omega / k_B T) - 1), computed with expm1 so small
    arguments stay accurate. Exactly 0.0 at zero temperature, and 0.0 once
    the exponent would overflow double precision (the true value is below
    the smallest normal float long before that).
    """
    cold = temperature == 0.0
    # T, or 1 where T = 0, which the next line sends to infinity: no division by zero
    x = _hbar * omega / (_k_boltzmann * (temperature + cold))
    # an infinite exponent gives exactly 0.0, without overflow
    return 1.0 / np.expm1(np.where(cold | (x > _BOSE_OVERFLOW_CUTOFF), np.inf, x))


def _rabi(b_field: _Real, volume: _Real, spin_density: _Real) -> _Real:
    """Collective Rabi frequency of the driven magnon mode, rad/s.

    Omega = (sqrt(5)/4) gamma sqrt(rho V) B_0 for a fully polarized
    ferrimagnetic sphere of volume V, spin density rho, in a drive field of
    amplitude B_0.
    """
    return (math.sqrt(5.0) / 4.0) * GYROMAGNETIC_RATIO * np.sqrt(spin_density * volume) * b_field


def _drive(power: _Real, kappa: _Real, wavelength: _Real) -> _Real:
    """Coherent drive amplitude E = sqrt(2 P kappa / (hbar omega_L)), rad/s.

    omega_L is the laser angular frequency 2 pi c / wavelength and kappa the
    decay rate of the driven cavity.
    """
    return np.sqrt(2.0 * power * kappa / (_hbar * (TWO_PI * _c_light / wavelength)))


# ---------------------------------------------------------------------------
# configuration ingestion
# ---------------------------------------------------------------------------

#: Default operating point, in configuration units.
DEFAULT_CONFIG: dict[str, Any] = {p.key: p.default for p in PARAM_TABLE}

#: Configuration keys that set model parameters (harness-level keys like
#: "sweep" and "pairs" are stripped before this module sees the mapping).
PARAM_KEYS = frozenset(DEFAULT_CONFIG)


def _require_real(what: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return v


def _require(param: Param, value: Any) -> Any:
    if value is None and param.nullable:
        return None
    what = f"config key {param.key!r}"
    if param.kind is float:
        return _require_real(what, value)
    if not isinstance(value, param.kind):
        kind = "a string" if param.kind is str else "a boolean"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value


def params_from_mapping(mapping: Mapping[str, Any]) -> SystemParams:
    """Build a validated :class:`SystemParams` from a configuration mapping.

    Keys absent from the mapping take their defaults; unknown keys are an
    error that names them. This is the single place where Hz turn into rad/s
    and detuning multiples turn into absolute detunings.
    """
    unknown = sorted(set(mapping) - PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    merged = dict(DEFAULT_CONFIG)
    if mapping.get("coupling_mode") == "derived":
        # derived mode computes the effective couplings instead
        merged.update(g_c_eff_hz=None, g_mb_eff_hz=None)
    merged.update(mapping)
    values = {p.field: _require(p, merged[p.key]) for p in PARAM_TABLE}
    omega_b = TWO_PI * values["omega_b"]
    try:
        return SystemParams(
            **{p.field: p.to_field(values[p.field], omega_b) for p in PARAM_TABLE}
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def default_params(**overrides: Any) -> SystemParams:
    """Default operating point, with optional overrides in config units.

    ``default_params(delta_c2_over_wb=-0.9, T=0.2)`` is the same as loading a
    config file containing those two keys. For overrides in angular units use
    :func:`dataclasses.replace` on the result instead.
    """
    return params_from_mapping(overrides)


def config_snapshot(params: SystemParams) -> dict[str, Any]:
    """Round-trip a parameter set back to configuration units.

    Used by the sweep writer to stamp outputs with the exact operating point.
    Key order follows the dataclass fields, so the snapshot is deterministic.
    """
    return {
        p.key: p.to_config(getattr(params, p.field), params.omega_b) for p in PARAM_TABLE
    }


__all__ = [
    "DEFAULT_CONFIG",
    "GYROMAGNETIC_RATIO",
    "PARAM_KEYS",
    "PARAM_TABLE",
    "Param",
    "TABLE_FIELDS",
    "SystemParams",
    "TWO_PI",
    "columns",
    "config_snapshot",
    "default_params",
    "params_from_mapping",
    "rows",
]
