"""Parameter container, unit conversion, and the physical input formulas
(the private forms the stacks call; their domain rules are the fields' own).

The frozen reference numbers were computed with 40-digit mpmath arithmetic
from the exact SI values h = 6.62607015e-34 J s, k_B = 1.380649e-23 J/K and
c = 299792458 m/s (hbar omega written as h f to avoid the rounded-hbar
pitfall).
"""

import dataclasses
import fnmatch
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ommlab import (
    ConfigError,
    DEFAULT_CONFIG,
    DomainError,
    config_snapshot,
    default_params,
    params_from_mapping,
)
from ommlab import model
from ommlab.harness import SWEEP_AXES
from ommlab.model import (
    GYROMAGNETIC_RATIO, PARAM_TABLE, TWO_PI, SystemParams, _drive, _occupation, _rabi,
)

# mpmath references (see module docstring)
N_B_40MHZ_10MK = 4.7251424406064838
N_M_10GHZ_10MK = 1.4359924589903224e-21
RABI_1MT = 20203152219677.293  # B0 = 1 mT, V = 1e-17 m^3, rho = 4.22e27 m^-3
DRIVE_44MW = 769624201277.7169  # P = 4.4 mW, kappa = 2 pi 2 MHz, 1064 nm


class TestThermalOccupation:
    def test_mechanical_reference_value(self):
        n = _occupation(TWO_PI * 40e6, 0.01)
        assert n == pytest.approx(N_B_40MHZ_10MK, rel=1e-12)

    def test_magnon_reference_value(self):
        n = _occupation(TWO_PI * 10e9, 0.01)
        assert n == pytest.approx(N_M_10GHZ_10MK, rel=1e-12)

    def test_zero_temperature_is_exactly_zero(self):
        assert _occupation(TWO_PI * 40e6, 0.0) == 0.0

    def test_half_occupation_at_ln2_point(self):
        # hbar omega = k_B T ln 2  ->  exp = 2  ->  n = 1
        from scipy.constants import hbar, k as k_b

        t = 0.01
        omega = k_b * t * math.log(2.0) / hbar
        assert _occupation(omega, t) == pytest.approx(1.0, rel=1e-12)

    def test_overflow_regime_returns_zero(self):
        # exponent ~ 7.6e11, exp() would overflow; occupation is exactly 0.0
        assert _occupation(1e20, 1e-3) == 0.0

    @given(
        omega=st.floats(1e5, 1e12),
        temperature=st.floats(1e-4, 10.0),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_both_arguments(self, omega, temperature, factor):
        base = _occupation(omega, temperature)
        assert _occupation(omega * factor, temperature) <= base
        assert _occupation(omega, temperature * factor) >= base

    def test_classical_limit(self):
        # hbar omega << k_B T: n -> k_B T / (hbar omega) - 1/2
        from scipy.constants import hbar, k as k_b

        omega, t = TWO_PI * 1e3, 1.0
        expected = k_b * t / (hbar * omega) - 0.5
        assert _occupation(omega, t) == pytest.approx(expected, rel=1e-6)


class TestDriveFormulas:
    def test_rabi_reference_value(self):
        assert _rabi(1e-3, 1e-17, 4.22e27) == pytest.approx(RABI_1MT, rel=1e-12)

    def test_rabi_scaling(self):
        base = _rabi(1e-3, 1e-17, 4.22e27)
        assert _rabi(2e-3, 1e-17, 4.22e27) == pytest.approx(2 * base, rel=1e-12)
        assert _rabi(1e-3, 4e-17, 4.22e27) == pytest.approx(2 * base, rel=1e-12)
        assert _rabi(1e-3, 1e-17, 4 * 4.22e27) == pytest.approx(2 * base, rel=1e-12)

    def test_rabi_prefactor(self):
        # Omega = (sqrt(5)/4) gamma sqrt(rho V) B0 with gamma = 2 pi 28 GHz/T
        got = _rabi(1.0, 1.0, 1.0)
        assert got == pytest.approx(math.sqrt(5.0) / 4.0 * GYROMAGNETIC_RATIO, rel=1e-14)

    def test_drive_reference_value(self):
        e = _drive(4.4e-3, TWO_PI * 2e6, 1064e-9)
        assert e == pytest.approx(DRIVE_44MW, rel=1e-12)

    def test_drive_scaling(self):
        base = _drive(4.4e-3, TWO_PI * 2e6, 1064e-9)
        quad_p = _drive(4 * 4.4e-3, TWO_PI * 2e6, 1064e-9)
        quad_k = _drive(4.4e-3, 4 * TWO_PI * 2e6, 1064e-9)
        assert quad_p == pytest.approx(2 * base, rel=1e-12)
        assert quad_k == pytest.approx(2 * base, rel=1e-12)


def _omega_at(x, temperature):
    """The angular frequency whose Bose exponent at ``temperature`` is x."""
    return x * model._k_boltzmann * temperature / model._hbar


class TestArrayArguments:
    """Each formula takes equal-shape arrays and returns, entry by entry, the
    floats of its scalar calls."""

    # T = 0, and exponents just below and just above the overflow cutoff
    OMEGA = np.array([
        TWO_PI * 40e6, TWO_PI * 10e9, TWO_PI * 10e9, TWO_PI * 40e6,
        _omega_at(699.0, 1e-3), _omega_at(701.0, 1e-3), 1e20, TWO_PI * 1e3,
    ])
    T = np.array([0.01, 0.01, 0.2, 0.0, 1e-3, 1e-3, 1e-3, 1.0])

    @staticmethod
    def assert_elementwise(fn, *columns):
        got = fn(*columns)
        want = [fn(*args) for args in zip(*(column.tolist() for column in columns))]
        assert all(isinstance(value, float) and np.ndim(value) == 0 for value in want)
        assert got.shape == columns[0].shape
        np.testing.assert_array_equal(got, want)
        return got

    def test__occupation(self):
        n = self.assert_elementwise(_occupation, self.OMEGA, self.T)
        assert n[3] == 0.0 and n[4] > 0.0 and n[5] == n[6] == 0.0

    def test_drive_formulas(self):
        self.assert_elementwise(
            _rabi, np.array([0.0, 1e-3, 1.0]), np.array([1e-17, 1e-17, 1.0]),
            np.array([4.22e27, 4 * 4.22e27, 1.0]),
        )
        self.assert_elementwise(
            _drive, np.array([0.0, 4.4e-3, 4.4e-3]),
            np.array([TWO_PI * 2e6, TWO_PI * 2e6, 1.0]), np.array([1064e-9, 1064e-9, 1.0]),
        )


class TestConfigIngestion:
    def test_defaults_convert_to_angular_units(self):
        p = default_params()
        assert p.omega_b == TWO_PI * 40e6
        assert p.kappa_a == TWO_PI * 1e6
        assert p.kappa_c1 == TWO_PI * 2e6
        assert p.gamma_b == TWO_PI * 100.0
        assert p.g_n1 == TWO_PI * 4e6
        assert p.g_c_eff == TWO_PI * 8e6
        assert p.g_mb_eff == TWO_PI * 2.5e6

    def test_detunings_are_multiples_of_omega_b(self):
        p = default_params(delta_a_over_wb=-0.5)
        assert p.delta_a == -0.5 * p.omega_b
        assert p.delta_c1 == -0.8 * p.omega_b
        assert p.delta_m == 1.0 * p.omega_b

    def test_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="temperature"):
            default_params(temperature=0.1)
        with pytest.raises(ConfigError, match="kappa_a_khz"):
            default_params(kappa_a_khz=1.0)

    def test_microwave_power_is_not_a_key(self):
        # the magnon drive is set by b_field_t; a power key would change nothing
        with pytest.raises(ConfigError, match="^unknown config keys: p_microwave_w$"):
            default_params(p_microwave_w=1.44e-3)

    @pytest.mark.parametrize("key", ["g_c_backaction", "theta_c_rad", "theta_m_rad"])
    def test_removed_convention_key_is_rejected_by_name(self, key):
        # the backaction placement and the coupling phases are fixed by the
        # interaction Hamiltonian (docs/drift_conventions.md)
        with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
            default_params(**{key: 0.0})

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError, match="temperature"):
            default_params(T=-0.01)

    def test_bool_is_not_a_number(self):
        for value in (True, np.True_):
            with pytest.raises(ConfigError, match="must be a real number"):
                default_params(T=value)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            default_params(delta_a_over_wb=float("nan"))

    def test_delta_c2_sign_must_be_unit(self):
        assert default_params(delta_c2_sign=1.0).delta_c2_sign == 1.0
        with pytest.raises(ConfigError):
            default_params(delta_c2_sign=0.5)

    def test_eq9_verbatim_must_be_bool(self):
        with pytest.raises(ConfigError, match="eq9_verbatim"):
            default_params(eq9_verbatim=1)

    def test_derived_mode_clears_effective_couplings(self):
        p = default_params(coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3)
        assert p.g_c_eff is None and p.g_mb_eff is None
        assert p.b_field == 1.1e-3

    def test_derived_mode_rejects_explicit_effective_coupling(self):
        with pytest.raises(ConfigError, match="exactly one source"):
            default_params(
                coupling_mode="derived", b_field_t=1.1e-3, g_c_hz=1.5e3, g_c_eff_hz=8e6
            )

    def test_derived_mode_needs_field_and_bare_couplings(self):
        with pytest.raises(ConfigError, match="b_field"):
            default_params(coupling_mode="derived", g_c_hz=1.5e3)
        with pytest.raises(ConfigError, match="bare g_c"):
            default_params(coupling_mode="derived", b_field_t=1.1e-3)  # g_c defaults to 0

    def test_direct_mode_needs_effective_couplings(self):
        with pytest.raises(ConfigError):
            default_params(g_c_eff_hz=None)

    def test_mapping_and_kwargs_agree(self):
        # any real number but a bool, numpy scalars too, stored as a Python float
        for t in (0.2, np.float32(0.2), np.int64(0), np.int32(1)):
            via_mapping = params_from_mapping({"delta_c2_over_wb": -0.9, "T": t})
            via_kwargs = default_params(delta_c2_over_wb=-0.9, T=t)
            assert via_mapping == via_kwargs
            assert type(via_kwargs.temperature) is float and via_kwargs.temperature == float(t)

    def test_snapshot_round_trips(self):
        p = default_params(delta_c2_over_wb=-1.1, T=0.123)
        snap = config_snapshot(p)
        assert set(snap) == set(DEFAULT_CONFIG)
        q = params_from_mapping(snap)
        for f in dataclasses.fields(p):
            a, b = getattr(p, f.name), getattr(q, f.name)
            if isinstance(a, float):
                assert b == pytest.approx(a, rel=1e-12), f.name
            else:
                assert a == b, f.name

    def test_snapshot_reports_config_units(self):
        snap = config_snapshot(default_params())
        assert snap["kappa_c2_hz"] == pytest.approx(2e6, rel=1e-12)
        assert snap["delta_a_over_wb"] == pytest.approx(-0.95, rel=1e-12)
        assert snap["T"] == 0.01
        assert snap["b_field_t"] is None

    def test_params_are_frozen(self):
        p = default_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.kappa_a = 1.0


class TestPhysicalConstants:
    def test_exact_si_values_equal_scipy(self):
        from scipy import constants

        assert model._c_light == constants.c
        assert model._k_boltzmann == constants.k
        assert model._hbar == constants.hbar

    def test_import_leaves_scipy_out(self):
        # scipy costs a fifth of a second to import; the package must not
        # pull it in just by being imported
        code = "import sys, ommlab; print('scipy' in sys.modules)"
        src = Path(model.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


def _config_value(param):
    """Strategy for a valid config value of one table row."""
    if isinstance(param.rule, tuple):
        return st.sampled_from(param.rule)
    if param.kind is bool:
        return st.booleans()
    bounds = {"positive": (1e-6, 1e12), "non_negative": (0.0, 1e9)}
    low, high = bounds.get(param.rule, (-5.0, 5.0))
    return st.floats(low, high, allow_subnormal=False)


@st.composite
def _configs(draw, mode):
    """A full config in one coupling mode, drawing every key of the table."""
    config = {p.key: draw(_config_value(p)) for p in PARAM_TABLE}
    config["coupling_mode"] = mode
    if mode == "derived":
        config["g_c_eff_hz"] = config["g_mb_eff_hz"] = None
        for key in ("g_c_hz", "g_m_hz", "p_laser_w"):
            config[key] = draw(st.floats(1e-3, 1e9))
    else:
        config["b_field_t"] = draw(st.none() | st.floats(0.0, 1e-2))
    return config


def _assert_close(a, b, label):
    if isinstance(a, float):
        assert b == pytest.approx(a, rel=1e-12, abs=0.0), label
    else:
        assert a == b, label


class TestParamTable:
    def test_rows_follow_the_dataclass_fields(self):
        fields = [f.name for f in dataclasses.fields(SystemParams)]
        assert [p.field for p in PARAM_TABLE] == fields
        assert list(DEFAULT_CONFIG) == [p.key for p in PARAM_TABLE]

    def test_sweep_axes_are_the_sweepable_rows(self):
        assert set(SWEEP_AXES) == {p.key for p in PARAM_TABLE if p.sweepable}

    def test_readme_lists_the_sweep_axes(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        prose = re.search(r"Sweepable axes:(.*?)\n\n", readme.read_text(), re.S).group(1)
        patterns = re.findall(r"`([^`]+)`", prose)
        matched = [fnmatch.filter(SWEEP_AXES, pattern) for pattern in patterns]
        assert all(matched), patterns
        assert set().union(*map(set, matched)) == set(SWEEP_AXES)

    @given(data=st.data(), mode=st.sampled_from(["direct", "derived"]))
    @settings(max_examples=60, deadline=None)
    def test_config_round_trips_through_the_snapshot(self, data, mode):
        config = data.draw(_configs(mode))
        params = params_from_mapping(config)
        # a subnormal field carries fewer than 52 bits, so no relative bound
        # holds for it (see the next test)
        assume(all(
            not isinstance(value, float) or value == 0.0 or abs(value) >= sys.float_info.min
            for value in vars(params).values()
        ))
        snap = config_snapshot(params)
        assert list(snap) == list(config)
        for key, value in config.items():
            _assert_close(value, snap[key], key)
        again = params_from_mapping(snap)
        for f in dataclasses.fields(SystemParams):
            _assert_close(getattr(params, f.name), getattr(again, f.name), f.name)

    def test_subnormal_field_round_trips_within_half_its_spacing(self):
        # x omega_b is subnormal here: its product is correctly rounded, to
        # half the spacing 2^-1074, but carries too few bits for rel 1e-12
        x = 2.2250738585072014e-308
        params = params_from_mapping({"delta_m_over_wb": x, "omega_b_hz": 1e-6})
        assert 0.0 < params.delta_m < sys.float_info.min
        snap = config_snapshot(params)["delta_m_over_wb"]
        assert snap != pytest.approx(x, rel=1e-12, abs=0.0)
        error = abs(Fraction(snap) - Fraction(x)) * Fraction(params.omega_b)
        assert error <= Fraction(1, 2**1075)

    @given(data=st.data(), mode=st.sampled_from(["direct", "derived"]))
    @settings(max_examples=60, deadline=None)
    def test_axis_setters_agree_with_the_config_path(self, data, mode):
        params = params_from_mapping(data.draw(_configs(mode)))
        axes = [p for p in PARAM_TABLE if p.sweepable]
        if mode == "derived":
            axes = [p for p in axes if not p.nullable]
        for param in axes:
            value = data.draw(_config_value(param), label=param.key)
            via_setter = SWEEP_AXES[param.key](params, value)
            via_config = params_from_mapping({**config_snapshot(params), param.key: value})
            for f in dataclasses.fields(SystemParams):
                _assert_close(
                    getattr(via_config, f.name), getattr(via_setter, f.name), param.key
                )

    @pytest.mark.parametrize(
        "param", [p for p in PARAM_TABLE if p.rule is not None], ids=lambda p: p.key
    )
    def test_domain_rule_rejects_by_name(self, param):
        bad = {"positive": 0.0, "non_negative": -1.0}
        value = bad.get(param.rule, "bogus" if param.kind is str else 0.5)
        with pytest.raises(ConfigError, match=f"{param.key}|{param.field}"):
            default_params(**{param.key: value})
        if param.rule in ("positive", "non_negative"):
            # the config parser stops inf first; the field rule catches it too
            with pytest.raises(DomainError, match=param.field):
                dataclasses.replace(default_params(), **{param.field: float("inf")})

    def test_null_is_rejected_where_the_table_forbids_it(self):
        for param in PARAM_TABLE:
            if not param.nullable:
                with pytest.raises(ConfigError, match=param.key):
                    default_params(**{param.key: None})
