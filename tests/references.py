"""Reference values and fixtures the tests share, computed without the package.

The three input formulas are written out from ``scipy.constants``, so a test
that compares the program's occupations, Rabi frequencies or drives with them
does not compare the program with itself.
"""

import math

import numpy as np
from scipy import constants

#: Gyromagnetic ratio of the spin ensemble, 2 pi 28 GHz/T, in rad s^-1 T^-1.
GAMMA = 2.0 * math.pi * 28e9


def occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar omega / k_B T) - 1), 0.0 at T = 0."""
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(constants.hbar * omega / (constants.k * temperature))


def rabi(b_field: float, volume: float, spin_density: float) -> float:
    """Omega = (sqrt(5)/4) gamma sqrt(rho V) B_0, rad/s."""
    return (math.sqrt(5.0) / 4.0) * GAMMA * math.sqrt(spin_density * volume) * b_field


def drive(power: float, kappa: float, wavelength: float) -> float:
    """E = sqrt(2 P kappa / (hbar omega_L)), omega_L = 2 pi c / wavelength, rad/s."""
    omega_laser = 2.0 * math.pi * constants.c / wavelength
    return math.sqrt(2.0 * power * kappa / (constants.hbar * omega_laser))


def random_two_mode_covariance(rng: np.random.Generator) -> np.ndarray:
    """Draw a random physical two-mode covariance matrix.

    Built as S N S^T with N a thermal diagonal (symplectic eigenvalues in
    [0.5, 5]) and S a random symplectic composed of local squeezes, a
    two-mode squeeze, and local rotations. Covers separable and entangled,
    pure and mixed states.
    """
    nu1, nu2 = rng.uniform(0.5, 5.0, size=2)
    thermal = np.diag([nu1, nu1, nu2, nu2])

    s1, s2 = rng.uniform(-1.0, 1.0, size=2)
    local_squeeze = np.diag([math.exp(s1), math.exp(-s1), math.exp(s2), math.exp(-s2)])

    r = rng.uniform(0.0, 1.5)
    ch, sh = math.cosh(r), math.sinh(r)
    tms = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )

    def rotation(phi: float) -> np.ndarray:
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, s], [-s, c]])

    phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    local_rot = np.zeros((4, 4))
    local_rot[0:2, 0:2] = rotation(phi1)
    local_rot[2:4, 2:4] = rotation(phi2)

    s_total = local_rot @ tms @ local_squeeze
    v = s_total @ thermal @ s_total.T
    return 0.5 * (v + v.T)
