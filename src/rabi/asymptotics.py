"""Three-term eigenvalue asymptotics, phases, deviations, and residuals.

For large label n the eigenvalues of each parity class follow

    E_n = n - g**2  +-  C * (-1)**n * cos(theta_n) / n**(1/4),
    theta_n = 4*g*sqrt(n) - pi/4,      C = delta / sqrt(2*pi*g),

with a remainder decaying like n**(-1/2) up to subpolynomial factors.  The
PLUS class (diagonal k + (-1)**k * delta) takes the plus sign of the
correction and the MINUS class the minus sign; this pairing is what the
converged spectra themselves exhibit with labels counted from below, and
the residual-decay acceptance checks pin it down.

The remainder is never modeled here: :func:`three_term_eigenvalue` is the
pure three-term value, and the decay of the residual against it is verified
statistically via :func:`residual_decay_slope`.
"""

from __future__ import annotations

import math

import numpy as np

from .eigensolver import SpectrumTable
from .model import ModelParams, Parity, alternation

__all__ = [
    "deviation_amplitude",
    "theta",
    "fractional_phase",
    "three_term_eigenvalue",
    "deviations",
    "residuals",
    "residual_decay_slope",
]

# Residuals below this are numerical-noise floor, not asymptotic signal;
# the decay regression discards them.
RESIDUAL_FLOOR = 1e-9


def deviation_amplitude(params: ModelParams) -> float:
    """Amplitude C = delta / sqrt(2*pi*g) bounding the normalized deviations."""
    return params.delta / math.sqrt(2.0 * math.pi * params.g)


def theta(n, g: float):
    """Oscillation phase 4*g*sqrt(n) - pi/4 (elementwise on arrays)."""
    return 4.0 * g * np.sqrt(n) - 0.25 * np.pi


def fractional_phase(n, g: float):
    """Fractional part of (2*g/pi)*sqrt(n) - 1/8, in [0, 1).

    Satisfies cos(2*pi*fractional_phase(n, g)) == cos(theta(n, g)); the
    integer part dropped here is irrelevant to the cosine.
    """
    x = (2.0 * g / np.pi) * np.sqrt(n) - 0.125
    return x - np.floor(x)


def three_term_eigenvalue(n, parity: Parity, params: ModelParams):
    """Three-term approximation to E_n for one parity class, n >= 1.

    PLUS parity adds the oscillatory correction, MINUS subtracts it; the two
    values average to exactly n - g**2.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ValueError("three-term value is defined for labels n >= 1")
    corr = (
        deviation_amplitude(params)
        * alternation(np.asarray(n_arr, dtype=np.int64))
        * np.cos(theta(n_arr, params.g))
        / np.power(n_arr, 0.25)
    )
    value = n_arr - params.g**2 + parity.sign * corr
    return float(value) if np.isscalar(n) else value


def deviations(table: SpectrumTable, parity: Parity) -> np.ndarray:
    """Vector of normalized deviations for labels 1..max_label of one parity."""
    labels = table.labels(parity)
    values = table.values(parity)
    return labels**0.25 * (values - (labels - table.params.g**2))


def residuals(table: SpectrumTable, parity: Parity) -> np.ndarray:
    """Vector of residuals against the three-term values for one parity."""
    labels = table.labels(parity)
    return table.values(parity) - three_term_eigenvalue(labels, parity, table.params)


def residual_decay_slope(
    table: SpectrumTable,
    parity: Parity,
    n_min: int = 200,
    n_max: int = 2000,
    floor: float = RESIDUAL_FLOOR,
) -> float:
    """Least-squares slope of log|residual| against log n over [n_min, n_max]."""
    labels = table.labels(parity)
    res = residuals(table, parity)
    sel = (labels >= n_min) & (labels <= n_max) & (np.abs(res) > floor)
    if int(np.sum(sel)) < 2:
        raise ValueError("not enough usable residuals for a decay fit")
    slope, _ = np.polyfit(np.log(labels[sel]), np.log(np.abs(res[sel])), 1)
    return float(slope)
