import math

import mpmath
import numpy as np
import pytest

from rabi import (
    ModelParams,
    Parity,
    ParitySpectrum,
    SpectrumTable,
    deviation_amplitude,
    deviations,
    residual_decay_slope,
    residuals,
    theta,
    three_term_eigenvalue,
)


def table_from_values(params, plus_values, minus_values):
    def spectrum(values):
        return ParitySpectrum(values, np.zeros(len(values)), truncation_dim=1024)

    return SpectrumTable.from_records(params, spectrum(plus_values), spectrum(minus_values))


def test_theta_examples():
    assert theta(0, 0.7) == pytest.approx(-math.pi / 4, abs=1e-15)
    assert theta(1, math.pi / 4) == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert theta(4, 0.5) == pytest.approx(3.2146018366, abs=1e-9)


def test_three_term_examples():
    no_split = ModelParams(0.9, 0.0)
    for n in (1, 7, 400):
        for parity in Parity:
            assert three_term_eigenvalue(n, parity, no_split) == n - 0.9**2
    # g = 3*pi/16 puts theta_1 at pi/2, killing the correction at n = 1.
    params = ModelParams(3.0 * math.pi / 16.0, 0.4)
    for parity in Parity:
        value = three_term_eigenvalue(1, parity, params)
        assert value == pytest.approx(1.0 - params.g**2, abs=1e-12)
    with pytest.raises(ValueError):
        three_term_eigenvalue(0, Parity.PLUS, ModelParams(0.7, 0.4))


def test_three_term_high_precision_cross_check():
    # n = 100, even label: PLUS parity adds the correction term.
    params = ModelParams(0.5, 0.4)
    with mpmath.workdps(50):
        amp = mpmath.mpf("0.4") / mpmath.sqrt(2 * mpmath.pi * mpmath.mpf("0.5"))
        angle = 4 * mpmath.mpf("0.5") * mpmath.sqrt(100) - mpmath.pi / 4
        expected = 100 - mpmath.mpf("0.25") + amp * mpmath.cos(angle) / mpmath.mpf(100) ** mpmath.mpf("0.25")
        expected = float(expected)
    assert three_term_eigenvalue(100, Parity.PLUS, params) == pytest.approx(expected, abs=1e-12)
    assert three_term_eigenvalue(100, Parity.MINUS, params) == pytest.approx(
        2 * (100 - 0.25) - expected, abs=1e-12
    )


def test_three_term_parity_sum_and_amplitude_bound():
    params = ModelParams(0.7, 0.4)
    n = np.arange(1, 4097)
    plus = three_term_eigenvalue(n, Parity.PLUS, params)
    minus = three_term_eigenvalue(n, Parity.MINUS, params)
    baseline = n - params.g**2
    assert np.max(np.abs(plus + minus - 2.0 * baseline)) < 1e-10
    amp = deviation_amplitude(params)
    bound = amp / n**0.25
    assert np.all(np.abs(plus - baseline) <= bound + 1e-15)
    assert np.all(np.abs(minus - baseline) <= bound + 1e-15)


def test_theta_increments():
    g = 0.7
    n = np.arange(1, 5000)
    inc = theta(n + 1, g) - theta(n, g)
    assert np.all(inc > 0.0)
    assert np.all(inc < 4.0 * g)
    n4 = n[n >= 4]
    drift = theta(n4 + 1, g) - theta(n4, g) - 2.0 * g / np.sqrt(n4)
    assert np.all(np.abs(drift) <= 2.0 * g / n4)


def test_deviation_and_residual_basics():
    # Label 9 of each parity sits exactly on the n - g^2 baseline.
    params = ModelParams(0.7, 0.4)
    baseline = np.arange(1, 11) - params.g**2
    table = table_from_values(params, baseline, baseline)
    assert deviations(table, Parity.MINUS)[8] == 0.0
    corr = three_term_eigenvalue(9, Parity.MINUS, params) - (9.0 - params.g**2)
    assert residuals(table, Parity.MINUS)[8] == pytest.approx(-corr, abs=1e-15)


def test_residual_deviation_identity(table_small, params):
    # residual == deviation / n^(1/4) - (three-term correction), per label.
    labels = table_small.labels(Parity.PLUS)
    for parity in Parity:
        corr = three_term_eigenvalue(labels, parity, params) - (labels - params.g**2)
        expected = deviations(table_small, parity) / labels**0.25 - corr
        assert residuals(table_small, parity) == pytest.approx(expected, abs=1e-12)


def test_deviations_delta0_vanish(table_delta0_small):
    for parity in Parity:
        devs = deviations(table_delta0_small, parity)
        assert np.max(np.abs(devs)) < 1e-6


def test_deviation_bound_on_converged_spectrum(table_big, params):
    amp = deviation_amplitude(params)
    for parity in Parity:
        devs = deviations(table_big, parity)
        labels = np.arange(1, devs.size + 1)
        assert np.all(np.abs(devs) <= amp + 5.0 / labels**0.25)


def test_deviation_tracks_three_term_at_n1000(table_big, params):
    table = table_big
    amp = deviation_amplitude(params)
    osc = ((-1) ** 1000) * math.cos(float(theta(1000, params.g)))
    dev_minus = deviations(table, Parity.MINUS)[999]
    dev_plus = deviations(table, Parity.PLUS)[999]
    assert dev_minus == pytest.approx(-amp * osc, abs=0.05)
    assert dev_plus == pytest.approx(+amp * osc, abs=0.05)


def test_residual_decay_slope_synthetic(params):
    # Exact power-law residuals: slope recovers the exponent to rounding.
    n = np.arange(1, 601)
    table = table_from_values(
        params,
        three_term_eigenvalue(n, Parity.PLUS, params) + 0.5 * n**-0.6,
        three_term_eigenvalue(n, Parity.MINUS, params) + 0.5 * n**-0.6,
    )
    slope = residual_decay_slope(table, Parity.PLUS, n_min=100, n_max=600)
    assert slope == pytest.approx(-0.6, abs=1e-9)
    with pytest.raises(ValueError):
        residual_decay_slope(table, Parity.PLUS, n_min=601, n_max=700)


def test_residuals_vector_matches_scalar(table_small, params):
    # The vector residuals agree with label-by-label scalar three-term values.
    for parity in Parity:
        vec = residuals(table_small, parity)
        values = table_small.values(parity)
        scalars = [
            values[n - 1] - three_term_eigenvalue(n, parity, params)
            for n in range(1, table_small.max_label + 1)
        ]
        assert vec == pytest.approx(scalars, abs=1e-15)
