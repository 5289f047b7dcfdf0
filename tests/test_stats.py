import numpy as np
import pytest

from oracles import arcsine_quantile
from rabi import (
    EcdfTable,
    MergedSpectrum,
    ModelParams,
    Parity,
    ParitySpectrum,
    SpacingKind,
    SpectrumTable,
    arcsine_cdf,
    classify_spacings,
    deviation_amplitude,
    empirical_deviation_distribution,
    ks_distance,
    merge_spectra,
    spacing_frequencies,
)


# Kind codes: the index of each SpacingKind in declaration order.
POSITIVE, NEGATIVE, MIXED = range(len(SpacingKind))


def table_from_values(params, plus_values, minus_values):
    def spectrum(values):
        return ParitySpectrum(values, np.zeros(len(values)), truncation_dim=64)

    return SpectrumTable.from_records(params, spectrum(plus_values), spectrum(minus_values))


def merged(entries):
    """Merged spectrum from (value, parity) pairs already in merged order."""
    values = np.array([v for v, _ in entries], dtype=np.float64)
    signs = np.array([p.sign for _, p in entries], dtype=np.int8)
    return MergedSpectrum(values=values, parities=signs)


def test_merge_spectra_example(params):
    table = table_from_values(params, [1.0, 3.0], [2.0, 4.0])
    merged = merge_spectra(table)
    assert merged.values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert merged.parities.tolist() == [1, -1, 1, -1]
    assert not classify_spacings(merged).degenerate.any()
    assert len(merged) == 4


def test_merge_preserves_multiset(table_small):
    merged = merge_spectra(table_small)
    both = np.sort(
        np.concatenate([table_small.values(Parity.PLUS), table_small.values(Parity.MINUS)])
    )
    assert np.array_equal(merged.values, both)
    assert np.all(np.diff(merged.values) >= 0)


def test_merge_delta0_doubles_every_level(table_delta0_small):
    merged = merge_spectra(table_delta0_small)
    gaps = np.diff(merged.values)
    assert np.all(gaps[0::2] < 1e-6)
    assert np.max(np.abs(gaps[1::2] - 1.0)) < 1e-6
    # The two parity classes coincide, so the gap inside every level's pair
    # (even positions) is degenerate and every other gap is not.
    spacings = classify_spacings(merged)
    assert np.array_equal(
        np.flatnonzero(spacings.degenerate), np.arange(0, 2 * table_delta0_small.max_label, 2)
    )
    report = spacing_frequencies(spacings)
    assert report.n_degenerate == table_delta0_small.max_label
    # Gaps that survive connect consecutive degenerate pairs: all mixed.
    assert (report.f_positive, report.f_negative, report.f_mixed) == (0.0, 0.0, 1.0)


def test_classify_spacings_examples():
    spacings = classify_spacings(merged([(1.0, Parity.PLUS), (2.0, Parity.PLUS)]))
    assert spacings.kinds.tolist() == [POSITIVE]
    spacings = classify_spacings(merged([(1.0, Parity.PLUS), (2.0, Parity.MINUS)]))
    assert spacings.kinds.tolist() == [MIXED]
    spacings = classify_spacings(merged([(1.0, Parity.MINUS), (2.0, Parity.MINUS)]))
    assert spacings.kinds.tolist() == [NEGATIVE]
    assert spacings.gaps.tolist() == pytest.approx([1.0])
    assert spacings.degenerate.tolist() == [False]


def test_periodic_pattern_counts():
    # (-, -, +, +) repeated m times: per direct enumeration the 4m - 1 gaps
    # split into m negative, m positive, and 2m - 1 mixed.
    m = 1000
    pattern = [Parity.MINUS, Parity.MINUS, Parity.PLUS, Parity.PLUS] * m
    spacings = classify_spacings(merged([(float(i), p) for i, p in enumerate(pattern)]))
    assert spacings.gaps.size == 4 * m - 1
    assert int(np.sum(spacings.kinds == POSITIVE)) == m
    assert int(np.sum(spacings.kinds == NEGATIVE)) == m
    assert int(np.sum(spacings.kinds == MIXED)) == 2 * m - 1
    report = spacing_frequencies(spacings)
    assert report.f_positive == pytest.approx(0.25, abs=1e-3)
    assert report.f_negative == pytest.approx(0.25, abs=1e-3)
    assert report.f_mixed == pytest.approx(0.5, abs=1e-3)


def test_spacing_frequencies_edge_cases():
    all_mixed = classify_spacings(
        merged([(0.0, Parity.PLUS), (1.0, Parity.MINUS), (2.0, Parity.PLUS)])
    )
    report = spacing_frequencies(all_mixed)
    assert (report.f_positive, report.f_negative, report.f_mixed) == (0.0, 0.0, 1.0)
    assert report.f_positive + report.f_negative + report.f_mixed == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        spacing_frequencies(classify_spacings(merged([(0.0, Parity.PLUS)])))
    degenerate_only = classify_spacings(merged([(0.0, Parity.PLUS), (0.0, Parity.PLUS)]))
    with pytest.raises(ValueError):
        spacing_frequencies(degenerate_only)


def test_arcsine_cdf_closed_form(params):
    support = deviation_amplitude(params)
    assert arcsine_cdf(0.0, params) == pytest.approx(0.5, abs=1e-15)
    assert arcsine_cdf(support, params) == 1.0
    assert arcsine_cdf(-support, params) == 0.0
    assert arcsine_cdf(2 * support, params) == 1.0
    assert arcsine_cdf(-2 * support, params) == 0.0
    assert arcsine_cdf(support / 2.0, params) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_arcsine_cdf_symmetry_and_monotonicity(params):
    support = deviation_amplitude(params)
    grid = np.linspace(-support, support, 801)
    values = arcsine_cdf(grid, params)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values + values[::-1] - 1.0)) < 1e-12


def test_arcsine_cdf_degenerate_split():
    params = ModelParams(0.7, 0.0)
    assert arcsine_cdf(-1e-12, params) == 0.0
    assert arcsine_cdf(0.0, params) == 1.0
    assert arcsine_cdf(1e-12, params) == 1.0


def test_ecdf_table_basics():
    ecdf = EcdfTable.from_samples([2.0, 1.0, 2.0])
    assert ecdf.values.tolist() == [1.0, 2.0]
    assert ecdf.cum_counts.tolist() == [1, 3]
    assert ecdf.evaluate(np.array([0.5, 1.0, 1.5, 2.5])).tolist() == [0.0, 1 / 3, 1 / 3, 1.0]
    with pytest.raises(ValueError):
        EcdfTable.from_samples([])


def test_ks_distance_single_sample_at_median():
    ecdf = EcdfTable.from_samples([0.0])
    assert ks_distance(ecdf, lambda y: 0.5) == pytest.approx(0.5, abs=1e-15)


def test_ks_distance_uniform_own_grid():
    n = 500
    samples = (np.arange(1, n + 1) - 0.5) / n
    ecdf = EcdfTable.from_samples(samples)
    dist = ks_distance(ecdf, lambda y: np.clip(y, 0.0, 1.0))
    assert dist <= 1.0 / (2 * n) + 1e-15


def test_ks_distance_inverse_cdf_quantiles(params):
    n = 10_000
    support = deviation_amplitude(params)
    samples = [arcsine_quantile((i - 0.5) / n, support) for i in range(1, n + 1)]
    ecdf = EcdfTable.from_samples(samples)
    dist = ks_distance(ecdf, lambda y: arcsine_cdf(y, params))
    assert dist <= 1e-4 + 1.0 / (2 * n)


def test_empirical_deviation_distribution_filters(table_small):
    full = empirical_deviation_distribution(table_small, Parity.PLUS)
    assert full.n_samples == table_small.max_label
    cut = empirical_deviation_distribution(table_small, Parity.PLUS, min_label=32)
    assert cut.n_samples == table_small.max_label - 31


def test_empirical_deviation_distribution_delta0(table_delta0_small):
    for parity in Parity:
        ecdf = empirical_deviation_distribution(table_delta0_small, parity)
        assert np.max(np.abs(ecdf.values)) < 1e-6


def test_alternating_pairs_give_period4_kinds(params):
    # Intervals alternating (minus pair, plus pair, ...) force the gap kinds
    # to cycle with period 4: within-pair, mixed, within-pair, mixed.
    plus_values = []
    minus_values = []
    for n in range(1, 13):
        if n % 2 == 0:
            minus_values.append(n + 0.2 - params.g**2)
            plus_values.append(n - 0.2 - params.g**2)
        else:
            minus_values.append(n - 0.2 - params.g**2)
            plus_values.append(n + 0.2 - params.g**2)
    table = table_from_values(params, plus_values, minus_values)
    kinds = classify_spacings(merge_spectra(table)).kinds.tolist()
    expected_cycle = [MIXED, POSITIVE, MIXED, NEGATIVE]
    assert kinds == [expected_cycle[i % 4] for i in range(len(kinds))]
