import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import classify_intervals
from rabi import (
    IntervalClassification,
    IntervalVerdict,
    ModelParams,
    Parity,
    ParitySpectrum,
    PatternVerdict,
    SpectrumTable,
    bad_count_slope,
    bad_set_ladder,
    check_alternation_pattern,
    classify_range,
    count_bad,
    fejer_count,
    shifted_values,
    theta,
)
from rabi.intervals import good_mask, predicted_bad_count


def table_from_shifted(params, shifted_plus, shifted_minus):
    """Synthetic table whose shifted eigenvalues are the given columns."""
    def spectrum(shifted):
        values = np.asarray(shifted, dtype=np.float64) - params.g**2
        return ParitySpectrum(values, np.zeros(values.size), truncation_dim=256)

    return SpectrumTable.from_records(params, spectrum(shifted_plus), spectrum(shifted_minus))


def make_table(params, offsets_by_parity, max_label):
    """Synthetic table with shifted eigenvalues at n + offsets_by_parity[parity](n)."""
    n = range(1, max_label + 1)
    return table_from_shifted(
        params, *([k + offsets_by_parity[p](k) for k in n] for p in Parity)
    )


def classify_one(table, n, **kwargs):
    return classify_range(table, n, n, **kwargs)[0]


@pytest.fixture()
def alternating_table():
    # Even intervals hold a MINUS pair, odd intervals a PLUS pair.
    params = ModelParams(0.7, 0.4)
    offsets = {
        Parity.MINUS: lambda n: 0.2 if n % 2 == 0 else -0.2,
        Parity.PLUS: lambda n: -0.2 if n % 2 == 0 else 0.2,
    }
    return make_table(params, offsets, 16)


def test_shifted_examples(params):
    table = make_table(params, {p: (lambda n: 0.0) for p in Parity}, 6)
    assert shifted_values(table, Parity.PLUS)[4] == pytest.approx(5.0, abs=1e-15)


def test_shifted_values_delta0_are_integers(table_delta0_small):
    for parity in Parity:
        x = shifted_values(table_delta0_small, parity)
        assert np.max(np.abs(x - np.round(x))) < 1e-6


def is_good(n, n_cap, delta_exp, g):
    return bool(good_mask(np.array([n]), n_cap, delta_exp, g)[0])


def test_is_good_examples():
    # theta_8 with g = pi/4 is pi*(2*sqrt(2) - 1/4) = 8.1004: |cos| about 0.244
    # against threshold 16^(-0.15) about 0.66, so n = 8 is bad.
    g = math.pi / 4.0
    assert abs(math.cos(float(theta(8, g)))) == pytest.approx(0.2439, abs=2e-4)
    assert 16 ** (-0.25 + 0.1) == pytest.approx(0.6598, abs=2e-4)
    assert is_good(8, 16, 0.1, g) is False
    # cos(theta_1) = 0 at g = 3*pi/16: bad for every window cap.
    g_zero = 3.0 * math.pi / 16.0
    for n_cap in (2, 64, 4096):
        assert is_good(1, n_cap, 0.1, g_zero) is False
    # cos(theta_1) = 1 at g = pi/16: good for every window cap.
    g_one = math.pi / 16.0
    for n_cap in (2, 64, 4096):
        assert is_good(1, n_cap, 0.1, g_one) is True


def test_is_good_validation():
    for bad_exp in (0.0, 0.25, -0.1, 0.3):
        with pytest.raises(ValueError):
            is_good(8, 16, bad_exp, 0.7)
    with pytest.raises(ValueError):
        is_good(1, 1, 0.1, 0.7)


def test_count_bad_threshold_limit():
    # delta_exp near 1/4 pushes the threshold toward 1: nearly every n is bad.
    n_cap = 1024
    count = count_bad(n_cap, 0.2499, 0.7)
    assert count <= n_cap // 2 + 1
    assert count >= int(0.9 * (n_cap // 2))


def test_count_bad_against_prediction():
    count = count_bad(4096, 0.05, 0.7)
    predicted = predicted_bad_count(4096, 0.05)
    assert 1.0 / 3.0 <= count / predicted <= 3.0


def test_bad_fraction_decreases():
    fractions = [count_bad(n, 0.05, 0.7) / n for n in (2**10, 2**12, 2**14)]
    assert fractions[1] <= 1.2 * fractions[0]
    assert fractions[2] <= 1.2 * fractions[1]


def test_bad_set_ladder_and_slope():
    points = bad_set_ladder([2**10, 2**12, 2**14, 2**16], 0.05, 0.7)
    assert [p.n_cap for p in points] == [1024, 4096, 16384, 65536]
    for p in points:
        assert 1.0 / 3.0 <= p.ratio <= 3.0
    assert 0.6 <= bad_count_slope(points) <= 0.95
    with pytest.raises(ValueError):
        bad_count_slope(points[:1])


def test_classify_alternating_pairs(alternating_table):
    cls = classify_one(alternating_table, 4)
    assert cls.verdict is IntervalVerdict.MINUS_PAIR
    assert (cls.count_minus, cls.count_plus) == (2, 0)
    assert cls.boundary_hits == 0
    cls = classify_one(alternating_table, 5)
    assert cls.verdict is IntervalVerdict.PLUS_PAIR
    assert (cls.count_minus, cls.count_plus) == (0, 2)


def test_classify_boundary_and_violation():
    params = ModelParams(0.7, 0.4)
    # x_6^- lands exactly on the integer 6; neighbors keep the pair pattern.
    offsets = {
        Parity.MINUS: lambda n: 0.0 if n == 6 else (0.2 if n % 2 == 0 else -0.2),
        Parity.PLUS: lambda n: -0.2 if n % 2 == 0 else 0.2,
    }
    table = make_table(params, offsets, 16)
    for n in (5, 6):
        cls = classify_one(table, n)
        assert cls.verdict is IntervalVerdict.BOUNDARY
        assert cls.boundary_hits == 1
    # A near-integer hit within eps is still a boundary case.
    offsets[Parity.MINUS] = lambda n: 5e-7 if n == 6 else (0.2 if n % 2 == 0 else -0.2)
    table = make_table(params, offsets, 16)
    assert classify_one(table, 5).verdict is IntervalVerdict.BOUNDARY
    # One eigenvalue of each parity inside an interval violates the pair law.
    offsets = {
        Parity.MINUS: lambda n: 0.2 if n % 2 == 0 else -0.2,
        Parity.PLUS: lambda n: 0.3 if n == 4 else (-0.2 if n % 2 == 0 else 0.2),
    }
    table = make_table(params, offsets, 16)
    cls = classify_one(table, 4)
    assert cls.verdict is IntervalVerdict.VIOLATION
    assert (cls.count_minus, cls.count_plus) == (2, 1)


def test_classify_validation(alternating_table):
    with pytest.raises(ValueError):
        classify_range(alternating_table, 0, 4)
    with pytest.raises(ValueError):
        classify_range(alternating_table, 4, 14)  # needs labels through n + 3
    with pytest.raises(ValueError):
        classify_range(alternating_table, 4, 4, eps=0.0)
    with pytest.raises(ValueError):
        classify_range(alternating_table, 4, 4, eps=1e-9)  # below 100x eigen_tol
    with pytest.raises(ValueError):
        classify_range(alternating_table, 4, 4, eps=0.5)  # two integers within eps
    with pytest.raises(ValueError):
        classify_range(alternating_table, 5, 4)


def test_classify_range_matches_single(alternating_table):
    batch = classify_range(alternating_table, 1, 13)
    for cls in batch:
        assert classify_one(alternating_table, cls.n) == cls


def test_delta0_intervals_are_boundary(table_delta0_small):
    for cls in classify_range(table_delta0_small, 1, 40):
        assert cls.verdict is IntervalVerdict.BOUNDARY


def test_interval_partition_consistency(table_small, params):
    # Every shifted eigenvalue is interior to exactly one interval or a
    # boundary hit of the two intervals meeting at its integer.
    eps = 1e-6
    last = table_small.max_label - 3
    classifications = classify_range(table_small, 1, last)
    interior = hits = 0
    for parity in Parity:
        x = shifted_values(table_small, parity)
        nearest = np.rint(x)
        edge = np.abs(x - nearest) <= eps
        interior += int(np.sum(~edge & (np.floor(x) >= 1) & (np.floor(x) <= last)))
        for m in nearest[edge]:
            hits += int(1 <= m - 1 <= last) + int(1 <= m <= last)
    assert sum(c.count_plus + c.count_minus for c in classifications) == interior
    assert sum(c.boundary_hits for c in classifications) == hits
    x = [shifted_values(table_small, p) for p in Parity]
    expected = classify_intervals(*x, 1, last, eps, table_small.max_label, 0.05, params.g)
    got = [
        (c.n, c.count_plus, c.count_minus, c.boundary_hits, c.good, c.verdict.label)
        for c in classifications
    ]
    assert got == expected


@st.composite
def planted_tables(draw):
    """Random shifted columns, some values planted within eps of integers."""
    eps = draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.49]))
    size = draw(st.integers(min_value=6, max_value=40))
    columns = []
    for _ in Parity:
        steps = draw(st.lists(st.floats(0.05, 1.5), min_size=size, max_size=size))
        snap = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        jitter = draw(st.lists(st.floats(-eps, eps), min_size=size, max_size=size))
        x = 0.5 + np.cumsum(steps)
        columns.append(np.unique(np.where(snap, np.rint(x) + jitter, x)))
    n = min(c.size for c in columns)
    assume(n >= 4)
    params = ModelParams(draw(st.floats(0.05, 2.0)), 0.4)
    table = table_from_shifted(params, columns[0][:n], columns[1][:n])
    first = draw(st.integers(1, n - 3))
    last = draw(st.integers(first, n - 3))
    return table, first, last, eps


@settings(max_examples=150, deadline=None)
@given(
    case=planted_tables(),
    n_cap=st.integers(min_value=2, max_value=200),
    delta_exp=st.floats(0.01, 0.24),
)
def test_classify_range_matches_brute_force_oracle(case, n_cap, delta_exp):
    table, first, last, eps = case
    got = classify_range(table, first, last, eps=eps, n_cap=n_cap, delta_exp=delta_exp)
    expected = classify_intervals(
        shifted_values(table, Parity.PLUS),
        shifted_values(table, Parity.MINUS),
        first,
        last,
        eps,
        n_cap,
        delta_exp,
        table.params.g,
    )
    assert [
        (c.n, c.count_plus, c.count_minus, c.boundary_hits, c.good, c.verdict.label)
        for c in got
    ] == expected


def test_interval_occupancy_bound(table_small):
    for cls in classify_range(table_small, 1, table_small.max_label - 3):
        assert cls.count_plus + cls.count_minus <= 4


def make_cls(n, verdict, good=True, hits=0):
    counts = {
        IntervalVerdict.MINUS_PAIR: (0, 2),
        IntervalVerdict.PLUS_PAIR: (2, 0),
        IntervalVerdict.VIOLATION: (1, 1),
        IntervalVerdict.BOUNDARY: (0, 0),
    }[verdict]
    return IntervalClassification(
        n=n,
        count_plus=counts[0],
        count_minus=counts[1],
        boundary_hits=hits,
        good=good,
        verdict=verdict,
    )


def test_check_alternation_pattern_cases():
    window = [
        make_cls(9, IntervalVerdict.PLUS_PAIR),
        make_cls(10, IntervalVerdict.MINUS_PAIR),
        make_cls(11, IntervalVerdict.PLUS_PAIR),
    ]
    assert check_alternation_pattern(10, window) is PatternVerdict.PASS
    window = [
        make_cls(9, IntervalVerdict.MINUS_PAIR),
        make_cls(10, IntervalVerdict.MINUS_PAIR),
        make_cls(11, IntervalVerdict.PLUS_PAIR),
    ]
    assert check_alternation_pattern(10, window) is PatternVerdict.FAIL
    window = [
        make_cls(9, IntervalVerdict.PLUS_PAIR),
        make_cls(10, IntervalVerdict.VIOLATION),
        make_cls(11, IntervalVerdict.PLUS_PAIR),
    ]
    assert check_alternation_pattern(10, window) is PatternVerdict.FAIL
    window = [
        make_cls(9, IntervalVerdict.PLUS_PAIR),
        make_cls(10, IntervalVerdict.BOUNDARY),
        make_cls(11, IntervalVerdict.PLUS_PAIR),
    ]
    assert check_alternation_pattern(10, window) is PatternVerdict.UNCLASSIFIED
    window = [
        make_cls(9, IntervalVerdict.PLUS_PAIR),
        make_cls(10, IntervalVerdict.MINUS_PAIR, good=False),
        make_cls(11, IntervalVerdict.PLUS_PAIR),
    ]
    assert check_alternation_pattern(10, window) is PatternVerdict.UNCLASSIFIED
    with pytest.raises(ValueError):
        check_alternation_pattern(10, window[:2])
    with pytest.raises(ValueError):
        check_alternation_pattern(11, window)


def test_alternating_table_passes_pattern(alternating_table):
    cls = {c.n: c for c in classify_range(alternating_table, 1, 13)}
    for n in range(2, 13):
        window = [cls[n - 1], cls[n], cls[n + 1]]
        if cls[n].good:
            assert check_alternation_pattern(n, window) is PatternVerdict.PASS


def test_fejer_full_interval():
    report = fejer_count(1.7, 0.3, 0.0, 1.0, 1000)
    assert report.count == 501
    assert report.expected == 500.0
    assert report.discrepancy <= 1.0


def test_fejer_half_interval_enumeration():
    report = fejer_count(1.0, 0.0, 0.0, 0.5, 10_000)
    # Independent plain-python enumeration as the oracle.
    expected_count = sum(
        1 for n in range(5000, 10_001) if (math.sqrt(n) % 1.0) <= 0.5
    )
    assert report.count == expected_count == 2495
    assert abs(report.count - 2500) <= 100
    for n_cap in (10**3, 10**4, 10**5):
        r = fejer_count(1.0, 0.0, 0.0, 0.5, n_cap)
        assert r.discrepancy <= math.sqrt(n_cap)


def test_fejer_degenerate_interval():
    # Exact hits only: squares have fractional part 0, so gamma = 1/2 pins 1/2.
    report = fejer_count(1.0, 0.5, 0.5, 0.5, 100)
    assert report.count == 3  # n = 64, 81, 100
    assert report.expected == 0.0
    assert report.discrepancy == 3.0


def test_fejer_validation():
    with pytest.raises(ValueError):
        fejer_count(0.0, 0.0, 0.0, 0.5, 100)
    with pytest.raises(ValueError):
        fejer_count(1.0, 0.0, 0.6, 0.5, 100)
    with pytest.raises(ValueError):
        fejer_count(1.0, 0.0, -0.1, 0.5, 100)
    with pytest.raises(ValueError):
        fejer_count(1.0, 0.0, 0.0, 1.1, 100)
    with pytest.raises(ValueError):
        fejer_count(1.0, 0.0, 0.0, 0.5, 1)


def test_fejer_count_range_invariant():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = float(rng.uniform(0.05, 3.0))
        gamma = float(rng.uniform(-2.0, 2.0))
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        n_cap = int(rng.integers(2, 3000))
        report = fejer_count(a, gamma, float(lo), float(hi), n_cap)
        assert 0 <= report.count <= n_cap // 2 + 1
        assert report.discrepancy >= 0.0
