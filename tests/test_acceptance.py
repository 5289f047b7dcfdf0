"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The heavy converged table (labels through 2056 at g=0.7, delta=0.4)
is computed once per session by a timed fixture and shared by criteria 3-6.
"""

import math
import time

import numpy as np

from oracles import charpoly_eigenvalues, random_tridiagonal
from rabi import (
    Parity,
    PatternVerdict,
    TridiagonalMatrix,
    alternation_patterns,
    arcsine_cdf,
    bad_count_slope,
    bad_set_ladder,
    classify_spacings,
    deviation_amplitude,
    empirical_deviation_distribution,
    fejer_count,
    interval_columns,
    ks_distance,
    lowest_eigenvalues,
    merge_spectra,
    residual_decay_slope,
    shifted_values,
    spacing_frequencies,
)
from rabi import eigensolver
from rabi.cli import main


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_eigensolver_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        diag, offdiag = random_tridiagonal(rng, max_dim=12)
        matrix = TridiagonalMatrix(diag=diag, offdiag=offdiag)
        mine = lowest_eigenvalues(matrix, matrix.dim, 1e-12)
        oracle = charpoly_eigenvalues(diag, offdiag)
        worst = max(worst, float(np.max(np.abs(mine - oracle))))
    elapsed = time.perf_counter() - start
    report(
        1,
        "eigensolver matches characteristic-polynomial bisection on 200 random matrices",
        worst < 1e-10 and elapsed < 5.0,
        f"worst diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_delta0_exactness(timed_table_delta0):
    table = timed_table_delta0.table
    elapsed = timed_table_delta0.elapsed
    worst_integer = 0.0
    worst_label = 0.0
    for parity in Parity:
        x = shifted_values(table, parity)
        worst_integer = max(worst_integer, float(np.max(np.abs(x - np.round(x)))))
        labels = table.labels(parity)
        worst_label = max(worst_label, float(np.max(np.abs(x - labels))))
    # The displaced-oscillator closed form is {k - g^2, k >= 0}: calibration
    # therefore shifts the raw 1-based sorted position by exactly -1, after
    # which each label's shifted eigenvalue is that label itself.
    offsets_ok = table.offset_plus == -1 and table.offset_minus == -1
    report(
        2,
        "delta=0 shifted spectrum is integral and labels align with it exactly",
        worst_integer < 1e-6 and worst_label < 1e-6 and offsets_ok and elapsed < 30.0,
        f"max |x - round(x)| {worst_integer:.1e}, max |x_n - n| {worst_label:.1e}, "
        f"offsets ({table.offset_plus}, {table.offset_minus}), {elapsed:.1f}s",
    )


def test_criterion_3_residual_decay(timed_table_big):
    table = timed_table_big.table
    elapsed = timed_table_big.elapsed
    slopes = {
        parity.label: residual_decay_slope(table, parity, n_min=200, n_max=2000)
        for parity in Parity
    }
    ok = all(slope <= -0.4 for slope in slopes.values()) and elapsed < 600.0
    report(
        3,
        "three-term residual decays with log-log slope <= -0.4 for each parity",
        ok,
        f"slopes {slopes['plus']:.3f}/{slopes['minus']:.3f}, cold spectrum {elapsed:.0f}s",
    )


def test_criterion_4_interval_pattern(table_big):
    n_cap = 2048
    delta_exp = 0.05
    occupancy = interval_columns(
        table_big, 1023, 2049, eps=1e-6, n_cap=n_cap, delta_exp=delta_exp
    )
    # Intervals 1023 and 2049 are classified only as neighbors of n = 1024...2048.
    good = occupancy.good[1:-1]
    patterns = np.array(list(PatternVerdict))[
        alternation_patterns(occupancy.verdict, occupancy.good)[1:-1]
    ]
    n_good = int(np.count_nonzero(good))
    n_fail = int(np.count_nonzero(patterns == PatternVerdict.FAIL))
    # A good center is unclassified only when its window holds a boundary.
    n_boundary = int(np.count_nonzero(good & (patterns == PatternVerdict.UNCLASSIFIED)))
    total = 2048 - 1024 + 1
    good_fraction = n_good / total
    required = 1.0 - 4.0 * n_cap ** (-0.25 + delta_exp)
    report(
        4,
        "good n in [1024, 2048] all satisfy the alternating-pair pattern",
        n_fail == 0 and good_fraction >= required,
        f"{n_good} good, {n_fail} fail, {n_boundary} boundary-excluded, "
        f"good fraction {good_fraction:.3f} >= {required:.3f}",
    )


def test_criterion_5_spacing_frequencies(table_big):
    table = table_big.truncated(2000)
    frequencies = spacing_frequencies(classify_spacings(merge_spectra(table)))
    deviations_from_target = (
        abs(frequencies.f_positive - 0.25),
        abs(frequencies.f_negative - 0.25),
        abs(frequencies.f_mixed - 0.5),
    )
    report(
        5,
        "merged-spectrum spacing frequencies at N=2000 within 0.03 of (1/4, 1/4, 1/2)",
        max(deviations_from_target) < 0.03,
        f"({frequencies.f_positive:.4f}, {frequencies.f_negative:.4f}, "
        f"{frequencies.f_mixed:.4f})",
    )


def test_criterion_6_arcsine_law(table_big, params):
    table = table_big.truncated(2000)
    support = deviation_amplitude(params)
    ks = {}
    for parity in Parity:
        ecdf = empirical_deviation_distribution(table, parity, min_label=32)
        ks[parity.label] = ks_distance(ecdf, lambda y: arcsine_cdf(y, params))
    closed_form_ok = (
        abs(arcsine_cdf(0.0, params) - 0.5) < 1e-12
        and abs(arcsine_cdf(support / 2.0, params) - 2.0 / 3.0) < 1e-12
    )
    report(
        6,
        "normalized deviations follow the arcsine law (KS <= 0.05 per parity)",
        ks["plus"] <= 0.05 and ks["minus"] <= 0.05 and closed_form_ok,
        f"KS {ks['plus']:.4f}/{ks['minus']:.4f}, F(0)=1/2 and F(C/2)=2/3 to 1e-12",
    )


def test_criterion_7_fejer_discrepancy_and_badset_slope():
    start = time.perf_counter()
    g = 0.7
    a = 4.0 * g / math.pi
    ladder = [2**10, 2**12, 2**14, 2**16]
    ratios = []
    for n_cap in ladder:
        rep = fejer_count(a, 0.25, 0.0, 0.5, n_cap)
        ratios.append(rep.discrepancy / math.sqrt(n_cap))
    stability = max(ratios) / min(ratios)
    consecutive_ok = all(
        0.1 <= ratios[i + 1] / ratios[i] <= 10.0 for i in range(len(ratios) - 1)
    )
    slope = bad_count_slope(bad_set_ladder(ladder, 0.05, g))
    elapsed = time.perf_counter() - start
    report(
        7,
        "fejer discrepancy/sqrt(N) stable within 10x and bad-count slope in [0.6, 0.95]",
        stability < 10.0 and consecutive_ok and 0.6 <= slope <= 0.95 and elapsed < 10.0,
        f"stability {stability:.2f}, slope {slope:.3f}, {elapsed:.2f}s",
    )


def test_criterion_8_determinism_and_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    outs = [str(tmp_path / name) for name in ("run1.csv", "run2.csv")]
    argv = ["spectrum", "--g", "0.7", "--delta", "0.4", "--n-max", "12", "--cache-dir", cache_dir]
    code1 = main(argv + ["--out", outs[0]])
    before = eigensolver.counters.total()
    code2 = main(argv + ["--out", outs[1]])
    warm_calls = eigensolver.counters.total() - before
    with open(outs[0], "rb") as fh1, open(outs[1], "rb") as fh2:
        identical = fh1.read() == fh2.read()
    report(
        8,
        "repeated spectrum runs byte-identical; warm cache makes zero solver calls",
        code1 == 0 and code2 == 0 and identical and warm_calls == 0,
        f"warm solver calls {warm_calls}",
    )
