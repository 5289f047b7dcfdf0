import math

import numpy as np
import pytest

from oracles import charpoly_eigenvalues, dense_eigenvalues, random_tridiagonal
from rabi import (
    ConvergenceError,
    LabelingError,
    ModelParams,
    Parity,
    ParitySpectrum,
    SpectrumTable,
    TridiagonalMatrix,
    adaptive_spectrum,
    build_truncated,
    compute_spectrum_table,
    label_offset,
    lowest_eigenvalues,
    sturm_count,
)
from rabi import eigensolver

# Roots of the 2x2 characteristic polynomial lam^2 - lam - 1/4.
TWO_BY_TWO = TridiagonalMatrix(diag=[0.0, 1.0], offdiag=[0.5])
ROOT_LO = (1.0 - math.sqrt(2.0)) / 2.0
ROOT_HI = (1.0 + math.sqrt(2.0)) / 2.0


def test_sturm_count_examples():
    single = TridiagonalMatrix(diag=[0.5], offdiag=[])
    assert sturm_count(single, 1.0) == 1
    assert sturm_count(TWO_BY_TWO, 0.0) == 1
    assert sturm_count(TWO_BY_TWO, 2.0) == 2


def test_sturm_count_extremes_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, a = random_tridiagonal(rng, max_dim=16)
        matrix = TridiagonalMatrix(diag=d, offdiag=a)
        assert sturm_count(matrix, -1e9) == 0
        assert sturm_count(matrix, 1e9) == matrix.dim
        lam1, lam2 = sorted(rng.uniform(-6.0, 6.0, size=2))
        assert sturm_count(matrix, lam1) <= sturm_count(matrix, lam2)


def test_sturm_count_zero_pivot_guard():
    # lam equal to the first diagonal entry makes the first pivot exactly zero.
    assert sturm_count(TWO_BY_TWO, TWO_BY_TWO.diag[0]) in (0, 1)
    counts = [sturm_count(TWO_BY_TWO, lam) for lam in (-1.0, 0.0, 1.0, 2.0)]
    assert counts == sorted(counts)


def test_lowest_eigenvalues_examples():
    single = TridiagonalMatrix(diag=[3.0], offdiag=[])
    assert lowest_eigenvalues(single, 1, 1e-10) == pytest.approx([3.0], abs=1e-10)
    vals = lowest_eigenvalues(TWO_BY_TWO, 2, 1e-12)
    assert vals == pytest.approx([ROOT_LO, ROOT_HI], abs=1e-12)
    assert lowest_eigenvalues(TWO_BY_TWO, 0, 1e-12).size == 0
    with pytest.raises(ValueError):
        lowest_eigenvalues(TWO_BY_TWO, 3, 1e-12)
    with pytest.raises(ValueError):
        lowest_eigenvalues(TWO_BY_TWO, 1, 0.0)


def test_lowest_eigenvalues_dense_oracle_64():
    matrix = build_truncated(Parity.MINUS, ModelParams(0.7, 0.4), 64)
    mine = lowest_eigenvalues(matrix, 5, 1e-12)
    dense = dense_eigenvalues(matrix.diag, matrix.offdiag)[:5]
    assert np.max(np.abs(mine - dense)) < 1e-10


def test_lowest_eigenvalues_charpoly_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(30):
        d, a = random_tridiagonal(rng)
        matrix = TridiagonalMatrix(diag=d, offdiag=a)
        mine = lowest_eigenvalues(matrix, matrix.dim, 1e-12)
        oracle = charpoly_eigenvalues(d, a)
        assert np.max(np.abs(mine - oracle)) < 1e-10


def test_truncation_interlacing():
    params = ModelParams(0.7, 0.4)
    small = lowest_eigenvalues(build_truncated(Parity.MINUS, params, 40), 10, 1e-12)
    large = lowest_eigenvalues(build_truncated(Parity.MINUS, params, 41), 10, 1e-12)
    # Each low eigenvalue is nonincreasing in the truncation dimension and the
    # two spectra interlace (up to twice the bisection tolerance).
    assert np.all(large <= small + 2e-12)
    assert np.all(small[:-1] <= large[1:] + 2e-12)


def test_simplicity_no_duplicates():
    params = ModelParams(0.7, 0.4)
    for parity in Parity:
        vals = lowest_eigenvalues(build_truncated(parity, params, 512), 64, 1e-10)
        assert np.min(np.diff(vals)) > 2e-10


def test_label_offset_examples():
    params = ModelParams(0.7, 0.4)
    g_sq = params.g**2
    aligned = np.arange(1, 65) - g_sq
    assert label_offset(aligned, params) == 0
    shifted_down = np.arange(0, 64) - g_sq
    assert label_offset(shifted_down, params) == -1
    assert label_offset(np.arange(5, 69) - g_sq, params) == 4


def test_label_offset_validation():
    params = ModelParams(0.7, 0.4)
    with pytest.raises(ValueError):
        label_offset(np.arange(1, 31) - params.g**2, params)
    # A half-integer shift ties two offsets and must be reported, not guessed.
    with pytest.raises(LabelingError):
        label_offset(np.arange(1, 65) + 0.5 - params.g**2, params)


def test_adaptive_spectrum_delta0_exact():
    records = adaptive_spectrum(Parity.MINUS, ModelParams(0.7, 0.0), 50, tol=1e-8)
    assert [r.label for r in records] == list(range(1, 51))
    for rec in records:
        assert abs(rec.value - (rec.label - 0.49)) < 1e-6
        assert rec.error_estimate <= 1e-8
        assert rec.truncation_dim >= 100


def test_adaptive_spectrum_near_diagonal():
    # Vanishing coupling: the spectrum approaches the sorted diagonal entries.
    params = ModelParams(1e-8, 0.4)
    matrix = build_truncated(Parity.PLUS, params, 64)
    vals = lowest_eigenvalues(matrix, 6, 1e-10)
    assert vals == pytest.approx([0.4, 0.6, 2.4, 2.6, 4.4, 4.6], abs=1e-6)
    # The n - g**2 calibration pins the sorted position 2 to label 1.
    records = adaptive_spectrum(Parity.PLUS, params, 4, tol=1e-8)
    assert [r.label for r in records] == [1, 2, 3, 4]
    assert [r.value for r in records] == pytest.approx([0.6, 2.4, 2.6, 4.4], abs=1e-6)


def test_adaptive_spectrum_reports_convergence_failure():
    with pytest.raises(ConvergenceError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 50, m_max=64)
    with pytest.raises(ConvergenceError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 50, m_max=150)
    # g**2 would overflow: the cap check must not square g first.
    for g in (400.0, 1e200):
        with pytest.raises(ConvergenceError, match="initial truncation exceeds cap"):
            adaptive_spectrum(Parity.PLUS, ModelParams(g, 0.4), 4)


def test_adaptive_spectrum_validation():
    with pytest.raises(ValueError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 0)
    with pytest.raises(ValueError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 10, tol=-1.0)


def test_spectrum_table_structure(table_small):
    assert table_small.max_label == 72
    assert table_small.offset_plus == -1
    assert table_small.offset_minus == -1
    for parity in Parity:
        values = table_small.values(parity)
        assert np.all(np.diff(values) > 0)
        assert table_small.labels(parity).tolist() == list(range(1, 73))
    sub = table_small.truncated(10)
    assert sub.max_label == 10
    assert np.array_equal(sub.values(Parity.PLUS), table_small.values(Parity.PLUS)[:10])
    with pytest.raises(ValueError):
        table_small.truncated(0)
    with pytest.raises(ValueError):
        table_small.truncated(100)


def test_spectrum_table_rejects_gaps(params):
    records = adaptive_spectrum(Parity.PLUS, params, 40)
    full = ParitySpectrum.from_records(records)
    with pytest.raises(ValueError):
        SpectrumTable.from_records(params, ParitySpectrum.from_records(records[:-1]), full)
    with pytest.raises(ValueError):
        ParitySpectrum.from_records(records[1:])
    with pytest.raises(ValueError):
        ParitySpectrum(full.values[::-1], full.errors, full.truncation_dim)
    assert np.array_equal(full.values, [r.value for r in records])
    assert full.truncation_dim == records[0].truncation_dim


def test_counters_track_invocations(params):
    eigensolver.counters.reset()
    assert eigensolver.counters.total() == 0
    sturm_count(TWO_BY_TWO, 0.0)
    lowest_eigenvalues(TWO_BY_TWO, 1, 1e-10)
    adaptive_spectrum(Parity.PLUS, params, 1)
    assert eigensolver.counters.sturm_calls == 1
    assert eigensolver.counters.adaptive_runs == 1
    assert eigensolver.counters.total() >= 3


def test_compute_spectrum_table_matches_adaptive(params):
    table = compute_spectrum_table(params, 36)
    records = adaptive_spectrum(Parity.MINUS, params, 36)
    assert table.values(Parity.MINUS).tolist() == [r.value for r in records]
    assert table.spectrum(Parity.MINUS).errors.tolist() == [r.error_estimate for r in records]


def test_big_table_values_near_baseline(table_big):
    # Large labels sit within the oscillatory band around n - g^2.
    minus = table_big.values(Parity.MINUS)
    assert abs(minus[99] - (100 - 0.49)) < 0.05
    assert abs(minus[499] - (500 - 0.49)) < 0.05
    assert abs(minus[1999] - (2000 - 0.49)) < 0.05
