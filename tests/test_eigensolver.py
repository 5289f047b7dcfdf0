import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    MIN_TAIL,
    charpoly_eigenvalues,
    dense_eigenvalues,
    label_offset,
    random_tridiagonal,
    record_calls,
    record_round_passes,
    window_counts_reference,
)
from rabi import (
    ConvergenceError,
    ModelParams,
    Parity,
    ParitySpectrum,
    SpectrumTable,
    TridiagonalMatrix,
    adaptive_spectrum,
    build_truncated,
    compute_spectrum_table,
    lowest_eigenvalues,
)
from rabi import eigensolver, model
from rabi.eigensolver import DEFAULT_EIGEN_TOL, DEFAULT_TRUNC_TOL

# Roots of the 2x2 characteristic polynomial lam^2 - lam - 1/4.
TWO_BY_TWO = TridiagonalMatrix(diag=[0.0, 1.0], offdiag=[0.5])
ROOT_LO = (1.0 - math.sqrt(2.0)) / 2.0
ROOT_HI = (1.0 + math.sqrt(2.0)) / 2.0


def sturm_count(matrix, lam):
    """Count of eigenvalues of ``matrix`` strictly below ``lam``: one lane of
    the pivot loop, a window from row 0 that reads the matrix's rows."""
    lane = (np.zeros(1), np.array([matrix.dim]), np.zeros(1))
    rows = (matrix.diag, np.append(0.0, matrix.offdiag * matrix.offdiag))
    lams = np.array([lam], dtype=np.float64)
    pivmin = eigensolver._pivmin(matrix)
    counts, _ = eigensolver._window_counts(lane, lams, 0.0, pivmin, 0.0, None, rows)
    return int(counts[0])


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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=12))
def test_sturm_count_matches_dense_oracle(data, dim):
    # Entries lie in [-2, 2], so every eigenvalue lies in [-6, 6] (Gershgorin).
    entries = st.floats(-2.0, 2.0)
    diag = data.draw(st.lists(entries, min_size=dim, max_size=dim), label="diag")
    offdiag = data.draw(st.lists(entries, min_size=dim - 1, max_size=dim - 1), label="offdiag")
    eigenvalues = dense_eigenvalues(diag, offdiag)
    lam = data.draw(st.floats(-7.0, 7.0), label="lam")
    assume(np.min(np.abs(eigenvalues - lam)) > 1e-8)
    count = sturm_count(TridiagonalMatrix(diag=diag, offdiag=offdiag), lam)
    assert count == np.count_nonzero(eigenvalues < lam)


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


def test_lowest_eigenvalues_runs_the_solves_newton():
    # The reference runs the solve's Newton and pivot loop on the matrix's
    # rows, one lane per eigenvalue, on criterion 1's kind of random matrix.
    rng = np.random.default_rng(20260810)
    d, a = random_tridiagonal(rng, max_dim=12)
    matrix = TridiagonalMatrix(diag=d, offdiag=a)
    solves, counts = [], []
    with pytest.MonkeyPatch.context() as patch:
        record_calls(patch, "_newton_windows", solves)
        record_calls(patch, "_window_counts", counts)
        values = lowest_eigenvalues(matrix, matrix.dim, 1e-12)
    assert len(solves) == 1 and solves[0][0][2].tolist() == list(range(1, matrix.dim + 1))
    # Newton's passes and the certificate's one, at the shifts x -+ u.
    assert len(counts) >= 2
    (_, shifts, *_), _ = counts[-1]
    assert shifts.size == 2 * matrix.dim
    assert np.all(shifts[0::2] < values) and np.all(values < shifts[1::2])
    assert np.max(np.abs(values - charpoly_eigenvalues(d, a))) < 1e-10


def test_lowest_eigenvalues_refuses_an_uncertified_lane(monkeypatch):
    # Values moved by 0.25, far beyond 1e-12, fail the two-shift count.
    solve = eigensolver._newton_windows
    monkeypatch.setattr(eigensolver, "_newton_windows", lambda *args: solve(*args) + 0.25)
    with pytest.raises(ConvergenceError, match="not certified"):
        lowest_eigenvalues(TWO_BY_TWO, 2, 1e-12)


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
    # two spectra interlace (up to twice the reference tolerance).
    assert np.all(large <= small + 2e-12)
    assert np.all(small[:-1] <= large[1:] + 2e-12)


def test_simplicity_no_duplicates():
    params = ModelParams(0.7, 0.4)
    for parity in Parity:
        vals = lowest_eigenvalues(build_truncated(parity, params, 512), 64, 1e-10)
        assert np.min(np.diff(vals)) > 2e-10


@pytest.mark.parametrize("parity", Parity)
def test_truncation_pivmin_matches_the_matrix_scan(parity):
    # The closed form needs no matrix, and must give the scan's value bit for
    # bit: windowed values depend on it.  Dims 1..3, the solve's reference
    # dimension N + 2 h_N + 1, and a fallback-sized one.
    for g in (0.05, 0.7, 1.9, 10.0):
        for delta in (0.0, 0.4, 0.5, 30.0, 1e4, 1e15, 1e308):
            params = ModelParams(g, delta)
            for n in (1, 2, 40, 2000):
                half = math.ceil(2.0 * g**2 + 4.0 * g * math.sqrt(n) + 10.0)
                for dim in (1, 2, 3, n + 2 * half + 1, 2 * n + 7):
                    scan = eigensolver._pivmin(build_truncated(parity, params, dim))
                    assert eigensolver._truncation_pivmin(parity, params, dim) == scan


def test_label_offset_examples():
    params = ModelParams(0.7, 0.4)
    g_sq = params.g**2
    aligned = np.arange(1, 65) - g_sq
    assert label_offset(aligned, params) == 0
    shifted_down = np.arange(0, 64) - g_sq
    assert label_offset(shifted_down, params) == -1
    assert label_offset(np.arange(5, 69) - g_sq, params) == 4


def test_label_offset_never_reads_below_the_tail():
    # The fit reads only the top of the list: a value it cannot use at the
    # bottom (NaN) must give the same offset, or the same error.
    params = ModelParams(0.7, 0.4)
    g_sq = params.g**2
    for values in (
        np.arange(1, 65) - g_sq,  # aligned
        np.arange(0, 64) - g_sq,  # shifted down: the solve's own frame
        np.arange(1, 65) + 0.5 - g_sq,  # ambiguous
        np.arange(1, 65) - g_sq + 1e200,  # below float resolution
    ):
        unsolved = values.copy()
        unsolved[0] = np.nan
        outcomes = []
        for column in (values, unsolved):
            try:
                outcomes.append(label_offset(column, params))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], outcomes


def test_label_offset_validation():
    params = ModelParams(0.7, 0.4)
    with pytest.raises(ValueError):
        label_offset(np.arange(1, 31) - params.g**2, params)
    # A half-integer shift ties two offsets and must be reported, not guessed.
    with pytest.raises(ValueError):
        label_offset(np.arange(1, 65) + 0.5 - params.g**2, params)


def test_adaptive_spectrum_delta0_exact():
    records = adaptive_spectrum(Parity.MINUS, ModelParams(0.7, 0.0), 50, tol=1e-8)
    assert [r.label for r in records] == list(range(1, 51))
    for rec in records:
        assert abs(rec.value - (rec.label - 0.49)) < 1e-6
        assert rec.error_estimate <= 1e-8
        # 1 + the last row of label 50's window [50 - h, 50 + h].
        assert rec.truncation_dim == 50 + math.ceil(2 * 0.49 + 4 * 0.7 * math.sqrt(50) + 10) + 1


def test_adaptive_spectrum_near_diagonal():
    # Vanishing coupling: the spectrum approaches the sorted diagonal entries.
    params = ModelParams(1e-8, 0.4)
    matrix = build_truncated(Parity.PLUS, params, 64)
    vals = lowest_eigenvalues(matrix, 6, 1e-10)
    assert vals == pytest.approx([0.4, 0.6, 2.4, 2.6, 4.4, 4.6], abs=1e-6)
    # Label 1 has one eigenvalue below it: sorted position 2.
    records = adaptive_spectrum(Parity.PLUS, params, 4, tol=1e-8)
    assert [r.label for r in records] == [1, 2, 3, 4]
    assert [r.value for r in records] == pytest.approx([0.6, 2.4, 2.6, 4.4], abs=1e-6)


def test_adaptive_spectrum_reports_convergence_failure(monkeypatch):
    dim = adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 50)[0].truncation_dim
    # A small cap, and a cap one row below the solve's own truncation.
    for cap in (64, dim - 1):
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "M_MAX", cap)
            with pytest.raises(ConvergenceError):
                adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 50)
    # g**2 would overflow: the cap check must not square g first.
    for g in (400.0, 1e200):
        with pytest.raises(ConvergenceError, match="initial truncation exceeds cap"):
            adaptive_spectrum(Parity.PLUS, ModelParams(g, 0.4), 4)


# (g, delta, N): the paper's point, the ROADMAP points and the fallback point.
SOLVER_POINTS = [
    (0.7, 0.4, 2000),
    (1.3, 0.0, 200),
    (1.9, 0.8, 120),
    (3.0, 2.0, 200),
    (10.0, 0.4, 50),
    (0.7, 30.0, 40),
    (0.7, 0.4, 2),
]


def solved_values(parity, params, max_label):
    """Values 1..max_label of the solve at the default tolerances."""
    spectrum = eigensolver._solve(parity, params, max_label, DEFAULT_TRUNC_TOL, DEFAULT_EIGEN_TOL)
    return spectrum.values


def assert_within_error_estimates(
    parity, params, max_label, eigen_tol=DEFAULT_EIGEN_TOL, trunc_tol=DEFAULT_TRUNC_TOL
):
    """The suite's one doubled-truncation check: every label of the solve,
    windowed or fallen back, lies within its error estimate of the reference
    at twice the truncation dim.  At the default tolerances the reference is
    solved to 1e-13, with 1e-12 of slack; below them it is solved to float
    resolution, with none, as the estimates there are 4 pivmin, 5e-14 to 1e-12."""
    default = eigen_tol == DEFAULT_EIGEN_TOL
    reference_tol, slack = (1e-13, 1e-12) if default else (1e-16, 0.0)
    spectrum = eigensolver._solve(parity, params, max_label, trunc_tol, eigen_tol)
    matrix = build_truncated(parity, params, 2 * spectrum.truncation_dim)
    reference = lowest_eigenvalues(matrix, max_label + 1, reference_tol)[1:]
    deviation = np.abs(spectrum.values - reference)
    assert np.all(deviation <= spectrum.errors + slack), np.max(deviation - spectrum.errors)


def fallen_labels(fallback_calls):
    """Labels passed to ``_fallback`` in the recorded calls."""
    return np.array([n for args, _ in fallback_calls for n in args[2].tolist()], dtype=np.int64)


@pytest.mark.parametrize("g, delta, max_label", SOLVER_POINTS)
def test_solve_to_n_plus_8_repeats_labels_1_to_n(g, delta, max_label):
    # Each label is solved on its own lane, so a solve to N + 8 repeats
    # labels 1..N.
    params = ModelParams(g, delta)
    for parity in Parity:
        values = solved_values(parity, params, max_label)
        wider = solved_values(parity, params, max_label + 8)
        assert np.max(np.abs(values - wider[:max_label])) <= DEFAULT_EIGEN_TOL


# The perfbench param_sweep points of seed 1: (g, delta, N).
SWEEP_POINTS = [
    (1.065, 0.266, 282),
    (1.745, 0.802, 350),
    (0.725, 0.591, 383),
    (1.405, 0.102, 316),
    (1.235, 0.317, 249),
    (1.915, 0.022, 182),
    (0.385, 0.0, 81),
    (1.575, 0.009, 215),
    (0.555, 0.881, 114),
    (0.895, 0.686, 148),
]


# (g, delta, N) where labels 1..N are pre-asymptotic: the n - g**2 regime
# starts near label ceil(2 (g**2 + delta)), between 78 and 260 here.
PRE_ASYMPTOTIC_POINTS = [
    (3.0, 30.0, 51),
    (10.0, 15.0, 60),
    (5.0, 15.0, 51),
    (5.0, 30.0, 60),
    (10.0, 30.0, 60),
]

# Lanes sent to _fallback (PLUS, MINUS) at the default tolerances by the
# solver that certified labels with a Sturm pass of the leading truncation at
# every separator; the operator count on each lane's own window may send no
# more.  Points not listed sent none.
FALLBACK_LANES = {
    (0.7, 30.0, 40): (40, 40),
    (3.0, 30.0, 51): (37, 38),
    (10.0, 15.0, 60): (60, 60),
    (5.0, 15.0, 51): (36, 38),
    (5.0, 30.0, 60): (52, 54),
    (10.0, 30.0, 60): (60, 60),
}


# Points where 4 pivmin exceeds trunc_tol = 1e-14, solved at eigen_tol =
# 1e-15, and the lanes (PLUS, MINUS) each sends to _fallback there.
SMALL_TRUNC_TOL_LANES = {(1.9, 0.8, 120): (2, 2), (10.0, 15.0, 60): (60, 60), (0.7, 30.0, 40): (40, 40)}

ESTIMATE_CASES = [
    pytest.param(*point, DEFAULT_EIGEN_TOL, DEFAULT_TRUNC_TOL, id="-".join(map(str, point)))
    for point in SOLVER_POINTS + SWEEP_POINTS + PRE_ASYMPTOTIC_POINTS
] + [
    pytest.param(*point, 1e-15, 1e-14, id="-".join(map(str, (*point, 1e-15, 1e-14))))
    for point in SMALL_TRUNC_TOL_LANES
]


@pytest.mark.parametrize("g, delta, max_label, eigen_tol, trunc_tol", ESTIMATE_CASES)
def test_windowed_values_lie_within_their_error_estimates(g, delta, max_label, eigen_tol, trunc_tol):
    # No more lanes fall back than pinned.  At N = 2000 the reference costs
    # ~3 s per parity, so one parity there; the acceptance criteria check
    # both on the N = 2056 table.
    params = ModelParams(g, delta)
    lanes = FALLBACK_LANES if eigen_tol == DEFAULT_EIGEN_TOL else SMALL_TRUNC_TOL_LANES
    pinned = dict(zip(Parity, lanes.get((g, delta, max_label), (0, 0))))
    for parity in [Parity.MINUS] if max_label >= 2000 else Parity:
        fallen = []
        with pytest.MonkeyPatch.context() as patch:
            record_calls(patch, "_fallback", fallen)
            assert_within_error_estimates(parity, params, max_label, eigen_tol, trunc_tol)
        assert fallen_labels(fallen).size <= pinned[parity]


@settings(max_examples=6, deadline=None)
@given(
    g=st.floats(0.05, 5.0),
    delta=st.floats(0.0, 12.0),
    max_label=st.integers(1, 300),
    parity=st.sampled_from(Parity),
)
def test_solve_matches_doubled_truncation_anywhere(g, delta, max_label, parity):
    assert_within_error_estimates(parity, ModelParams(g, delta), max_label)


@pytest.mark.parametrize("g, delta, max_label", SOLVER_POINTS + PRE_ASYMPTOTIC_POINTS)
def test_counted_labels_agree_with_asymptotics(g, delta, max_label):
    # Solved far enough to reach the n - g**2 regime, the counted labels fit
    # it with offset -1: label 1 is the second-lowest eigenvalue.
    params = ModelParams(g, delta)
    count = max(max_label, MIN_TAIL, math.ceil(2.0 * (g**2 + delta)))
    for parity in Parity:
        values = solved_values(parity, params, count)
        assert label_offset(values, params, position=2) == -1


def test_window_passes_per_parity():
    # Safeguarded Newton starts at the unit bracket's midpoint with no count
    # before it: six Newton passes and the certificate's one, where the
    # midpoint steps alone would take ~35.  A whole-window pass added before
    # Newton fails this.
    for parity in Parity:
        eigensolver.counters.clear()
        solved_values(parity, ModelParams(0.7, 0.4), 2000)
        assert 0 < eigensolver.counters["window_passes"] <= 7


def test_newton_steps_that_leave_the_bracket_are_replaced():
    # At (3, 2, 200) MINUS some labels sit 0.485 from n - g**2, the midpoint
    # of their unit bracket, and the first Newton step from there leaves it.
    passes = []
    with pytest.MonkeyPatch.context() as patch:
        record_calls(patch, "_window_counts", passes)
        solved_values(Parity.MINUS, ModelParams(3.0, 2.0), 200)
    # Pass 0 is the first Newton pass, at the bracket midpoint.
    _, (_, newton_sum) = passes[0]
    assert np.any(np.abs(1.0 / newton_sum) > 0.5)


def test_window_counts_add_theta_first_and_take_phi_last():
    # Each count is LAPACK's for the window matrix with theta added to its
    # first diagonal entry and phi taken from its last; many lanes share a
    # last row, and some windows are one row long.
    rng = np.random.default_rng(3)
    params = ModelParams(0.7, 0.4)
    start = rng.integers(0, 30, size=300)
    length = np.sort(rng.integers(1, 12, size=start.size))
    sigma = params.delta * (1.0 - 2.0 * (start % 2))
    lams = rng.uniform(-2.0, 45.0, size=start.size)
    theta, phi = rng.uniform(-3.0, 3.0, size=(2, start.size))
    pivmin = eigensolver._truncation_pivmin(Parity.PLUS, params, 50)
    window = (start.astype(np.float64), length, sigma)
    counts, _ = eigensolver._window_counts(window, lams, params.g**2, pivmin, theta, phi)
    matrix = build_truncated(Parity.PLUS, params, 50)
    for j, (first, end) in enumerate(zip(start, start + length)):
        diag = matrix.diag[first:end].copy()
        diag[0] += theta[j]
        diag[-1] -= phi[j]
        eigenvalues = dense_eigenvalues(diag, matrix.offdiag[first : end - 1])
        assert counts[j] == np.count_nonzero(eigenvalues < lams[j])


@pytest.mark.parametrize("case", ["operator", "theta_phi", "matrix_rows", "one_lane", "no_lanes"])
def test_window_counts_match_the_reference_recurrence(case):
    # Bit for bit, counts and Newton sums, and the count-only mode's counts:
    # windows of 1..100 rows, lanes that end one row before, on and one row
    # after each flag-block flush, and many lanes sharing a last row.
    rng = np.random.default_rng(29)
    block = eigensolver._FLAG_ROWS
    flushes = [k * block + e for k in range(1, 100 // block + 1) for e in (-1, 0, 1)]
    length = np.concatenate([rng.integers(1, 101, size=200), np.repeat(flushes, 4), np.full(20, 57)])
    length = np.sort(np.minimum(length, 100))
    params = ModelParams(0.7, 0.4)
    g_sq, theta, phi, rows = params.g**2, 0.0, None, None
    start = rng.integers(0, 60, size=length.size).astype(np.float64)
    sigma = rng.choice([-params.delta, params.delta], size=length.size)
    lams = start - g_sq + rng.uniform(-3.0, length + 3.0)
    pivmin = eigensolver._truncation_pivmin(Parity.PLUS, params, 200)
    if case == "theta_phi":
        theta, phi = rng.uniform(-3.0, 3.0, size=(2, length.size))
    elif case == "matrix_rows":
        matrix = build_truncated(Parity.MINUS, params, 100)
        rows = (matrix.diag, np.append(0.0, matrix.offdiag * matrix.offdiag))
        start, sigma, g_sq = np.zeros_like(start), np.zeros_like(sigma), 0.0
        lams = rng.uniform(-3.0, 103.0, size=length.size)
        pivmin = eigensolver._pivmin(matrix)
    elif case in ("one_lane", "no_lanes"):
        keep = slice(block, block + 1) if case == "one_lane" else slice(0)
        start, length, sigma, lams = start[keep], length[keep], sigma[keep], lams[keep]
    windows = (start, length, sigma)
    counts, sums = eigensolver._window_counts(windows, lams, g_sq, pivmin, theta, phi, rows)
    expected = window_counts_reference(windows, lams, g_sq, pivmin, theta, phi, rows)
    assert np.array_equal(counts, expected[0]) and np.array_equal(sums, expected[1])
    assert counts.size == length.size and (counts.size < 2 or np.unique(counts).size > 10)
    only, none = eigensolver._window_counts(windows, lams, g_sq, pivmin, theta, phi, rows, False)
    assert np.array_equal(only, counts) and none is None


def test_window_counts_refuse_unsorted_lengths():
    # The lanes still running at a row must be a suffix; a short window after
    # a long one would be counted past its end.
    windows = (np.zeros(2), np.array([3, 2]), np.zeros(2))
    with pytest.raises(ValueError, match="nondecreasing"):
        eigensolver._window_counts(windows, np.zeros(2), 0.49, 1e-15)


def test_row_lanes_per_parity_are_pinned():
    # The kernel's work, the sum of window lengths over its calls, at
    # (0.7, 0.4, 2000): a cheaper row loop must leave it as it is.
    for parity, row_lanes in ((Parity.PLUS, 2_119_380), (Parity.MINUS, 2_119_365)):
        eigensolver.counters.clear()
        solved_values(parity, ModelParams(0.7, 0.4), 2000)
        assert eigensolver.counters["row_lanes"] == row_lanes
        assert eigensolver.counters["window_passes"] == 7


def test_failed_certification_reaches_the_fallback_round(monkeypatch):
    # The windowed round's certificate refuses every lane, so all of them
    # reach the fallback round, whose own certificate is left alone.
    params = ModelParams(0.7, 0.4)
    expected = solved_values(Parity.PLUS, params, 60)
    certify = eigensolver._certify
    rounds, fallen = [], []

    def refuse_the_first_round(*args):
        rounds.append(args)
        kept = certify(*args)
        return kept if len(rounds) > 1 else np.zeros_like(kept)

    monkeypatch.setattr(eigensolver, "_certify", refuse_the_first_round)
    record_calls(monkeypatch, "_fallback", fallen)
    values = solved_values(Parity.PLUS, params, 60)
    assert len(rounds) == 2
    assert fallen_labels(fallen).tolist() == list(range(1, 61))
    assert np.max(np.abs(values - expected)) <= DEFAULT_EIGEN_TOL


@pytest.mark.parametrize(
    "g, delta, max_label, falls_back",
    [
        pytest.param(3.0, 2.0, 200, True, id="3.0-2.0-200"),
        pytest.param(0.7, 0.4, 40, False, id="0.7-0.4-40"),
        pytest.param(1.9, 0.8, 120, True, id="1.9-0.8-120"),
    ],
)
def test_certificate_below_float_resolution_needs_no_bisection(g, delta, max_label, falls_back):
    # At tol 1e-16 a count one float from the value would fall within ~pivmin
    # of the eigenvalue, where the guarded pivot may put it on either side;
    # the operator count probes 4 pivmin away, so no lane is bisected to
    # float resolution.  Where the window's value lies farther than that from
    # the operator's (falls_back), the lane must reach the fallback.  Every
    # label, windowed or fallen back, must lie within its error estimate.
    params = ModelParams(g, delta)
    rounds = []
    for parity in Parity:
        fallen = []
        with pytest.MonkeyPatch.context() as patch:
            recorded = record_round_passes(patch, eigensolver)
            record_calls(patch, "_fallback", fallen)
            eigensolver._solve(parity, params, max_label, DEFAULT_TRUNC_TOL, 1e-16)
        rounds += recorded
        assert fallen_labels(fallen).size or not falls_back
        # Outside the spies: the reference solver runs the same Newton rounds.
        assert_within_error_estimates(parity, params, max_label, 1e-16)
    # One window round per parity, and a fallback round per parity that has
    # lanes left: it bisects from the Gershgorin interval before Newton.
    windowed = [passes for kind, passes in rounds if kind == "window"]
    assert len(windowed) == 2 and max(windowed) <= 16, rounds
    assert all(passes <= 64 for kind, passes in rounds if kind == "fallback"), rounds


@settings(max_examples=8, deadline=None)
@given(
    g=st.floats(0.05, 3.0),
    delta=st.floats(0.0, 4.0),
    max_label=st.integers(1, 200),
    parity=st.sampled_from(Parity),
)
def test_certified_values_bracket_one_operator_eigenvalue(g, delta, max_label, parity):
    # Each reported value, windowed or fallen back, has exactly one eigenvalue
    # of the operator truncation at twice its truncation dim within its
    # reported error, and that one is its label's: LAPACK on the assembled
    # matrix, at most ~800 rows here.
    params = ModelParams(g, delta)
    spectrum = eigensolver._solve(parity, params, max_label, DEFAULT_TRUNC_TOL, DEFAULT_EIGEN_TOL)
    matrix = build_truncated(parity, params, 2 * spectrum.truncation_dim)
    eigenvalues = dense_eigenvalues(matrix.diag, matrix.offdiag)
    # 1e-12 covers the dense solver's error and the pivot guard.
    near = np.abs(eigenvalues[:, None] - spectrum.values) <= spectrum.errors + 1e-12
    assert np.all(np.count_nonzero(near, axis=0) == 1)
    assert np.all(near[np.arange(1, max_label + 1), np.arange(max_label)])


@pytest.mark.parametrize("g, delta, max_label", SOLVER_POINTS + PRE_ASYMPTOTIC_POINTS[:1])
def test_certificate_refuses_values_moved_by_three_reaches(g, delta, max_label):
    # Control: every lane the certificate accepted, windowed or fallen back,
    # is refused once its x moves by 3 r either way.
    for parity in Parity:
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            record_calls(patch, "_certify", calls)
            eigensolver._solve(
                parity, ModelParams(g, delta), max_label, DEFAULT_TRUNC_TOL, DEFAULT_EIGEN_TOL
            )
        accepted = 0
        for (windows, labels, x, reach, g_sq, pivmin), kept in calls:
            windows = tuple(column[kept] for column in windows)
            reach = np.broadcast_to(reach, x.shape)[kept]
            for moved in (x[kept] - 3 * reach, x[kept] + 3 * reach):
                refused = ~eigensolver._certify(windows, labels[kept], moved, reach, g_sq, pivmin)
                assert np.all(refused)
            accepted += np.count_nonzero(kept)
        assert accepted == max_label


def exact_couplings(matrix, windows, shifts):
    """Per lane, the couplings of its window of ``matrix`` - shift to the rows
    around it: theta = -a_start**2 / q_{start-1} from the pivots of rows
    0 .. start - 1, and phi = a_{end+1}**2 / r_{end+1} from the pivots of the
    last rows up to end + 1 (0 for an empty head or tail)."""
    start, length, _ = windows
    first, after = start.astype(np.int64), (start + length).astype(np.int64)
    d, b = matrix.diag, np.append(0.0, matrix.offdiag**2)
    theta, phi = np.zeros(shifts.size), np.zeros(shifts.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = d[0] - shifts
        for i in range(1, matrix.dim):
            theta[first == i] = -b[i] / q[first == i]
            q = d[i] - shifts - b[i] / q
        r = d[-1] - shifts
        for i in range(matrix.dim - 1, 0, -1):
            phi[after == i] = b[i] / r[after == i]
            r = d[i - 1] - shifts - b[i] / r
    return theta, phi


@pytest.mark.parametrize("g, delta", [(0.2, 0.0), (0.7, 0.4), (2.0, 3.0)])
def test_certificate_accepts_only_true_claims_on_any_window(g, delta):
    # Claims "label m lies in [lo, hi)", with lo and hi midway between
    # neighbouring eigenvalues and m off by -1, 0 or +1, on windows of random
    # start and length, many of them too short for their head or tail check:
    # every certified claim is true (LAPACK on 400 rows), the theta and phi
    # it counted with enclose the window's exact couplings on those 400 rows,
    # and windows of half-width 100 around each label certify every true claim.
    params = ModelParams(g, delta)
    rng = np.random.default_rng(17)
    labels = rng.integers(1, 60, size=20000)
    start = rng.integers(0, 70, size=labels.size)
    length = np.sort(rng.integers(1, 40, size=labels.size))
    claim = labels + rng.integers(-1, 2, size=labels.size)
    for parity in Parity:
        matrix = build_truncated(parity, params, 400)
        eigenvalues = dense_eigenvalues(matrix.diag, matrix.offdiag)
        lo = 0.5 * (eigenvalues[labels - 1] + eigenvalues[labels])
        hi = 0.5 * (eigenvalues[labels] + eigenvalues[labels + 1])
        x, reach = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pivmin = eigensolver._truncation_pivmin(parity, params, 400)
        sigma = parity.sign * delta * (1.0 - 2.0 * (start % 2))
        window = (start.astype(np.float64), length, sigma)
        counts = []
        with pytest.MonkeyPatch.context() as patch:
            record_calls(patch, "_window_counts", counts)
            certified = eigensolver._certify(window, claim, x, reach, g * g, pivmin)
        assert np.all(claim[certified] == labels[certified])
        assert np.any(certified)
        (pairs, shifts, _, _, theta, phi, *_), _ = counts[0]
        exact_theta, exact_phi = exact_couplings(matrix, pairs, shifts)
        # Even entries are at x - r (theta_min, phi_max), odd ones at x + r.
        accepted = np.repeat(certified, 2)
        at_lo = accepted & (np.arange(shifts.size) % 2 == 0)
        at_hi = accepted & (np.arange(shifts.size) % 2 == 1)
        assert np.any(exact_theta[at_lo] > 0)
        assert np.all(theta[at_lo] <= exact_theta[at_lo] * (1 + 1e-12))
        assert np.all(phi[at_lo] >= exact_phi[at_lo] * (1 - 1e-12))
        assert np.all(theta[at_hi] >= exact_theta[at_hi] * (1 - 1e-12))
        assert np.all(phi[at_hi] <= exact_phi[at_hi] * (1 + 1e-12))
        order = np.argsort(labels)
        wide = eigensolver._windows(parity, params, labels[order], np.full(labels.size, 100))
        truth = labels[order]
        assert np.all(eigensolver._certify(wide, truth, x[order], reach[order], g * g, pivmin))


def test_low_labels_reach_the_fallback_round(monkeypatch):
    # At delta = 30 labels 1..~30 sit ~27 below n - g**2, outside their unit
    # brackets, so the certificate must send them to the fallback round;
    # test_windowed_values_lie_within_their_error_estimates checks the values
    # at this point.
    fallen = []
    record_calls(monkeypatch, "_fallback", fallen)
    for parity in Parity:
        fallen.clear()
        solved_values(parity, ModelParams(0.7, 30.0), 40)
        assert len(fallen) == 1 and set(range(1, 31)) <= set(fallen_labels(fallen).tolist())


@pytest.mark.parametrize(
    "g, delta, max_label, eigen_tol",
    [(g, delta, n, DEFAULT_EIGEN_TOL) for g, delta, n in PRE_ASYMPTOTIC_POINTS]
    + [(0.7, 30.0, 40, DEFAULT_EIGEN_TOL), (3.0, 2.0, 200, 1e-16)],
)
def test_solve_never_calls_the_reference_solver(g, delta, max_label, eigen_tol):
    # Fallback lanes are windows on rows 0..m-1 that go through the same
    # Newton and certificate: the solve builds no matrix and never reaches
    # the reference solver, though it reaches _fallback.
    assert not hasattr(eigensolver, "build_truncated")
    reference, built, fallen = [], [], []
    with pytest.MonkeyPatch.context() as patch:
        record_calls(patch, "lowest_eigenvalues", reference)
        patch.setattr(model, "build_truncated", lambda *args: built.append(args))
        record_calls(patch, "_fallback", fallen)
        for parity in Parity:
            params = ModelParams(g, delta)
            eigensolver._solve(parity, params, max_label, DEFAULT_TRUNC_TOL, eigen_tol)
    assert reference == [] and built == [] and fallen


@pytest.mark.parametrize("g, delta, max_label", [(1.9, 0.8, 120), (3.0, 2.0, 200)])
def test_label_zero_is_not_solved(g, delta, max_label, monkeypatch):
    # Every reported label here is certified in its unit bracket, and label 0,
    # which no report reads, is not sent to the fallback round.
    calls = []
    record_calls(monkeypatch, "_fallback", calls)
    compute_spectrum_table(ModelParams(g, delta), max_label)
    assert calls == []


def test_adaptive_spectrum_validation():
    with pytest.raises(ValueError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 0)
    with pytest.raises(ValueError):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 10, tol=-1.0)
    # The float-resolution allowance eigen_tol + trunc_tol stays at no less
    # than 2 eigen_tol (values are solved only to eigen_tol).
    with pytest.raises(ValueError, match="eigen_tol <= trunc_tol"):
        adaptive_spectrum(Parity.PLUS, ModelParams(0.7, 0.4), 10, tol=1e-13)


def test_bisection_stays_finite_at_the_float_limit():
    # lo + hi and hi - lo overflow here; halving each end first does not.
    big = np.finfo(np.float64).max
    for d in (1.7e308, -1.7e308, big, -big):
        matrix = TridiagonalMatrix(diag=[d], offdiag=[])
        with np.errstate(over="raise", invalid="raise"):
            value = lowest_eigenvalues(matrix, 1, DEFAULT_EIGEN_TOL)
        assert abs(value[0] - d) <= 4 * np.spacing(1.7e308)


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
    eigensolver.counters.clear()
    assert eigensolver.counters.total() == 0
    lowest_eigenvalues(TWO_BY_TWO, 1, 1e-10)
    adaptive_spectrum(Parity.PLUS, params, 1)
    assert eigensolver.counters["reference_runs"] == 1
    assert eigensolver.counters["adaptive_runs"] == 1
    # One reference run, one solve and at least one window pass.
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
