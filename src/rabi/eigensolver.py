"""Sturm-sequence bisection eigensolver with adaptive truncation and labeling.

The low-lying spectrum of each parity-class Jacobi operator is obtained from
finite truncations.  Eigenvalue counts below a shift ``lam`` come from the
pivot recurrence of the shifted LDL^T factorization,

    q_1 = d_1 - lam,      q_i = (d_i - lam) - a_{i-1}**2 / q_{i-1},

counting negative pivots.  Pivots with magnitude below ``pivmin`` (machine
epsilon times the largest absolute matrix entry) are replaced by ``-pivmin``;
this both prevents overflow in the division and counts an exact zero pivot as
negative, perturbing counts by no more than the bisection tolerance.

Truncation policy: solve the lowest ``K = max(max_label, 32) + 16``
eigenvalues, start at ``M0 = 2*K + ceil(8*g**2)`` and double M until every
one moves by less than the truncation tolerance between consecutive levels.
The diagonal grows like k while the off-diagonal grows like g*sqrt(k), so
eigenvalue n of the infinite operator is localized well below row 2n and the
doubling loop terminates almost immediately; by Cauchy interlacing each low
eigenvalue is nonincreasing in M, and the last observed movement is reported
as the error estimate.

Labels follow the convention that eigenvalue n sits near ``n - g**2`` for
large n.  Nothing guarantees that the smallest computed eigenvalue has label
1, so :func:`label_offset` calibrates an integer shift against the
``n - g**2`` tail instead of guessing; for these matrices the shift comes out
to -1 (the matrix row index, starting at 0, carries the asymptotics).

After the solve a parity class is held as columns, :class:`ParitySpectrum`:
a read-only value array, an error-estimate array and one truncation
dimension, with labels implicit as 1..N.  :class:`SpectrumTable` holds one
per parity.  :func:`adaptive_spectrum` returns one :class:`EigenvalueRecord`
per label, and :meth:`ParitySpectrum.from_records` is the one conversion
from records to columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, Parity, TridiagonalMatrix, build_truncated

__all__ = [
    "ConvergenceError",
    "LabelingError",
    "EigenvalueRecord",
    "ParitySpectrum",
    "SpectrumTable",
    "sturm_count",
    "lowest_eigenvalues",
    "label_offset",
    "adaptive_spectrum",
    "compute_spectrum_table",
]

DEFAULT_EIGEN_TOL = 1e-10
DEFAULT_TRUNC_TOL = 1e-8
DEFAULT_M_MAX = 2**20

# Eigenvalues solved beyond max_label keep label calibration and interval
# statistics near max_label trustworthy.
_BUFFER = 16

# Bisection stops on bracket width; the iteration cap only guards callers who
# request a tolerance below the floating-point resolution of the bracket.
_MAX_BISECTION_ITER = 200

# label_offset needs a decent asymptotic tail to calibrate against.
_MIN_CALIBRATION_VALUES = 32


class ConvergenceError(RuntimeError):
    """Truncation doubling hit the dimension cap without converging."""


class LabelingError(RuntimeError):
    """Label calibration was ambiguous or left requested labels uncovered."""


@dataclass
class SolverCounters:
    """Instrumentation for cache tests: counts eigensolver entry points."""

    sturm_calls: int = 0
    bisection_runs: int = 0
    adaptive_runs: int = 0

    def total(self) -> int:
        return self.sturm_calls + self.bisection_runs + self.adaptive_runs

    def reset(self) -> None:
        self.sturm_calls = 0
        self.bisection_runs = 0
        self.adaptive_runs = 0


counters = SolverCounters()


@dataclass(frozen=True)
class EigenvalueRecord:
    """One labeled eigenvalue as :func:`adaptive_spectrum` returns it."""

    label: int
    parity: Parity
    value: float
    truncation_dim: int
    error_estimate: float


@dataclass(frozen=True)
class ParitySpectrum:
    """One parity class as columns: row i holds label i + 1.

    ``values`` are strictly increasing eigenvalues, ``errors`` their
    truncation error estimates; both are read-only.  One truncation
    dimension serves every label of the class.
    """

    values: np.ndarray
    errors: np.ndarray
    truncation_dim: int

    def __post_init__(self) -> None:
        for name in ("values", "errors"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "truncation_dim", int(self.truncation_dim))
        if self.values.ndim != 1 or self.errors.shape != self.values.shape:
            raise ValueError("values and errors must be 1-d columns of one length")
        if self.values.size > 1 and not np.all(np.diff(self.values) > 0):
            raise ValueError("values must be strictly increasing")
        if self.truncation_dim < self.values.size:
            raise ValueError("a truncation of dimension M has at most M eigenvalues")

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_records(cls, records) -> "ParitySpectrum":
        """Columns of records that carry labels 1..len(records) in order."""
        if not records:
            raise ValueError("a parity spectrum needs at least one record")
        if [r.label for r in records] != list(range(1, len(records) + 1)):
            raise ValueError(f"records must cover labels 1..{len(records)} in order")
        return cls(
            values=[r.value for r in records],
            errors=[r.error_estimate for r in records],
            truncation_dim=records[0].truncation_dim,
        )


@dataclass(frozen=True)
class SpectrumTable:
    """Converged spectra of both parity classes, labels 1..max_label."""

    params: ModelParams
    eigen_tol: float
    trunc_tol: float
    plus: ParitySpectrum
    minus: ParitySpectrum
    offset_plus: int | None = None
    offset_minus: int | None = None

    def __post_init__(self) -> None:
        if len(self.plus) != len(self.minus):
            raise ValueError("parity classes must cover the same label range")

    @property
    def max_label(self) -> int:
        return len(self.plus)

    def spectrum(self, parity: Parity) -> ParitySpectrum:
        return self.plus if parity is Parity.PLUS else self.minus

    def values(self, parity: Parity) -> np.ndarray:
        return self.spectrum(parity).values

    def labels(self, parity: Parity) -> np.ndarray:
        return np.arange(1, self.max_label + 1, dtype=np.int64)

    def truncated(self, max_label: int) -> "SpectrumTable":
        """View of the table restricted to labels 1..max_label."""
        if not (1 <= max_label <= self.max_label):
            raise ValueError(f"max_label must be in [1, {self.max_label}]")
        plus, minus = (
            replace(s, values=s.values[:max_label], errors=s.errors[:max_label])
            for s in (self.plus, self.minus)
        )
        return replace(self, plus=plus, minus=minus)

    @classmethod
    def from_records(
        cls,
        params: ModelParams,
        plus: ParitySpectrum,
        minus: ParitySpectrum,
        eigen_tol: float = DEFAULT_EIGEN_TOL,
        trunc_tol: float = DEFAULT_TRUNC_TOL,
        offset_plus: int | None = None,
        offset_minus: int | None = None,
    ) -> "SpectrumTable":
        """Table from one solved or cached :class:`ParitySpectrum` per parity."""
        return cls(params, eigen_tol, trunc_tol, plus, minus, offset_plus, offset_minus)


def _pivmin(matrix: TridiagonalMatrix) -> float:
    scale = 0.0
    scale = max(scale, float(np.max(np.abs(matrix.diag))))
    if matrix.offdiag.size:
        scale = max(scale, float(np.max(np.abs(matrix.offdiag))))
    scale = max(scale, 1.0)
    return np.finfo(np.float64).eps * scale


def _sturm_batch(
    diag: np.ndarray, offdiag_sq: np.ndarray, lams: np.ndarray, pivmin: float
) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in ``lams``."""
    q = diag[0] - lams
    np.copyto(q, -pivmin, where=np.abs(q) < pivmin)
    counts = (q < 0).astype(np.int64)
    quot = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    for i in range(1, diag.size):
        np.divide(offdiag_sq[i - 1], q, out=quot)
        np.subtract(diag[i], lams, out=q)
        np.subtract(q, quot, out=q)
        np.copyto(q, -pivmin, where=np.abs(q) < pivmin)
        np.less(q, 0.0, out=neg)
        counts += neg
    return counts


def sturm_count(matrix: TridiagonalMatrix, lam: float) -> int:
    """Count of eigenvalues of ``matrix`` strictly below ``lam``.

    Exact up to the pivot guard: shifts within ~pivmin of an eigenvalue may
    count it on either side, which bisection absorbs into its tolerance.
    """
    counters.sturm_calls += 1
    offdiag_sq = matrix.offdiag * matrix.offdiag
    lams = np.array([lam], dtype=np.float64)
    return int(_sturm_batch(matrix.diag, offdiag_sq, lams, _pivmin(matrix))[0])


def _gershgorin_bracket(matrix: TridiagonalMatrix) -> tuple[float, float]:
    """Open interval certainly containing the whole spectrum."""
    d, a = matrix.diag, matrix.offdiag
    radius = np.zeros_like(d)
    if a.size:
        abs_a = np.abs(a)
        radius[:-1] += abs_a
        radius[1:] += abs_a
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = max(1.0, abs(lo), abs(hi)) * 1e-12 + 4.0 * _pivmin(matrix)
    return lo - pad, hi + pad


def _bisect_lowest(matrix: TridiagonalMatrix, count: int, tol: float) -> np.ndarray:
    lo_b, hi_b = _gershgorin_bracket(matrix)
    lo = np.full(count, lo_b)
    hi = np.full(count, hi_b)
    ks = np.arange(1, count + 1)
    offdiag_sq = matrix.offdiag * matrix.offdiag
    pivmin = _pivmin(matrix)
    for _ in range(_MAX_BISECTION_ITER):
        if np.all(hi - lo < tol):
            break
        mid = 0.5 * (lo + hi)
        cnt = _sturm_batch(matrix.diag, offdiag_sq, mid, pivmin)
        move_hi = cnt >= ks
        hi = np.where(move_hi, mid, hi)
        lo = np.where(move_hi, lo, mid)
    return 0.5 * (lo + hi)


def lowest_eigenvalues(matrix: TridiagonalMatrix, count: int, tol: float) -> np.ndarray:
    """The ``count`` smallest eigenvalues, each within +-tol, in increasing order.

    All brackets are bisected in lockstep, with one vectorized Sturm pass per
    iteration, so the cost is O(dim * count * log(range/tol)) flops.
    """
    if not (0 <= count <= matrix.dim):
        raise ValueError(f"count must be in [0, {matrix.dim}], got {count}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    if count == 0:
        return np.empty(0, dtype=np.float64)
    counters.bisection_runs += 1
    return _bisect_lowest(matrix, count, tol)


def label_offset(values, params: ModelParams) -> int:
    """Integer shift s aligning sorted eigenvalues with the n - g**2 tail.

    With k the 1-based sorted position, labels are n = k + s where s
    minimizes the median of |value_k - (k + s - g**2)| over the top half of
    the supplied list.  Raises LabelingError when that median is 1/2 or more
    (half the tail sits nearer another label than its own) or when the
    runner-up comes within 0.25 of the best (the calibration would be a guess).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < _MIN_CALIBRATION_VALUES:
        raise ValueError(
            f"need at least {_MIN_CALIBRATION_VALUES} eigenvalues to calibrate labels"
        )
    k = np.arange(1, values.size + 1, dtype=np.float64)
    resid = values - (k - params.g**2)
    tail = resid[values.size // 2 :]
    center = int(round(float(np.median(tail))))
    candidates = range(center - 3, center + 4)
    medians = {s: float(np.median(np.abs(tail - s))) for s in candidates}
    ranked = sorted(medians.items(), key=lambda item: item[1])
    best, best_med = ranked[0]
    _, second_med = ranked[1]
    if best_med >= 0.5:
        raise LabelingError(
            f"no label offset fits the n - g**2 tail: best median deviation {best_med:.3g} >= 1/2"
        )
    if second_med - best_med < 0.25:
        raise LabelingError(
            f"label offset ambiguous: offsets within 0.25 in median deviation "
            f"(best {best} at {best_med:.3f}, runner-up at {second_med:.3f})"
        )
    return best


def _adaptive_values(
    parity: Parity,
    params: ModelParams,
    n_values: int,
    trunc_tol: float,
    eigen_tol: float,
    m_max: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Converged lowest eigenvalues, per-eigenvalue movement, final dimension."""
    # Compare before squaring: g**2 overflows for huge finite g.
    if params.g > math.sqrt(m_max / 8.0):
        raise ConvergenceError(f"initial truncation exceeds cap {m_max} at g = {params.g:g}")
    m = 2 * n_values + math.ceil(8.0 * params.g**2)
    if m > m_max:
        raise ConvergenceError(f"initial truncation {m} exceeds cap {m_max}")
    prev = lowest_eigenvalues(build_truncated(parity, params, m), n_values, eigen_tol)
    while True:
        m *= 2
        if m > m_max:
            raise ConvergenceError(
                f"truncation did not converge to {trunc_tol:g} below dimension cap {m_max}"
            )
        vals = lowest_eigenvalues(build_truncated(parity, params, m), n_values, eigen_tol)
        movement = np.abs(vals - prev)
        prev = vals
        if float(np.max(movement)) < trunc_tol:
            return vals, movement, m


def _adaptive_columns(
    parity: Parity,
    params: ModelParams,
    max_label: int,
    trunc_tol: float,
    eigen_tol: float,
    m_max: int,
) -> tuple[ParitySpectrum, int]:
    if max_label < 1:
        raise ValueError(f"max_label must be >= 1, got {max_label}")
    if not (trunc_tol > 0.0 and eigen_tol > 0.0):
        raise ValueError("tolerances must be positive")
    counters.adaptive_runs += 1
    n_values = max(max_label, _MIN_CALIBRATION_VALUES) + _BUFFER
    vals, movement, m = _adaptive_values(parity, params, n_values, trunc_tol, eigen_tol, m_max)
    offset = label_offset(vals, params)
    # Sorted position k (1-based) carries label k + offset.
    first = -offset
    if first < 0 or first + max_label > vals.size:
        raise LabelingError(
            f"calibrated offset {offset} does not cover labels 1..{max_label}"
        )
    labeled = slice(first, first + max_label)
    return ParitySpectrum(vals[labeled], movement[labeled], m), offset


def adaptive_spectrum(
    parity: Parity,
    params: ModelParams,
    max_label: int,
    tol: float = DEFAULT_TRUNC_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
    m_max: int = DEFAULT_M_MAX,
) -> list[EigenvalueRecord]:
    """Labeled eigenvalue records 1..max_label for one parity class.

    ``tol`` is the truncation-convergence tolerance (maximum movement under
    the last dimension doubling); ``eigen_tol`` bounds the bisection bracket
    at each truncation.
    """
    spectrum, _ = _adaptive_columns(parity, params, max_label, tol, eigen_tol, m_max)
    dim = spectrum.truncation_dim
    return [
        EigenvalueRecord(
            label=label, parity=parity, value=value, truncation_dim=dim, error_estimate=error
        )
        for label, (value, error) in enumerate(
            zip(spectrum.values.tolist(), spectrum.errors.tolist()), start=1
        )
    ]


def compute_spectrum_table(
    params: ModelParams,
    max_label: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
    m_max: int = DEFAULT_M_MAX,
) -> SpectrumTable:
    """Converged table for both parity classes with calibrated labels."""
    (plus, offset_plus), (minus, offset_minus) = (
        _adaptive_columns(parity, params, max_label, trunc_tol, eigen_tol, m_max)
        for parity in (Parity.PLUS, Parity.MINUS)
    )
    return SpectrumTable(
        params, eigen_tol, trunc_tol, plus, minus, offset_plus, offset_minus
    )
