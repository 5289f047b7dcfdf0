"""Sturm-sequence eigensolver: one window lane per label, with certified labels.

Eigenvalue counts below a shift ``lam`` come from the pivot recurrence of the
shifted LDL^T factorization,

    q_1 = d_1 - lam,      q_i = (d_i - lam) - a_{i-1}**2 / q_{i-1},

counting negative pivots.  Pivots with magnitude below ``pivmin`` (machine
epsilon times the largest absolute matrix entry) are replaced by ``-pivmin``;
this both prevents overflow in the division and counts an exact zero pivot as
negative, perturbing counts by no more than the solver tolerance.

Labels are counts: label n is the eigenvalue with exactly n eigenvalues below
it, so it sits near ``n - g**2`` for large n and matrix row n (counting from
0) carries the asymptotics.  A parity class is solved for labels 1..N, one
lane per label, and each label is certified by Sturm counts in these steps:

1. *Certify.*  One Sturm pass of the leading truncation, of dimension M = 1 +
   the largest row any doubled window touches, at the separators
   ``s_k = k - g**2 - 1/2``, k = 1..N+1.  Lane n is certified when exactly n
   eigenvalues lie below s_n and n + 1 below s_{n+1}: the unit bracket
   [s_n, s_{n+1}) then holds label n and no other.  A window count alone
   cannot tell label n from a neighbour that strays into its bracket.
2. *Window.*  A certified lane solves its unit bracket on its own rows
   [n - h, n + h], ``h = ceil(2 g**2 + 4 g sqrt(n) + 10)``, clipped at row 0.
   The diagonal ``d(k) = k + sign (-1)**k delta`` couples to row k - 1 by
   ``a(k)**2 = g**2 k`` (see :mod:`rabi.model`); these rows are generated
   inside the recurrence, so memory stays O(lanes).  The window must hold
   exactly one eigenvalue in the bracket.  Safeguarded Newton on the window's
   characteristic polynomial ``p = prod q_i`` finds it: each pass returns the
   count at the iterate x, which shrinks the bracket, and ``p'/p`` from the
   derivative of the pivot recurrence; the next iterate is ``x - p/p'``, or
   the bracket midpoint when that leaves the closed bracket.  A lane stops
   when its step is at most ``eigen_tol / 4`` or it would step onto a point
   already counted.
3. *Value certificate.*  One two-shift count on the doubled window
   (half-width 2h) must find exactly one eigenvalue in [x - r, x + r),
   ``r = min(max(eigen_tol / 2, 4 pivmin), trunc_tol)``: within ~pivmin of
   an eigenvalue the guarded pivot may count it on either side.  The window
   value x is reported, with r as its error estimate: it bounds |x - the
   doubled-window eigenvalue|.
4. *Fallback.*  Lanes that fail either count (a lane whose Newton run
   stopped short of its eigenvalue fails the second) are bisected by index
   n on the leading truncation, doubling M until each moves by less than
   ``trunc_tol`` (``ConvergenceError`` past ``M_MAX``).  By Cauchy
   interlacing each low eigenvalue is nonincreasing in M; the error estimate
   is the movement plus the achieved half-width.

A windowed estimate r is at most ``trunc_tol``, so the error rule lives in
:func:`_fallback`: a half-width or estimate above ``eigen_tol + trunc_tol``
is float64's spacing at the value (large delta), which no doubling shrinks,
and raises ``ConvergenceError`` naming that spacing at once.

After the solve a parity class is held as columns, :class:`ParitySpectrum`:
a read-only value array, an error-estimate array and one truncation
dimension (the certification truncation, or the fallback's last one when
that is larger), with labels implicit as 1..N.  :class:`SpectrumTable` holds
one per parity.  :func:`adaptive_spectrum` returns one
:class:`EigenvalueRecord` per label, and :meth:`ParitySpectrum.from_records`
is the one conversion from records to columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .model import ModelParams, Parity, TridiagonalMatrix, build_truncated

__all__ = [
    "ConvergenceError",
    "EigenvalueRecord",
    "ParitySpectrum",
    "SpectrumTable",
    "sturm_count",
    "lowest_eigenvalues",
    "adaptive_spectrum",
    "compute_spectrum_table",
]

DEFAULT_EIGEN_TOL = 1e-10
DEFAULT_TRUNC_TOL = 1e-8
M_MAX = 2**20

# Bisection and Newton stop on step or bracket width, or at the floating-point
# resolution of the bracket; the iteration cap is only a backstop.
_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """A solve that cannot meet its tolerances: the dimension cap or float resolution."""


@dataclass
class SolverCounters:
    """Instrumentation for tests: counts eigensolver entry points and window passes."""

    sturm_calls: int = 0
    bisection_runs: int = 0
    adaptive_runs: int = 0
    window_passes: int = 0

    def total(self) -> int:
        return self.sturm_calls + self.bisection_runs + self.adaptive_runs + self.window_passes

    def reset(self) -> None:
        self.sturm_calls = 0
        self.bisection_runs = 0
        self.adaptive_runs = 0
        self.window_passes = 0


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
    # Labels are Sturm counts: label n is 1-based sorted position n + 1.
    offset_plus: ClassVar[int] = -1
    offset_minus: ClassVar[int] = -1

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
    ) -> "SpectrumTable":
        """Table from one solved or cached :class:`ParitySpectrum` per parity."""
        return cls(params, eigen_tol, trunc_tol, plus, minus)


def _pivmin(matrix: TridiagonalMatrix) -> float:
    scale = 0.0
    scale = max(scale, float(np.max(np.abs(matrix.diag))))
    if matrix.offdiag.size:
        scale = max(scale, float(np.max(np.abs(matrix.offdiag))))
    scale = max(scale, 1.0)
    return np.finfo(np.float64).eps * scale


# d_i - lam may overflow near the float limit; an infinite pivot counts by its sign.
@np.errstate(over="ignore")
def _sturm_batch(
    diag: np.ndarray, offdiag_sq: np.ndarray, lams: np.ndarray, pivmin: float
) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in ``lams``."""
    q = diag[0] - lams
    counts = np.zeros(q.shape, dtype=np.int64)
    quot = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    for i in range(diag.size):
        if i:
            np.divide(offdiag_sq[i - 1], q, out=quot)
            np.subtract(diag[i], lams, out=q)
            np.subtract(q, quot, out=q)
        # Guarded pivot: |q| < pivmin becomes -pivmin, so q counts as
        # negative exactly when it was below pivmin.
        np.less(q, pivmin, out=neg)
        counts += neg
        np.minimum(q, -pivmin, out=q, where=neg)
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


@np.errstate(over="ignore")
def _gershgorin_bracket(matrix: TridiagonalMatrix) -> tuple[float, float]:
    """Open interval certainly containing the whole spectrum, clipped to finite floats."""
    d, a = matrix.diag, matrix.offdiag
    radius = np.zeros_like(d)
    if a.size:
        abs_a = np.abs(a)
        radius[:-1] += abs_a
        radius[1:] += abs_a
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = max(1.0, abs(lo), abs(hi)) * 1e-12 + 4.0 * _pivmin(matrix)
    big = np.finfo(np.float64).max
    return max(lo - pad, -big), min(hi + pad, big)


def _bisect_lowest(
    matrix: TridiagonalMatrix, index: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues number ``index`` (0-based, ascending): midpoints and half-widths.

    Each lane bisects the Gershgorin bracket for the shift where the count
    reaches ``index + 1``, and stops at width ``tol`` or when its midpoint
    rounds to an end.  Halving each end first keeps both finite at any float.
    """
    lo, hi = (np.full(index.size, end) for end in _gershgorin_bracket(matrix))
    offdiag_sq = matrix.offdiag * matrix.offdiag
    pivmin = _pivmin(matrix)
    active = np.ones(index.size, dtype=bool)
    for _ in range(_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        active &= (0.5 * hi - 0.5 * lo >= 0.5 * tol) & (lo < mid) & (mid < hi)
        lanes = np.flatnonzero(active)
        if not lanes.size:
            break
        move_hi = _sturm_batch(matrix.diag, offdiag_sq, mid[lanes], pivmin) > index[lanes]
        hi[lanes] = np.where(move_hi, mid[lanes], hi[lanes])
        lo[lanes] = np.where(move_hi, lo[lanes], mid[lanes])
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


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
    return _bisect_lowest(matrix, np.arange(count), tol)[0]


def _window_counts(
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
    lams: np.ndarray,
    g_sq: float,
    pivmin: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues strictly below ``lams[j]`` of lane j's window of rows, and
    the Newton sum ``p'/p`` of the window's characteristic polynomial there.

    ``windows`` is ``(start, length, sigma)`` per lane, in nondecreasing
    ``length``: the window holds operator rows start .. start + length - 1,
    row i of it has diagonal ``start + i + sigma (-1)**i`` and couples to row
    i - 1 by ``g_sq (start + i)``.  Rows are generated step by step, so
    memory is O(lanes); with lanes sorted by length, the lanes still running
    at step i are a suffix.  With ``p = prod q_i``, ``p'/p = sum q_i'/q_i``,
    where ``q_1' = -1`` and ``q_i' = -1 + a_{i-1}**2 q_{i-1}' / q_{i-1}**2``.
    """
    counters.window_passes += 1
    start, length, sigma = windows
    counts = np.zeros(lams.size, dtype=np.int64)
    newton_sum = np.zeros(lams.size)
    if not lams.size:
        return counts, newton_sum
    shifted = start - lams
    diag_less_lam = (shifted + sigma, shifted - sigma)
    coupling = g_sq * start
    q = diag_less_lam[0].copy()
    # ratio holds q_i' / q_i once row i is done; -1 is q_1'.
    ratio = np.full_like(q, -1.0)
    quot = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    first = np.searchsorted(length, np.arange(int(length[-1])), side="right")
    # A pivot near zero can overflow the derivative; the Newton step then
    # comes out non-finite and is replaced by the bracket midpoint.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, lane in enumerate(first.tolist()):
            s = slice(lane, None)
            if i:
                np.add(coupling[s], g_sq * i, out=quot[s])
                np.divide(quot[s], q[s], out=quot[s])
                np.multiply(ratio[s], quot[s], out=ratio[s])
                np.subtract(ratio[s], 1.0, out=ratio[s])
                np.add(diag_less_lam[i % 2][s], i, out=q[s])
                np.subtract(q[s], quot[s], out=q[s])
            # The same pivot guard as _sturm_batch.
            np.less(q[s], pivmin, out=neg[s])
            counts[s] += neg[s]
            np.minimum(q[s], -pivmin, out=q[s], where=neg[s])
            np.divide(ratio[s], q[s], out=ratio[s])
            newton_sum[s] += ratio[s]
    return counts, newton_sum


def _windows(
    parity: Parity, params: ModelParams, lanes: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows [n - half, n + half] of lane n, clipped at row 0, as window triples."""
    start = np.maximum(lanes - half, 0)
    length = lanes + half - start + 1
    sigma = parity.sign * params.delta * (1.0 - 2.0 * (start % 2))
    return start.astype(np.float64), length, sigma


def _count_pairs(windows, lo, hi, g_sq, pivmin):
    """Window counts below ``lo`` and below ``hi``, in one two-shift pass."""
    # np.repeat keeps the lanes sorted by window length.
    pairs = tuple(np.repeat(column, 2) for column in windows)
    counts = _window_counts(pairs, np.column_stack((lo, hi)).ravel(), g_sq, pivmin)[0]
    return counts[0::2], counts[1::2]


def _newton_windows(
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    g_sq: float,
    pivmin: float,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's window eigenvalue in [lo, hi), by safeguarded Newton.

    Only lanes whose window holds exactly one eigenvalue in the bracket are
    solved.  Each pass counts at the iterate, which shrinks the bracket, and
    steps to ``x - p/p'``, or to the bracket midpoint when that point is not
    finite or leaves the closed bracket.  A lane stops when its step is at
    most ``tol / 4`` or lands on a bracket end.  Returns the last iterates,
    which the caller certifies, and the mask that selects their lanes.
    """
    below, above = _count_pairs(windows, lo, hi, g_sq, pivmin)
    single = above - below == 1
    windows = tuple(column[single] for column in windows)
    lo, hi, below = lo[single], hi[single], below[single]
    target = below + 1
    x = 0.5 * (lo + hi)
    active = np.arange(x.size)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        lane_windows = tuple(column[active] for column in windows)
        at = x[active]
        counts, newton_sum = _window_counts(lane_windows, at, g_sq, pivmin)
        past = counts >= target[active]
        hi[active] = np.where(past, at, hi[active])
        lo[active] = np.where(past, lo[active], at)
        lane_lo, lane_hi = lo[active], hi[active]
        mid = 0.5 * (lane_lo + lane_hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step_to = at - 1.0 / newton_sum
        inside = np.isfinite(newton_sum) & (lane_lo <= step_to) & (step_to <= lane_hi)
        step_to = np.where(inside, step_to, mid)
        x[active] = step_to
        # A step onto a bracket end, a point already counted, is a step at
        # the float resolution of the iterate: it only repeats itself.
        done = (np.abs(step_to - at) <= 0.25 * tol) | (step_to == lane_lo) | (step_to == lane_hi)
        active = active[~done]
    return x, single


def _fallback(
    parity: Parity,
    params: ModelParams,
    index: np.ndarray,
    m: int,
    trunc_tol: float,
    eigen_tol: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Labels ``index`` by bisection on the leading truncation, doubling it from
    dimension ``m`` until each moves by less than ``trunc_tol``: values, error
    estimates and the final dimension.  An error above ``eigen_tol + trunc_tol``
    is float resolution, which no doubling shrinks: ``ConvergenceError``."""
    prev = np.full(index.size, np.inf)  # no movement measured yet
    while True:
        vals, half = _bisect_lowest(build_truncated(parity, params, m), index, eigen_tol)
        movement = np.abs(vals - prev)
        prev = vals
        converged = float(np.max(movement)) < trunc_tol
        errors = movement + half if converged else half
        worst = int(np.argmax(errors))
        if not errors[worst] <= eigen_tol + trunc_tol:
            size = abs(float(vals[worst]))
            raise ConvergenceError(
                f"label {index[worst]}: error estimate {errors[worst]:.3g} > eigen_tol + "
                f"trunc_tol; float64 spacing {np.spacing(size):.3g} at |value| {size:.3g}: "
                "the value cannot be resolved"
            )
        if converged:
            return vals, errors, m
        m *= 2
        if m > M_MAX:
            raise ConvergenceError(
                f"truncation did not converge to {trunc_tol:g} below dimension cap {M_MAX}"
            )


def _solve(
    parity: Parity,
    params: ModelParams,
    max_label: int,
    trunc_tol: float,
    eigen_tol: float,
) -> ParitySpectrum:
    """Labels 1..max_label of one parity class."""
    if max_label < 1:
        raise ValueError(f"max_label must be >= 1, got {max_label}")
    # Bisection alone moves a value by up to eigen_tol: the fallback needs trunc_tol >= it.
    if not 0.0 < eigen_tol <= trunc_tol:
        raise ValueError("tolerances must satisfy 0 < eigen_tol <= trunc_tol")
    counters.adaptive_runs += 1
    # Compare before squaring: g**2 overflows for huge finite g.
    if params.g > math.sqrt(M_MAX / 8.0):
        raise ConvergenceError(f"initial truncation exceeds cap {M_MAX} at g = {params.g:g}")
    # Before any per-label array: the truncation holds at least max_label + 1 rows.
    if max_label + 1 > M_MAX:
        raise ConvergenceError(f"{max_label} labels exceed dimension cap {M_MAX}")
    g_sq = params.g**2
    # Per-label arrays hold label n at index n - 1.
    labels = np.arange(1, max_label + 1)
    half = np.ceil(2.0 * g_sq + 4.0 * params.g * np.sqrt(labels) + 10.0).astype(np.int64)
    dim = int(max_label + 2 * half[-1]) + 1
    if dim > M_MAX:
        raise ConvergenceError(f"initial truncation {dim} exceeds cap {M_MAX}")
    matrix = build_truncated(parity, params, dim)
    pivmin = _pivmin(matrix)
    # s_1 .. s_{N+1}: label n's unit bracket is [s_n, s_{n+1}).
    separators = np.arange(1, max_label + 2) - g_sq - 0.5
    below = _sturm_batch(matrix.diag, matrix.offdiag * matrix.offdiag, separators, pivmin)
    lane = labels[(below[:-1] == labels) & (below[1:] == labels + 1)]

    window = _windows(parity, params, lane, half[lane - 1])
    x, solved = _newton_windows(
        window, separators[lane - 1], separators[lane], g_sq, pivmin, eigen_tol
    )
    lane = lane[solved]
    # The doubled window must hold exactly one eigenvalue in [x - r, x + r).
    # Within ~pivmin of an eigenvalue the guarded pivot may count it on
    # either side, so r is at least 4 pivmin (unless trunc_tol is smaller).
    # That is at least 4 floats either side of x: |x| <= N + g**2 + 1/2 is
    # below the last diagonal entries, >= dim - 2, so below the scale of
    # pivmin = eps * scale, and floats near x lie at most eps |x| apart.
    reach = min(max(0.5 * eigen_tol, 4.0 * pivmin), trunc_tol)
    window = _windows(parity, params, lane, 2 * half[lane - 1])
    count_lo, count_hi = _count_pairs(window, x - reach, x + reach, g_sq, pivmin)
    kept = count_hi - count_lo == 1
    values = np.empty(max_label)
    errors = np.empty(max_label)
    done = lane[kept]
    values[done - 1] = x[kept]
    errors[done - 1] = reach
    rest = np.setdiff1d(labels, done)
    if rest.size:
        # Start where the failed lanes' own doubled windows end.
        first_dim = int(np.max(rest + 2 * half[rest - 1])) + 1
        values[rest - 1], errors[rest - 1], last = _fallback(
            parity, params, rest, first_dim, trunc_tol, eigen_tol
        )
        dim = max(dim, last)
    return ParitySpectrum(values, errors, dim)


def adaptive_spectrum(
    parity: Parity,
    params: ModelParams,
    max_label: int,
    tol: float = DEFAULT_TRUNC_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
) -> list[EigenvalueRecord]:
    """Labeled eigenvalue records 1..max_label for one parity class.

    ``tol`` is the truncation tolerance: the fallback truncation's last
    doubling must move each value by less, and it caps the reach r of the
    doubled-window count.  ``eigen_tol`` sets the Newton stop and
    ``r = min(max(eigen_tol / 2, 4 pivmin), tol)``, the error estimate of a
    windowed value: its doubled window holds exactly one eigenvalue within r.
    """
    spectrum = _solve(parity, params, max_label, tol, eigen_tol)
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
) -> SpectrumTable:
    """Converged table for both parity classes."""
    plus, minus = (
        _solve(parity, params, max_label, trunc_tol, eigen_tol)
        for parity in (Parity.PLUS, Parity.MINUS)
    )
    return SpectrumTable(params, eigen_tol, trunc_tol, plus, minus)
