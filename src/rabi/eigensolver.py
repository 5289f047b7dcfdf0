"""Sturm-sequence eigensolver: one window lane per label, operator-certified.

Eigenvalue counts below a shift ``lam`` come from the pivot recurrence of the
shifted LDL^T factorization,

    q_1 = d_1 - lam,      q_i = (d_i - lam) - a_{i-1}**2 / q_{i-1},

counting negative pivots.  Pivots with magnitude below ``pivmin`` (machine
epsilon times the largest absolute matrix entry) are replaced by ``-pivmin``,
which prevents overflow and counts an exact zero pivot as negative.  A
computed count is the exact count of a nearby matrix (Kahan 1966; Demmel,
Dhillon & Ren, ETNA 3, 1995), and the guard blurs it within ~pivmin of an
eigenvalue, so no certificate probes closer than 4 pivmin (unless
``trunc_tol`` is smaller; x is then bisected to where the counts change).

Label n is the operator eigenvalue with exactly n eigenvalues below it,
near ``n - g**2`` for large n.  Labels 1..N are solved one lane each, on
rows [n - h, n + h] of the operator, ``h = ceil(2 g**2 + 4 g sqrt(n) + 10)``,
clipped at row 0; the diagonal ``d(k) = k + sign (-1)**k delta`` couples to
row k - 1 by ``g**2 k`` (:mod:`rabi.model`), and rows are generated inside
the recurrence, so memory stays O(lanes).

1. *Newton.*  Safeguarded Newton on the window's characteristic polynomial
   starts at the midpoint of the unit bracket [s_n, s_{n+1}),
   s_k = k - g**2 - 1/2, and takes the window's counts at its ends to be
   n - a and n - a + 1 (first row a).  It counts at each iterate x,
   shrinking the bracket, and steps to ``x - p/p'`` while the counts at the
   bracket ends differ by one and that point is finite and inside, else to
   the midpoint, until a step is ``eigen_tol / 4`` or lands on a count.  A
   lane whose bracket does not hold its eigenvalue ends elsewhere; the
   certificate is the only check, and it refuses that lane.
2. *Certificate.*  A two-shift count of the same windows at x -+ u,
   ``u = max(r, half float64's spacing at x)``,
   ``r = min(max(eigen_tol / 2, 4 pivmin), trunc_tol)``, bounds the
   operator's count C(s).  By Haynsworth inertia additivity, C(s) is the
   count of the head (rows < a) plus those of the tail (rows > e) and of
   the Schur complement on the window (rows a..e).  The head is negative
   definite if ``s - i - delta > 2 g sqrt(i)`` at i = a - 1, the tail
   positive definite if ``i - delta - s >= 2 g sqrt(i + 1)`` and
   ``i + 1 >= g**2`` at i = e + 1 (each side is monotone in i); then, by
   induction on the pivots, the Schur complement is ``W - s + theta e_1
   e_1^T - phi e_L e_L^T``, theta in [b_a/D, 2 b_a/D] with ``b_a = g**2 a``,
   ``D = s - d(a - 1)``, phi in [b/E, 2 b/E] with ``b = g**2 (e + 1)``,
   ``E = d(e + 1) - s``.  Its count falls as theta grows and rises with
   phi, so a + count(theta_min, phi_max) bounds C(s) from above and
   a + count(theta_max, phi_min) from below.  Label n is certified in
   [x - u, x + u), and x reported with error estimate u, when the upper
   bound at x - u is at most n and the lower bound at x + u at least n + 1.
   A u above ``eigen_tol + trunc_tol`` (float64's spacing at the value:
   large delta) is a ``ConvergenceError``, raised before any lane is refused.
3. *Fallback.*  Every other lane runs steps 1 and 2 again on rows 0..m-1
   (an empty head) from the Gershgorin interval of that truncation, where
   the counts 0 and m are certain.  m is the first row where the tail
   condition holds above the top label t, at most
   ``min(t + delta, 2t + 1 - delta) + 2 g sqrt(2t + 1)`` (Weyl, Cauchy) and
   at least t + 2 h_t + 1, as the tail row alone can leave the count short
   of r = 4 pivmin at eigen_tol 1e-16.  A lane this round cannot certify,
   or an m past ``M_MAX``, is a ``ConvergenceError``.

A solved class is a :class:`ParitySpectrum` (value and estimate columns and
one truncation dimension: 1 + the largest row a certified window touches, or
the fallback's m if larger); :class:`SpectrumTable` holds one per parity.
:func:`lowest_eigenvalues` (bisection of a built matrix) is the tests'
reference solver; the solve never calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .model import ModelParams, Parity, TridiagonalMatrix, alternation, diagonal

__all__ = [
    "ConvergenceError",
    "EigenvalueRecord",
    "ParitySpectrum",
    "SpectrumTable",
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


# Instrumentation for tests: calls of each entry point and window passes, by key.
counters = Counter()


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
    scale = max(np.max(np.abs(matrix.diag)), np.max(np.abs(matrix.offdiag), initial=0.0), 1.0)
    return np.finfo(np.float64).eps * float(scale)


def _diagonal_range(parity: Parity, params: ModelParams, dim: int) -> tuple[float, float]:
    """Least and greatest d(k), k < dim: at a first and a last row of either sign."""
    diag = diagonal(np.clip([0, 1, dim - 2, dim - 1], 0, dim - 1), parity, params)
    return float(diag.min()), float(diag.max())


def _truncation_pivmin(parity: Parity, params: ModelParams, dim: int) -> float:
    """:func:`_pivmin` of the leading dim rows, bit for bit; a(k) peaks at the last."""
    low, high = _diagonal_range(parity, params, dim)
    return np.finfo(np.float64).eps * max(-low, high, params.g * math.sqrt(dim - 1), 1.0)


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


@np.errstate(over="ignore")
def _gershgorin_bracket(matrix: TridiagonalMatrix) -> tuple[float, float]:
    """Open interval certainly containing the whole spectrum, clipped to finite floats."""
    d, abs_a = matrix.diag, np.abs(matrix.offdiag)
    radius = np.append(abs_a, 0.0) + np.insert(abs_a, 0, 0.0)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = max(1.0, abs(lo), abs(hi)) * 1e-12 + 4.0 * _pivmin(matrix)
    big = np.finfo(np.float64).max
    return max(lo - pad, -big), min(hi + pad, big)


def lowest_eigenvalues(matrix: TridiagonalMatrix, count: int, tol: float) -> np.ndarray:
    """The ``count`` smallest eigenvalues, each within +-tol, in increasing order.

    All brackets are bisected in lockstep, with one vectorized Sturm pass per
    iteration, so the cost is O(dim * count * log(range/tol)) flops.  Lane i
    bisects the Gershgorin bracket for the shift where the count reaches
    i + 1, and stops at width ``tol`` or when its midpoint rounds to an end.
    Halving each end first keeps both finite at any float.
    """
    if not (0 <= count <= matrix.dim):
        raise ValueError(f"count must be in [0, {matrix.dim}], got {count}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    counters["bisection_runs"] += 1
    lo, hi = (np.full(count, end) for end in _gershgorin_bracket(matrix))
    offdiag_sq = matrix.offdiag * matrix.offdiag
    pivmin = _pivmin(matrix)
    active = np.ones(count, dtype=bool)
    for _ in range(_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        active &= (0.5 * hi - 0.5 * lo >= 0.5 * tol) & (lo < mid) & (mid < hi)
        lanes = np.flatnonzero(active)
        if not lanes.size:
            break
        move_hi = _sturm_batch(matrix.diag, offdiag_sq, mid[lanes], pivmin) > lanes
        hi[lanes] = np.where(move_hi, mid[lanes], hi[lanes])
        lo[lanes] = np.where(move_hi, lo[lanes], mid[lanes])
    return 0.5 * lo + 0.5 * hi


# start - lam + sigma may overflow near the float limit, and a pivot near zero
# can overflow the derivative; the Newton step then comes out non-finite and
# is replaced by the bracket midpoint.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _window_counts(
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
    lams: np.ndarray,
    g_sq: float,
    pivmin: float,
    theta: np.ndarray | float = 0.0,
    phi: np.ndarray | None = None,
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
    ``theta`` is added to each lane's first pivot and ``phi``, when given,
    taken from its last: the coupling to the rows around the window.
    """
    counters["window_passes"] += 1
    start, length, sigma = windows
    counts = np.zeros(lams.size, dtype=np.int64)
    newton_sum = np.zeros(lams.size)
    if not lams.size:
        return counts, newton_sum
    shifted = start - lams
    diag_less_lam = (shifted + sigma, shifted - sigma)
    coupling = g_sq * start
    q = diag_less_lam[0] + theta
    # ratio holds q_i' / q_i once row i is done; -1 is q_1'.
    ratio = np.full_like(q, -1.0)
    quot = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    # Lanes first[i] .. first[i + 1] - 1 end at row i.
    first = np.searchsorted(length, np.arange(int(length[-1]) + 1), side="right")
    for i, (lane, stop) in enumerate(zip(first.tolist(), first[1:].tolist())):
        s = slice(lane, None)
        if i:
            np.add(coupling[s], g_sq * i, out=quot[s])
            np.divide(quot[s], q[s], out=quot[s])
            np.multiply(ratio[s], quot[s], out=ratio[s])
            np.subtract(ratio[s], 1.0, out=ratio[s])
            np.add(diag_less_lam[i % 2][s], i, out=q[s])
            np.subtract(q[s], quot[s], out=q[s])
        if phi is not None:
            q[lane:stop] -= phi[lane:stop]
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
    sigma = parity.sign * params.delta * alternation(start)
    return start.astype(np.float64), length, sigma


def _certify(windows, labels, x, reach, g_sq, pivmin):
    """Mask of the lanes whose operator label lies in [x - reach, x + reach),
    by one enclosed two-shift count of each window (module docstring, step 2)."""
    start, length, sigma = windows
    shifts = np.column_stack((x - reach, x + reach))
    g, delta = math.sqrt(g_sq), np.abs(sigma)
    head, tail = start - 1.0, start + length  # the rows next to the window
    # d(a - 1) and d(e + 1) from sigma: exact, as (-1)**k is a product by +-1,
    # and defined at the head row -1 of the lanes from row 0, which ok drops.
    d_head, d_tail = head - sigma, tail + sigma * alternation(length)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A check holds at both shifts if it holds at the harder one: the
        # head's at x - reach, the tail's at x + reach.  Row 0 has no head.
        ok = (start == 0) | (shifts[:, 0] - head - delta > 2.0 * g * np.sqrt(head))
        ok &= (tail - delta - shifts[:, 1] >= 2.0 * g * np.sqrt(tail + 1.0)) & (tail + 1.0 >= g_sq)
        # (theta_min, theta_max) and (phi_max, phi_min) at the two shifts.
        theta = (g_sq * start)[:, None] / (shifts - d_head[:, None]) * [1.0, 2.0]
        phi = (g_sq * tail)[:, None] / (d_tail[:, None] - shifts) * [2.0, 1.0]
    # A certified lane has finite phi; theta is 0 with no head, even at D = 0.
    theta = np.where(start[:, None] > 0, theta, 0.0)
    # np.repeat keeps the lanes sorted by window length.
    pairs = tuple(np.repeat(column, 2) for column in windows)
    counts = _window_counts(pairs, shifts.ravel(), g_sq, pivmin, theta.ravel(), phi.ravel())[0]
    upper, lower = counts[0::2], counts[1::2]
    return ok & (start + upper <= labels) & (start + lower >= labels + 1)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_windows(
    windows: tuple[np.ndarray, np.ndarray, np.ndarray],
    bracket: tuple[np.ndarray | float, ...],
    target: np.ndarray,
    g_sq: float,
    pivmin: float,
    tol: float,
    reach: float,
) -> np.ndarray:
    """Each lane's last iterate of the safeguarded Newton of step 1 for its
    window eigenvalue number ``target`` (1-based), from the midpoint of
    [lo, hi).  ``bracket`` is ``(lo, hi, below, above)``: the counts below
    and above are taken as the window's at lo and hi, not counted.  Where
    ``reach`` is below 4 pivmin, the certificate needs x where the guarded
    counts change, up to ~pivmin from the root of p, so every step is the
    midpoint."""
    lo, hi, below, above = (np.full(target.shape, end) for end in bracket)
    x = 0.5 * lo + 0.5 * hi
    active = np.arange(target.size)
    newton = reach >= 4.0 * pivmin
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        lane_windows = tuple(column[active] for column in windows)
        at = x[active]
        counts, newton_sum = _window_counts(lane_windows, at, g_sq, pivmin)
        past = counts >= target[active]
        hi[active] = np.where(past, at, hi[active])
        lo[active] = np.where(past, lo[active], at)
        above[active] = np.where(past, counts, above[active])
        below[active] = np.where(past, below[active], counts)
        lane_lo, lane_hi = lo[active], hi[active]
        # Halving each end first keeps the midpoint finite at any float.
        mid = 0.5 * lane_lo + 0.5 * lane_hi
        step_to = at - 1.0 / newton_sum
        inside = newton & (above[active] - below[active] == 1) & np.isfinite(newton_sum)
        inside &= (lane_lo <= step_to) & (step_to <= lane_hi)
        step_to = np.where(inside, step_to, mid)
        x[active] = step_to
        # A step onto a bracket end, a point already counted, is a step at
        # the float resolution of the iterate: it only repeats itself.
        done = (np.abs(step_to - at) <= 0.25 * tol) | (step_to == lane_lo) | (step_to == lane_hi)
        active = active[~done]
    return x


def _round(windows, bracket, labels, g_sq, pivmin, eigen_tol, trunc_tol):
    """Steps 1 and 2 on one window per label from ``bracket``, as
    :func:`_newton_windows` takes it: the certified labels, values and
    estimates.  The float-resolution rule sees every lane before any is refused."""
    reach = min(max(0.5 * eigen_tol, 4.0 * pivmin), trunc_tol)
    target = labels - windows[0] + 1
    x = _newton_windows(windows, bracket, target, g_sq, pivmin, eigen_tol, reach)
    # The spacing below |x|, which is finite at the float limit.
    size = np.abs(x)
    errors = np.maximum(reach, 0.5 * (size - np.nextafter(size, 0.0)))
    if not np.max(errors, initial=0.0) <= eigen_tol + trunc_tol:
        worst = int(np.argmax(errors))
        raise ConvergenceError(
            f"label {labels[worst]}: error estimate {errors[worst]:.3g} > eigen_tol + "
            f"trunc_tol; float64 spacing {2.0 * errors[worst]:.3g} at |value| "
            f"{size[worst]:.3g}: the value cannot be resolved"
        )
    kept = _certify(windows, labels, x, errors, g_sq, pivmin)
    return labels[kept], x[kept], errors[kept]


def _fallback(parity, params, index, m, trunc_tol, eigen_tol):
    """Values, estimates and dimension (at least ``m``) of ascending labels ``index``: step 3."""
    g, delta, top = params.g, params.delta, int(index[-1])
    # The first row i with i - delta - s >= 2 g sqrt(i + 1) at the shift
    # s = 1 + the bound on label top; c is s + delta, without cancellation.
    c = min(top + 2.0 * delta, 2 * top + 1) + 2.0 * g * math.sqrt(2 * top + 1) + 1.0
    m = max(m, math.ceil((g + math.sqrt(g * g + 1.0 + c)) ** 2) - 1)
    if m > M_MAX:
        raise ConvergenceError(f"fallback truncation {m} exceeds cap {M_MAX}")
    # Rows 0..m-1 for every lane: lane 0's window of half-width m - 1.
    window = _windows(parity, params, np.zeros_like(index), np.full(index.size, m - 1))
    # Gershgorin: no row's off-diagonal sum exceeds 2 a(m - 1), so the
    # window counts 0 eigenvalues below the interval and m below its top.
    low, high = _diagonal_range(parity, params, m)
    radius = 2.0 * g * math.sqrt(m - 1)
    bracket = (low - radius, high + radius, 0, m)
    pivmin = _truncation_pivmin(parity, params, m)
    done, vals, errors = _round(window, bracket, index, g * g, pivmin, eigen_tol, trunc_tol)
    refused = np.setdiff1d(index, done)
    if refused.size:
        raise ConvergenceError(f"label {refused[0]}: not certified at dimension {m}")
    return vals, errors, m


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
    # --trunc-tol caps every estimate, and values are solved only to eigen_tol.
    if not 0.0 < eigen_tol <= trunc_tol:
        raise ValueError("tolerances must satisfy 0 < eigen_tol <= trunc_tol")
    counters["adaptive_runs"] += 1
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
    dim = int(max_label + half[-1]) + 1
    if dim > M_MAX:
        raise ConvergenceError(f"initial truncation {dim} exceeds cap {M_MAX}")
    # pivmin of the dimension-(N + 2 h_N + 1) truncation: 4 pivmin is at least 4
    # floats either side of x, as |x| <= N + g**2 + 1/2 lies below its scale.
    pivmin = _truncation_pivmin(parity, params, dim + int(half[-1]))
    # s_1 .. s_{N+1}: label n's unit bracket is [s_n, s_{n+1}), where the
    # window from row a is taken to count n - a and n - a + 1 eigenvalues.
    separators = np.arange(1, max_label + 2) - g_sq - 0.5
    window = _windows(parity, params, labels, half)
    below = labels - window[0]
    bracket = (separators[:-1], separators[1:], below, below + 1)
    done, x, estimate = _round(window, bracket, labels, g_sq, pivmin, eigen_tol, trunc_tol)
    values, errors = np.empty((2, max_label))
    values[done - 1], errors[done - 1] = x, estimate
    dim = int(np.max(done + half[done - 1], initial=-1)) + 1
    rest = np.setdiff1d(labels, done)
    if rest.size:
        least = int(rest[-1] + 2 * half[rest[-1] - 1]) + 1
        values[rest - 1], errors[rest - 1], last = _fallback(
            parity, params, rest, least, trunc_tol, eigen_tol
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

    ``error_estimate`` bounds the distance to the operator eigenvalue of the
    label by the counts of the module docstring, by one rule for every label:
    max(r, half float64's spacing at the value).  ``eigen_tol`` sets the
    Newton stop and r; ``tol`` caps r, and an estimate above ``eigen_tol +
    tol`` (float resolution) raises ``ConvergenceError``.
    """
    spectrum = _solve(parity, params, max_label, tol, eigen_tol)
    columns = zip(spectrum.values.tolist(), spectrum.errors.tolist())
    return [
        EigenvalueRecord(label, parity, value, spectrum.truncation_dim, error)
        for label, (value, error) in enumerate(columns, start=1)
    ]


def compute_spectrum_table(
    params: ModelParams,
    max_label: int,
    trunc_tol: float = DEFAULT_TRUNC_TOL,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
) -> SpectrumTable:
    """Converged table for both parity classes."""
    plus, minus = (_solve(p, params, max_label, trunc_tol, eigen_tol) for p in Parity)
    return SpectrumTable(params, eigen_tol, trunc_tol, plus, minus)
