"""Sturm-sequence eigensolver: one window lane per label, operator-certified.

Eigenvalue counts below a shift ``lam`` come from the pivot recurrence of the
shifted LDL^T factorization,

    q_1 = d_1 - lam,      q_i = (d_i - lam) - a_{i-1}**2 / q_{i-1},

counting negative pivots.  Pivots with magnitude below ``pivmin`` (machine
epsilon times the largest absolute entry of the truncation built for it:
rows 0..N + 2 h_N in steps 1 and 2, rows 0..m-1 in step 3) are replaced by
``-pivmin``, which prevents overflow and counts an exact zero pivot as
negative.  A computed count is the exact count of a nearby matrix (Kahan
1966; Demmel, Dhillon & Ren, ETNA 3, 1995), and the guard blurs it within
~pivmin of an eigenvalue, so no certificate probes closer than 4 pivmin.

Label n is the operator eigenvalue with exactly n eigenvalues below it,
near ``n - g**2`` for large n.  Labels 1..N are solved one lane each, on
rows [n - h, n + h] of the operator, ``h = ceil(2 g**2 + 4 g sqrt(n) + 10)``,
clipped at row 0; the diagonal ``d(k) = k + sign (-1)**k delta`` couples to
row k - 1 by ``g**2 k`` (:mod:`rabi.model`), and the recurrence reads the
row addends k and ``g**2 k`` from two columns, so memory stays O(lanes + rows):
a few float columns and a block of 32 negative-pivot flag bytes per lane.

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
   ``r = max(eigen_tol / 2, 4 pivmin)``, bounds the operator's count C(s).
   By Haynsworth inertia additivity, C(s) is the count of the head
   (rows < a) plus those of the tail (rows > e) and of the Schur complement
   on the window (rows a..e).  The head is negative definite if
   ``s - i - delta > 2 g sqrt(i)`` at i = a - 1, the tail
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
   Half float64's spacing at x above ``eigen_tol + trunc_tol`` (large
   delta) is a ``ConvergenceError``, raised before any lane is refused.
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
:func:`lowest_eigenvalues`, the tests' reference solver, runs step 1 and a
plain two-shift count on all rows of a built matrix; the solve never calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .model import ModelParams, Parity, TridiagonalMatrix, alternation, build_truncated

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

# Newton stops on step width, or at the floating-point resolution of its
# bracket; the iteration cap is only a backstop.
_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """A solve that cannot meet its tolerances: the dimension cap or float resolution."""


# Instrumentation for tests: calls of each entry point, window passes and the
# kernel's row-lanes (window lengths summed over its calls), by key.
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


# Negative-pivot flags are kept for this many rows and summed once per block,
# in uint8, which holds up to 255.
_FLAG_ROWS = 32


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
    rows: tuple[np.ndarray, np.ndarray] | None = None,
    newton: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues strictly below ``lams[j]`` of lane j's window of rows, and
    the Newton sum ``p'/p`` of the window's characteristic polynomial there
    (None when ``newton`` is false).

    ``windows`` is ``(start, length, sigma)`` per lane, in nondecreasing
    ``length`` (else ``ValueError``), so the lanes still running at row i are
    a suffix.  Row i has diagonal ``start + sigma (-1)**i + rows[0][i]`` and
    couples to row i - 1 by ``g_sq start + rows[1][i]``: by default ``(i,
    g_sq i)``, the operator's rows start .. start + length - 1; a built matrix
    passes ``(diag, [0, offdiag**2])`` with start, sigma and g_sq 0.  With
    ``p = prod q_i``, ``p'/p = sum q_i'/q_i``, where ``q_1' = -1`` and
    ``q_i' = -1 + a_{i-1}**2 q_{i-1}' / q_{i-1}**2``.  ``theta`` is added to
    each lane's first pivot and ``phi``, when given, taken from its last: the
    coupling to the rows around the window.

    Each row costs six numpy calls on the running suffix: two for the
    quotient, two for the pivot, the flag and the guard; the Newton sum adds
    four.  Flags go to a block of ``_FLAG_ROWS`` rows, counted once per block
    and cleared, as windows end inside it.  Only :func:`_newton_windows`
    reads the Newton sum; the certificates pass ``newton=False``.
    """
    counters["window_passes"] += 1
    start, length, sigma = windows
    if np.any(length[1:] < length[:-1]):
        raise ValueError("window lengths must be nondecreasing")
    counters["row_lanes"] += int(np.sum(length))
    counts = np.zeros(lams.size, dtype=np.int64)
    newton_sum = np.zeros(lams.size) if newton else None
    if not lams.size:
        return counts, newton_sum
    if rows is None:
        steps = np.arange(int(length[-1]), dtype=np.float64)
        rows = (steps, g_sq * steps)
    row_diag, row_coupling = (column.tolist() for column in rows)
    shifted = start - lams
    diag_less_lam = (shifted + sigma, shifted - sigma)
    coupling = g_sq * start
    q = diag_less_lam[0] + row_diag[0] + theta
    # ratio holds q_i' / q_i once row i is done; -1 is q_1'.
    ratio = np.full_like(q, -1.0)
    quot = np.empty_like(q)
    flags = np.zeros((_FLAG_ROWS, q.size), dtype=bool)
    flag_rows = list(flags)
    # Lanes first[i] .. first[i + 1] - 1 end at row i.
    first = np.searchsorted(length, np.arange(int(length[-1]) + 1), side="right").tolist()
    view_lane = block_lane = -1
    for i, (lane, stop, d, b) in enumerate(zip(first, first[1:], row_diag, row_coupling)):
        if lane != view_lane:
            # Views of the running lanes, made again only when some end.
            view_lane = lane
            q_s, quot_s, coupling_s = q[lane:], quot[lane:], coupling[lane:]
            even_s, odd_s = diag_less_lam[0][lane:], diag_less_lam[1][lane:]
            if newton:
                ratio_s, sum_s = ratio[lane:], newton_sum[lane:]
        block_row = i % _FLAG_ROWS
        if not block_row:
            block_lane = lane
        if i:
            np.add(coupling_s, b, out=quot_s)
            np.divide(quot_s, q_s, out=quot_s)
            if newton:
                np.multiply(ratio_s, quot_s, out=ratio_s)
                np.subtract(ratio_s, 1.0, out=ratio_s)
            np.add(odd_s if i % 2 else even_s, d, out=q_s)
            np.subtract(q_s, quot_s, out=q_s)
        if phi is not None and lane < stop:
            ending = q[lane:stop]
            np.subtract(ending, phi[lane:stop], out=ending)
        # Guarded pivot: |q| < pivmin becomes -pivmin, so q counts as
        # negative exactly when it was below pivmin.
        neg = flag_rows[block_row][lane:]
        np.less(q_s, pivmin, out=neg)
        np.minimum(q_s, -pivmin, out=q_s, where=neg)
        if newton:
            np.divide(ratio_s, q_s, out=ratio_s)
            np.add(sum_s, ratio_s, out=sum_s)
        # Lanes below block_lane ended before the block began: no flags.
        if block_row == _FLAG_ROWS - 1 or stop == lams.size:
            block = flags[: block_row + 1, block_lane:]
            tally = counts[block_lane:]
            np.add(tally, block.view(np.uint8).sum(axis=0, dtype=np.uint8), out=tally)
            block[...] = False
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
    # Positional, like every kernel call: the tests' spies forward only those.
    counts = _window_counts(
        pairs, shifts.ravel(), g_sq, pivmin, theta.ravel(), phi.ravel(), None, False
    )[0]
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
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Each lane's last iterate of the safeguarded Newton of step 1 for its
    window eigenvalue number ``target`` (1-based), from the midpoint of
    [lo, hi), on ``rows`` (:func:`_window_counts`).  ``bracket`` is ``(lo, hi,
    below, above)``: the counts below and above are taken as the window's at
    lo and hi, not counted."""
    lo, hi, below, above = (np.full(target.shape, end) for end in bracket)
    x = 0.5 * lo + 0.5 * hi
    active = np.arange(target.size)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        lane_windows = tuple(column[active] for column in windows)
        at = x[active]
        counts, newton_sum = _window_counts(lane_windows, at, g_sq, pivmin, 0.0, None, rows)
        past = counts >= target[active]
        hi[active] = np.where(past, at, hi[active])
        lo[active] = np.where(past, lo[active], at)
        above[active] = np.where(past, counts, above[active])
        below[active] = np.where(past, below[active], counts)
        lane_lo, lane_hi = lo[active], hi[active]
        # Halving each end first keeps the midpoint finite at any float.
        mid = 0.5 * lane_lo + 0.5 * lane_hi
        step_to = at - 1.0 / newton_sum
        inside = (above[active] - below[active] == 1) & np.isfinite(newton_sum)
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
    :func:`_newton_windows` takes it: every lane's value, its estimate
    max(r, s), s half float64's spacing at the value, and the certificate's
    mask.  The float-resolution rule, ``s <= eigen_tol + trunc_tol``, sees
    every lane before any is refused."""
    target = labels - windows[0] + 1
    x = _newton_windows(windows, bracket, target, g_sq, pivmin, eigen_tol)
    half_spacing = _half_spacing(x)
    if not np.max(half_spacing, initial=0.0) <= eigen_tol + trunc_tol:
        worst = int(np.argmax(half_spacing))
        raise ConvergenceError(
            f"label {labels[worst]}: half float64 spacing {half_spacing[worst]:.3g} > eigen_tol + "
            f"trunc_tol; float64 spacing {2.0 * half_spacing[worst]:.3g} at |value| "
            f"{abs(x[worst]):.3g}: the value cannot be resolved"
        )
    errors = np.maximum(max(0.5 * eigen_tol, 4.0 * pivmin), half_spacing)
    return x, errors, _certify(windows, labels, x, errors, g_sq, pivmin)


def _half_spacing(x: np.ndarray) -> np.ndarray:
    """Half float64's spacing below |x|, which is finite at the float limit."""
    size = np.abs(x)
    return 0.5 * (size - np.nextafter(size, 0.0))


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


# x -+ u may overflow near the float limit; an infinite shift counts by its sign.
@np.errstate(over="ignore")
def lowest_eigenvalues(matrix: TridiagonalMatrix, count: int, tol: float) -> np.ndarray:
    """The ``count`` smallest eigenvalues in increasing order, each x certified
    to within ``u = max(tol/2, 4 pivmin, half float64's spacing at x)``.

    Lane i runs step 1 for the eigenvalue with i below it on a window of all
    rows, from the Gershgorin interval, where the counts 0 and dim are
    certain.  One two-shift count certifies it: at most i eigenvalues below
    x - u and at least i + 1 below x + u; a lane it refuses is a
    ``ConvergenceError``.  Each iteration costs O(dim * count) flops.
    """
    if not (0 <= count <= matrix.dim):
        raise ValueError(f"count must be in [0, {matrix.dim}], got {count}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    counters["reference_runs"] += 1
    lanes = np.arange(count)
    window = (np.zeros(count), np.full(count, matrix.dim), np.zeros(count))
    rows = (matrix.diag, np.append(0.0, matrix.offdiag * matrix.offdiag))
    pivmin = _pivmin(matrix)
    bracket = (*_gershgorin_bracket(matrix), 0, matrix.dim)
    x = _newton_windows(window, bracket, lanes + 1, 0.0, pivmin, tol, rows)
    reach = np.maximum(max(0.5 * tol, 4.0 * pivmin), _half_spacing(x))
    shifts = np.column_stack((x - reach, x + reach)).ravel()
    pairs = tuple(np.repeat(column, 2) for column in window)
    counts = _window_counts(pairs, shifts, 0.0, pivmin, 0.0, None, rows, False)[0]
    refused = np.flatnonzero((counts[0::2] > lanes) | (counts[1::2] < lanes + 1))
    if refused.size:
        i = int(refused[0])
        raise ConvergenceError(f"eigenvalue {i + 1}: {x[i]!r} not certified to {reach[i]:.3g}")
    return x


def _fallback(parity, params, labels, m, trunc_tol, eigen_tol):
    """Values, estimates and dimension (at least ``m``) of ascending ``labels``: step 3."""
    g, delta, top = params.g, params.delta, int(labels[-1])
    # The first row i with i - delta - s >= 2 g sqrt(i + 1) at the shift
    # s = 1 + the bound on label top; c is s + delta, without cancellation.
    c = min(top + 2.0 * delta, 2 * top + 1) + 2.0 * g * math.sqrt(2 * top + 1) + 1.0
    m = max(m, math.ceil((g + math.sqrt(g * g + 1.0 + c)) ** 2) - 1)
    if m > M_MAX:
        raise ConvergenceError(f"fallback truncation {m} exceeds cap {M_MAX}")
    # Rows 0..m-1 for every lane: lane 0's window of half-width m - 1.
    window = _windows(parity, params, np.zeros_like(labels), np.full(labels.size, m - 1))
    truncation = build_truncated(parity, params, m)
    # Gershgorin without _gershgorin_bracket's pad, which would move every
    # fallback value: no row's off-diagonal sum exceeds 2 a(m - 1), so the
    # window counts 0 eigenvalues below the interval and m below its top.
    radius = 2.0 * truncation.offdiag[-1]
    bracket = (truncation.diag.min() - radius, truncation.diag.max() + radius, 0, m)
    pivmin = _pivmin(truncation)
    vals, errors, kept = _round(window, bracket, labels, g * g, pivmin, eigen_tol, trunc_tol)
    if not np.all(kept):
        raise ConvergenceError(f"label {labels[~kept][0]}: not certified at dimension {m}")
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
    # The float-resolution allowance eigen_tol + trunc_tol stays >= 2 eigen_tol.
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
    labels = np.arange(1, max_label + 1)
    half = np.ceil(2.0 * g_sq + 4.0 * params.g * np.sqrt(labels) + 10.0).astype(np.int64)
    dim = int(max_label + half[-1]) + 1
    if dim > M_MAX:
        raise ConvergenceError(f"initial truncation {dim} exceeds cap {M_MAX}")
    # pivmin of the dimension-(N + 2 h_N + 1) truncation: 4 pivmin is at least 4
    # floats either side of x, as |x| <= N + g**2 + 1/2 lies below its scale.
    pivmin = _pivmin(build_truncated(parity, params, dim + int(half[-1])))
    # s_1 .. s_{N+1}: label n's unit bracket is [s_n, s_{n+1}), where the
    # window from row a is taken to count n - a and n - a + 1 eigenvalues.
    separators = np.arange(1, max_label + 2) - g_sq - 0.5
    window = _windows(parity, params, labels, half)
    below = labels - window[0]
    bracket = (separators[:-1], separators[1:], below, below + 1)
    values, errors, done = _round(window, bracket, labels, g_sq, pivmin, eigen_tol, trunc_tol)
    dim = int(np.max((labels + half)[done], initial=-1)) + 1
    rest = ~done
    if np.any(rest):
        least = int(labels[rest][-1] + 2 * half[rest][-1]) + 1
        values[rest], errors[rest], last = _fallback(
            parity, params, labels[rest], least, trunc_tol, eigen_tol
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
    Newton stop and r; half a spacing above ``eigen_tol + tol`` (float
    resolution) raises ``ConvergenceError``.
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
