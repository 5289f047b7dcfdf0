"""Unit-interval occupancy of the shifted spectra and equidistribution counts.

Shifting each eigenvalue by g**2 places it near an integer; for most n the
open interval (n, n+1) then holds exactly two shifted eigenvalues of one
parity class and none of the other, with the adjacent intervals holding a
pair of the opposite class.  The exceptions cluster where cos(theta_n) is
small: an index n in a window [N/2, N] is "good" when
|cos(theta_n)| > N**(-1/4 + delta_exp) and "bad" otherwise.  The good flags
of :func:`interval_columns` apply the threshold of one cap N to every n
given, so the ``classify`` report flags all n <= N by the window-N rule.

Occupancy is defined per shifted eigenvalue x and boundary tolerance
0 < eps < 1/2.  If x lies within eps of an integer m (|x - m| <= eps), it is
a boundary hit of both intervals (m - 1, m) and (m, m + 1) and counts in
neither.  Otherwise it is interior to exactly one interval, (floor(x),
floor(x) + 1).  Because eps < 1/2, a value is within eps of at most one
integer, so :func:`interval_columns` bins every eigenvalue of the table in
one pass by nearest-integer and floor binning and returns columns.
:func:`alternation_patterns` states the alternation rule once, over those
columns.

The bad set is controlled by an elementary equidistribution count: for any
a > 0 and shift gamma, the fractional parts ((a*sqrt(n) + gamma)) fall into a
subinterval of [0, 1] with discrepancy O(sqrt(N)) over n in [N/2, N]
(:func:`fejer_count`).  Applied with a = 4g/pi, gamma = 1/4, the bad count
over [N/2, N] comes out near N**(3/4 + delta_exp) / pi; only the
observed/predicted ratio is reported since the constant is heuristic.
:func:`bad_set_ladder` returns both over a ladder of caps N as columns.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Sequence

import numpy as np

from .asymptotics import theta
from .eigensolver import SpectrumTable
from .model import Parity

__all__ = [
    "IntervalVerdict",
    "PatternVerdict",
    "Intervals",
    "FejerReport",
    "BadSetLadder",
    "shifted_values",
    "count_bad",
    "interval_columns",
    "alternation_patterns",
    "fejer_count",
    "bad_set_ladder",
    "bad_count_slope",
]

DEFAULT_BOUNDARY_EPS = 1e-6
DEFAULT_DELTA_EXP = 0.05

# Boundary tolerance must dominate eigenvalue error, or near-integer shifted
# eigenvalues would be classified on numerical noise.
_EPS_OVER_EIGEN_TOL = 100.0


class IntervalVerdict(enum.Enum):
    MINUS_PAIR = "minus_pair"
    PLUS_PAIR = "plus_pair"
    VIOLATION = "violation"
    BOUNDARY = "boundary"

    @property
    def label(self) -> str:
        return self.value


class PatternVerdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    UNCLASSIFIED = "unclassified"

    @property
    def label(self) -> str:
        return self.value


# Column codes are enum indices in declaration order.
_MINUS_PAIR, _PLUS_PAIR, _VIOLATION, _BOUNDARY = range(4)
_PASS, _FAIL, _UNCLASSIFIED = range(3)


class Intervals(NamedTuple):
    """Occupancy of the intervals (n, n+1) by shifted eigenvalues, one entry per n.

    ``count_plus`` and ``count_minus`` count eigenvalues confidently interior
    to the interval; ``boundary_hits`` counts eigenvalues of either parity
    within ``eps`` of an endpoint, which are never counted as interior.
    ``verdict`` holds :class:`IntervalVerdict` indices in declaration order.
    """

    n: np.ndarray
    good: np.ndarray
    count_plus: np.ndarray
    count_minus: np.ndarray
    boundary_hits: np.ndarray
    verdict: np.ndarray


class FejerReport(NamedTuple):
    """Observed vs expected count of fractional parts in a subinterval."""

    count: int
    expected: float
    discrepancy: float


class BadSetLadder(NamedTuple):
    """Bad-index counts over [N/2, N] against the heuristic prediction, one entry per cap N."""

    n_cap: np.ndarray
    count: np.ndarray
    predicted: np.ndarray
    ratio: np.ndarray


def shifted_values(table: SpectrumTable, parity: Parity) -> np.ndarray:
    return table.values(parity) + table.params.g**2


def good_threshold(n_cap: int, delta_exp: float) -> float:
    """The good/bad threshold N**(-1/4 + delta_exp) on |cos(theta_n)| for window cap N."""
    return float(n_cap) ** (-0.25 + delta_exp)


def good_mask(ns: np.ndarray, n_cap: int, delta_exp: float, g: float) -> np.ndarray:
    """Good flags |cos(theta_n)| > :func:`good_threshold` over an array of indices."""
    if n_cap < 2:
        raise ValueError(f"window cap must be >= 2, got {n_cap}")
    if not (0.0 < delta_exp < 0.25):
        raise ValueError(f"delta_exp must lie in (0, 1/4), got {delta_exp}")
    threshold = good_threshold(n_cap, delta_exp)
    return np.abs(np.cos(theta(np.asarray(ns, dtype=np.float64), g))) > threshold


def count_bad(n_cap: int, delta_exp: float, g: float) -> int:
    """Number of bad n in [n_cap/2, n_cap] by direct enumeration."""
    ns = np.arange((n_cap + 1) // 2, n_cap + 1)
    return int(np.sum(~good_mask(ns, n_cap, delta_exp, g)))


def predicted_bad_count(n_cap: int, delta_exp: float) -> float:
    """Heuristic bad count: interval length (2/pi)*N**(-1/4+d) times N/2 indices."""
    return float(n_cap) ** (0.75 + delta_exp) / math.pi


def bad_set_ladder(n_caps: Sequence[int], delta_exp: float, g: float) -> BadSetLadder:
    n_cap = np.array(n_caps, dtype=np.int64)
    count = np.array([count_bad(cap, delta_exp, g) for cap in n_cap.tolist()])
    # A Python float pow per cap: numpy's array power may differ in the last ulp.
    predicted = np.array([predicted_bad_count(cap, delta_exp) for cap in n_cap.tolist()])
    return BadSetLadder(n_cap, count, predicted, count / predicted)


def bad_count_slope(ladder: BadSetLadder) -> float:
    """Log-log slope of bad count against N over a ladder of window caps."""
    if ladder.n_cap.size < 2:
        raise ValueError("need at least two ladder points to fit a slope")
    slope, _ = np.polyfit(np.log(ladder.n_cap), np.log(np.maximum(ladder.count, 1)), 1)
    return float(slope)


def interval_columns(
    table: SpectrumTable,
    first: int,
    last: int,
    eps: float = DEFAULT_BOUNDARY_EPS,
    n_cap: int | None = None,
    delta_exp: float = DEFAULT_DELTA_EXP,
) -> Intervals:
    """Occupancy columns for all intervals (n, n+1), first <= n <= last.

    The table must cover labels through last + 3 so neighbors cannot leak
    into the last interval unnoticed; good flags are evaluated against
    ``n_cap`` (defaulting to the table's max label).
    """
    if not (0.0 < eps < 0.5):
        raise ValueError(f"boundary tolerance must lie in (0, 1/2), got {eps}")
    if eps < _EPS_OVER_EIGEN_TOL * table.eigen_tol:
        raise ValueError(
            f"boundary tolerance {eps:g} must exceed the eigenvalue tolerance "
            f"{table.eigen_tol:g} by at least {_EPS_OVER_EIGEN_TOL:g}x"
        )
    if not (1 <= first <= last <= table.max_label - 3):
        raise ValueError(
            f"interval range [{first}, {last}] outside covered label range "
            f"[1, {table.max_label - 3}]"
        )
    cap = table.max_label if n_cap is None else n_cap
    size = last - first + 1

    def binned(index: np.ndarray) -> np.ndarray:
        index = index - first
        return np.bincount(index[(index >= 0) & (index < size)], minlength=size)

    counts = {}
    hits = np.zeros(size, dtype=np.int64)
    for parity in Parity:
        x = shifted_values(table, parity)
        nearest = np.rint(x)
        on_edge = np.abs(x - nearest) <= eps
        edge = nearest[on_edge].astype(np.int64)
        hits += binned(edge - 1) + binned(edge)
        counts[parity] = binned(np.floor(x[~on_edge]).astype(np.int64))
    plus, minus = counts[Parity.PLUS], counts[Parity.MINUS]
    verdict = np.select(
        [hits > 0, (minus == 2) & (plus == 0), (minus == 0) & (plus == 2)],
        [_BOUNDARY, _MINUS_PAIR, _PLUS_PAIR],
        default=_VIOLATION,
    ).astype(np.int8)
    n = np.arange(first, last + 1)
    good = good_mask(n, cap, delta_exp, table.params.g)
    return Intervals(n, good, plus, minus, hits, verdict)


def alternation_patterns(verdict: np.ndarray, good: np.ndarray) -> np.ndarray:
    """:class:`PatternVerdict` indices (declaration order) of consecutive intervals.

    ``verdict`` and ``good`` are :class:`Intervals` columns.  An interval
    PASSes when it is a pair of one parity and both neighbors are pairs of
    the other parity, and FAILs otherwise.  Bad intervals, and intervals that
    are or neighbor a BOUNDARY, are UNCLASSIFIED rather than judged.  Only the
    center must be good; the neighbors inherit their sign control from it.
    The first and last intervals lack a neighbor and are UNCLASSIFIED.
    """
    verdict = np.asarray(verdict)
    pattern = np.full(verdict.size, _UNCLASSIFIED, dtype=np.int8)
    left, center, right = verdict[:-2], verdict[1:-1], verdict[2:]
    opposite = np.where(center == _MINUS_PAIR, _PLUS_PAIR, _MINUS_PAIR)
    paired = (center == _MINUS_PAIR) | (center == _PLUS_PAIR)
    passed = paired & (left == opposite) & (right == opposite)
    boundary = (left == _BOUNDARY) | (center == _BOUNDARY) | (right == _BOUNDARY)
    judged = np.asarray(good, dtype=bool)[1:-1] & ~boundary
    pattern[1:-1] = np.where(judged, np.where(passed, _PASS, _FAIL), _UNCLASSIFIED)
    return pattern


def fejer_count(a: float, gamma: float, alpha: float, beta: float, n_cap: int) -> FejerReport:
    """Exact count of n in [N/2, N] with ((a*sqrt(n) + gamma)) in [alpha, beta].

    The expected value is (beta - alpha) * N/2; the discrepancy against it is
    O(sqrt(N)) for any a > 0 and shift gamma.  A degenerate interval
    (alpha == beta) counts exact fractional-part hits only.
    """
    if not (a > 0.0):
        raise ValueError(f"a must be positive, got {a}")
    if not (0.0 <= alpha <= beta <= 1.0):
        raise ValueError(f"need 0 <= alpha <= beta <= 1, got [{alpha}, {beta}]")
    if n_cap < 2:
        raise ValueError(f"n_cap must be >= 2, got {n_cap}")
    ns = np.arange((n_cap + 1) // 2, n_cap + 1, dtype=np.float64)
    x = a * np.sqrt(ns) + gamma
    frac = x - np.floor(x)
    count = int(np.sum((frac >= alpha) & (frac <= beta)))
    expected = (beta - alpha) * n_cap / 2.0
    return FejerReport(count, expected, abs(count - expected))
