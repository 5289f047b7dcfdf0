"""Unit-interval occupancy of the shifted spectra and equidistribution counts.

Shifting each eigenvalue by g**2 places it near an integer; for most n the
open interval (n, n+1) then holds exactly two shifted eigenvalues of one
parity class and none of the other, with the adjacent intervals holding a
pair of the opposite class.  The exceptions cluster where cos(theta_n) is
small: an index n in a window [N/2, N] is "good" when
|cos(theta_n)| > N**(-1/4 + delta_exp) and "bad" otherwise.

Occupancy is defined per shifted eigenvalue x and boundary tolerance
0 < eps < 1/2.  If x lies within eps of an integer m (|x - m| <= eps), it is
a boundary hit of both intervals (m - 1, m) and (m, m + 1) and counts in
neither.  Otherwise it is interior to exactly one interval, (floor(x),
floor(x) + 1).  Because eps < 1/2, a value is within eps of at most one
integer, so :func:`classify_range` bins every eigenvalue of the table in one
pass by nearest-integer and floor binning.

The bad set is controlled by an elementary equidistribution count: for any
a > 0 and shift gamma, the fractional parts ((a*sqrt(n) + gamma)) fall into a
subinterval of [0, 1] with discrepancy O(sqrt(N)) over n in [N/2, N]
(:func:`fejer_count`).  Applied with a = 4g/pi, gamma = 1/4, the bad count
over [N/2, N] comes out near N**(3/4 + delta_exp) / pi; only the
observed/predicted ratio is reported since the constant is heuristic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asymptotics import theta
from .eigensolver import SpectrumTable
from .model import Parity

__all__ = [
    "IntervalVerdict",
    "PatternVerdict",
    "IntervalClassification",
    "FejerReport",
    "BadSetPoint",
    "shifted_values",
    "count_bad",
    "classify_range",
    "check_alternation_pattern",
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
    UNCLASSIFIED = "unclassified"

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


@dataclass(frozen=True)
class IntervalClassification:
    """Occupancy of (n, n+1) by shifted eigenvalues of both parities.

    ``count_plus`` and ``count_minus`` count eigenvalues confidently interior
    to the interval; ``boundary_hits`` counts eigenvalues of either parity
    within ``eps`` of an endpoint, which are never counted as interior.
    """

    n: int
    count_plus: int
    count_minus: int
    boundary_hits: int
    good: bool
    verdict: IntervalVerdict


@dataclass(frozen=True)
class FejerReport:
    """Observed vs expected count of fractional parts in a subinterval."""

    a: float
    gamma: float
    alpha: float
    beta: float
    n_cap: int
    count: int
    expected: float
    discrepancy: float


@dataclass(frozen=True)
class BadSetPoint:
    """Bad-index count over [N/2, N] against the heuristic prediction."""

    n_cap: int
    count: int
    predicted: float
    ratio: float


def shifted_values(table: SpectrumTable, parity: Parity) -> np.ndarray:
    return table.values(parity) + table.params.g**2


def good_mask(ns: np.ndarray, n_cap: int, delta_exp: float, g: float) -> np.ndarray:
    """Good flags |cos(theta_n)| > N**(-1/4 + delta_exp) over an array of indices."""
    if n_cap < 2:
        raise ValueError(f"window cap must be >= 2, got {n_cap}")
    if not (0.0 < delta_exp < 0.25):
        raise ValueError(f"delta_exp must lie in (0, 1/4), got {delta_exp}")
    threshold = float(n_cap) ** (-0.25 + delta_exp)
    return np.abs(np.cos(theta(np.asarray(ns, dtype=np.float64), g))) > threshold


def count_bad(n_cap: int, delta_exp: float, g: float) -> int:
    """Number of bad n in [n_cap/2, n_cap] by direct enumeration."""
    ns = np.arange((n_cap + 1) // 2, n_cap + 1)
    return int(np.sum(~good_mask(ns, n_cap, delta_exp, g)))


def predicted_bad_count(n_cap: int, delta_exp: float) -> float:
    """Heuristic bad count: interval length (2/pi)*N**(-1/4+d) times N/2 indices."""
    return float(n_cap) ** (0.75 + delta_exp) / math.pi


def bad_set_ladder(
    n_caps: Sequence[int], delta_exp: float, g: float
) -> list[BadSetPoint]:
    points = []
    for n_cap in n_caps:
        count = count_bad(n_cap, delta_exp, g)
        predicted = predicted_bad_count(n_cap, delta_exp)
        points.append(
            BadSetPoint(
                n_cap=int(n_cap),
                count=count,
                predicted=predicted,
                ratio=count / predicted,
            )
        )
    return points


def bad_count_slope(points: Sequence[BadSetPoint]) -> float:
    """Log-log slope of bad count against N over a ladder of window caps."""
    if len(points) < 2:
        raise ValueError("need at least two ladder points to fit a slope")
    n = np.array([p.n_cap for p in points], dtype=np.float64)
    c = np.array([max(p.count, 1) for p in points], dtype=np.float64)
    slope, _ = np.polyfit(np.log(n), np.log(c), 1)
    return float(slope)


def _validate_classify_args(table: SpectrumTable, eps: float) -> None:
    if not (0.0 < eps < 0.5):
        raise ValueError(f"boundary tolerance must lie in (0, 1/2), got {eps}")
    if eps < _EPS_OVER_EIGEN_TOL * table.eigen_tol:
        raise ValueError(
            f"boundary tolerance {eps:g} must exceed the eigenvalue tolerance "
            f"{table.eigen_tol:g} by at least {_EPS_OVER_EIGEN_TOL:g}x"
        )


def classify_range(
    table: SpectrumTable,
    first: int,
    last: int,
    eps: float = DEFAULT_BOUNDARY_EPS,
    n_cap: int | None = None,
    delta_exp: float = DEFAULT_DELTA_EXP,
) -> list[IntervalClassification]:
    """Classifications for all intervals (n, n+1), first <= n <= last.

    The table must cover labels through last + 3 so neighbors cannot leak
    into the last interval unnoticed; good flags are evaluated against
    ``n_cap`` (defaulting to the table's max label).
    """
    _validate_classify_args(table, eps)
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
    verdicts = np.full(size, IntervalVerdict.VIOLATION, dtype=object)
    verdicts[(minus == 2) & (plus == 0)] = IntervalVerdict.MINUS_PAIR
    verdicts[(minus == 0) & (plus == 2)] = IntervalVerdict.PLUS_PAIR
    verdicts[hits > 0] = IntervalVerdict.BOUNDARY
    goods = good_mask(np.arange(first, last + 1), cap, delta_exp, table.params.g)
    return [
        IntervalClassification(
            n=n, count_plus=p, count_minus=m, boundary_hits=h, good=g, verdict=v
        )
        for n, p, m, h, g, v in zip(
            range(first, last + 1),
            plus.tolist(),
            minus.tolist(),
            hits.tolist(),
            goods.tolist(),
            verdicts.tolist(),
        )
    ]


def check_alternation_pattern(
    n: int, window: Sequence[IntervalClassification]
) -> PatternVerdict:
    """Alternating-pair check on the three intervals centered at (n, n+1).

    PASS means the center interval is a pair of one parity and both neighbors
    are pairs of the other parity.  Bad center indices and windows touched by
    boundary hits are UNCLASSIFIED rather than judged.  Only the center index
    is required to be good; the neighbors inherit their sign control from it.
    """
    if len(window) != 3 or [w.n for w in window] != [n - 1, n, n + 1]:
        raise ValueError(f"window must classify intervals {n - 1}, {n}, {n + 1}")
    left, center, right = window
    if any(w.verdict is IntervalVerdict.BOUNDARY for w in window) or not center.good:
        return PatternVerdict.UNCLASSIFIED
    pairs = {
        IntervalVerdict.MINUS_PAIR: IntervalVerdict.PLUS_PAIR,
        IntervalVerdict.PLUS_PAIR: IntervalVerdict.MINUS_PAIR,
    }
    opposite = pairs.get(center.verdict)
    if opposite is not None and left.verdict is opposite and right.verdict is opposite:
        return PatternVerdict.PASS
    return PatternVerdict.FAIL


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
    return FejerReport(
        a=a,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
        n_cap=int(n_cap),
        count=count,
        expected=expected,
        discrepancy=abs(count - expected),
    )
