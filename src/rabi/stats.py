"""Spacing-type statistics of the merged spectrum and the deviation law.

Merging both parity classes and classifying each nearest-neighbor gap by the
parities of its endpoints gives three spacing types: positive (both PLUS),
negative (both MINUS), and mixed.  The alternating-pair interval structure
forces limiting frequencies 1/4, 1/4, 1/2.  :func:`classify_spacings`
returns the gaps as columns: the gap, a kind code per gap (the index of its
:class:`SpacingKind` in declaration order) and a degenerate mask.

Within one parity class the normalized deviations
``n**(1/4) * (E_n - (n - g**2))`` equidistribute according to an arcsine law
supported on [-C, C] with C = delta / sqrt(2*pi*g), density
``1 / (pi * sqrt(C**2 - y**2))``; :func:`arcsine_cdf` is the closed form and
:func:`ks_distance` measures the empirical fit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import deviation_amplitude, deviations
from .eigensolver import SpectrumTable
from .model import ModelParams, Parity

__all__ = [
    "SpacingKind",
    "Spacings",
    "FrequencyReport",
    "MergedSpectrum",
    "EcdfTable",
    "merge_spectra",
    "classify_spacings",
    "spacing_frequencies",
    "arcsine_cdf",
    "empirical_deviation_distribution",
    "ks_distance",
]

DEFAULT_TIE_TOL = 1e-9

# Small labels carry the slowest-decaying remainder; distribution comparisons
# drop them by default.
DEFAULT_MIN_LABEL = 32


class SpacingKind(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"


class Spacings(NamedTuple):
    """Nearest-neighbor gaps of the merged spectrum, one entry per gap.

    Gap i joins merged positions i and i + 1.  ``kinds`` holds the index of
    each gap's :class:`SpacingKind` in declaration order; gaps below the tie
    tolerance are flagged in ``degenerate`` and excluded from frequency
    statistics.
    """

    gaps: np.ndarray
    kinds: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class FrequencyReport:
    """Empirical fractions of the three spacing types."""

    f_positive: float
    f_negative: float
    f_mixed: float
    total: int
    n_degenerate: int = 0


@dataclass(frozen=True)
class MergedSpectrum:
    """Globally sorted merge of both parity classes; ``parities`` holds +1 / -1.

    Near-coincident pairs keep whatever order the merge gave them;
    :func:`classify_spacings` flags the gaps between them as degenerate.
    """

    values: np.ndarray
    parities: np.ndarray

    def __len__(self) -> int:
        return int(self.values.size)


def merge_spectra(table: SpectrumTable) -> MergedSpectrum:
    """Sorted merge of both parity spectra."""
    values = np.concatenate([table.values(Parity.PLUS), table.values(Parity.MINUS)])
    parities = np.concatenate(
        [
            np.ones(table.max_label, dtype=np.int8),
            -np.ones(table.max_label, dtype=np.int8),
        ]
    )
    order = np.lexsort((parities, values))
    values = values[order]
    parities = parities[order]
    values.flags.writeable = False
    parities.flags.writeable = False
    return MergedSpectrum(values=values, parities=parities)


def classify_spacings(merged: MergedSpectrum, tie_tol: float = DEFAULT_TIE_TOL) -> Spacings:
    """Gap, kind code and degenerate flag for every adjacent merged pair."""
    gaps = np.diff(merged.values)
    pair_sign = merged.parities[:-1] + merged.parities[1:]
    # Both PLUS sums to 2, both MINUS to -2, a mixed pair to 0.
    kinds = np.select([pair_sign > 0, pair_sign < 0], [0, 1], default=2).astype(np.int8)
    return Spacings(gaps=gaps, kinds=kinds, degenerate=gaps < tie_tol)


def spacing_frequencies(spacings: Spacings) -> FrequencyReport:
    """Empirical fractions of the three kinds, degenerate gaps excluded."""
    if spacings.gaps.size == 0:
        raise ValueError("cannot compute frequencies of an empty spacing list")
    included = spacings.kinds[~spacings.degenerate]
    if included.size == 0:
        raise ValueError("all spacings are degenerate; frequencies undefined")
    total = int(included.size)
    n_pos, n_neg, n_mix = np.bincount(included, minlength=len(SpacingKind)).tolist()
    return FrequencyReport(
        f_positive=n_pos / total,
        f_negative=n_neg / total,
        f_mixed=n_mix / total,
        total=total,
        n_degenerate=int(spacings.gaps.size) - total,
    )


def arcsine_cdf(y, params: ModelParams):
    """Closed-form CDF of the deviation law, clamped outside [-C, C].

    F(y) = 1/2 + arcsin(y / C) / pi on the support; for delta == 0 the law
    degenerates to a point mass at zero and F is the unit step there.
    """
    support = deviation_amplitude(params)
    y_arr = np.asarray(y, dtype=np.float64)
    if support == 0.0:
        out = np.where(y_arr < 0.0, 0.0, 1.0)
    else:
        out = 0.5 + np.arcsin(np.clip(y_arr / support, -1.0, 1.0)) / np.pi
    return float(out) if np.isscalar(y) else out


@dataclass(frozen=True)
class EcdfTable:
    """Sorted unique sample values with cumulative counts (last equals n)."""

    values: np.ndarray
    cum_counts: np.ndarray
    n_samples: int

    @classmethod
    def from_samples(cls, samples) -> "EcdfTable":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("ECDF requires a nonempty 1-d sample")
        values, counts = np.unique(samples, return_counts=True)
        cum = np.cumsum(counts)
        values.flags.writeable = False
        cum.flags.writeable = False
        return cls(values=values, cum_counts=cum, n_samples=int(samples.size))

    def evaluate(self, y) -> np.ndarray:
        """ECDF value P(X <= y), elementwise."""
        idx = np.searchsorted(self.values, np.asarray(y, dtype=np.float64), side="right")
        cum = np.concatenate([[0], self.cum_counts])
        return cum[idx] / self.n_samples


def empirical_deviation_distribution(
    table: SpectrumTable, parity: Parity, min_label: int = 1
) -> EcdfTable:
    """ECDF of the normalized deviations for labels min_label..max_label."""
    labels = table.labels(parity)
    devs = deviations(table, parity)
    return EcdfTable.from_samples(devs[labels >= min_label])


def ks_distance(ecdf: EcdfTable, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance of an ECDF to a reference CDF.

    The supremum is attained at sample points, comparing the CDF against the
    empirical mass just below and at each jump.  ``cdf`` is called once, on
    the array of distinct sample values.
    """
    if ecdf.n_samples == 0:
        raise ValueError("cannot compute KS distance of an empty ECDF")
    ref = np.asarray(cdf(ecdf.values), dtype=np.float64)
    after = ecdf.cum_counts / ecdf.n_samples
    before = np.concatenate([[0.0], after[:-1]])
    return float(max(np.max(np.abs(ref - after)), np.max(np.abs(ref - before))))
