"""Spectral toolkit for the quantum Rabi model.

Computes the two parity-class spectra from their Jacobi-matrix truncations by
Sturm-sequence bisection, and provides the machinery to check their fine
structure empirically: the three-term large-label asymptotics, occupancy of
unit intervals by the shifted spectra, spacing-type frequencies of the merged
spectrum, the arcsine law of normalized deviations, and fractional-part
equidistribution counts behind the bad-set estimate.
"""

from .asymptotics import (
    deviation_amplitude,
    deviations,
    fractional_phase,
    residual_decay_slope,
    residuals,
    theta,
    three_term_eigenvalue,
)
from .eigensolver import (
    ConvergenceError,
    EigenvalueRecord,
    LabelingError,
    ParitySpectrum,
    SpectrumTable,
    adaptive_spectrum,
    compute_spectrum_table,
    label_offset,
    lowest_eigenvalues,
    sturm_count,
)
from .intervals import (
    BadSetPoint,
    FejerReport,
    IntervalClassification,
    IntervalVerdict,
    PatternVerdict,
    bad_count_slope,
    bad_set_ladder,
    check_alternation_pattern,
    classify_range,
    count_bad,
    fejer_count,
    shifted_values,
)
from .model import (
    ModelParams,
    Parity,
    TridiagonalMatrix,
    build_truncated,
    diagonal_entry,
    offdiagonal_entry,
)
from .stats import (
    EcdfTable,
    FrequencyReport,
    MergedSpectrum,
    SpacingKind,
    Spacings,
    arcsine_cdf,
    classify_spacings,
    empirical_deviation_distribution,
    ks_distance,
    merge_spectra,
    spacing_frequencies,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "Parity",
    "TridiagonalMatrix",
    "build_truncated",
    "diagonal_entry",
    "offdiagonal_entry",
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
    "deviation_amplitude",
    "theta",
    "fractional_phase",
    "three_term_eigenvalue",
    "deviations",
    "residuals",
    "residual_decay_slope",
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
