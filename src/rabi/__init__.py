"""Spectral toolkit for the quantum Rabi model.

Computes the two parity-class spectra from their Jacobi-matrix truncations by
Sturm sequences (safeguarded Newton on each label's window of rows), and
provides the machinery to check their fine structure empirically: the
three-term large-label asymptotics, occupancy of unit intervals by the
shifted spectra, spacing-type frequencies of the merged spectrum, the arcsine
law of normalized deviations, and fractional-part equidistribution counts
behind the bad-set estimate.
"""

from . import asymptotics, eigensolver, intervals, model, stats
from .asymptotics import *  # noqa: F403
from .eigensolver import *  # noqa: F403
from .intervals import *  # noqa: F403
from .model import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *eigensolver.__all__,
    *asymptotics.__all__,
    *intervals.__all__,
    *stats.__all__,
]
