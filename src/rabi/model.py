"""Model parameters and finite truncations of the parity-class Jacobi matrices.

Each parity sector of the quantum Rabi Hamiltonian acts as an infinite
symmetric tridiagonal (Jacobi) operator with diagonal entries
``d(k) = k + sign * (-1)**k * delta`` and off-diagonal entries
``a(k) = g * sqrt(k)``, ``k = 0, 1, 2, ...``.  The operator itself is never
stored.  :func:`alternation` and :func:`diagonal` are the one elementwise
definition of ``(-1)**k`` and ``d(k)``; the eigensolver takes each window's
sign from them and feeds its pivot loop the row addends k and ``g**2 k``.
:func:`build_truncated`, the leading ``M x M`` block, feeds it the rows of
the tests' reference solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Parity",
    "ModelParams",
    "TridiagonalMatrix",
    "alternation",
    "diagonal",
    "build_truncated",
]


class Parity(enum.Enum):
    """Parity class of the Rabi spectrum; PLUS uses d_plus, MINUS uses d_minus."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return "plus" if self is Parity.PLUS else "minus"


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength g and level-splitting parameter delta.

    delta = 0 is accepted: it is the exactly solvable degenerate case whose
    spectrum is a pair of displaced oscillators (used as a test anchor).
    """

    g: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.g > 0.0):
            raise ValueError(f"coupling g must be positive, got {self.g}")
        if not (self.delta >= 0.0):
            raise ValueError(f"level splitting delta must be >= 0, got {self.delta}")


@dataclass(frozen=True)
class TridiagonalMatrix:
    """A finite symmetric tridiagonal matrix; off-diagonal stored once.

    ``diag`` has length M, ``offdiag`` length M - 1.  Arrays are copied and
    made read-only, so no caller can change an instance after it is built.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        diag = np.array(self.diag, dtype=np.float64, copy=True)
        offdiag = np.array(self.offdiag, dtype=np.float64, copy=True)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a nonempty 1-d array")
        if offdiag.ndim != 1 or offdiag.size != diag.size - 1:
            raise ValueError(
                f"offdiag must have length {diag.size - 1}, got {offdiag.size}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("matrix entries must be finite")
        diag.flags.writeable = False
        offdiag.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        object.__setattr__(self, "dim", int(diag.size))


def alternation(k):
    """(-1)**k as float64, elementwise on integer k."""
    return 1.0 - 2.0 * (np.asarray(k) % 2)


def diagonal(k, parity: Parity, params: ModelParams):
    """Diagonal entries d(k) = k + parity.sign * (-1)**k * delta, elementwise on k >= 0."""
    return k + parity.sign * params.delta * alternation(k)


def build_truncated(parity: Parity, params: ModelParams, dim: int) -> TridiagonalMatrix:
    """Leading dim x dim block of the parity-class Jacobi operator."""
    if dim < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {dim}")
    diag = diagonal(np.arange(dim), parity, params)
    offdiag = params.g * np.sqrt(np.arange(1, dim, dtype=np.float64))
    return TridiagonalMatrix(diag=diag, offdiag=offdiag)
