import math

import numpy as np
import pytest

from rabi import (
    ModelParams,
    Parity,
    TridiagonalMatrix,
    alternation,
    build_truncated,
    diagonal,
)


def offdiagonal_entry(k, params):
    """a(k), k >= 1, read off the smallest truncation that holds it."""
    return build_truncated(Parity.PLUS, params, k + 1).offdiag[k - 1]


def test_diagonal_entry_examples():
    assert diagonal(0, Parity.PLUS, ModelParams(1.0, 0.5)) == 0.5
    assert diagonal(1, Parity.PLUS, ModelParams(1.0, 0.5)) == 0.5
    assert diagonal(2, Parity.MINUS, ModelParams(1.0, 0.7)) == pytest.approx(1.3, abs=1e-15)
    assert alternation([0, 1, 2, 7]).tolist() == [1.0, -1.0, 1.0, -1.0]


def test_offdiagonal_entry_examples():
    assert offdiagonal_entry(4, ModelParams(0.5, 0.1)) == pytest.approx(1.0)
    assert offdiagonal_entry(1, ModelParams(0.3, 0.1)) == pytest.approx(0.3)
    assert offdiagonal_entry(9, ModelParams(1.0, 0.1)) == pytest.approx(3.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.0, delta=0.4)
    with pytest.raises(ValueError):
        ModelParams(g=-1.0, delta=0.4)
    with pytest.raises(ValueError):
        ModelParams(g=0.7, delta=-0.1)
    ModelParams(g=0.7, delta=0.0)  # degenerate splitting is allowed


def test_build_truncated_examples():
    m = build_truncated(Parity.PLUS, ModelParams(0.5, 0.5), 2)
    assert m.diag.tolist() == [0.5, 0.5]
    assert m.offdiag.tolist() == [0.5]

    m = build_truncated(Parity.MINUS, ModelParams(0.5, 0.5), 1)
    assert m.diag.tolist() == [-0.5]
    assert m.offdiag.size == 0

    m = build_truncated(Parity.MINUS, ModelParams(0.7, 0.4), 3)
    assert m.diag == pytest.approx([-0.4, 1.4, 1.6])
    assert m.offdiag == pytest.approx([0.7, 0.7 * np.sqrt(2.0)])


def test_build_truncated_rejects_empty():
    with pytest.raises(ValueError):
        build_truncated(Parity.PLUS, ModelParams(0.5, 0.5), 0)


def test_entries_match_build():
    # d(k) and a(k) spelled independently, in Python ints and math.sqrt.
    params = ModelParams(0.9, 0.3)
    for parity in Parity:
        m = build_truncated(parity, params, 40)
        for k in range(40):
            assert m.diag[k] == pytest.approx(k + parity.sign * (-1) ** k * params.delta, abs=1e-15)
            # The helper gives a scalar row the bits of its vector row.
            assert diagonal(k, parity, params) == m.diag[k]
        for k in range(1, 40):
            assert m.offdiag[k - 1] == pytest.approx(params.g * math.sqrt(k), abs=1e-15)


def test_parity_sum_cancels():
    params = ModelParams(1.3, 0.45)
    k = np.arange(200)
    total = diagonal(k, Parity.PLUS, params) + diagonal(k, Parity.MINUS, params)
    assert total == pytest.approx(2.0 * k, abs=1e-12)


def test_diagonal_alternation():
    params = ModelParams(0.7, 0.4)
    k = np.arange(100)
    excess = diagonal(k, Parity.PLUS, params) - k
    assert np.abs(excess) == pytest.approx(np.full(100, params.delta), abs=1e-13)
    assert np.array_equal(np.sign(excess), np.where(k % 2 == 0, 1.0, -1.0))


def test_truncations_nest():
    params = ModelParams(0.7, 0.4)
    big = build_truncated(Parity.MINUS, params, 33)
    small = build_truncated(Parity.MINUS, params, 32)
    assert np.array_equal(big.diag[:32], small.diag)
    assert np.array_equal(big.offdiag[:31], small.offdiag)


def test_matrix_validation_and_immutability():
    with pytest.raises(ValueError):
        TridiagonalMatrix(diag=[1.0, 2.0], offdiag=[0.5, 0.5])
    with pytest.raises(ValueError):
        TridiagonalMatrix(diag=[], offdiag=[])
    with pytest.raises(ValueError):
        TridiagonalMatrix(diag=[1.0, np.inf], offdiag=[0.5])
    m = TridiagonalMatrix(diag=[1.0, 2.0], offdiag=[0.5])
    assert m.dim == 2
    with pytest.raises(ValueError):
        m.diag[0] = 3.0
