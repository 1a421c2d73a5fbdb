"""Block partition, block views and weights."""

import numpy as np
import pytest

from icdkit.blocks import BlockPartition, WeightVector, block_view


def test_partition_invariants():
    p = BlockPartition((2, 3, 1))
    assert p.n == 3
    assert p.N == 6
    assert p.offsets == (0, 2, 5, 6)
    assert p.range(1) == slice(2, 5)


def test_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockPartition((2, 0))
    with pytest.raises(ValueError):
        BlockPartition(())


def test_block_view_basic():
    p = BlockPartition((2, 2))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(block_view(x, 1, p), [3.0, 4.0])


def test_block_view_single_block():
    p = BlockPartition((1,))
    assert np.array_equal(block_view(np.array([5.0]), 0, p), [5.0])


def test_block_view_errors():
    p = BlockPartition((2, 2))
    with pytest.raises(IndexError):
        block_view(np.zeros(4), 2, p)
    with pytest.raises(ValueError):
        block_view(np.zeros(5), 0, p)


def test_block_view_is_view():
    p = BlockPartition((2, 2))
    x = np.zeros(4)
    block_view(x, 0, p)[0] = 7.0
    assert x[0] == 7.0


def test_weight_vector_rejects_nonpositive():
    with pytest.raises(ValueError):
        WeightVector((1.0, 0.0))
