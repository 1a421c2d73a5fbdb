"""Block partition, per-block norms, and weighted norms."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from icdkit.blocks import (
    BlockMetric,
    BlockPartition,
    WeightVector,
    block_norm,
    block_view,
    conjugate_block_norm,
    scatter,
    weighted_norm,
)


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


def test_scatter_round_trip():
    rng = np.random.default_rng(0)
    p = BlockPartition((3, 7))
    x = rng.standard_normal(10)
    assert np.array_equal(scatter([block_view(x, 0, p), block_view(x, 1, p)], p), x)


def test_block_norm_euclidean():
    assert block_norm(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(5.0)


def test_block_norm_diagonal():
    # <diag(4,1) t, t> = 4 + 1 = 5 at t = (1, 1)
    assert block_norm(np.array([1.0, 1.0]), np.diag([4.0, 1.0])) == pytest.approx(np.sqrt(5.0))


def test_conjugate_norm_diagonal():
    # <B^{-1} g, g> = 4/4 + 1/1 = 2 at g = (2, 1)
    B = np.diag([4.0, 1.0])
    assert conjugate_block_norm(np.array([2.0, 1.0]), B) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_metric_requires_symmetry(fmt):
    B = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        BlockMetric([B if fmt == "dense" else sp.csr_matrix(B)])


def test_metric_rejects_linear_operator():
    with pytest.raises(ValueError, match="dense array or a sparse matrix"):
        BlockMetric([spla.aslinearoperator(np.eye(2))])


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_conjugate_norm_matches_dense_solve(fmt):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((8, 5))
    B = M.T @ M + 0.5 * np.eye(5)
    g = rng.standard_normal(5)
    expected = np.sqrt(g @ np.linalg.solve(B, g))
    got = conjugate_block_norm(g, B if fmt == "dense" else sp.csr_matrix(B))
    assert got == pytest.approx(expected, rel=1e-10)


def test_weighted_norm_identity_metric():
    rng = np.random.default_rng(2)
    p = BlockPartition((3, 4))
    x = rng.standard_normal(7)
    w = WeightVector((1.0, 1.0))
    metric = BlockMetric.identity(p)
    assert weighted_norm(x, w, metric, p) == pytest.approx(np.linalg.norm(x))


def test_weighted_norm_hand_sum():
    # blocks (1, 0) and (0, 1), weights (2, 3): sqrt(2*1 + 3*1)
    p = BlockPartition((2, 2))
    x = np.array([1.0, 0.0, 0.0, 1.0])
    w = WeightVector((2.0, 3.0))
    metric = BlockMetric.identity(p)
    assert weighted_norm(x, w, metric, p) == pytest.approx(np.sqrt(5.0))


def test_weight_vector_rejects_nonpositive():
    with pytest.raises(ValueError):
        WeightVector((1.0, 0.0))


def _random_spd(rng, d):
    M = rng.standard_normal((d + 2, d))
    return M.T @ M + 0.1 * np.eye(d)


def test_norm_axioms_sampled():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        B = _random_spd(rng, d)
        t, s = rng.standard_normal(d), rng.standard_normal(d)
        c = float(rng.standard_normal())
        assert block_norm(t, B) >= 0
        assert block_norm(c * t, B) == pytest.approx(abs(c) * block_norm(t, B), rel=1e-10)
        assert block_norm(t + s, B) <= block_norm(t, B) + block_norm(s, B) + 1e-10


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(4)
    p = BlockPartition((3, 2))
    metric = BlockMetric([_random_spd(rng, 3), _random_spd(rng, 2)])
    w = WeightVector((0.7, 2.5))
    x = rng.standard_normal(5)
    c = -2.3
    assert weighted_norm(c * x, w, metric, p) == pytest.approx(
        abs(c) * weighted_norm(x, w, metric, p), rel=1e-10
    )


def test_cauchy_schwarz_in_block_metric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        B = _random_spd(rng, d)
        g, t = rng.standard_normal(d), rng.standard_normal(d)
        assert float(g @ t) <= block_norm(t, B) * conjugate_block_norm(g, B) + 1e-10
