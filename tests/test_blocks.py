"""Block partition, block views, weights and the packed factor kernels."""

import math

import numpy as np
import pytest
from scipy.linalg.blas import dtpmv, dtpsv
from scipy.linalg.lapack import dpptrs

from icdkit import inner, synthetic
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


def _old_norm_sq(R, n):
    """The power estimate of ||R R^T|| as it was written out on a packed R:
    two dtpmv a step."""
    v = np.random.default_rng(inner.POWER_SEED).standard_normal(n)
    v = v / np.linalg.norm(v)
    est = 1.0
    for _ in range(inner.POWER_ITERS):
        u = dtpmv(n, R, dtpmv(n, R, v, lower=1, trans=1), lower=1, overwrite_x=1)
        nrm = float(np.linalg.norm(u))
        if nrm == 0:
            return 1.0
        est = nrm
        v = u / nrm
    return 1.05 * est


def _old_lambda_min(R, n, cap):
    """The inverse-power estimate of lambda_min(R R^T) as it was written
    out on a packed R: one dpptrs a step."""
    v = np.random.default_rng(inner.POWER_SEED).standard_normal(n)
    v = v / np.linalg.norm(v)
    est = cap
    for _ in range(inner.POWER_ITERS):
        u, _ = dpptrs(n, R, v, lower=1)
        nrm = float(np.linalg.norm(u))
        if not nrm < math.inf:
            return 0.0
        est = 1.0 / nrm
        v = u / nrm
    return min(est, cap)


def test_metric_solve_and_prox_constants_match_the_packed_kernels_bit_for_bit():
    # lasso blocks keep no sparse pair: every product reads the factor
    obj = synthetic.lasso_instance(200, 60, (20, 20, 20), lam=0.1, seed=1)
    metric = obj.metric
    g = np.random.default_rng(5).standard_normal(20)
    for i, (R, n) in enumerate(zip(metric.stored, metric.dims)):
        t = metric.solve(i, g)
        assert np.array_equal(t, dpptrs(n, R, g, lower=1)[0])
        # pptrs is the two packed triangular solves R y = g, R^T t = y
        assert np.array_equal(t, dtpsv(n, R, dtpsv(n, R, g, lower=1), lower=1, trans=1))
        L = _old_norm_sq(R, n)
        assert metric.prox_constants(i) == (_old_lambda_min(R, n, L), L)

