"""Composite objective: values, gradients, per-block model, and updates."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dtpmv
from scipy.linalg.lapack import dtpttr, dtrttp

from icdkit import block_angular, blocks, inner, objective, synthetic
from icdkit.blocks import BlockPartition, block_view
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
    quadratic_metric,
)


def _identity_objective(reg=None):
    p = BlockPartition((2,))
    smooth = QuadraticSmooth(sp.eye(2, format="csc"), np.zeros(2), p)
    reg = reg if reg is not None else SeparableRegularizer.zero()
    return CompositeObjective(smooth, reg, quadratic_metric(smooth))


def _packed_product(R, t):
    """R (R^T t) for a packed lower factor R: the metric's two tpmv calls."""
    n = inner.packed_order(R)
    return dtpmv(n, R, dtpmv(n, R, t, lower=1, trans=1), lower=1)


def _unpacked(R):
    """The packed lower factor R as an N x N array."""
    return dtpttr(inner.packed_order(R), R, uplo="L")[0]


def _random_objective(rng, M, sizes, reg=None):
    p = BlockPartition(sizes)
    A = rng.standard_normal((M, p.N))
    b = rng.standard_normal(M)
    smooth = QuadraticSmooth(sp.csc_matrix(A), b, p)
    reg = reg if reg is not None else SeparableRegularizer.zero()
    return CompositeObjective(smooth, reg, quadratic_metric(smooth))


def test_eval_F_identity():
    obj = _identity_objective()
    state = obj.start(np.array([1.0, 1.0]))
    assert state.F_value() == pytest.approx(1.0)


def test_eval_F_with_l1():
    obj = _identity_objective(SeparableRegularizer.l1(1.0))
    state = obj.start(np.array([1.0, 1.0]))
    assert state.F_value() == pytest.approx(3.0)  # 1 + |x|_1


def test_consistent_system_has_zero_f():
    rng = np.random.default_rng(0)
    p = BlockPartition((3, 2))
    A = rng.standard_normal((6, 5))
    x_star = rng.standard_normal(5)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    obj = CompositeObjective(smooth, SeparableRegularizer.zero(), quadratic_metric(smooth))
    assert obj.start(x_star).f_value() == pytest.approx(0.0, abs=1e-24)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["dense-A", "csc-A", "b"])
def test_smooth_refuses_a_non_finite_input_and_names_it(where, bad):
    # a NaN or inf would otherwise become a NaN factor without an error
    A, b = np.random.default_rng(2).standard_normal((6, 5)), np.ones(6)
    (b if where == "b" else A)[3] = bad
    held = sp.csc_matrix(A) if where == "csc-A" else A
    with pytest.raises(ValueError, match=rf"^{where[-1]} has a non-finite entry"):
        QuadraticSmooth(held, b, BlockPartition((3, 2)))


def test_block_gradient_identity():
    obj = _identity_objective()
    state = obj.start(np.array([1.0, 1.0]))
    assert np.allclose(obj.block_gradient(state, 0), [1.0, 1.0])


def test_block_gradient_zero_at_solution():
    rng = np.random.default_rng(1)
    p = BlockPartition((2, 2))
    A = rng.standard_normal((6, 4))
    x_star = rng.standard_normal(4)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    obj = CompositeObjective(smooth, SeparableRegularizer.zero(), quadratic_metric(smooth))
    state = obj.start(x_star)
    for i in range(2):
        assert np.allclose(obj.block_gradient(state, i), 0.0, atol=1e-12)


def test_block_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    obj = _random_objective(rng, 6, (2, 2))
    x = rng.standard_normal(4)
    state = obj.start(x)
    h = 1e-5
    for i in range(2):
        grad = obj.block_gradient(state, i)
        fd = np.zeros_like(grad)
        sl = obj.partition.range(i)
        for j in range(fd.size):
            xp, xm = x.copy(), x.copy()
            xp[sl.start + j] += h
            xm[sl.start + j] -= h
            fp = obj.smooth.value_from_residual(obj.smooth.residual(xp))
            fm = obj.smooth.value_from_residual(obj.smooth.residual(xm))
            fd[j] = (fp - fm) / (2 * h)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_model_value_at_zero_is_regularizer():
    obj = _identity_objective(SeparableRegularizer.l1(0.5))
    state = obj.start(np.array([2.0, -1.0]))
    grad = obj.block_gradient(state, 0)
    assert obj.model_value(state, 0, np.zeros(2), grad) == pytest.approx(0.5 * 3.0)


def test_model_value_hand_case():
    # A = I2, b = 0, x = (1,1), t = (-1,-1): <g,t> + 1/2 |t|^2 = -2 + 1
    obj = _identity_objective()
    state = obj.start(np.array([1.0, 1.0]))
    grad = obj.block_gradient(state, 0)
    assert obj.model_value(state, 0, np.array([-1.0, -1.0]), grad) == pytest.approx(-1.0)


def test_model_value_quadratic_shift_identity():
    # with the A_i^T A_i metric, V_i(x,t) = 1/2|A_i t + r|^2 - 1/2|r|^2
    rng = np.random.default_rng(3)
    obj = _random_objective(rng, 8, (3, 3))
    state = obj.start(rng.standard_normal(6))
    for i in range(2):
        t = rng.standard_normal(3)
        Ai = obj.smooth.blocks[i]
        direct = 0.5 * np.sum((Ai @ t + state.r) ** 2) - 0.5 * np.sum(state.r**2)
        grad = obj.block_gradient(state, i)
        assert obj.model_value(state, i, t, grad) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_smooth_exact_minimizer_value():
    # at t* = -B^{-1} g, the model value is -1/2 |g|_*^2
    rng = np.random.default_rng(4)
    obj = _random_objective(rng, 10, (4, 3))
    state = obj.start(rng.standard_normal(7))
    for i in range(2):
        g = obj.block_gradient(state, i)
        t_star = -np.linalg.solve(obj.metric.operators[i], g)
        conj_sq = float(g @ np.linalg.solve(obj.metric.operators[i], g))
        assert obj.model_value(state, i, t_star, g) == pytest.approx(
            -conj_sq / 2, rel=1e-10, abs=1e-12
        )


def test_metric_step_constant_is_estimated_once_per_block(monkeypatch):
    # the prox step constant is the power estimate of ||R_i||^2 = ||B_i||,
    # made on the block's first use from its packed factor
    rng = np.random.default_rng(7)
    obj = _random_objective(rng, 9, (2, 3))
    calls = []
    estimate = blocks.estimate_operator_norm_sq

    def counting(R):
        calls.append(R.shape)
        return estimate(R)

    monkeypatch.setattr(blocks, "estimate_operator_norm_sq", counting)
    values = [obj.metric.prox_constants(i)[1] for i in (1, 0, 1, 0)]
    assert calls == [(6,), (3,)]
    assert values == [estimate(obj.metric.stored[i]) for i in (1, 0, 1, 0)]


@pytest.mark.parametrize("shape", [(40, 8), (5, 8)], ids=["duplicate-column", "wide"])
def test_step_constant_of_a_rank_shifted_block_bounds_the_shifted_operator(shape):
    # a rank-deficient block keeps B_i = A_i^T A_i + eps I, and the step
    # constant, read from that B_i's factor, is at least ||B_i||_2
    rng = np.random.default_rng(1)
    A = rng.standard_normal(shape)
    A[:, 1] = A[:, 0]
    metric = quadratic_metric(QuadraticSmooth(A, np.zeros(shape[0]), BlockPartition((8,))))
    B = metric.operators[0]
    assert B[0, 0] > A[:, 0] @ A[:, 0]  # shifted
    assert metric.prox_constants(0)[1] >= np.linalg.norm(B, 2)


def test_metric_prox_constants_are_estimated_once_per_block(monkeypatch):
    # mu_i and L_i are made together from R_i on the block's first use
    rng = np.random.default_rng(7)
    obj = _random_objective(rng, 9, (2, 3))
    calls = []
    norm_sq, lam_min = blocks.estimate_operator_norm_sq, blocks.estimate_lambda_min

    def counting(name, estimate):
        def wrapped(R, *args):
            calls.append((name, R.shape))
            return estimate(R, *args)

        return wrapped

    monkeypatch.setattr(blocks, "estimate_operator_norm_sq", counting("L", norm_sq))
    monkeypatch.setattr(blocks, "estimate_lambda_min", counting("mu", lam_min))
    metric = obj.metric
    values = [metric.prox_constants(1), metric.prox_constants(0)[1], metric.prox_constants(0)]
    values += [metric.prox_constants(1)[1], metric.prox_constants(1)]
    assert calls == [("L", (6,)), ("mu", (6,)), ("L", (3,)), ("mu", (3,))]
    expected = [(lam_min(R, norm_sq(R)), norm_sq(R)) for R in metric.stored]
    assert values == [expected[1], expected[0][1], expected[0], expected[1][1], expected[1]]


def _sparse_block():
    rng = np.random.default_rng(2)
    S = sp.random(60, 20, density=0.05, random_state=rng) + sp.eye(60, 20)
    return sp.csc_matrix(S)


def _duplicate_column_block():
    A = np.random.default_rng(1).standard_normal((40, 8))
    A[:, 1] = A[:, 0]
    return A


@pytest.mark.parametrize(
    "make_block",
    [
        lambda: np.random.default_rng(1).standard_normal((30, 12)),
        _sparse_block,
        _duplicate_column_block,
        lambda: np.random.default_rng(1).standard_normal((5, 8)),
        lambda: np.random.default_rng(1).standard_normal((400, 20)) / 20.0,
    ],
    ids=["dense", "sparse", "duplicate-column", "wide", "lasso-shaped"],
)
def test_prox_constants_bracket_the_spectrum_and_keep_the_step_below_two_over_norm(make_block):
    # mu_i errs high, but never above L_i = prox_constants(i)[1] >= ||B_i||_2, so
    # the step lies in [1/L_i, 1.5/L_i], below 2/||B_i||_2. lambda_min(B_i)
    # is sigma_min(R_i)^2: the SVD of R_i finds it to relative accuracy,
    # where eigvalsh of the rebuilt R_i R_i^T is off by 8e-9 of it on the
    # duplicate-column block (its rounding is eps ||B_i||). The wide and
    # duplicate-column blocks are rank-shifted (B_i = A_i^T A_i + eps I)
    A = make_block()
    smooth = QuadraticSmooth(A, np.zeros(A.shape[0]), BlockPartition((A.shape[1],)))
    metric = quadratic_metric(smooth)
    R, B = metric.stored[0], metric.operators[0]
    assert (metric.sparse[0] is not None) == sp.issparse(A)
    lam_min = np.linalg.svd(_unpacked(R), compute_uv=False)[-1] ** 2
    norm = np.linalg.eigvalsh(B)[-1]
    mu, L = metric.prox_constants(0)
    assert lam_min * (1 - 1e-10) <= mu <= L == metric.prox_constants(0)[1]
    assert norm <= L
    assert 1.0 / L <= inner.prox_step(L, mu) <= inner.prox_step(L, 0.0)
    assert inner.prox_step(L, 0.0) == pytest.approx(1.5 / L, rel=1e-15)
    assert inner.prox_step(L, mu) * norm < 2.0


def test_eval_H_exact_update_sandwich():
    # H(x, T_0) <= H(x, T_delta) <= H(x, T_0) + sum_i delta_i
    rng = np.random.default_rng(6)
    obj = _random_objective(rng, 12, (3, 3, 2))
    state = obj.start(rng.standard_normal(8))
    T0 = np.zeros(8)
    Td = np.zeros(8)
    deltas = [0.05, 0.1, 0.02]
    for i in range(3):
        g = obj.block_gradient(state, i)
        t_star = -np.linalg.solve(obj.metric.operators[i], g)
        sl = obj.partition.range(i)
        T0[sl] = t_star
        # a perturbed update whose model value stays within delta_i of the minimum
        d = rng.standard_normal(t_star.size)
        d *= np.sqrt(deltas[i] / float(d @ obj.metric.apply(i, d)))
        Td[sl] = t_star + d

    def H(T):
        # H(x, T) = f(x) + sum_i V_i(x, T^(i)), through the solver's model_value
        parts = (
            obj.model_value(state, i, block_view(T, i, obj.partition), obj.block_gradient(state, i))
            for i in range(3)
        )
        return state.f_value() + sum(parts)

    h0, hd = H(T0), H(Td)
    assert h0 <= hd + 1e-12
    assert hd <= h0 + sum(deltas) + 1e-12


def test_regularizer_values():
    zero = SeparableRegularizer.zero()
    assert zero.block_value(0, np.array([1.0, -5.0])) == 0.0
    l1 = SeparableRegularizer.l1(0.01)
    assert l1.block_value(0, np.array([1.0, -2.0])) == pytest.approx(0.03)
    gl = SeparableRegularizer.group_lasso(1.0, [4.0])
    assert gl.block_value(0, np.array([3.0, 4.0])) == pytest.approx(10.0)


def test_objective_rejects_group_weights_for_another_block_count():
    smooth = QuadraticSmooth(sp.eye(3, format="csc"), np.zeros(3), BlockPartition((1, 1, 1)))
    with pytest.raises(ValueError, match="2 weights for 3 blocks"):
        CompositeObjective(smooth, SeparableRegularizer.group_lasso(0.05, (10.0, 10.0)))


def test_regularizer_rejects_negative_lambda():
    with pytest.raises(ValueError):
        SeparableRegularizer.l1(-1.0)


def test_apply_update_zero_is_noop():
    rng = np.random.default_rng(7)
    obj = _random_objective(rng, 6, (2, 2))
    x = rng.standard_normal(4)
    state = obj.start(x)
    F0 = state.F_value()
    state.apply_update(0, np.zeros(2))
    assert np.array_equal(state.x, x)
    assert state.F_value() == pytest.approx(F0, rel=1e-15)


def test_apply_update_direct():
    obj = _identity_objective()
    state = obj.start(np.array([1.0, 1.0]))
    state.apply_update(0, np.array([-1.0, -1.0]))
    assert np.allclose(state.x, 0.0)
    assert np.allclose(state.r, 0.0)
    assert state.F_value() == pytest.approx(0.0, abs=1e-24)


def test_incremental_residual_matches_recompute():
    rng = np.random.default_rng(8)
    obj = _random_objective(rng, 10, (3, 4), SeparableRegularizer.l1(0.1))
    state = obj.start(rng.standard_normal(7))
    for _ in range(50):
        i = int(rng.integers(0, 2))
        state.apply_update(i, 0.1 * rng.standard_normal(obj.partition.sizes[i]))
    fresh = obj.smooth.A @ state.x - obj.smooth.b
    drift = np.linalg.norm(state.r - fresh)
    assert drift <= 1e-12 * (1 + np.linalg.norm(obj.smooth.b))
    assert state.recompute_residual() == drift
    assert np.array_equal(state.r, fresh)


@pytest.mark.parametrize("held", [np.asfortranarray, sp.csc_matrix], ids=["dense", "csc"])
def test_start_at_zero_takes_no_product_and_gives_the_product_residual_bit_for_bit(held, monkeypatch):
    # r = 0.0 - b equals A @ 0 - b to the bit, zero signs included, where b
    # has zeros and A negative entries; a nonzero x0 still takes the product
    rng = np.random.default_rng(24)
    A = held(rng.standard_normal((12, 6)))
    b = rng.standard_normal(12)
    b[[2, 7]] = 0.0
    obj = CompositeObjective(QuadraticSmooth(A, b, BlockPartition((2, 4))))
    want = obj.smooth.A @ np.zeros(6) - obj.smooth.b
    products = []
    residual = obj.smooth.residual
    monkeypatch.setattr(obj.smooth, "residual", lambda x: products.append(x) or residual(x))
    state = obj.start(np.array([0.0, -0.0, 0.0, 0.0, 0.0, 0.0]))
    assert products == []
    assert np.array_equal(state.r, want)
    assert np.array_equal(np.signbit(state.r), np.signbit(want))
    x0 = np.zeros(6)
    x0[3] = 1.0
    assert np.array_equal(obj.start(x0).r, residual(x0)) and len(products) == 1


def test_overapproximation_property():
    # F(x + U_i t) <= f(x) + V_i(x, t) + sum_{j != i} Psi_j(x_j);
    # equality for the quadratic metric with Psi = 0
    rng = np.random.default_rng(9)
    reg = SeparableRegularizer.l1(0.2)
    obj = _random_objective(rng, 10, (3, 3), reg)
    obj0 = _random_objective(rng, 10, (3, 3))
    for trial in range(20):
        for o in (obj, obj0):
            x = rng.standard_normal(6)
            state = o.start(x)
            i = int(rng.integers(0, 2))
            t = rng.standard_normal(3)
            lhs_x = x.copy()
            lhs_x[o.partition.range(i)] += t
            lhs_state = o.start(lhs_x)
            psi_rest = sum(
                o.reg.block_value(j, block_view(x, j, o.partition)) for j in range(2) if j != i
            )
            v_t = o.model_value(state, i, t, o.block_gradient(state, i))
            rhs = state.f_value() + v_t + psi_rest
            assert lhs_state.F_value() <= rhs + 1e-10
            if o is obj0:
                assert lhs_state.F_value() == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_rank_deficient_block_gets_regularized_metric():
    # a wide block has singular A_i^T A_i; the metric must stay SPD
    rng = np.random.default_rng(10)
    p = BlockPartition((5,))
    A = rng.standard_normal((3, 5))
    smooth = QuadraticSmooth(sp.csc_matrix(A), np.zeros(3), p)
    metric = quadratic_metric(smooth)
    assert np.linalg.eigvalsh(metric.operators[0]).min() > 0


def test_metric_keeps_one_factor_per_block(monkeypatch):
    # one factorization per block, a second when the rank check fails; the
    # kept factor reproduces B_i, shifted where the block is rank-deficient
    rng = np.random.default_rng(13)
    A = rng.standard_normal((8, 18))
    A[:, 5] = 0.0  # block 1: tall, rank-deficient
    A[:, 16:] = 0.0  # block 3: all zero
    smooth = QuadraticSmooth(sp.csc_matrix(A), np.zeros(8), BlockPartition((3, 3, 10, 2)))
    calls = []
    dpotrf = objective.dpotrf
    monkeypatch.setattr(objective, "dpotrf",
                        lambda B, **kw: calls.append(B.shape) or dpotrf(B, **kw))
    metric = quadratic_metric(smooth)
    assert calls == [(3, 3), (3, 3), (3, 3), (10, 10), (2, 2)]
    shifted = [False, True, True, False]
    for i, B in enumerate(metric.operators):
        Ai = A[:, smooth.partition.range(i)]
        eps = 1e-8 * float((Ai * Ai).sum()) / Ai.shape[1] if shifted[i] else 0.0
        expected = Ai.T @ Ai + eps * np.eye(Ai.shape[1])
        np.testing.assert_allclose(B, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert metric.stored[i].shape == (Ai.shape[1] * (Ai.shape[1] + 1) // 2,)
        t = rng.standard_normal(Ai.shape[1])
        np.testing.assert_allclose(metric.apply(i, t), B @ t, rtol=1e-12, atol=1e-12)
    assert not metric.operators[3].any()


def _unshifted(D) -> bool:
    """Whether the metric's Cholesky rank check passes on block D, given
    as an ndarray: the smooth may hold the block dense, where it has no
    sparse product to form B_i with."""
    try:
        np.linalg.cholesky(D.T @ D)
    except np.linalg.LinAlgError:
        return False
    return D.shape[0] >= D.shape[1]


def test_metric_applies_cheap_sparse_blocks_as_a_product_with_their_nonzero_rows():
    # exactly the unshifted sparse blocks with 2 nnz(A_i) < N_i^2 keep the
    # row-cut A_i; their product equals B_i t and is the full-height
    # A_i^T (A_i t) bit for bit; every other block applies its factor
    mat, _, b = block_angular.generate(block_angular.GeneratorSpec(n=3, M_i=200, N_i=50, ell=1, seed=3))
    dense = np.random.default_rng(16).standard_normal((60, 30))
    rng = np.random.default_rng(17)
    taken = []
    for A, rhs, partition in (
        (mat.assemble(), b, mat.partition),
        (sp.csc_matrix(dense), np.zeros(60), BlockPartition((10, 10, 10))),
    ):
        smooth = QuadraticSmooth(A, rhs, partition)
        metric = quadratic_metric(smooth)
        for i, Ai in enumerate(smooth.blocks):
            Si = A[:, partition.range(i)]
            cheap = _unshifted(Si.toarray()) and 2 * Si.nnz < Si.shape[1] ** 2
            assert (metric.sparse[i] is not None) == cheap
            taken.append(cheap)
            t = rng.standard_normal(Si.shape[1])
            Bt = metric.operators[i] @ t
            out = metric.apply(i, t)
            np.testing.assert_allclose(out, Bt, rtol=0.0, atol=1e-12 * np.abs(Bt).max())
            if cheap:
                assert np.array_equal(out, Ai.T @ (Ai @ t))
                C, CT = metric.sparse[i]
                assert C.shape == (np.unique(Ai.indices).size, Ai.shape[1])
                assert np.shares_memory(C.data, Ai.data) and np.shares_memory(CT.data, Ai.data)
    assert taken == [True, True, True, False, False, False]


def test_rank_deficient_sparse_block_keeps_its_shifted_factor():
    # a duplicated column: the block is sparse and 2 nnz < N_i^2, but its
    # B_i carries the +eps*I shift, which only the factor holds; four ones
    # in columns 0 and 1 make the Cholesky pivot of column 1 exactly 4 - 2^2
    A = sp.random(300, 40, density=0.05, random_state=np.random.default_rng(18), format="csc").toarray()
    A[:, :2] = 0.0
    A[[3, 50, 120, 299], :2] = 1.0
    A = sp.csc_matrix(A)
    assert 2 * A.nnz < 40 * 40
    metric = quadratic_metric(QuadraticSmooth(A, np.zeros(300), BlockPartition((40,))))
    assert metric.sparse[0] is None
    eps = 1e-8 * float(A.multiply(A).sum()) / 40
    expected = (A.T @ A).toarray() + eps * np.eye(40)
    np.testing.assert_allclose(metric.operators[0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
    t = np.random.default_rng(19).standard_normal(40)
    assert np.array_equal(metric.apply(0, t), _packed_product(metric.stored[0], t))


@pytest.mark.parametrize(
    "smooth",
    [
        # the lasso shape, and the smallblock shape: dense data held as CSC
        synthetic.lasso_instance(200, 100, (10,) * 10, lam=0.1, seed=0).smooth,
        QuadraticSmooth(
            sp.csc_matrix(np.random.default_rng(20).standard_normal((100, 50))),
            np.zeros(100),
            BlockPartition((10,) * 5),
        ),
    ],
    ids=["lasso", "smallblock"],
)
def test_dense_data_held_as_csc_applies_its_factor_bit_for_bit(smooth):
    # dense blocks apply their packed factor by its two triangular
    # products, so their rounding, and with it every record of such a run,
    # is that of the factor's kernels
    metric = quadratic_metric(smooth)
    rng = np.random.default_rng(21)
    for i, R in enumerate(metric.stored):
        assert metric.sparse[i] is None
        t = rng.standard_normal(metric.dims[i])
        assert np.array_equal(metric.apply(i, t), _packed_product(R, t))


def _every_entry_stored(rng, M, N):
    """A canonical CSC matrix that stores all M N entries: about a tenth
    are zeros, the rest have magnitudes from 1e-3 to 1e3 and random signs."""
    X = rng.choice([-1.0, 1.0], (M, N)) * 10.0 ** rng.uniform(-3, 3, (M, N))
    X[rng.random((M, N)) < 0.1] = 0.0
    rows, cols = np.indices((M, N))
    S = sp.csc_matrix((X.ravel(), (rows.ravel(), cols.ravel())), shape=(M, N))
    assert S.nnz == M * N and S.has_canonical_format
    return S


def _within_rounding(got, want, scale, terms):
    """got and want are two sums of the same terms added in different
    orders: each differs from the exact sum by at most terms * eps times
    the sum of the terms' magnitudes, scale."""
    assert np.all(np.abs(got - want) <= 2 * terms * np.finfo(float).eps * scale)


@pytest.mark.parametrize(
    "shape", [(1, 3), (37, 5), (60, 10), (100, 10), (2000, 100), (1000, 2), (2000, 1)]
)
def test_dense_data_is_held_as_one_array_however_it_comes(shape):
    # a block that stores every entry, as CSC or as an ndarray, one-row and
    # one-column blocks too, is held as the same column-major array, so both
    # inputs give the same A_i t, A_i^T r and Gram to the bit; BLAS adds the
    # terms in its own order, so each matches scipy's sparse product to
    # rounding. The residual of a CSC input stays on scipy's csc_matvec
    rng = np.random.default_rng(22)
    M, N = shape
    S = _every_entry_stored(rng, M, 2 * N)
    t, r = (rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3, 3, k) for k in (N, M))
    x, b = rng.standard_normal(2 * N), rng.standard_normal(M)
    held = [QuadraticSmooth(A, b, BlockPartition((N, N))) for A in (S, S.toarray())]
    for i in range(2):
        Si = S[:, held[0].partition.range(i)]
        for smooth in held:
            Ai = smooth.blocks[i]
            assert isinstance(Ai, np.ndarray) and Ai.flags.f_contiguous
            assert np.array_equal(Ai, Si.toarray())
        products = [
            (smooth.blocks[i] @ t, smooth.blocks_T[i] @ r, objective._gram(smooth.blocks[i]))
            for smooth in held
        ]
        for got, want in zip(*products):
            assert np.array_equal(got, want)
        absS = abs(Si)
        _within_rounding(products[0][0], Si @ t, absS @ abs(t), N)
        _within_rounding(products[0][1], Si.T @ r, absS.T @ abs(r), M)
        _within_rounding(products[0][2], (Si.T @ Si).toarray(), (absS.T @ absS).toarray(), M)
    absS = abs(S)
    assert np.array_equal(held[0].gram(), held[1].gram())
    _within_rounding(held[0].gram(), (S.T @ S).toarray(), (absS.T @ absS).toarray(), M)
    assert np.array_equal(held[0].residual(x), S @ x - b)
    _within_rounding(held[1].residual(x), S @ x - b, absS @ abs(x) + abs(b), 2 * N + 1)


def test_dense_data_is_held_in_one_layout():
    # A is held once: an F-ordered ndarray as itself, a C-ordered one as one
    # column-major copy, a CSC matrix that stores every entry as itself; each
    # block is a view of the held entries and each transpose a view of its block
    M, sizes = 300, (40, 60, 1)
    A = np.asfortranarray(np.random.default_rng(23).standard_normal((M, sum(sizes))))
    for data, copies in ((A, 0), (np.ascontiguousarray(A), 1), (sp.csc_matrix(A), 0)):
        tracemalloc.start()
        try:
            smooth = QuadraticSmooth(data, np.zeros(M), BlockPartition(sizes))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = smooth.A.data if sp.issparse(data) else smooth.A
        assert entries.flags.f_contiguous and np.array_equal(smooth.A @ np.eye(A.shape[1]), A)
        for i, Ai in enumerate(smooth.blocks):
            assert isinstance(Ai, np.ndarray) and Ai.flags.f_contiguous
            assert np.shares_memory(Ai, entries)
            assert np.shares_memory(smooth.blocks_T[i], Ai)
        assert held <= (copies + 0.05) * A.nbytes


def test_lasso_instance_builds_the_csc_form_of_its_data():
    # the CSC arrays are built from the column-major entries, without
    # sp.csc_matrix's coordinate pass, and equal the ones it gives
    A = synthetic.lasso_instance(50, 20, (10, 10), lam=0.1, seed=4).smooth.A
    want = sp.csc_matrix(A.toarray())
    assert A.has_canonical_format
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(A, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_a_block_with_duplicate_entries_stays_on_the_sparse_kernels():
    # nnz = M N_i, but two entries share a place and one place is empty:
    # the block is not canonical, so it keeps its CSC slice, whose
    # products multiply each duplicate separately
    S = sp.csc_matrix(
        (np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 0, 1]), np.array([0, 2, 4])), shape=(2, 2)
    )
    assert S.nnz == 4 and not S.has_canonical_format
    smooth = QuadraticSmooth(S, np.zeros(2), BlockPartition((2,)))
    assert sp.issparse(smooth.blocks[0])
    assert smooth.blocks[0] is smooth.A  # a full-width slice would copy A
    t = np.array([0.5, -2.0])
    assert np.array_equal(smooth.blocks[0] @ t, S @ t)


def test_metric_names_the_block_whose_factor_does_not_fit(monkeypatch):
    # running out of memory on one block's factor is an input error that
    # names the block and its width, not a MemoryError from deep inside
    A = np.random.default_rng(15).standard_normal((12, 9))
    smooth = QuadraticSmooth(sp.csc_matrix(A), np.zeros(12), BlockPartition((3, 4, 2)))
    dpotrf = objective.dpotrf

    def no_room_for_block_1(B, **kwargs):
        if B.shape == (4, 4):
            raise MemoryError
        return dpotrf(B, **kwargs)

    monkeypatch.setattr(objective, "dpotrf", no_room_for_block_1)
    with pytest.raises(ValueError, match=r"block 1 \(4 columns\)"):
        quadratic_metric(smooth)


def test_metric_names_the_block_whose_shifted_factor_fails(monkeypatch):
    # block 1's Gram fails its rank check and then its shifted factorization
    # (dpotrf's info > 0 both times): an input error that names the block
    A = np.random.default_rng(15).standard_normal((12, 9))
    smooth = QuadraticSmooth(sp.csc_matrix(A), np.zeros(12), BlockPartition((3, 4, 2)))
    dpotrf = objective.dpotrf
    calls = []

    def block_1_never_factors(B, **kwargs):
        calls.append(B.shape)
        L, info = dpotrf(B, **kwargs)
        return L, 2 if B.shape == (4, 4) else info

    monkeypatch.setattr(objective, "dpotrf", block_1_never_factors)
    with pytest.raises(ValueError, match=r"block 1 \(4 columns\): the rank-shifted Gram"):
        quadratic_metric(smooth)
    assert calls == [(3, 3), (4, 4), (4, 4)]


@pytest.mark.parametrize("kind", ["dense", "sparse-pair", "shifted", "all-zero"])
def test_metric_factor_is_the_packed_lower_triangle_of_B(kind):
    # R_i as the tpmv kernels and pptrs read it: N_i(N_i+1)/2 doubles, the
    # lower triangle column by column, and R_i R_i^T = B_i (shifted where
    # the block needs it)
    rng = np.random.default_rng(21)
    sizes = (4, 8)
    if kind == "sparse-pair":
        spec = block_angular.GeneratorSpec(n=2, M_i=200, N_i=50, ell=1, seed=3)
        mat, _, _ = block_angular.generate(spec)
        A, sizes = mat.assemble(), mat.partition.sizes
    elif kind == "shifted":
        A = rng.standard_normal((3, 12))  # wide blocks: every Gram is singular
    else:
        A = rng.standard_normal((40, 12)) if kind == "dense" else np.zeros((40, 12))
    smooth = QuadraticSmooth(A, np.zeros(A.shape[0]), BlockPartition(sizes))
    metric = quadratic_metric(smooth)
    assert all(pair is not None for pair in metric.sparse) == (kind == "sparse-pair")
    for i, R in enumerate(metric.stored):
        B = objective._gram(smooth.blocks[i])
        n = B.shape[0]
        if kind == "shifted":
            B = B + 1e-8 * np.trace(B) / n * np.eye(n)
        assert R.shape == (n * (n + 1) // 2,) and metric.dims[i] == n
        L = _unpacked(R)
        # column j holds L's entries from the diagonal down, after columns 0..j-1
        starts = np.concatenate([[0], np.cumsum(np.arange(n, 0, -1))])
        for j in range(n):
            assert np.array_equal(R[starts[j]:starts[j + 1]], L[j:, j])
        assert not np.triu(L, 1).any()
        np.testing.assert_allclose(L @ L.T, B, rtol=0.0, atol=1e-13 * max(np.abs(B).max(), 1.0))


@pytest.mark.parametrize("held", [np.asfortranarray, sp.csc_matrix], ids=["dense", "csc"])
def test_tall_rank_deficient_block_forms_its_gram_once(held, monkeypatch):
    # the failed dpotrf leaves B's strict lower triangle alone, so the
    # shifted Gram is rebuilt from it and the saved diagonal, bit for bit,
    # with no second product A_i^T A_i
    A = np.random.default_rng(22).standard_normal((300, 100))
    A[:, 7] = A[:, 3]
    Ai = held(A)
    expected = objective._gram(Ai)
    expected[np.diag_indices(100)] += 1e-8 * float(np.trace(expected)) / 100
    L, info = objective.dpotrf(expected.T, lower=1, clean=1, overwrite_a=1)
    assert info == 0
    grams = []
    gram = objective._gram
    monkeypatch.setattr(objective, "_gram", lambda B: grams.append(B.shape) or gram(B))
    R, pair = objective._block_metric(Ai)
    assert grams == [(300, 100)] and pair is None
    assert np.array_equal(R, dtrttp(L, uplo="L")[0])


def test_metric_build_holds_one_dense_block_at_a_time():
    # the metric keeps n packed factors, 4 N_i (N_i + 1) bytes each, half a
    # dense block; building it block by block adds about one block's B_i on
    # top, where forming every B_i first would add n; dense data held as
    # CSC forms its Gram as the ndarray does, with no sparse product beside
    # it (which peaked near 2.8 blocks)
    n, Ni = 8, 200
    A = np.random.default_rng(14).standard_normal((300, n * Ni))
    block, factor = Ni * Ni * 8, 4 * Ni * (Ni + 1)
    for held in (A, sp.csc_matrix(A)):
        smooth = QuadraticSmooth(held, np.zeros(300), BlockPartition((Ni,) * n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            metric = quadratic_metric(smooth)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(metric.stored) == n
        assert abs((kept - base) / factor - n) <= 0.5
        assert (peak - kept) / block <= 1.5
