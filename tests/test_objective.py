"""Composite objective: values, gradients, per-block model, and updates."""

import numpy as np
import pytest
import scipy.sparse as sp

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
    assert obj.model_value(state, 0, np.zeros(2)) == pytest.approx(0.5 * 3.0)


def test_model_value_hand_case():
    # A = I2, b = 0, x = (1,1), t = (-1,-1): <g,t> + 1/2 |t|^2 = -2 + 1
    obj = _identity_objective()
    state = obj.start(np.array([1.0, 1.0]))
    assert obj.model_value(state, 0, np.array([-1.0, -1.0])) == pytest.approx(-1.0)


def test_model_value_quadratic_shift_identity():
    # with the A_i^T A_i metric, V_i(x,t) = 1/2|A_i t + r|^2 - 1/2|r|^2
    rng = np.random.default_rng(3)
    obj = _random_objective(rng, 8, (3, 3))
    state = obj.start(rng.standard_normal(6))
    for i in range(2):
        t = rng.standard_normal(3)
        Ai = obj.smooth.blocks[i]
        direct = 0.5 * np.sum((Ai @ t + state.r) ** 2) - 0.5 * np.sum(state.r**2)
        assert obj.model_value(state, i, t) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_smooth_exact_minimizer_value():
    # at t* = -B^{-1} g / l, the model value is -(1/(2l)) |g|_*^2
    rng = np.random.default_rng(4)
    obj = _random_objective(rng, 10, (4, 3))
    state = obj.start(rng.standard_normal(7))
    for i in range(2):
        g = obj.block_gradient(state, i)
        li = obj.metric.lipschitz[i]
        t_star = -np.linalg.solve(obj.metric.operators[i], g) / li
        conj_sq = float(g @ np.linalg.solve(obj.metric.operators[i], g))
        assert obj.model_value(state, i, t_star) == pytest.approx(
            -conj_sq / (2 * li), rel=1e-10, abs=1e-12
        )


def test_eval_H_at_zero_is_F():
    obj = _identity_objective(SeparableRegularizer.l1(0.5))
    state = obj.start(np.array([2.0, -1.0]))
    assert obj.eval_H(state, np.zeros(2)) == pytest.approx(state.F_value(), rel=1e-12)


def test_eval_H_two_formula_cross_check():
    # f + sum_i V_i(x, T_i) must equal f + <grad f, T> + 1/2 |T|_L^2 + Psi(x+T)
    rng = np.random.default_rng(5)
    reg = SeparableRegularizer.l1(0.3)
    obj = _random_objective(rng, 9, (2, 3, 2), reg)
    x = rng.standard_normal(7)
    state = obj.start(x)
    T = rng.standard_normal(7)
    direct = state.f_value()
    for i in range(3):
        Ti = block_view(T, i, obj.partition)
        g = obj.block_gradient(state, i)
        li = obj.metric.lipschitz[i]
        direct += float(g @ Ti) + 0.5 * li * float(Ti @ obj.metric.apply(i, Ti))
        direct += reg.block_value(i, block_view(x, i, obj.partition) + Ti)
    assert obj.eval_H(state, T) == pytest.approx(direct, rel=1e-10, abs=1e-12)


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
        li = obj.metric.lipschitz[i]
        t_star = -np.linalg.solve(obj.metric.operators[i], g) / li
        sl = obj.partition.range(i)
        T0[sl] = t_star
        # a perturbed update whose model value stays within delta_i of the minimum
        d = rng.standard_normal(t_star.size)
        d *= np.sqrt(deltas[i] / (li * float(d @ obj.metric.apply(i, d))))
        Td[sl] = t_star + d
    h0, hd = obj.eval_H(state, T0), obj.eval_H(state, Td)
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
    drift = np.linalg.norm(state.r - (obj.smooth.A @ state.x - obj.smooth.b))
    assert drift <= 1e-12 * (1 + np.linalg.norm(obj.smooth.b))


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
            rhs = state.f_value() + o.model_value(state, i, t) + psi_rest
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
    B = metric.operators[0]
    B = B.toarray() if sp.issparse(B) else np.asarray(B)
    assert np.linalg.eigvalsh(B).min() > 0
