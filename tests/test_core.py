"""Outer loop: sampling, budgets, per-block updates, and full runs."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit import inner
from icdkit.block_angular import GeneratorSpec, build_preconditioner, generate
from icdkit.blocks import BlockPartition
from icdkit.core import (
    DeltaRule,
    InexactnessPolicy,
    SamplingLaw,
    SolverConfig,
    compute_update,
    delta_budget,
    icd_run,
    sample_block,
)
from icdkit.objective import (
    _DENSE_METRIC_CAP,
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
    quadratic_metric,
)
from icdkit.synthetic import lasso_instance


def _consistent_objective(rng, M, sizes, reg=None, F_star=0.0):
    p = BlockPartition(sizes)
    A = rng.standard_normal((M, p.N))
    x_star = rng.standard_normal(p.N)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    reg = reg if reg is not None else SeparableRegularizer.zero()
    return CompositeObjective(
        smooth, reg, quadratic_metric(smooth), F_star=F_star, x_star=x_star
    )


# ------------------------------------------------------------ sampling


def test_sample_block_single():
    law = SamplingLaw(p=(1.0,), seed=0)
    rng = np.random.default_rng(0)
    assert all(sample_block(law, rng, k) == 0 for k in range(10))


def test_sample_block_frequencies():
    law = SamplingLaw(p=(0.5, 0.5), seed=42)
    rng = np.random.default_rng(42)
    draws = np.array([sample_block(law, rng, k) for k in range(100_000)])
    assert abs(np.mean(draws == 0) - 0.5) < 0.01


def test_sample_block_fixed_order():
    law = SamplingLaw(p=(1 / 3, 1 / 3, 1 / 3), seed=0, fixed_order=(2, 0, 1))
    rng = np.random.default_rng(0)
    assert [sample_block(law, rng, k) for k in range(3)] == [2, 0, 1]
    with pytest.raises(IndexError):
        sample_block(law, rng, 3)


def test_sampling_law_validates_probabilities():
    with pytest.raises(ValueError):
        SamplingLaw(p=(0.5, 0.6), seed=0)
    with pytest.raises(ValueError):
        SamplingLaw(p=(1.0, 0.0), seed=0)


@pytest.mark.parametrize("order, bad", [((0, 1, 3, 0), 3), ((0, 1, 2, -1, 0), -1)])
def test_sampling_law_rejects_fixed_order_outside_the_blocks(order, bad):
    with pytest.raises(ValueError, match=rf"index {bad} outside \[0, 3\)"):
        SamplingLaw.uniform(3, fixed_order=order)


def test_run_rejects_law_with_another_block_count():
    obj = lasso_instance(60, 30, (10, 10, 10), 0.05, seed=0)
    with pytest.raises(ValueError, match="2 blocks but the partition has 3"):
        icd_run(obj, np.zeros(30), InexactnessPolicy.uniform(1e-6),
                SamplingLaw((0.5, 0.5)), SolverConfig(method="prox"))


# ------------------------------------------------------------- budgets


def test_delta_budget_uniform_beta():
    policy = InexactnessPolicy.uniform(0.1)
    deltas, bar = delta_budget(policy, F_k=5.0, F_star=None, p=(0.5, 0.5))
    assert np.allclose(deltas, 0.1)
    assert bar == pytest.approx(0.1)


def test_delta_budget_exact_case():
    deltas, bar = delta_budget(InexactnessPolicy.exact(), 5.0, 0.0, (0.5, 0.5))
    assert np.allclose(deltas, 0.0)
    assert bar == 0.0


def test_delta_budget_multiplicative():
    policy = InexactnessPolicy(alpha=0.5, beta=0.0, rule=__import__("icdkit.core", fromlist=["DeltaRule"]).DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE)
    deltas, bar = delta_budget(policy, F_k=2.0, F_star=0.0, p=(1.0,))
    assert deltas[0] == pytest.approx(1.0)
    assert bar <= 0.5 * 2.0 + 1e-12


def test_delta_budget_multiplicative_requires_Fstar():
    from icdkit.core import DeltaRule

    policy = InexactnessPolicy(alpha=0.5, beta=0.0, rule=DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE)
    with pytest.raises(ValueError):
        delta_budget(policy, F_k=2.0, F_star=None, p=(1.0,))


def test_policy_rejects_negative_parameters():
    with pytest.raises(ValueError):
        InexactnessPolicy(alpha=-0.1, beta=0.0)
    with pytest.raises(ValueError):
        InexactnessPolicy(alpha=0.0, beta=-1.0)
    with pytest.raises(ValueError, match="per-block budgets must be nonnegative"):
        InexactnessPolicy(0.0, 0.0, DeltaRule.PER_BLOCK_LIST, (1e-6, -1.0, 1e-6))


# ------------------------------------------------------ compute_update


def test_update_identity_metric_is_negative_gradient():
    p = BlockPartition((2,))
    smooth = QuadraticSmooth(sp.eye(2, format="csc"), np.zeros(2), p)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth)
    )
    state = obj.start(np.array([1.0, 1.0]))
    t, stats, fallback = compute_update(obj, state, 0, 0.0, SolverConfig(method="exact"))
    assert np.allclose(t, -obj.block_gradient(state, 0), atol=1e-12)
    assert not fallback


def test_update_zero_gradient_is_free():
    # x = 0 with b = 0 gives an exactly-zero residual and gradient
    rng = np.random.default_rng(0)
    p = BlockPartition((3, 3))
    A = rng.standard_normal((8, 6))
    smooth = QuadraticSmooth(sp.csc_matrix(A), np.zeros(8), p)
    obj = CompositeObjective(smooth, SeparableRegularizer.zero(), quadratic_metric(smooth))
    state = obj.start(np.zeros(6))
    t, stats, _ = compute_update(obj, state, 0, 0.0, SolverConfig(method="exact"))
    assert np.array_equal(t, np.zeros(3))
    assert stats.iterations == 0


def test_update_certificate_within_budget():
    rng = np.random.default_rng(1)
    obj = _consistent_objective(rng, 12, (4, 4))
    state = obj.start(rng.standard_normal(8))
    delta = 0.1
    t, stats, fallback = compute_update(obj, state, 0, delta, SolverConfig(method="cg"))
    assert fallback or stats.certificate <= delta
    # the B-residual certificate implies the model is no worse than vacuous
    assert obj.model_value(state, 0, t) <= obj.model_value(state, 0, np.zeros(4)) + 1e-12


def test_update_on_a_csr_metric_block_exact_and_tight_cg_agree():
    # a sparse block wider than the dense cap keeps B_i as CSR; the exact
    # path densifies it per update, CG applies it as it is
    rng = np.random.default_rng(11)
    N = _DENSE_METRIC_CAP + 100
    R = sp.random(N, N, density=0.01, random_state=rng)
    A = sp.vstack([sp.eye(N), R], format="csc")  # full column rank
    smooth = QuadraticSmooth(A, rng.standard_normal(2 * N), BlockPartition((N,)))
    obj = CompositeObjective(smooth)
    assert sp.issparse(obj.metric.operators[0])
    state = obj.start(np.zeros(N))
    t_exact, _, _ = compute_update(obj, state, 0, 0.0, SolverConfig(method="exact"))
    t_cg, stats, fallback = compute_update(obj, state, 0, 1e-16, SolverConfig(method="cg"))
    assert stats.converged and not fallback
    assert np.allclose(t_cg, t_exact, rtol=0.0, atol=1e-7)


def test_update_l1_path_uses_duality_gap():
    rng = np.random.default_rng(2)
    obj = _consistent_objective(rng, 12, (4, 4), SeparableRegularizer.l1(0.05))
    state = obj.start(rng.standard_normal(8))
    t, stats, _ = compute_update(obj, state, 1, 1e-6, SolverConfig(method="prox"))
    assert stats.certificate <= 1e-6
    assert stats.mode.value == "duality_gap"


def test_update_rigorous_cg_reports_scaled_residual_mode():
    rng = np.random.default_rng(12)
    obj = _consistent_objective(rng, 12, (4, 4))
    state = obj.start(rng.standard_normal(8))
    lam_min = [float(np.linalg.eigvalsh(B).min()) for B in obj.metric.operators]
    rigorous = SolverConfig(method="cg", rigorous=True, lambda_min_estimates=lam_min)
    _, stats, _ = compute_update(obj, state, 0, 1e-3, rigorous)
    assert stats.iterations > 0
    assert stats.mode.value == "residual_squared_scaled"
    assert stats.certificate <= 1e-3 * lam_min[0]
    _, stats, _ = compute_update(obj, state, 0, 1e-3, SolverConfig(method="cg"))
    assert stats.mode.value == "residual_squared"


def test_solver_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverConfig().precond_factors = []


def test_update_l1_requires_positive_delta():
    rng = np.random.default_rng(3)
    obj = _consistent_objective(rng, 8, (2, 2), SeparableRegularizer.l1(0.05))
    state = obj.start(rng.standard_normal(4))
    with pytest.raises(ValueError):
        compute_update(obj, state, 0, 0.0, SolverConfig(method="prox"))


@pytest.mark.parametrize(
    "reg", [SeparableRegularizer.l1(0.05), SeparableRegularizer.group_lasso(0.05, (2, 2))]
)
def test_update_nonsmooth_rejects_non_prox_method(reg):
    rng = np.random.default_rng(3)
    obj = _consistent_objective(rng, 8, (2, 2), reg)
    state = obj.start(rng.standard_normal(4))
    with pytest.raises(ValueError, match="'prox'"):
        compute_update(obj, state, 0, 1e-6, SolverConfig())


# -------------------------------------------------------------- icd_run


def test_run_starts_at_optimum():
    rng = np.random.default_rng(4)
    obj = _consistent_objective(rng, 10, (3, 3))
    res = icd_run(
        obj, obj.x_star, InexactnessPolicy.exact(), SamplingLaw.uniform(2, seed=0),
        SolverConfig(method="exact"), eps=1e-8,
    )
    assert res.converged
    assert len(res.records) == 0


def test_run_single_block_one_update():
    p = BlockPartition((2,))
    smooth = QuadraticSmooth(sp.eye(2, format="csc"), np.zeros(2), p)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth), F_star=0.0
    )
    res = icd_run(
        obj, np.array([1.0, 1.0]), InexactnessPolicy.exact(),
        SamplingLaw.uniform(1, seed=0), SolverConfig(method="exact"), eps=1e-12,
    )
    assert res.converged
    assert len(res.records) == 1
    assert res.F_final == pytest.approx(0.0, abs=1e-20)


def test_run_monotone_and_converges():
    rng = np.random.default_rng(5)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(
        obj, rng.standard_normal(7), InexactnessPolicy.uniform(1e-12),
        SamplingLaw.uniform(2, seed=3), SolverConfig(method="cg"), eps=1e-8,
        max_block_updates=2000,
    )
    assert res.converged
    Fs = [r.F for r in res.records]
    for a, b in zip(Fs, Fs[1:]):
        assert b <= a + 1e-12 * (1 + abs(a))


def test_run_determinism():
    rng = np.random.default_rng(6)
    obj = _consistent_objective(rng, 14, (3, 4))
    x0 = rng.standard_normal(7)

    def go():
        return icd_run(
            obj, x0.copy(), InexactnessPolicy.uniform(1e-6),
            SamplingLaw.uniform(2, seed=11), SolverConfig(method="cg"), eps=1e-8,
            max_block_updates=2000,
        )

    r1, r2 = go(), go()
    assert np.array_equal(r1.x, r2.x)
    assert [a.block for a in r1.records] == [a.block for a in r2.records]
    assert [a.F for a in r1.records] == [a.F for a in r2.records]
    assert [a.inner_iterations for a in r1.records] == [a.inner_iterations for a in r2.records]


def _pcg_problem():
    mat, x_star, b = generate(GeneratorSpec(n=3, M_i=60, N_i=20, ell=1, seed=3))
    smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth), F_star=0.0
    )
    factors = [inner.incomplete_cholesky(build_preconditioner(mat, i), 0.1) for i in range(3)]
    return obj, np.zeros(mat.N), factors


def test_run_pcg_builds_one_preconditioner_per_block(monkeypatch):
    obj, x0, factors = _pcg_problem()
    built = []
    init = inner._TriangularPreconditioner.__init__

    def counting_init(self, L):
        built.append(L)
        init(self, L)

    monkeypatch.setattr(inner._TriangularPreconditioner, "__init__", counting_init)
    res = icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), SamplingLaw.uniform(3, seed=0),
                  SolverConfig(method="pcg", precond_factors=factors), max_block_updates=30)
    blocks = [r.block for r in res.records]
    assert all(blocks.count(i) >= 2 for i in range(3))
    assert len(built) <= 3


def test_run_repetitions_sharing_a_pcg_solver_are_identical():
    obj, x0, factors = _pcg_problem()
    solver = SolverConfig(method="pcg", precond_factors=factors)
    law = SamplingLaw.uniform(3, seed=0)

    def go():
        return icd_run(obj, x0, InexactnessPolicy.uniform(1e-2), law, solver,
                       eps=1e-6, max_block_updates=2000)

    r1, r2 = go(), go()
    assert np.array_equal(r1.x, r2.x)
    strip = [dataclasses.replace(r, wall_time_s=0.0) for r in r1.records]
    assert strip == [dataclasses.replace(r, wall_time_s=0.0) for r in r2.records]


def test_records_carry_inner_convergence():
    obj, x0, _ = _pcg_problem()
    law = SamplingLaw.uniform(3, seed=0)
    capped = icd_run(obj, x0, InexactnessPolicy.uniform(1e-12), law,
                     SolverConfig(method="cg", max_inner_iters=2), max_block_updates=6)
    assert not any(r.inner_converged for r in capped.records)
    full = icd_run(obj, x0, InexactnessPolicy.uniform(1e-12), law,
                   SolverConfig(method="cg"), max_block_updates=6)
    assert all(r.inner_converged for r in full.records)


def test_run_budget_exhaustion_flagged():
    rng = np.random.default_rng(7)
    obj = _consistent_objective(rng, 20, (5, 5))
    res = icd_run(
        obj, rng.standard_normal(10), InexactnessPolicy.exact(),
        SamplingLaw.uniform(2, seed=1), SolverConfig(method="exact"), eps=1e-14,
        max_block_updates=2,
    )
    assert not res.converged
    assert len(res.records) == 2


def test_run_eps_requires_Fstar():
    rng = np.random.default_rng(8)
    p = BlockPartition((2, 2))
    A = rng.standard_normal((6, 4))
    smooth = QuadraticSmooth(sp.csc_matrix(A), rng.standard_normal(6), p)
    obj = CompositeObjective(smooth, SeparableRegularizer.zero(), quadratic_metric(smooth))
    with pytest.raises(ValueError):
        icd_run(obj, np.zeros(4), InexactnessPolicy.exact(), SamplingLaw.uniform(2), eps=0.1)


def test_run_stagnation_stop_without_eps():
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(
        obj, rng.standard_normal(7), InexactnessPolicy.exact(),
        SamplingLaw.uniform(2, seed=2), SolverConfig(method="exact"),
        max_block_updates=5000,
    )
    assert res.converged  # stagnation at the solution counts as done
    assert res.F_final < 1e-10


def test_exact_limit_cg_matches_cholesky():
    rng = np.random.default_rng(10)
    obj = _consistent_objective(rng, 16, (4, 4))
    x0 = rng.standard_normal(8)
    order = tuple(int(v) for v in np.random.default_rng(0).integers(0, 2, size=60))
    law = SamplingLaw(p=(0.5, 0.5), seed=0, fixed_order=order)
    exact = icd_run(obj, x0.copy(), InexactnessPolicy.exact(), law,
                    SolverConfig(method="exact"), eps=1e-10, max_block_updates=60)
    inexact = icd_run(obj, x0.copy(), InexactnessPolicy.uniform(1e-24), law,
                      SolverConfig(method="cg"), eps=1e-10, max_block_updates=60)
    assert np.linalg.norm(exact.x - inexact.x) <= 1e-8 * (1 + np.linalg.norm(exact.x))


def test_records_track_cumulative_inner_iterations():
    rng = np.random.default_rng(11)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(
        obj, rng.standard_normal(7), InexactnessPolicy.uniform(1e-8),
        SamplingLaw.uniform(2, seed=5), SolverConfig(method="cg"), eps=1e-6,
        max_block_updates=500,
    )
    total = 0
    for rec in res.records:
        total += rec.inner_iterations
        assert rec.cum_inner_iterations == total
    assert res.inner_iterations == total
