"""Outer loop: sampling, budgets, per-block updates, and full runs."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from icdkit import core, inner
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
    draws = sample_block(law, rng, 0, 10)
    assert len(draws) == 10 and all(i == 0 for i in draws)


def test_sample_block_frequencies():
    law = SamplingLaw(p=(0.5, 0.5), seed=42)
    rng = np.random.default_rng(42)
    draws = np.array(sample_block(law, rng, 0, 100_000))
    assert abs(np.mean(draws == 0) - 0.5) < 0.01


def test_sample_block_fixed_order():
    law = SamplingLaw(p=(1 / 3, 1 / 3, 1 / 3), seed=0, fixed_order=(2, 0, 1))
    rng = np.random.default_rng(0)
    assert list(sample_block(law, rng, 0, 3)) == [2, 0, 1]
    assert list(sample_block(law, rng, 1, 5)) == [0, 1]  # cut short where the order ends
    assert not sample_block(law, rng, 3, 1)


def test_run_draws_the_blocks_of_sequential_choice_calls():
    # 3 000 updates span several draw batches; the sequence must be the one
    # a call of rng.choice per update gives
    rng = np.random.default_rng(13)
    obj = _consistent_objective(rng, 40, (3, 4, 2, 5))
    p = (0.1, 0.2, 0.3, 0.4)
    res = icd_run(obj, rng.standard_normal(14), InexactnessPolicy.uniform(1e-2),
                  SamplingLaw(p, seed=7), SolverConfig(method="cg"),
                  max_block_updates=3000, stagnation_window=10**9)
    draws = np.random.default_rng(7)
    assert [r.block for r in res.records] == [int(draws.choice(4, p=p)) for _ in range(3000)]
    assert all(type(r.block) is int for r in res.records)


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


def test_run_rejects_a_negative_update_budget():
    obj = lasso_instance(60, 30, (10, 10, 10), 0.05, seed=0)
    with pytest.raises(ValueError, match="max_block_updates must be nonnegative, got -1"):
        icd_run(obj, np.zeros(30), InexactnessPolicy.uniform(1e-6),
                SamplingLaw.uniform(3), SolverConfig(method="prox"), max_block_updates=-1)


# ------------------------------------------------------------- budgets


def test_delta_budget_uniform_beta():
    policy = InexactnessPolicy.uniform(0.1)
    deltas = delta_budget(policy, F_k=5.0, F_star=None, n=2)
    assert np.allclose(deltas, 0.1)


def test_delta_budget_exact_case():
    deltas = delta_budget(InexactnessPolicy(), 5.0, 0.0, 2)
    assert np.allclose(deltas, 0.0)


def test_delta_budget_multiplicative():
    policy = InexactnessPolicy(alpha=0.5, beta=0.0, rule=DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE)
    deltas = delta_budget(policy, F_k=2.0, F_star=0.0, n=1)
    assert deltas[0] == pytest.approx(1.0)


def test_policy_check_requires_Fstar_for_the_multiplicative_rule():
    policy = InexactnessPolicy(alpha=0.5, beta=0.0, rule=DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE)
    policy.check((1.0,), 0.0)
    with pytest.raises(ValueError, match="multiplicative error requires a known F"):
        policy.check((1.0,), None)


def test_policy_rejects_negative_parameters():
    with pytest.raises(ValueError):
        InexactnessPolicy(alpha=-0.1, beta=0.0)
    with pytest.raises(ValueError):
        InexactnessPolicy(alpha=0.0, beta=-1.0)
    with pytest.raises(ValueError, match="per-block budgets must be nonnegative"):
        InexactnessPolicy(0.0, 0.0, DeltaRule.PER_BLOCK_LIST, (1e-6, -1.0, 1e-6))


def test_uniform_beta_policy_rejects_a_multiplicative_term():
    with pytest.raises(ValueError, match="uniform_beta rule carries no multiplicative term"):
        InexactnessPolicy(alpha=0.1, beta=1e-6)


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
    grad = obj.block_gradient(state, 0)
    v_0 = obj.model_value(state, 0, np.zeros(4), grad)
    assert obj.model_value(state, 0, t, grad) <= v_0 + 1e-12


def _wide_sparse_objective():
    # one sparse 1400x700 block of full column rank
    rng = np.random.default_rng(11)
    N = 700
    R = sp.random(N, N, density=0.01, random_state=rng)
    A = sp.vstack([sp.eye(N), R], format="csc")
    smooth = QuadraticSmooth(A, rng.standard_normal(2 * N), BlockPartition((N,)))
    return CompositeObjective(smooth)


def test_update_on_a_wide_sparse_block_exact_and_tight_cg_agree():
    # a wide sparse block keeps its factor like any other; the exact path
    # solves with it and CG applies it
    obj = _wide_sparse_objective()
    U = obj.metric.stored[0]
    assert isinstance(U, np.ndarray) and U.shape == (700, 700) and U.flags.f_contiguous
    state = obj.start(np.zeros(700))
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


@pytest.mark.parametrize("delta", [0.0, 1e-6])
def test_update_zero_regularizer_rejects_prox(delta):
    # a zero budget routes the smooth path to the exact solve; it must not
    # run exact under the name 'prox'
    rng = np.random.default_rng(3)
    obj = _consistent_objective(rng, 8, (2, 2))
    state = obj.start(rng.standard_normal(4))
    with pytest.raises(ValueError, match="method 'prox' does not fit the zero regularizer"):
        compute_update(obj, state, 0, delta, SolverConfig(method="prox"))


# -------------------------------------------------------------- icd_run


def test_run_starts_at_optimum():
    rng = np.random.default_rng(4)
    obj = _consistent_objective(rng, 10, (3, 3))
    res = icd_run(
        obj, obj.x_star, InexactnessPolicy(), SamplingLaw.uniform(2, seed=0),
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
        obj, np.array([1.0, 1.0]), InexactnessPolicy(),
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


@pytest.mark.parametrize("method", ["exact", "cg", "prox"])
def test_run_dense_A_matches_its_csc_copy(method):
    # an ndarray and a CSC copy of dense data are held alike: every block,
    # the one-column block too, as the same column-major array, multiplied
    # by the same BLAS calls, so the two runs are identical to the bit
    rng = np.random.default_rng(12)
    p = BlockPartition((3, 4, 2, 1))
    A = rng.standard_normal((16, 10))
    b = rng.standard_normal(16)
    reg = SeparableRegularizer.l1(0.1) if method == "prox" else SeparableRegularizer.zero()
    runs, held = [], []
    for data in (A, sp.csc_matrix(A)):
        obj = CompositeObjective(QuadraticSmooth(data, b, p), reg)
        assert sp.issparse(obj.smooth.A) == sp.issparse(data)
        held.append([type(Ai) for Ai in obj.smooth.blocks])
        runs.append(icd_run(
            obj, np.zeros(10), InexactnessPolicy.uniform(1e-6),
            SamplingLaw.uniform(4, seed=2), SolverConfig(method=method),
            max_block_updates=60,
        ))
    assert held[0] == held[1] == [np.ndarray] * 4
    assert len(runs[0].records) == 60 and {r.block for r in runs[0].records} == {0, 1, 2, 3}
    dense, csc = (
        ([repr(dataclasses.replace(r, wall_time_s=0.0)) for r in res.records],
         res.x.tobytes(), repr(res.F_final), res.stop_reason)
        for res in runs
    )
    assert dense == csc


def _pcg_problem():
    mat, x_star, b = generate(GeneratorSpec(n=3, M_i=60, N_i=20, ell=1, seed=3))
    smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth), F_star=0.0
    )
    factors = [inner.incomplete_cholesky(build_preconditioner(mat, i), 0.1) for i in range(3)]
    return obj, np.zeros(mat.N), factors


def test_run_pcg_builds_one_preconditioner_per_block(monkeypatch):
    # the config builds them once; runs only read them
    obj, x0, factors = _pcg_problem()
    built = []
    init = inner._TriangularPreconditioner.__init__

    def counting_init(self, L):
        built.append(L)
        init(self, L)

    monkeypatch.setattr(inner._TriangularPreconditioner, "__init__", counting_init)
    solver = SolverConfig(method="pcg", precond_factors=factors)
    assert len(built) == 3
    for _ in range(2):
        res = icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), SamplingLaw.uniform(3, seed=0),
                      solver, max_block_updates=30)
        blocks = [r.block for r in res.records]
        assert all(blocks.count(i) >= 2 for i in range(3))
    assert len(built) == 3


@pytest.mark.parametrize("method", ["exact", "cg", "pcg"])
def test_sparse_product_blocks_certify_every_update_and_never_raise_F(method):
    # the criterion-9 shape at small scale: every block applies B_i as
    # A_i^T (A_i t), while the exact solve still reads the kept factor
    mat, x_star, b = generate(GeneratorSpec(n=3, M_i=200, N_i=50, ell=1, seed=3))
    smooth = QuadraticSmooth(mat.assemble(), b, mat.partition)
    obj = CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth), F_star=0.0, x_star=x_star
    )
    assert all(pair is not None for pair in obj.metric.sparse)
    if method == "pcg":
        factors = [inner.incomplete_cholesky(build_preconditioner(mat, i), 0.1) for i in range(3)]
        solver = SolverConfig(method="pcg", precond_factors=factors)
    else:
        solver = SolverConfig(method=method)
    res = icd_run(obj, np.zeros(mat.N), InexactnessPolicy.uniform(1e-8),
                  SamplingLaw.uniform(3, seed=0), solver, eps=1e-6, max_block_updates=300)
    assert res.stop_reason == "eps"
    F = [0.5 * float(b @ b)] + [r.F for r in res.records]
    assert all(later <= earlier for earlier, later in zip(F, F[1:]))
    assert not any(r.vacuous_fallback for r in res.records)
    assert all(r.certificate <= r.delta for r in res.records if r.inner_converged)


def _prox_problem():
    obj = lasso_instance(60, 30, (10, 10, 10), 0.05, seed=0)
    return obj, np.zeros(30), SolverConfig(method="prox")


def _pcg_solver_problem():
    obj, x0, factors = _pcg_problem()
    return obj, x0, SolverConfig(method="pcg", precond_factors=factors)


@pytest.mark.parametrize("problem", [_pcg_solver_problem, _prox_problem], ids=["pcg", "prox"])
def test_run_repetitions_sharing_a_solver_are_identical(problem):
    # pcg shares the config's preconditioners, prox the metric's step constants
    obj, x0, solver = problem()
    law = SamplingLaw.uniform(3, seed=0)

    def go():
        return icd_run(obj, x0, InexactnessPolicy.uniform(1e-2), law, solver,
                       eps=1e-6, max_block_updates=2000)

    r1, r2 = go(), go()
    assert np.array_equal(r1.x, r2.x)
    strip = [dataclasses.replace(r, wall_time_s=0.0) for r in r1.records]
    assert strip == [dataclasses.replace(r, wall_time_s=0.0) for r in r2.records]


def test_solver_config_checks_its_choices_when_built():
    _, _, factors = _pcg_problem()
    with pytest.raises(ValueError, match="unknown inner solver 'foo'"):
        SolverConfig(method="foo")
    with pytest.raises(ValueError, match="pcg requires preconditioner factors"):
        SolverConfig(method="pcg")
    with pytest.raises(ValueError, match="lower triangular"):
        SolverConfig(method="pcg", precond_factors=[factors[0], factors[1].T, factors[2]])
    with pytest.raises(ValueError, match="rigorous cg requires lambda_min estimates"):
        SolverConfig(method="cg", rigorous=True)
    with pytest.raises(ValueError, match=r"all positive; got \[1.0, 0.0\]"):
        SolverConfig(method="cg", rigorous=True, lambda_min_estimates=[1.0, 0.0])
    # a cap below one would end every inner solve at t = 0, unconverged
    for method, cap in (("cg", 0), ("prox", -5)):
        with pytest.raises(ValueError, match=f"max_inner_iters must be at least 1, got {cap}"):
            SolverConfig(method=method, max_inner_iters=cap)


def test_run_rejects_per_block_solver_lists_of_another_length():
    obj, x0, factors = _pcg_problem()
    law = SamplingLaw.uniform(3)
    short = SolverConfig(method="pcg", precond_factors=factors[:2])
    with pytest.raises(ValueError, match="solver has 2 preconditioners but the partition has 3"):
        icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), law, short)
    long = SolverConfig(method="cg", rigorous=True, lambda_min_estimates=[1.0] * 4)
    with pytest.raises(ValueError, match="solver has 4 lambda_min_estimates but the partition"):
        icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), law, long)


def test_run_exact_factors_no_block(monkeypatch):
    # B_i is fixed for the run: each block's Cholesky factor is formed once,
    # with the metric, and an exact update only solves with it, however wide
    generated, x0, _ = _pcg_problem()
    problems = [(generated, x0), (_wide_sparse_objective(), np.zeros(700))]
    factored = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            factored.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # scipy's cholesky and cho_factor both factor through _cholesky, under
    # whatever name a caller imported them
    cholesky_module = scipy.linalg._decomp_cholesky
    monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky))
    monkeypatch.setattr(cholesky_module, "_cholesky", counting(cholesky_module._cholesky))
    for obj, x0 in problems:
        n = obj.partition.n
        res = icd_run(obj, x0, InexactnessPolicy(), SamplingLaw.uniform(n, seed=0),
                      SolverConfig(method="exact"), max_block_updates=30,
                      stagnation_window=100)
        assert res.block_updates == 30
        assert all(r.certificate_mode == "residual_squared" for r in res.records)
    assert factored == []


def test_run_evaluates_one_gradient_and_one_model_value_per_update(monkeypatch):
    # the vacuous guard goes through model_value with the update's gradient
    obj, x0, _ = _pcg_problem()
    calls = {"grad": 0, "model": 0}
    block_gradient, model_value = CompositeObjective.block_gradient, CompositeObjective.model_value

    def counting_gradient(self, state, i):
        calls["grad"] += 1
        return block_gradient(self, state, i)

    def counting_model(self, state, i, t, grad=None):
        assert grad is not None
        calls["model"] += 1
        return model_value(self, state, i, t, grad)

    monkeypatch.setattr(CompositeObjective, "block_gradient", counting_gradient)
    monkeypatch.setattr(CompositeObjective, "model_value", counting_model)
    res = icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), SamplingLaw.uniform(3, seed=0),
                  SolverConfig(method="cg"), max_block_updates=30)
    assert res.block_updates == 30
    assert calls == {"grad": 30, "model": 30}


def test_records_carry_inner_convergence():
    obj, x0, _ = _pcg_problem()
    law = SamplingLaw.uniform(3, seed=0)
    capped = icd_run(obj, x0, InexactnessPolicy.uniform(1e-12), law,
                     SolverConfig(method="cg", max_inner_iters=2), max_block_updates=6)
    assert not any(r.inner_converged for r in capped.records)
    full = icd_run(obj, x0, InexactnessPolicy.uniform(1e-12), law,
                   SolverConfig(method="cg"), max_block_updates=6)
    assert all(r.inner_converged for r in full.records)


def test_a_stalled_prox_solve_ends_at_its_fixed_point_not_at_the_cap():
    # the multiplicative rule at beta = 0 drives delta below the prox gap's
    # rounding floor as F nears F*, and update 69's solve stalls there (the
    # run raises at update 73, once delta is 0). Up to update 70 the run
    # stops on its budget, each stalled solve ending at its fixed point
    obj, x0, solver = _prox_problem()
    policy = InexactnessPolicy(0.5, 0.0, DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE)
    res = icd_run(obj, x0, policy, SamplingLaw.uniform(3, seed=0), solver, max_block_updates=70)
    assert res.stop_reason == "budget"
    stalled = [r for r in res.records if not r.inner_converged]
    assert stalled and res.unconverged_inner == len(stalled)
    assert all(r.inner_iterations < solver.max_inner_iters for r in stalled)
    assert res.inner_iterations < 1000


def test_run_budget_exhaustion_flagged():
    rng = np.random.default_rng(7)
    obj = _consistent_objective(rng, 20, (5, 5))
    res = icd_run(
        obj, rng.standard_normal(10), InexactnessPolicy(),
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
        icd_run(obj, np.zeros(4), InexactnessPolicy(), SamplingLaw.uniform(2), eps=0.1)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
def test_run_refuses_an_eps_that_is_not_positive_and_finite(eps, monkeypatch):
    # refused before the first update, not run to the end of its budget
    obj = lasso_instance(60, 30, (10, 10, 10), lam=0.05)
    monkeypatch.setattr(core, "compute_update", lambda *a: pytest.fail("an update ran"))
    with pytest.raises(ValueError, match="eps must be a positive finite number"):
        icd_run(obj, np.zeros(30), InexactnessPolicy.uniform(1e-6), SamplingLaw.uniform(3),
                SolverConfig(method="prox"), eps=eps, max_block_updates=300)


def test_run_stagnation_stop_without_eps():
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(
        obj, rng.standard_normal(7), InexactnessPolicy(),
        SamplingLaw.uniform(2, seed=2), SolverConfig(method="exact"),
        max_block_updates=5000,
    )
    assert res.converged  # stagnation at the solution counts as done
    assert res.stop_reason == "stagnated"
    assert res.F_final < 1e-10


def test_run_stops_at_eps():
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(obj, rng.standard_normal(7), InexactnessPolicy(),
                  SamplingLaw.uniform(2, seed=2), SolverConfig(method="exact"),
                  eps=1e-6, max_block_updates=5000)
    assert res.converged and res.stop_reason == "eps"
    assert res.F_final < 1e-6 <= res.records[-2].F
    at_start = icd_run(obj, obj.x_star, InexactnessPolicy(), SamplingLaw.uniform(2),
                       eps=1e-6)
    assert at_start.stop_reason == "eps" and not at_start.records


def test_run_stops_when_the_update_budget_runs_out():
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    res = icd_run(obj, rng.standard_normal(7), InexactnessPolicy(),
                  SamplingLaw.uniform(2, seed=2), SolverConfig(method="exact"),
                  eps=1e-300, max_block_updates=7)
    assert not res.converged and res.stop_reason == "budget"
    assert res.block_updates == 7


@pytest.mark.parametrize(
    "length, budget, eps_on_last, reason, updates",
    [
        (5, 100, False, "order_exhausted", 5),
        (5, 0, False, "budget", 0),
        (5, 5, False, "budget", 5),
        (core._DRAW_BATCH, 2000, False, "order_exhausted", core._DRAW_BATCH),
        (5, 4, True, "eps", 4),
    ],
    ids=["order-runs-out", "zero-budget", "order-as-long-as-budget",
         "order-of-one-draw-batch", "eps-on-the-last-update"],
)
def test_run_stops_when_the_fixed_order_runs_out(length, budget, eps_on_last, reason, updates):
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    x0 = rng.standard_normal(7)
    order = tuple((1, 0, 0, 1, 1)[k % 5] for k in range(length))
    law = SamplingLaw.uniform(2, fixed_order=order)
    eps = 1e-300
    if eps_on_last:
        # an eps between the last two values F takes without one
        F = [r.F for r in icd_run(obj, x0, InexactnessPolicy(), law,
                                  SolverConfig(method="exact"), eps=eps,
                                  max_block_updates=budget).records]
        assert F[-1] < F[-2]
        eps = 0.5 * (F[-2] + F[-1])
    res = icd_run(obj, x0, InexactnessPolicy(), law,
                  SolverConfig(method="exact"), eps=eps, max_block_updates=budget)
    assert res.stop_reason == reason and res.converged == (reason == "eps")
    assert [r.block for r in res.records] == list(order[:updates])


@pytest.mark.parametrize(
    "policy, calls",
    [
        (InexactnessPolicy.uniform(1e-6), 1),
        (InexactnessPolicy(0.0, 1e-5, DeltaRule.PER_BLOCK_LIST, (1e-6, 1e-5)), 1),
        (InexactnessPolicy(0.1, 1e-6, DeltaRule.MULTIPLICATIVE_PLUS_ADDITIVE), 40),
    ],
)
def test_run_calls_delta_budget_once_unless_it_tracks_F(monkeypatch, policy, calls):
    rng = np.random.default_rng(9)
    obj = _consistent_objective(rng, 14, (3, 4))
    seen = []

    def counted(*args):
        seen.append(args)
        return delta_budget(*args)

    monkeypatch.setattr(core, "delta_budget", counted)
    res = icd_run(obj, rng.standard_normal(7), policy, SamplingLaw.uniform(2, seed=2),
                  SolverConfig(method="cg"), eps=1e-300, max_block_updates=40)
    assert res.block_updates == 40
    assert len(seen) == calls


def test_per_block_budget_is_checked_before_the_first_update(monkeypatch):
    # a fixed list cannot shrink with F, so it takes no alpha, and its
    # delta_bar = 5.8e-6 must not exceed beta, whether or not F* is known
    with pytest.raises(ValueError, match="per_block_list rule carries no multiplicative term"):
        InexactnessPolicy(0.1, 1e-9, DeltaRule.PER_BLOCK_LIST, (1e-6, 1e-5, 2e-6))
    rng = np.random.default_rng(1)
    p = BlockPartition((10, 10, 10))
    A = rng.standard_normal((60, 30))
    x_star = rng.standard_normal(30)
    smooth = QuadraticSmooth(sp.csc_matrix(A), A @ x_star, p)
    law = SamplingLaw((0.2, 0.5, 0.3), seed=4)
    updates = []
    update = core.compute_update
    monkeypatch.setattr(core, "compute_update", lambda *a: updates.append(1) or update(*a))
    for F_star in (0.0, None):
        obj = CompositeObjective(smooth, F_star=F_star)
        for per_block, error in [((1e-6, 1e-5, 2e-6), r"delta_bar 5\.8.*e-06 exceeds beta 1e-09"),
                                 ((1e-6, 1e-5), "has 2 entries for 3 blocks")]:
            policy = InexactnessPolicy(0.0, 1e-9, DeltaRule.PER_BLOCK_LIST, per_block)
            with pytest.raises(ValueError, match=error):
                icd_run(obj, np.ones(30), policy, law, SolverConfig(method="cg"))
    assert updates == []
    obj = CompositeObjective(smooth, F_star=0.0, x_star=x_star)
    policy = InexactnessPolicy(0.0, 5.8e-6, DeltaRule.PER_BLOCK_LIST, (1e-6, 1e-5, 2e-6))
    res = icd_run(obj, np.ones(30), policy, law, SolverConfig(method="cg"), eps=1e-6)
    assert res.stop_reason == "eps" and len(updates) == res.block_updates > 0


def test_vacuous_guard_keeps_x_when_the_step_overshoots(monkeypatch):
    # on a quadratic model V(c t*) = (c^2/2 - c) <g, B^{-1} g> > 0 = V(0)
    # for any c > 2 times the exact step t*
    rng = np.random.default_rng(3)
    obj = _consistent_objective(rng, 20, (4, 3))
    x0 = rng.standard_normal(7)

    def overshoot(prob, tol, max_iters):
        t, stats = inner.solve_exact_cholesky(prob)
        return 2.5 * t, stats

    monkeypatch.setattr(core, "solve_cg", overshoot)
    res = icd_run(obj, x0, InexactnessPolicy.uniform(1e-6), SamplingLaw.uniform(2, seed=0),
                  SolverConfig(method="cg"), max_block_updates=1)
    [rec] = res.records
    assert rec.vacuous_fallback
    assert np.array_equal(res.x, x0)
    assert rec.F == res.F_final == obj.start(x0).F_value()


def test_exact_limit_cg_matches_cholesky():
    rng = np.random.default_rng(10)
    obj = _consistent_objective(rng, 16, (4, 4))
    x0 = rng.standard_normal(8)
    order = tuple(int(v) for v in np.random.default_rng(0).integers(0, 2, size=60))
    law = SamplingLaw(p=(0.5, 0.5), seed=0, fixed_order=order)
    exact = icd_run(obj, x0.copy(), InexactnessPolicy(), law,
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
