"""Inner solvers: CG, incomplete Cholesky, PCG, exact solve, l1/group prox."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_triangular

from icdkit.inner import (
    LinearSubproblem,
    SolveStats,
    StopMode,
    StopRule,
    _l1_dual_gap,
    _TriangularPreconditioner,
    estimate_operator_norm_sq,
    group_soft_threshold,
    incomplete_cholesky,
    soft_threshold,
    solve_cg,
    solve_exact_cholesky,
    solve_group_subproblem,
    solve_l1_subproblem,
    solve_pcg,
)


def _random_spd(rng, d, shift=0.1):
    M = rng.standard_normal((d + 3, d))
    return M.T @ M + shift * np.eye(d)


# ---------------------------------------------------------------- CG


def test_cg_diagonal_system():
    prob = LinearSubproblem(np.diag([2.0, 1.0]), np.array([-2.0, -1.0]))
    t, stats = solve_cg(prob, StopRule(beta=1e-28))
    assert np.allclose(t, [-1.0, -1.0], atol=1e-12)
    assert stats.iterations <= 2


def test_cg_zero_rhs():
    prob = LinearSubproblem(np.eye(3), np.zeros(3))
    t, stats = solve_cg(prob, StopRule(beta=0.0))
    assert np.array_equal(t, np.zeros(3))
    assert stats.iterations == 0


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(0)
    B = _random_spd(rng, 20)
    g = rng.standard_normal(20)
    t, stats = solve_cg(LinearSubproblem(B, g), StopRule(beta=1e-24))
    exact = np.linalg.solve(B, g)
    assert np.linalg.norm(t - exact) <= 1e-8 * np.linalg.norm(exact)
    assert stats.converged


def test_cg_negative_curvature_raises():
    B = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="not SPD"):
        solve_cg(LinearSubproblem(B, np.array([0.0, 1.0])), StopRule(beta=1e-30))


def test_cg_iteration_cap_returns_best_iterate():
    rng = np.random.default_rng(1)
    B = _random_spd(rng, 30, shift=1e-4)
    g = rng.standard_normal(30)
    t, stats = solve_cg(LinearSubproblem(B, g), StopRule(beta=1e-30, max_inner_iters=3))
    assert not stats.converged
    assert stats.iterations == 3
    assert stats.certificate == pytest.approx(0.5 * np.sum((B @ t - g) ** 2), rel=1e-8)


def test_cg_certificate_respects_threshold():
    rng = np.random.default_rng(2)
    B = _random_spd(rng, 40)
    g = rng.standard_normal(40)
    beta = 1e-6
    t, stats = solve_cg(LinearSubproblem(B, g), StopRule(beta=beta))
    assert 0.5 * np.sum((B @ t - g) ** 2) <= beta


def test_cg_rigorous_mode_tightens_threshold():
    rng = np.random.default_rng(3)
    B = _random_spd(rng, 15)
    lam_min = float(np.linalg.eigvalsh(B).min())
    g = rng.standard_normal(15)
    beta = 1e-4
    stop = StopRule(beta=beta, rigorous=True, lambda_min_estimate=lam_min)
    t, stats = solve_cg(LinearSubproblem(B, g), stop)
    # the certified residual bounds the model gap: V(t) - V(t*) <= beta
    t_star = np.linalg.solve(B, g)
    gap = 0.5 * float(t @ B @ t) - g @ t - (0.5 * float(t_star @ B @ t_star) - g @ t_star)
    assert gap <= beta + 1e-12


def test_cg_apply_only_operator():
    rng = np.random.default_rng(4)
    B = _random_spd(rng, 10)
    g = rng.standard_normal(10)
    t, _ = solve_cg(LinearSubproblem(lambda v: B @ v, g), StopRule(beta=1e-24))
    assert np.allclose(t, np.linalg.solve(B, g), rtol=1e-8)


# ------------------------------------------------- incomplete Cholesky


def test_ichol_diagonal_exact():
    L = incomplete_cholesky(sp.csc_matrix(np.diag([2.0, 1.0])), drop_tol=0.1)
    assert np.allclose(L.toarray(), np.diag([np.sqrt(2.0), 1.0]))


def test_ichol_zero_drop_is_full_cholesky():
    rng = np.random.default_rng(5)
    P = _random_spd(rng, 12)
    L = incomplete_cholesky(sp.csc_matrix(P), drop_tol=0.0).toarray()
    assert np.linalg.norm(L @ L.T - P) <= 1e-12 * np.linalg.norm(P)


def test_ichol_tridiagonal_with_drop():
    n = 20
    P = sp.diags([-np.ones(n - 1), 4 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsc()
    L = incomplete_cholesky(P, drop_tol=0.1)
    E = L @ L.T - P
    assert sp.linalg.norm(E) / sp.linalg.norm(P) < 0.5


def test_ichol_rejects_hopeless_matrix():
    # indefinite even after the allowed pivot shifts
    P = sp.csc_matrix(np.array([[1.0, 4.0], [4.0, 1.0]]))
    with pytest.raises(ValueError, match="perturbed"):
        incomplete_cholesky(P, drop_tol=0.0)


# ---------------------------------------------------------------- PCG


def test_pcg_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(6)
    B = _random_spd(rng, 10)
    L = np.linalg.cholesky(B)
    g = rng.standard_normal(10)
    t, stats = solve_pcg(LinearSubproblem(B, g), sp.csc_matrix(L), StopRule(beta=1e-20))
    assert stats.iterations <= 1
    assert np.allclose(t, np.linalg.solve(B, g), atol=1e-10)


def test_pcg_zero_rhs():
    t, stats = solve_pcg(
        LinearSubproblem(np.eye(3), np.zeros(3)),
        sp.eye(3, format="csc"),
        StopRule(beta=0.0),
    )
    assert np.array_equal(t, np.zeros(3))
    assert stats.iterations == 0


def test_pcg_matches_cg_solution():
    rng = np.random.default_rng(7)
    P = _random_spd(rng, 25)
    B = P + 0.05 * _random_spd(rng, 25, shift=0.0)
    g = rng.standard_normal(25)
    L = incomplete_cholesky(sp.csc_matrix(P), drop_tol=0.0)
    t_pcg, _ = solve_pcg(LinearSubproblem(B, g), L, StopRule(beta=1e-24))
    exact = np.linalg.solve(B, g)
    assert np.linalg.norm(t_pcg - exact) <= 1e-8 * np.linalg.norm(exact)


def test_pcg_identity_preconditioner_is_cg():
    rng = np.random.default_rng(9)
    n = 20
    prob = LinearSubproblem(_random_spd(rng, n), rng.standard_normal(n))
    stop = StopRule(beta=1e-20)
    t_cg, s_cg = solve_cg(prob, stop)
    t_pcg, s_pcg = solve_pcg(prob, sp.eye(n, format="csc"), stop)
    assert s_cg.iterations == s_pcg.iterations > 1
    assert np.allclose(t_pcg, t_cg, rtol=1e-12, atol=1e-14)
    assert s_cg.certificate == pytest.approx(s_pcg.certificate, rel=1e-10, abs=1e-30)


def test_pcg_singular_preconditioner_rejected():
    L = sp.csc_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="singular"):
        solve_pcg(LinearSubproblem(np.eye(2), np.ones(2)), L, StopRule(beta=1e-10))


def test_pcg_upper_triangular_factor_rejected():
    rng = np.random.default_rng(10)
    U = sp.csc_matrix(np.linalg.cholesky(_random_spd(rng, 6)).T)
    with pytest.raises(ValueError, match="lower triangular"):
        solve_pcg(LinearSubproblem(np.eye(6), np.ones(6)), U, StopRule(beta=1e-10))


def test_preconditioner_rejects_non_square_factor():
    with pytest.raises(ValueError, match="square"):
        _TriangularPreconditioner(sp.csc_matrix(np.ones((3, 2))))


@pytest.mark.parametrize("dense", [False, True])
def test_preconditioner_apply_matches_triangular_solves(dense):
    rng = np.random.default_rng(11)
    strict = sp.tril(sp.random(30, 30, density=0.2, random_state=rng), k=-1)
    L = sp.csc_matrix(strict + sp.diags(1.0 + rng.random(30)))
    r = rng.standard_normal(30)
    Ld = L.toarray()
    ref = solve_triangular(Ld.T, solve_triangular(Ld, r, lower=True), lower=False)
    out = _TriangularPreconditioner(Ld if dense else L).apply(r)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------- exact solves


def test_exact_cholesky_diagonal():
    t, _ = solve_exact_cholesky(np.diag([2.0, 1.0]), np.array([-2.0, -1.0]))
    assert np.allclose(t, [-1.0, -1.0])


def test_exact_cholesky_identity():
    g = np.array([3.0, -1.0, 0.5])
    t, _ = solve_exact_cholesky(np.eye(3), g)
    assert np.allclose(t, g)


def test_exact_cholesky_matches_cg():
    rng = np.random.default_rng(8)
    B = _random_spd(rng, 30)
    g = rng.standard_normal(30)
    t_chol, _ = solve_exact_cholesky(B, g)
    t_cg, _ = solve_cg(LinearSubproblem(B, g), StopRule(beta=1e-24))
    assert np.linalg.norm(t_chol - t_cg) <= 1e-8 * np.linalg.norm(t_chol)


def test_exact_cholesky_rejects_indefinite():
    with pytest.raises((ValueError, np.linalg.LinAlgError, RuntimeError)):
        solve_exact_cholesky(np.diag([1.0, -1.0]), np.ones(2))


# ------------------------------------------------------ prox operators


def test_soft_threshold():
    assert soft_threshold(0.0, 1.0) == 0.0
    assert soft_threshold(2.0, 1.0) == 1.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert np.allclose(soft_threshold(np.array([2.0, -2.0, 0.3]), 1.0), [1.0, -1.0, 0.0])


def test_group_soft_threshold():
    v = np.array([3.0, 4.0])
    assert np.allclose(group_soft_threshold(v, 2.5), v / 2.0)  # (1 - 2.5/5) v
    assert np.allclose(group_soft_threshold(v, 6.0), 0.0)


def test_operator_norm_estimate_upper_bounds():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((30, 12))
    est = estimate_operator_norm_sq(A)
    true = np.linalg.norm(A, 2) ** 2
    assert true <= est <= 1.2 * true


# ----------------------------------------------------- l1 subproblem


def test_l1_scalar_case():
    # min 1/2 (t + 1)^2 + 0.5 |t|: optimum at soft_threshold(-1, 0.5) = -0.5
    t, stats = solve_l1_subproblem(
        np.array([[1.0]]), np.array([1.0]), np.array([0.0]), lam=0.5, beta=1e-14
    )
    assert t[0] == pytest.approx(-0.5, abs=1e-6)
    assert stats.certificate <= 1e-14


def test_l1_gap_zero_at_optimum():
    # place y exactly at the known scalar optimum and check the gap
    Ai = np.array([[1.0]])
    gap = _l1_dual_gap(Ai, c=np.array([-1.0]), y=np.array([-0.5]), lam=0.5)
    assert 0.0 <= gap <= 1e-12


def test_l1_matches_long_reference_run():
    rng = np.random.default_rng(10)
    Ai = rng.standard_normal((20, 8))
    r = rng.standard_normal(20)
    x_i = rng.standard_normal(8)
    lam = 0.1

    def objective(t):
        return 0.5 * np.sum((Ai @ t + r) ** 2) + lam * np.sum(np.abs(x_i + t))

    t, stats = solve_l1_subproblem(Ai, r, x_i, lam, beta=1e-10)
    # independent long-run proximal gradient reference
    L = np.linalg.norm(Ai, 2) ** 2
    y = x_i.copy()
    c = Ai @ x_i - r
    for _ in range(100_000):
        y = soft_threshold(y - (Ai.T @ (Ai @ y - c)) / L, lam / L)
    ref = objective(y - x_i)
    assert objective(t) <= ref + 1e-8 * (1 + abs(ref))
    assert stats.certificate <= 1e-10


def test_l1_gap_nonnegative_along_iterates():
    rng = np.random.default_rng(11)
    Ai = rng.standard_normal((15, 6))
    c = rng.standard_normal(15)
    lam = 0.2
    L = np.linalg.norm(Ai, 2) ** 2
    y = np.zeros(6)
    for _ in range(200):
        gap = _l1_dual_gap(Ai, c, y, lam)
        assert gap >= -1e-12
        y = soft_threshold(y - (Ai.T @ (Ai @ y - c)) / L, lam / L)


def test_l1_iteration_cap_flags_not_converged():
    rng = np.random.default_rng(12)
    Ai = rng.standard_normal((20, 10))
    t, stats = solve_l1_subproblem(
        Ai, rng.standard_normal(20), np.zeros(10), lam=0.01, beta=1e-16, max_iters=2
    )
    assert not stats.converged


# ------------------------------------------------ group subproblem


@pytest.mark.parametrize("tau", [0.3, 50.0])
def test_group_identity_operator_is_group_soft_threshold(tau):
    # with A_i = I: min_y 1/2||y - c||^2 + tau||y||_2 with c = x_i - r
    rng = np.random.default_rng(13)
    r = rng.standard_normal(6)
    x_i = rng.standard_normal(6)
    beta = 1e-12
    t, stats = solve_group_subproblem(np.eye(6), r, x_i, tau, beta, lipschitz=1.0)
    expected = group_soft_threshold(x_i - r, tau)
    assert np.allclose(x_i + t, expected, rtol=0.0, atol=1e-10)
    assert stats.converged
    assert stats.certificate <= beta
    assert stats.mode is StopMode.DUALITY_GAP


def test_group_validates_tau_and_beta():
    with pytest.raises(ValueError, match="tau must be positive"):
        solve_group_subproblem(np.eye(2), np.ones(2), np.zeros(2), 0.0, 1e-6)
    with pytest.raises(ValueError, match="beta must be positive"):
        solve_group_subproblem(np.eye(2), np.ones(2), np.zeros(2), 0.1, 0.0)


def test_stop_rule_rigorous_requires_estimate():
    with pytest.raises(ValueError):
        StopRule(beta=1.0, rigorous=True).residual_threshold()
