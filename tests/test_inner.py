"""Inner solvers: CG, incomplete Cholesky, PCG, exact solve, l1/group prox."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_solve, solve_triangular

from icdkit import block_angular, inner
from icdkit.blocks import BlockMetric, BlockPartition
from icdkit.inner import (
    LinearSubproblem,
    SolveStats,
    StopMode,
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
from icdkit.objective import QuadraticSmooth, quadratic_metric
from icdkit.synthetic import lasso_instance


CAP = 10_000  # SolverConfig's default inner iteration cap


def _random_spd(rng, d, shift=0.1):
    M = rng.standard_normal((d + 3, d))
    return M.T @ M + shift * np.eye(d)


def _metric(B):
    """A one-block metric for B: its upper Cholesky factor."""
    return BlockMetric([np.linalg.cholesky(B).T])


def _system(B, g):
    return LinearSubproblem(_metric(B), 0, g)


def _prox_args(A, r):
    """Block model of 1/2||A t + r||^2 as the prox solvers read it, and f_x = 1/2||r||^2."""
    return _system(A.T @ A, -A.T @ r), 0.5 * float(r @ r)


# ---------------------------------------------------------------- CG


def test_cg_diagonal_system():
    prob = _system(np.diag([2.0, 1.0]), np.array([-2.0, -1.0]))
    t, stats = solve_cg(prob, 1e-28, CAP)
    assert np.allclose(t, [-1.0, -1.0], atol=1e-12)
    assert stats.iterations <= 2


def test_cg_zero_rhs():
    prob = _system(np.eye(3), np.zeros(3))
    t, stats = solve_cg(prob, 0.0, CAP)
    assert np.array_equal(t, np.zeros(3))
    assert stats.iterations == 0


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(0)
    B = _random_spd(rng, 20)
    g = rng.standard_normal(20)
    t, stats = solve_cg(_system(B, g), 1e-24, CAP)
    exact = np.linalg.solve(B, g)
    assert np.linalg.norm(t - exact) <= 1e-8 * np.linalg.norm(exact)
    assert stats.converged


def test_cg_negative_curvature_raises():
    # a singular factor: B = diag(1, 0) has zero curvature along e_2
    metric = BlockMetric([np.asfortranarray(np.diag([1.0, 0.0]))])
    with pytest.raises(ValueError, match="not SPD"):
        solve_cg(LinearSubproblem(metric, 0, np.array([0.0, 1.0])), 1e-30, CAP)


def test_cg_iteration_cap_returns_best_iterate():
    rng = np.random.default_rng(1)
    B = _random_spd(rng, 30, shift=1e-4)
    g = rng.standard_normal(30)
    t, stats = solve_cg(_system(B, g), 1e-30, 3)
    assert not stats.converged
    assert stats.iterations == 3
    assert stats.certificate == pytest.approx(0.5 * np.sum((B @ t - g) ** 2), rel=1e-8)


def test_cg_certificate_respects_threshold():
    rng = np.random.default_rng(2)
    B = _random_spd(rng, 40)
    g = rng.standard_normal(40)
    beta = 1e-6
    t, stats = solve_cg(_system(B, g), beta, CAP)
    assert 0.5 * np.sum((B @ t - g) ** 2) <= beta


def test_cg_rigorous_mode_tightens_threshold():
    rng = np.random.default_rng(3)
    B = _random_spd(rng, 15)
    lam_min = float(np.linalg.eigvalsh(B).min())
    g = rng.standard_normal(15)
    beta = 1e-4
    # the rigorous tolerance beta * lambda_min(B), which compute_update sets
    t, stats = solve_cg(_system(B, g), beta * lam_min, CAP)
    # the certified residual bounds the model gap: V(t) - V(t*) <= beta
    t_star = np.linalg.solve(B, g)
    gap = 0.5 * float(t @ B @ t) - g @ t - (0.5 * float(t_star @ B @ t_star) - g @ t_star)
    assert gap <= beta + 1e-12


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


def test_ichol_shifts_up_to_the_mean_diagonal():
    # well conditioned (condition number 414), yet at drop_tol 0.1 every
    # shift below the mean diagonal leaves a nonpositive pivot
    rng = np.random.default_rng(11)
    M = rng.standard_normal((33, 30))
    P = M.T @ M + 0.1 * np.eye(30)
    L = incomplete_cholesky(sp.csc_matrix(P), drop_tol=0.1)
    assert np.all(L.diagonal() > 0)
    assert L[0, 0] > np.sqrt(P[0, 0])  # it factored P + shift*I, shift > 0
    g = rng.standard_normal(30)
    t, stats = solve_pcg(_system(P, g), _TriangularPreconditioner(L), 1e-20, CAP)
    assert stats.converged
    assert np.allclose(t, np.linalg.solve(P, g), rtol=1e-8)


def test_ichol_sums_duplicate_entries():
    # P = [[4, 1], [1, 3]] with its (1, 0) entry stored as 0.5 + 0.5
    P = sp.csc_matrix(
        (np.array([4.0, 0.5, 0.5, 1.0, 3.0]), np.array([0, 1, 1, 0, 1]), np.array([0, 3, 5])),
        shape=(2, 2),
    )
    L = incomplete_cholesky(P, drop_tol=0.0)
    assert L[1, 0] == 0.5
    assert np.allclose((L @ L.T).toarray(), [[4.0, 1.0], [1.0, 3.0]], rtol=0, atol=1e-15)
    assert P.nnz == 5  # the caller's matrix is left as it was


@pytest.mark.parametrize("drop_tol", [-0.1, float("nan")])
def test_ichol_rejects_a_negative_or_nan_drop_tol(drop_tol):
    with pytest.raises(ValueError, match="drop_tol"):
        incomplete_cholesky(sp.eye(3, format="csc"), drop_tol)


def _reference_ichol(P, drop_tol):
    """The dense-scratch left-looking sweep that incomplete_cholesky replaced:
    O(dim) work per column, the same drop rule and shift restarts."""
    P = sp.csc_matrix(P)
    n = P.shape[0]
    base_shift = 1e-4 * P.diagonal().sum() / n
    for shift in [0.0] + [base_shift * (10.0**e) for e in range(5)]:
        L = _reference_attempt(P, n, drop_tol, shift)
        if L is not None:
            return L
    raise ValueError("broke down")


def _reference_attempt(P, n, drop_tol, shift):
    col_idx, col_val = [], []
    row_map = [[] for _ in range(n)]  # row_map[i] lists (k, L[i, k]) for finished k
    w = np.zeros(n)
    for j in range(n):
        lo, hi = P.indptr[j], P.indptr[j + 1]
        rows, vals = P.indices[lo:hi], P.data[lo:hi]
        col_norm = float(np.linalg.norm(vals))
        keep = rows >= j
        w[rows[keep]] = vals[keep]
        if shift:
            w[j] += shift
        for k, ljk in row_map[j]:
            idx = col_idx[k]
            sub = idx >= j
            w[idx[sub]] -= ljk * col_val[k][sub]
        pivot = w[j]
        if pivot <= 0:
            return None
        diag = np.sqrt(pivot)
        below = np.flatnonzero(w)
        below = below[below > j]
        if drop_tol > 0 and below.size:
            below = below[np.abs(w[below]) >= drop_tol * col_norm]
        idx = np.concatenate([[j], below]).astype(np.int64)
        val = np.empty(idx.size)
        val[0] = diag
        val[1:] = w[below] / diag
        w[rows[keep]] = 0.0
        w[j] = 0.0
        for k, _ in row_map[j]:
            w[col_idx[k]] = 0.0
        col_idx.append(idx)
        col_val.append(val)
        for pos in range(1, idx.size):
            row_map[idx[pos]].append((j, val[pos]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([ix.size for ix in col_idx])
    return sp.csc_matrix((np.concatenate(col_val), np.concatenate(col_idx), indptr), shape=(n, n))


@functools.cache
def _block_angular_P(M_i, N_i, n=1, shape="tall"):
    mat, _, _ = block_angular.generate(
        block_angular.GeneratorSpec(n=n, M_i=M_i, N_i=N_i, ell=1, shape=shape, seed=3)
    )
    return [block_angular.build_preconditioner(mat, i) for i in range(n)]


def _oracle_matrix(name, i):
    """Oracle case name's i-th matrix, built when its test runs."""
    if name == "bench-shape":
        return _block_angular_P(2000, 500)[i]
    if name == "tiny":
        return _block_angular_P(200, 50, n=3)[i]
    if name == "wide-shifted":
        return _block_angular_P(30, 50, n=2, shape="wide")[i]
    if name == "33x30-shift-restarts":
        # the factor of test_ichol_shifts_up_to_the_mean_diagonal
        M = np.random.default_rng(11).standard_normal((33, 30))
        return sp.csc_matrix(M.T @ M + 0.1 * np.eye(30))
    if name == "spd":
        return sp.csc_matrix(_random_spd(np.random.default_rng(5), 40))
    if name == "stored-zero":
        # [[4, 0, 1], [0, 3, 0], [1, 0, 2]] with both zeros stored
        data, rows = [4.0, 0.0, 1.0, 0.0, 3.0, 1.0, 2.0], [0, 1, 2, 0, 1, 0, 2]
        return sp.csc_matrix((data, rows, [0, 3, 5, 7]), shape=(3, 3))
    assert name == "exact-zero"
    # L L^T with L = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]: L_21 cancels to exactly 0
    return sp.csc_matrix([[1.0, 1, 1], [1, 2, 1], [1, 1, 2]])


_ORACLE_CASES = [
    ("bench-shape", 0, 0.1),
    *[("tiny", i, drop_tol) for drop_tol in (0.0, 0.1, 0.3) for i in range(3)],
    ("wide-shifted", 0, 0.1),
    ("wide-shifted", 1, 0.1),
    ("33x30-shift-restarts", 0, 0.1),
    ("spd", 0, 0.0),
    ("stored-zero", 0, 0.0),
    ("exact-zero", 0, 0.0),
]


@pytest.mark.parametrize("name, i, drop_tol", _ORACLE_CASES)
def test_ichol_matches_the_dense_scratch_sweep_to_the_bit(name, i, drop_tol):
    P = _oracle_matrix(name, i)
    L, R = incomplete_cholesky(P, drop_tol), _reference_ichol(P, drop_tol)
    assert np.array_equal(L.indptr, R.indptr)
    assert np.array_equal(L.indices, R.indices)
    assert np.array_equal(L.data, R.data)


# ---------------------------------------------------------------- PCG


def test_pcg_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(6)
    B = _random_spd(rng, 10)
    L = np.linalg.cholesky(B)
    g = rng.standard_normal(10)
    t, stats = solve_pcg(_system(B, g), _TriangularPreconditioner(L), 1e-20, CAP)
    assert stats.iterations <= 1
    assert np.allclose(t, np.linalg.solve(B, g), atol=1e-10)


def test_pcg_zero_rhs():
    identity = _TriangularPreconditioner(sp.eye(3, format="csc"))
    t, stats = solve_pcg(_system(np.eye(3), np.zeros(3)), identity, 0.0, CAP)
    assert np.array_equal(t, np.zeros(3))
    assert stats.iterations == 0


def test_pcg_matches_cg_solution():
    rng = np.random.default_rng(7)
    P = _random_spd(rng, 25)
    B = P + 0.05 * _random_spd(rng, 25, shift=0.0)
    g = rng.standard_normal(25)
    L = incomplete_cholesky(sp.csc_matrix(P), drop_tol=0.0)
    t_pcg, _ = solve_pcg(_system(B, g), _TriangularPreconditioner(L), 1e-24, CAP)
    exact = np.linalg.solve(B, g)
    assert np.linalg.norm(t_pcg - exact) <= 1e-8 * np.linalg.norm(exact)


def test_pcg_identity_preconditioner_is_cg():
    rng = np.random.default_rng(9)
    n = 20
    prob = _system(_random_spd(rng, n), rng.standard_normal(n))
    t_cg, s_cg = solve_cg(prob, 1e-20, CAP)
    identity = _TriangularPreconditioner(sp.eye(n, format="csc"))
    t_pcg, s_pcg = solve_pcg(prob, identity, 1e-20, CAP)
    assert s_cg.iterations == s_pcg.iterations > 1
    assert np.allclose(t_pcg, t_cg, rtol=1e-12, atol=1e-14)
    assert s_cg.certificate == pytest.approx(s_pcg.certificate, rel=1e-10, abs=1e-30)


def test_pcg_singular_preconditioner_rejected():
    L = sp.csc_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="singular"):
        _TriangularPreconditioner(L)


def test_pcg_upper_triangular_factor_rejected():
    rng = np.random.default_rng(10)
    U = sp.csc_matrix(np.linalg.cholesky(_random_spd(rng, 6)).T)
    with pytest.raises(ValueError, match="lower triangular"):
        _TriangularPreconditioner(U)


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
    t, _ = solve_exact_cholesky(_system(np.diag([2.0, 1.0]), np.array([-2.0, -1.0])))
    assert np.allclose(t, [-1.0, -1.0])


def test_exact_cholesky_identity():
    g = np.array([3.0, -1.0, 0.5])
    t, _ = solve_exact_cholesky(_system(np.eye(3), g))
    assert np.allclose(t, g)


def test_exact_cholesky_matches_cg():
    rng = np.random.default_rng(8)
    B = _random_spd(rng, 30)
    g = rng.standard_normal(30)
    t_chol, _ = solve_exact_cholesky(_system(B, g))
    t_cg, _ = solve_cg(_system(B, g), 1e-24, CAP)
    assert np.linalg.norm(t_chol - t_cg) <= 1e-8 * np.linalg.norm(t_chol)


@pytest.mark.parametrize("kind", ["dense", "sparse", "rank_deficient"])
def test_exact_cholesky_equals_cho_solve_on_the_kept_factor(kind):
    rng = np.random.default_rng(12)
    A = rng.standard_normal((60, 10))
    if kind == "rank_deficient":
        A[:, 1] = A[:, 0]  # the metric keeps the factor of A^T A + eps I
    data = sp.csc_matrix(A) if kind == "sparse" else A
    metric = quadratic_metric(QuadraticSmooth(data, np.zeros(60), BlockPartition((10,))))
    g = rng.standard_normal(10)
    t, _ = solve_exact_cholesky(LinearSubproblem(metric, 0, g))
    assert np.array_equal(t, cho_solve((metric.stored[0], False), g))


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


def test_lambda_min_estimate_errs_high_and_is_capped():
    rng = np.random.default_rng(9)
    B = _random_spd(rng, 12)
    U = np.asfortranarray(np.linalg.cholesky(B).T)
    lam = np.linalg.eigvalsh(B)
    mu = inner.estimate_lambda_min(U, np.inf)
    assert lam[0] * (1 - 1e-10) <= mu <= 1.01 * lam[0]
    assert inner.estimate_lambda_min(U, 0.5 * lam[0]) == 0.5 * lam[0]
    # a zero on U's diagonal is a singular factor
    assert inner.estimate_lambda_min(np.zeros((3, 3), order="F"), 1.0) == 0.0


# ----------------------------------------------------- l1 subproblem


def test_l1_scalar_case():
    # min 1/2 (t + 1)^2 + 0.5 |t|: optimum at soft_threshold(-1, 0.5) = -0.5
    prob, f_x = _prox_args(np.array([[1.0]]), np.array([1.0]))
    t, stats = solve_l1_subproblem(prob, f_x, np.array([0.0]), 0.5, 1e-14, CAP, lipschitz=1.0)
    assert t[0] == pytest.approx(-0.5, abs=1e-6)
    assert stats.certificate <= 1e-14


def test_l1_gap_zero_at_optimum():
    # start at the scalar optimum y = -0.5 of 1/2 (y + 1)^2 + 0.5 |y|
    prob, f_x = _prox_args(np.array([[1.0]]), np.array([0.5]))
    t, stats = solve_l1_subproblem(prob, f_x, np.array([-0.5]), 0.5, 1e-12, CAP, 1.0)
    assert stats.iterations == 0 and np.array_equal(t, [0.0])
    assert 0.0 <= stats.certificate <= 1e-12


def test_l1_matches_long_reference_run():
    rng = np.random.default_rng(10)
    Ai = rng.standard_normal((20, 8))
    r = rng.standard_normal(20)
    x_i = rng.standard_normal(8)
    lam = 0.1

    def objective(t):
        return 0.5 * np.sum((Ai @ t + r) ** 2) + lam * np.sum(np.abs(x_i + t))

    prob, f_x = _prox_args(Ai, r)
    t, stats = solve_l1_subproblem(prob, f_x, x_i, lam, 1e-10, CAP, estimate_operator_norm_sq(Ai))
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
    # a cap of k returns the gap at the k-th iterate
    rng = np.random.default_rng(11)
    Ai = rng.standard_normal((15, 6))
    prob, f_x = _prox_args(Ai, rng.standard_normal(15))
    L = np.linalg.norm(Ai, 2) ** 2
    for k in range(200):
        _, stats = solve_l1_subproblem(prob, f_x, np.zeros(6), 0.2, 1e-300, k, L)
        assert stats.iterations == k
        assert stats.certificate >= -1e-12


def test_l1_iteration_cap_flags_not_converged():
    rng = np.random.default_rng(12)
    Ai = rng.standard_normal((20, 10))
    prob, f_x = _prox_args(Ai, rng.standard_normal(20))
    L = estimate_operator_norm_sq(Ai)
    t, stats = solve_l1_subproblem(prob, f_x, np.zeros(10), 0.01, 1e-16, 2, L)
    assert not stats.converged


def _l1_stall_problem():
    # the problem of test_l1_gap_nonnegative_along_iterates
    rng = np.random.default_rng(11)
    Ai = rng.standard_normal((15, 6))
    prob, f_x = _prox_args(Ai, rng.standard_normal(15))
    return prob, f_x, 0.2, np.linalg.norm(Ai, 2) ** 2


def _group_stall_problem():
    # B = I: the first step lands on group_soft_threshold(-r, tau), whose
    # gap rounds to a positive value that the next step repeats
    prob, f_x = _prox_args(np.eye(6), np.random.default_rng(2).standard_normal(6))
    return prob, f_x, 0.3, 1.0


@pytest.mark.parametrize(
    "solve, prox, problem",
    [
        (solve_l1_subproblem, soft_threshold, _l1_stall_problem),
        (solve_group_subproblem, group_soft_threshold, _group_stall_problem),
    ],
    ids=["l1", "group"],
)
def test_prox_stops_at_a_bit_exact_fixed_point(solve, prox, problem):
    # at beta = 1e-300 the gap stalls above beta at its rounding floor; the
    # solve ends below the cap, unconverged, at an iterate that one more
    # prox step returns bit for bit, with the certificate of a solve capped
    # at the reported count
    prob, f_x, weight, L = problem()
    x_i = np.zeros(prob.dim)  # so that x_i + t is the loop's iterate y
    t, stats = solve(prob, f_x, x_i, weight, 1e-300, CAP, L)
    assert 0 < stats.iterations < CAP
    assert not stats.converged and stats.certificate > 1e-300
    y, step = x_i + t, 1.0 / L
    grad = prob.apply(t) - prob.g
    assert np.array_equal(prox(y - step * grad, weight * step), y)
    t_cap, capped = solve(prob, f_x, x_i, weight, 1e-300, stats.iterations, L)
    assert np.array_equal(t_cap, t)
    assert capped.certificate == stats.certificate


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 100, 129, 1000, 4099])
def test_prox_gap_norms_equal_numpy_norm_bit_for_bit(n):
    # the prox gap's norms are the reductions np.linalg.norm runs on a
    # vector; a numpy that changes them fails here before a record moves
    rng = np.random.default_rng(n)
    vectors = [
        np.zeros(n),
        rng.standard_normal(n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n),
    ]
    for v in vectors:
        for norm, order in ((inner._norm_1, 1), (inner._norm_2, 2), (inner._norm_inf, np.inf)):
            assert norm(v) == float(np.linalg.norm(v, order)), (norm.__name__, v[:3])


class _CountingSubproblem(LinearSubproblem):
    """A LinearSubproblem that counts its products with B."""

    calls = 0

    def apply(self, t):
        self.calls += 1
        return super().apply(t)


@pytest.mark.parametrize("solve", [solve_l1_subproblem, solve_group_subproblem])
def test_prox_makes_one_product_pair_per_iterate(solve):
    # each of the k + 1 iterates takes one prob.apply, the product pair
    # U^T (U t), for its gradient, its gap and the next step
    rng = np.random.default_rng(13)
    A = rng.standard_normal((20, 8))
    r, x_i = rng.standard_normal(20), rng.standard_normal(8)
    L = np.linalg.norm(A, 2) ** 2
    prob, f_x = _prox_args(A, r)
    counting = _CountingSubproblem(prob.metric, 0, prob.g)
    t, stats = solve(counting, f_x, x_i, 0.1, 1e-10, CAP, L)
    k = stats.iterations
    assert k > 1
    assert counting.calls == k + 1
    assert np.array_equal(t, solve(prob, f_x, x_i, 0.1, 1e-10, CAP, L)[0])


@pytest.mark.parametrize("solve", [solve_l1_subproblem, solve_group_subproblem])
def test_prox_without_mu_steps_at_one_over_lipschitz_to_the_bit(solve):
    # mu defaults to lipschitz, and 2/(L + L) is 1/L exactly: the iterate
    # and gap after every number of steps equal those of mu = lipschitz
    rng = np.random.default_rng(15)
    A = rng.standard_normal((20, 8))
    r, x_i = rng.standard_normal(20), rng.standard_normal(8)
    L = estimate_operator_norm_sq(A)
    prob, f_x = _prox_args(A, r)
    for cap in range(40):
        t, stats = solve(prob, f_x, x_i, 0.1, 1e-12, cap, L)
        t_mu, stats_mu = solve(prob, f_x, x_i, 0.1, 1e-12, cap, L, mu=L)
        assert np.array_equal(t, t_mu)
        assert (stats.iterations, stats.certificate) == (stats_mu.iterations, stats_mu.certificate)


def test_prox_step_floors_mu_at_a_third_of_lipschitz():
    assert inner.prox_step(3.0) == 1.0 / 3.0
    assert inner.prox_step(3.0, 3.0) == 1.0 / 3.0
    assert inner.prox_step(3.0, 1.5) == 2.0 / 4.5
    # below lipschitz/3 the step stays at 1.5/lipschitz
    assert inner.prox_step(3.0, 1.0) == inner.prox_step(3.0, 1e-8) == inner.prox_step(3.0, 0.0)
    assert inner.prox_step(3.0, 0.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("solve", [solve_l1_subproblem, solve_group_subproblem])
def test_prox_converges_on_a_rank_shifted_block_with_lipschitz_five_percent_low(solve):
    # a wide block keeps B = A^T A + eps I, so its mu is near 0: an unfloored
    # step 2/(mu + L) would be near 2/L, past 2/||B|| with L = 0.95 ||B||,
    # and diverge. The floored step, 1.5/L, still converges
    rng = np.random.default_rng(16)
    A = rng.standard_normal((6, 10))
    smooth = QuadraticSmooth(A, np.zeros(6), BlockPartition((10,)))
    metric = quadratic_metric(smooth)
    mu, _ = metric.prox_constants(0)
    B = metric.operators[0]
    norm = np.linalg.eigvalsh(B)[-1]
    assert mu < 1e-6 * norm
    L = 0.95 * norm
    assert 2.0 / (mu + L) * norm > 2.0
    r = rng.standard_normal(6)
    prob = LinearSubproblem(metric, 0, -(A.T @ r))
    t, stats = solve(prob, 0.5 * float(r @ r), np.zeros(10), 0.5, 1e-10, CAP, L, mu=mu)
    assert stats.converged and stats.certificate <= 1e-10
    assert np.all(np.isfinite(t))


def test_l1_step_with_mu_reaches_the_gap_in_fewer_steps_on_a_lasso_block():
    # lasso_instance's Gaussian blocks at 20 rows per column have
    # kappa(B_i) near 2.3: 2/(mu_i + L_i) contracts by about 0.4 a step,
    # 1/L_i by about 0.6
    obj = lasso_instance(400, 100, (20,) * 5, 0.01, seed=1)
    state = obj.start(np.zeros(100))
    prob = LinearSubproblem(obj.metric, 0, -obj.block_gradient(state, 0))
    mu, L = obj.metric.prox_constants(0)
    x_i = np.zeros(20)
    _, plain = solve_l1_subproblem(prob, state.f_value(), x_i, 0.01, 1e-8, CAP, L)
    _, fast = solve_l1_subproblem(prob, state.f_value(), x_i, 0.01, 1e-8, CAP, L, mu=mu)
    assert plain.converged and fast.converged
    assert fast.iterations < plain.iterations


def _residual_form_gap(A, r, x_i, t, weight, order, dual_order):
    """Duality gap of min_y 1/2||A y - c||^2 + weight ||y||_order, c = A x_i - r,
    at y = x_i + t: primal minus dual at s * res, from A and r."""
    y = x_i + t
    c = A @ x_i - r
    res = A @ y - c
    grad = A.T @ res
    primal = 0.5 * float(res @ res) + weight * float(np.linalg.norm(y, order))
    grad_dual = float(np.linalg.norm(grad, dual_order))
    s = 1.0 if grad_dual <= weight else weight / grad_dual
    nu = s * res
    return primal - (-0.5 * float(nu @ nu) - float(nu @ c))


@pytest.mark.parametrize(
    "solve, order, dual_order",
    [(solve_l1_subproblem, 1, np.inf), (solve_group_subproblem, 2, 2)],
    ids=["l1", "group"],
)
@pytest.mark.parametrize("cap", [0, 3, CAP])
def test_prox_certificate_is_the_residual_form_gap(solve, order, dual_order, cap):
    # the certificate, read from B = A^T A and f_x = 1/2||r||^2, equals the
    # gap recomputed from A and r in the M-long residual space
    rng = np.random.default_rng(14)
    A = rng.standard_normal((40, 8))
    r, x_i = 3.0 * rng.standard_normal(40), rng.standard_normal(8)
    weight = 0.5
    prob, f_x = _prox_args(A, r)
    t, stats = solve(prob, f_x, x_i, weight, 1e-10, cap, estimate_operator_norm_sq(A))
    gap = _residual_form_gap(A, r, x_i, t, weight, order, dual_order)
    assert abs(stats.certificate - gap) <= 1e-12 * (1.0 + f_x)


def test_l1_certificate_bounds_the_shifted_model_of_a_rank_deficient_block():
    # a duplicated column makes A^T A singular, so the metric keeps
    # B = A^T A + eps I; the certificate must bound V(t) - min V for that B,
    # the model the vacuous guard checks, not for 1/2||A t + r||^2
    rng = np.random.default_rng(1)
    A = rng.standard_normal((40, 8))
    A[:, 1] = A[:, 0]
    r, x_i = rng.standard_normal(40), rng.standard_normal(8)
    lam = 0.5
    metric = quadratic_metric(QuadraticSmooth(A, A @ x_i - r, BlockPartition((8,))))
    B, grad = metric.operators[0], A.T @ r
    eps = 1e-8 * float(np.sum(A * A)) / 8
    assert B[0, 0] - A[:, 0] @ A[:, 0] == pytest.approx(eps, rel=1e-6)
    f_x = 0.5 * float(r @ r)
    prob = LinearSubproblem(metric, 0, -grad)
    t, stats = solve_l1_subproblem(prob, f_x, x_i, lam, 1e-12, CAP, estimate_operator_norm_sq(A))
    assert stats.converged

    # min V from the optimality conditions on the support of x_i + t, checked
    y = x_i + t
    S, sign = y != 0, np.sign(y)
    t_star = -x_i.copy()
    rhs = -grad[S] - lam * sign[S] - B[np.ix_(S, ~S)] @ t_star[~S]
    t_star[S] = np.linalg.solve(B[np.ix_(S, S)], rhs)
    assert np.array_equal(np.sign((x_i + t_star)[S]), sign[S])
    assert np.all(np.abs((B @ t_star + grad)[~S]) <= lam * (1 + 1e-9))

    def V(t):
        return float(grad @ t) + 0.5 * float(t @ B @ t) + lam * float(np.abs(x_i + t).sum())

    tol = 1e-12 * (1.0 + f_x)
    assert V(t) - V(t_star) <= stats.certificate + tol
    # the certificate is the residual-form gap of the stacked factor
    # [A; sqrt(eps) I] of B, whose residual is [A t + r; sqrt(eps) t]
    stacked = np.vstack([A, np.sqrt(eps) * np.eye(8)])
    gap = _residual_form_gap(stacked, np.concatenate([r, np.zeros(8)]), x_i, t, lam, 1, np.inf)
    assert abs(stats.certificate - gap) <= tol


# ------------------------------------------------ group subproblem


@pytest.mark.parametrize("tau", [0.3, 50.0])
def test_group_identity_operator_is_group_soft_threshold(tau):
    # with A_i = I: min_y 1/2||y - c||^2 + tau||y||_2 with c = x_i - r
    rng = np.random.default_rng(13)
    r = rng.standard_normal(6)
    x_i = rng.standard_normal(6)
    beta = 1e-12
    prob, f_x = _prox_args(np.eye(6), r)
    t, stats = solve_group_subproblem(prob, f_x, x_i, tau, beta, CAP, 1.0)
    expected = group_soft_threshold(x_i - r, tau)
    assert np.allclose(x_i + t, expected, rtol=0.0, atol=1e-10)
    assert stats.converged
    assert stats.certificate <= beta
    assert stats.mode is StopMode.DUALITY_GAP


def test_group_validates_tau_and_beta():
    prob, f_x = _prox_args(np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="tau must be positive"):
        solve_group_subproblem(prob, f_x, np.zeros(2), 0.0, 1e-6, CAP, 1.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        solve_group_subproblem(prob, f_x, np.zeros(2), 0.1, 0.0, CAP, 1.0)
