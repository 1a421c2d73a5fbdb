"""Inner solvers for the per-block update subproblem.

Every solver reads block i through one LinearSubproblem: B_i, applied as
the metric keeps it (the objective module's storage rule), and
g = -grad_i f. Smooth blocks solve B_i t = g, by CG or by two packed
triangular solves (LAPACK pptrs) with the metric's lower Cholesky factor
R_i of B_i = R_i R_i^T. CG and preconditioned CG share one
Krylov loop: CG is PCG with M = I. The l1 and group-lasso blocks share
one proximal-gradient loop on the model
<grad_i f, t> + 1/2 <B_i t, t> + Psi_i(x^(i) + t), with one product with
B_i per iterate but the first (whose t is 0) and a duality-gap stopping
test; only the proximal map, the penalty norm and its dual norm differ
(soft threshold, l1, l-inf; group soft threshold, l2, l2). A prox solve
ends in one of three ways: the gap falls to beta, the iteration cap is
reached, or an iterate repeats the previous one bit for bit (a fixed
point, where further steps change nothing). The last two leave the solve
unconverged, and its iteration count is the prox steps actually taken.
The step is 2/(mu_i + L_i), with L_i the metric's power estimate of
||B_i|| = ||R_i||^2 and mu_i its inverse-power estimate of
lambda_min(B_i) (BlockMetric.prox_constants), floored at L_i/3 so the
step is at most 1.5/L_i (prox_step); without mu_i it is 1/L_i.

The exact and prox solvers hand back B_i t at the t they return
(SolveStats.product_at), so the caller's vacuous guard takes no product
of its own. The Krylov loop hands back none: a capped solve returns its
best iterate, not its last, whose product it never formed.

The linear-path certificate is the squared normal-equation residual
1/2 ||B_i t - g||^2 <= beta. The model gap it must control is
1/2 r^T B_i^{-1} r <= 1/2 ||r||^2 / lambda_min(B_i) for r = B_i t - g,
so the plain test certifies the gap only when lambda_min(B_i) >= 1. The
rigorous mode exists for the other case: the caller passes the tolerance
beta * lambda_min(B_i), which certifies the model gap
1/2 ||B_i t - g||^2_{B_i^{-1}} <= beta unconditionally, and labels the
result StopMode.RESIDUAL_SQUARED_SCALED. The Krylov loop itself only
compares 1/2 ||B_i t - g||^2 with the tolerance it is given.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtpmv
from scipy.linalg.lapack import dpptrs

__all__ = [
    "LinearSubproblem",
    "StopMode",
    "SolveStats",
    "solve_cg",
    "incomplete_cholesky",
    "solve_pcg",
    "solve_exact_cholesky",
    "soft_threshold",
    "group_soft_threshold",
    "solve_l1_subproblem",
    "solve_group_subproblem",
]


class LinearSubproblem:
    """Block i's model data: B_i of a BlockMetric and g = -grad_i f.

    The linear solvers solve B_i t = g; the proximal solvers minimize
    -<g, t> + 1/2 <B_i t, t> + Psi_i(x^(i) + t).
    """

    def __init__(self, metric, i: int, g: np.ndarray):
        self.metric = metric
        self.i = i
        self.g = np.asarray(g, dtype=float)
        self.dim = self.g.shape[0]

    def apply(self, t: np.ndarray) -> np.ndarray:
        return self.metric.apply(self.i, t)


class StopMode(Enum):
    RESIDUAL_SQUARED = "residual_squared"
    # rigorous solves: 1/2||B t - g||^2 compared with beta * lambda_min(B)
    RESIDUAL_SQUARED_SCALED = "residual_squared_scaled"
    DUALITY_GAP = "duality_gap"


@dataclass(slots=True)
class SolveStats:
    iterations: int
    certificate: float  # final 1/2||B t - g||^2 or duality gap
    mode: StopMode
    converged: bool = True
    # (t, B_i t) where the solver formed B_i t at the very t it returned
    product: tuple | None = field(default=None, compare=False, repr=False)

    def product_at(self, t: np.ndarray) -> np.ndarray | None:
        """B_i t if the solver formed it at this very array t, else None."""
        if self.product is not None and self.product[0] is t:
            return self.product[1]
        return None


def _half_sq(v: np.ndarray) -> float:
    return 0.5 * float(v @ v)


def _krylov(
    prob: LinearSubproblem,
    precond,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, SolveStats]:
    """The (P)CG loop on B t = g from t = 0, stopping at 1/2||B t - g||^2 <= tol.

    precond applies M^{-1}; with precond=None the search direction comes
    from r itself (M = I), which is plain CG. A capped solve returns the
    iterate with the smallest residual seen.
    """
    # t and r are rebound, never written in place, so best_t needs no copy
    t = np.zeros(prob.dim)
    r = prob.g
    rr = float(r @ r)
    best_t, best_res = t, 0.5 * rr
    if best_res <= tol:
        return best_t, SolveStats(0, best_res, StopMode.RESIDUAL_SQUARED)
    z = r if precond is None else precond(r)
    p = z
    rz = rr if precond is None else float(r @ z)
    k = 0
    max_iters = min(max_iters, 10 * prob.dim + 10)
    while k < max_iters:
        Bp = prob.apply(p)
        curv = float(p @ Bp)
        if curv <= 0:
            raise ValueError("negative curvature encountered: operator is not SPD")
        alpha = rz / curv
        t = t + alpha * p
        r = r - alpha * Bp
        k += 1
        rr = float(r @ r)
        res = 0.5 * rr
        if res < best_res:
            best_t, best_res = t, res
        if res <= tol:
            return t, SolveStats(k, res, StopMode.RESIDUAL_SQUARED)
        z = r if precond is None else precond(r)
        rz_new = rr if precond is None else float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_t, SolveStats(k, best_res, StopMode.RESIDUAL_SQUARED, False)


def solve_cg(
    prob: LinearSubproblem,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients on B t = g, stopping at 1/2||B t - g||^2 <= tol."""
    return _krylov(prob, None, tol, max_iters)


def incomplete_cholesky(P, drop_tol: float) -> sp.csc_matrix:
    """Left-looking incomplete Cholesky with a relative drop tolerance.

    Entries of the working column that are zero or smaller in magnitude
    than drop_tol * ||P[:, j]||_2 are dropped (the diagonal is always
    kept). A zero or negative pivot restarts the factorization on
    P + shift*I with shift = 1e-4 * trace(P)/dim, escalating by 10x up to
    trace(P)/dim, at most 5 times. P is read in canonical form, so
    duplicate entries count as their sum. drop_tol must be >= 0.

    The work comes in two phases. Once per call, over all of P at once:
    the column norms, the diagonal, and each column's candidates, its
    strictly lower nonzeros with |P_rj| >= drop_tol * ||P[:, j]||_2. Then,
    per column j, only the rows r that an earlier column k with L_jk != 0
    touches are recomputed: P_rj - L_jk L_rk, subtracted in ascending k,
    and the pivot is P_jj + shift - sum_k L_jk^2. Every other row keeps
    P_rj and its candidate verdict. A column so costs time in proportion
    to its update entries (the entries L_rk, r >= j, of the columns k it
    reads) and its candidates, not to dim. Each update is one Python scalar
    step, so a near-complete factor (drop_tol near 0) costs more than a
    dense sweep would. Every entry takes the operations of a dense
    left-looking sweep, in the same order, so the factor equals that
    sweep's to the bit (tests/test_inner.py keeps it as the reference).
    """
    if not drop_tol >= 0:
        raise ValueError(f"drop_tol must be a nonnegative number, got {drop_tol!r}")
    P = sp.csc_matrix(P, dtype=float, copy=True)  # sum_duplicates works in place
    n = P.shape[0]
    if P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    P.sum_duplicates()
    ptr, rows, vals = P.indptr, P.indices, P.data
    bounds = ptr.tolist()
    # np.linalg.norm's own dot, column by column: a norm summed in another
    # order can differ in the last bit and flip a verdict at the threshold
    thresholds = [
        drop_tol * math.sqrt(v.dot(v)) for v in (vals[a:b] for a, b in zip(bounds, bounds[1:]))
    ]
    col = np.repeat(np.arange(n), np.diff(ptr))
    below = rows > col
    candidate = below & (vals != 0) & (np.abs(vals) >= np.array(thresholds)[col])
    lower, candidates = (_by_column(n, col, rows, vals, m) for m in (below, candidate))
    diag = P.diagonal()
    pivots = diag.tolist()
    base_shift = 1e-4 * diag.sum() / n
    for shift in [0.0] + [base_shift * (10.0**e) for e in range(5)]:
        L = _ichol_sweep(n, pivots, thresholds, lower, candidates, shift)
        if L is not None:
            return L
    raise ValueError(
        "incomplete Cholesky broke down after 5 pivot shifts; "
        "use the perturbed preconditioner P + rho*I instead"
    )


def _ichol_sweep(n, diag, thresholds, lower, candidates, shift) -> sp.csc_matrix | None:
    """One left-looking pass over P + shift*I: L, or None at a nonpositive pivot.

    lower and candidates are _by_column parts of P. Column j is formed in
    Python scalars, one dictionary entry per row that an update touches.
    """
    lptr, lrows, lvals = lower
    cptr, crows, cvals = candidates
    # column k of L as lists, diagonal first
    cols_r: list[list[int]] = []
    cols_v: list[list[float]] = []
    # row_map[r] lists (k, position of row r in column k) for finished k
    row_map: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j in range(n):
        pivot = diag[j] + shift
        lo, hi = lptr[j], lptr[j + 1]
        acc: dict[int, float] = {}
        for k, p in row_map[j]:
            rk, vk = cols_r[k], cols_v[k]
            ljk = vk[p]
            pivot -= ljk * ljk
            for q in range(p + 1, len(rk)):
                r = rk[q]
                x = acc.get(r)
                if x is None:
                    i = bisect_left(lrows, r, lo, hi)
                    x = lvals[i] if i < hi and lrows[i] == r else 0.0
                acc[r] = x - ljk * vk[q]
        if pivot <= 0:
            return None
        d = math.sqrt(pivot)
        t = thresholds[j]
        kept = dict(zip(crows[cptr[j] : cptr[j + 1]], cvals[cptr[j] : cptr[j + 1]]))
        for r, x in acc.items():
            if x != 0 and abs(x) >= t:
                kept[r] = x
            else:
                kept.pop(r, None)
        kept_r = sorted(kept)
        for p, r in enumerate(kept_r, 1):
            row_map[r].append((j, p))
        cols_r.append([j, *kept_r])
        cols_v.append([d, *(kept[r] / d for r in kept_r)])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols_r], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(cols_r), np.int64, indptr[-1])
    data = np.fromiter(chain.from_iterable(cols_v), float, indptr[-1])
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _by_column(n, col, rows, vals, mask):
    """The entries under mask, column by column: pointers, rows and values as lists."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col[mask], minlength=n), out=ptr[1:])
    return ptr.tolist(), rows[mask].tolist(), vals[mask].tolist()


class _TriangularPreconditioner:
    """Apply (L L^T)^{-1} through one SuperLU object of the lower factor L.

    Natural order without pivoting gives no fill (SuperLU's U is diag(L)).
    Build one per block and reuse it: the checks run here, not per apply.
    """

    def __init__(self, L):
        L = sp.csc_matrix(L, dtype=float)
        if L.shape[0] != L.shape[1] or sp.triu(L, k=1).count_nonzero():
            raise ValueError("preconditioner factor must be square and lower triangular")
        if np.any(L.diagonal() == 0):
            raise ValueError("preconditioner factor is singular")
        opts = dict(SymmetricMode=True)
        self._lu = spla.splu(L, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=opts)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._lu.solve(r), trans="T")


def solve_pcg(
    prob: LinearSubproblem,
    precond: _TriangularPreconditioner,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned CG with M = L L^T; same stopping test as solve_cg."""
    return _krylov(prob, precond.apply, tol, max_iters)


def solve_exact_cholesky(prob: LinearSubproblem) -> tuple[np.ndarray, SolveStats]:
    """Exact solve of B_i t = g with block i's kept lower Cholesky factor
    R_i: LAPACK pptrs, two packed triangular solves (BLAS tpsv), R_i y = g
    and then R_i^T t = y.

    The certificate 1/2 ||B_i t - g||^2 reads B_i t from the metric's apply,
    so on a block that applies B_i as A_i^T (A_i t) (see the objective
    module's storage rule) it measures the solve against A_i^T A_i rather
    than R_i R_i^T. That product is handed back in the stats."""
    t, _ = dpptrs(prob.dim, prob.metric.stored[prob.i], prob.g, lower=1)
    Bt = prob.apply(t)
    res = _half_sq(Bt - prob.g)
    return t, SolveStats(1, res, StopMode.RESIDUAL_SQUARED, product=(t, Bt))


def soft_threshold(v, tau: float):
    """Componentwise sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def group_soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """max(1 - tau/||v||, 0) * v, the proximal map of tau*||.||_2."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    nrm = float(np.linalg.norm(v))
    if nrm <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / nrm) * v


POWER_ITERS = 30  # iterations of estimate_operator_norm_sq and estimate_lambda_min
POWER_SEED = 0  # seed of their random start vector
STEP_MU_FLOOR = 1.0 / 3.0  # prox_step's least mu, as a share of lipschitz


def _power_start(n: int) -> np.ndarray:
    """The power iterations' unit start vector, drawn from POWER_SEED."""
    v = np.random.default_rng(POWER_SEED).standard_normal(n)
    return v / np.linalg.norm(v)


def packed_order(R: np.ndarray) -> int:
    """N of an N x N triangle packed column by column, N(N+1)/2 entries."""
    n = (math.isqrt(8 * R.size + 1) - 1) // 2
    if R.ndim != 1 or n * (n + 1) // 2 != R.size:
        raise ValueError(f"an array of shape {R.shape} is not a packed triangle")
    return n


def estimate_operator_norm_sq(A) -> float:
    """Power-iteration estimate of ||A||^2 with a 1.05 safety factor.

    A is a matrix, or a lower triangle R packed column by column (1-D, as
    a BlockMetric keeps a Cholesky factor), read as R^T: its estimate is
    of ||R R^T||, each step two BLAS packed products (tpmv)."""
    packed = A.ndim == 1
    n = packed_order(A) if packed else A.shape[1]
    v = _power_start(n)
    est = 1.0
    for _ in range(POWER_ITERS):
        if packed:
            u = dtpmv(n, A, dtpmv(n, A, v, lower=1, trans=1), lower=1, overwrite_x=1)
        else:
            u = A.T @ (A @ v)
        nrm = float(np.linalg.norm(u))
        if nrm == 0:
            return 1.0
        est = nrm
        v = u / nrm
    return 1.05 * est


def estimate_lambda_min(R: np.ndarray, cap: float) -> float:
    """Inverse-power estimate of lambda_min(R R^T), at most cap, for a
    lower triangular R packed column by column.

    POWER_ITERS steps v <- (R R^T)^{-1} v / ||(R R^T)^{-1} v|| from the
    start vector of estimate_operator_norm_sq, each two packed triangular
    solves with R by LAPACK pptrs. For a unit v,
    1/||(R R^T)^{-1} v|| >= lambda_min, so the estimate errs high: a prox
    step taken with it is never longer than the one the exact lambda_min
    gives. An R with a zero on its diagonal (an all-zero block keeps R = 0)
    gives 0.
    """
    n = packed_order(R)
    v = _power_start(n)
    est = cap
    for _ in range(POWER_ITERS):
        u, _ = dpptrs(n, R, v, lower=1)
        nrm = float(np.linalg.norm(u))
        if not nrm < math.inf:  # inf or nan: a singular factor
            return 0.0
        est = 1.0 / nrm
        v = u / nrm
    return min(est, cap)


def prox_step(lipschitz: float, mu: float | None = None) -> float:
    """The prox step 2/(max(mu, lipschitz/3) + lipschitz); 1/lipschitz,
    to the bit, without mu.

    The floor on mu keeps the step at most 1.5/lipschitz, below 2/||B||
    while lipschitz >= 0.75 ||B||: a power estimate of ||B|| up to 28%
    low still converges. Without it, a rank-shifted block (mu near 0)
    steps at 2/lipschitz, which diverges once lipschitz < ||B||.
    """
    if mu is None:
        return 1.0 / lipschitz
    return 2.0 / (max(mu, STEP_MU_FLOOR * lipschitz) + lipschitz)


def _norm_1(v: np.ndarray) -> float:
    return float(np.add.reduce(np.abs(v)))


def _norm_2(v: np.ndarray) -> float:
    return math.sqrt(v @ v)


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max())


def _prox_gradient(
    prob, f_x, x_i, weight, beta, max_iters, lipschitz, mu, prox, norm, dual_norm
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on V(t) = f_x - <g, t> + 1/2 <B t, t> + weight norm(x_i + t),
    with B and g = -grad_i f from prob and f_x = f(x) = 1/2||r||^2.

    Works in y = x_i + t, one prob.apply per iterate after the first (where
    t = 0) for the gradient B t - g. The duality gap
    1/2 (1-s)^2 ||res||^2 + s <y, grad> + weight norm(y) is the certificate,
    with ||res||^2 = 2 f_x + <t, B t - 2 g> and s <= 1 the largest scale
    that puts s * grad in the dual_norm ball of radius weight. That
    is the gap of min_y 1/2||A t + r||^2 + weight norm(y) at the dual
    point s * res for any A, r with B = A^T A, A^T r = -g and 1/2||r||^2 = f_x
    ([A_i; sqrt(eps) I] and [r; 0] for a shifted B), so it bounds
    V(t) - min V. prox(v, s) is the proximal map of s norm; the step
    is prox_step(lipschitz, mu), 2/(mu + lipschitz) with mu floored at
    lipschitz/3, for lipschitz >= ||B|| and mu >= lambda_min(B) (1/lipschitz
    without mu). Where kappa = lipschitz/lambda_min(B) <= 3 the iterates
    contract by (kappa-1)/(kappa+1) per step at mu = lambda_min, against
    1 - 1/kappa at 1/lipschitz; past 3 the step is 1.5/lipschitz. norm
    and dual_norm are the reductions np.linalg.norm runs for a vector, so
    they give its bits.

    The solve ends in one of three ways: the gap falls to beta or below
    (converged); max_iters prox steps are taken; or a prox step returns
    the iterate it started from, bit for bit, a fixed point at which
    every further step would repeat the same iterate and gap. The last
    two return converged=False, and iterations counts the prox steps taken.
    """
    if beta <= 0:
        raise ValueError("beta must be positive for the duality-gap test")
    step = prox_step(lipschitz, mu)
    y = np.array(x_i, dtype=float, copy=True)
    y_prev, gap_prev = None, math.nan
    k = 0
    while True:
        t = y - x_i
        if k == 0:  # y is x_i's copy, so t = 0 and B t = 0 exactly
            Bt, grad = np.zeros_like(t), -prob.g
        else:
            Bt = prob.apply(t)
            grad = Bt - prob.g
        res_sq = 2.0 * f_x + float(t @ (grad - prob.g))
        grad_dual = dual_norm(grad)
        s = 1.0 if grad_dual <= weight else weight / grad_dual
        gap = 0.5 * (1.0 - s) ** 2 * res_sq + s * float(y @ grad)
        gap += weight * norm(y)
        if not gap > beta or k >= max_iters:
            return t, SolveStats(k, gap, StopMode.DUALITY_GAP, gap <= beta, product=(t, Bt))
        # equal iterates give equal gaps, so one float comparison gates the test
        if gap == gap_prev and np.array_equal(y, y_prev):
            return t, SolveStats(k, gap, StopMode.DUALITY_GAP, False, product=(t, Bt))
        y_prev, gap_prev = y, gap
        y = prox(y - step * grad, weight * step)
        k += 1


def solve_l1_subproblem(
    prob: LinearSubproblem,
    f_x: float,
    x_i: np.ndarray,
    lam: float,
    beta: float,
    max_iters: int,
    lipschitz: float,
    mu: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on V_i(t) = f_x - <g, t> + 1/2 <B t, t> + lam||x_i + t||_1,
    at the step 2/(mu + lipschitz) (1/lipschitz without mu), stopped when
    the duality gap falls to beta, at max_iters, or at a fixed point (see
    _prox_gradient)."""
    if lam <= 0:
        raise ValueError("lam must be positive; use the linear path for lam=0")
    return _prox_gradient(
        prob, f_x, x_i, lam, beta, max_iters, lipschitz, mu, soft_threshold, _norm_1, _norm_inf
    )


def solve_group_subproblem(
    prob: LinearSubproblem,
    f_x: float,
    x_i: np.ndarray,
    tau: float,
    beta: float,
    max_iters: int,
    lipschitz: float,
    mu: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on V_i(t) = f_x - <g, t> + 1/2 <B t, t> + tau||x_i + t||_2.

    Same scheme as the l1 solver with the group soft-threshold proximal
    map; tau already includes the group weight (lam * sqrt(d_i)).
    """
    if tau <= 0:
        raise ValueError("tau must be positive; use the linear path otherwise")
    return _prox_gradient(
        prob, f_x, x_i, tau, beta, max_iters, lipschitz, mu, group_soft_threshold, _norm_2, _norm_2
    )
