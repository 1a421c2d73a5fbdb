"""Inner solvers for the per-block update subproblem.

Smooth blocks reduce to the SPD system B_i t = -(1/l_i) grad_i f, solved
by conjugate gradients or an exact Cholesky factorization. CG and
preconditioned CG share one Krylov loop: CG is PCG with M = I. The l1
and group-lasso blocks share one proximal-gradient loop with a
duality-gap stopping test; only the proximal map, the penalty norm and
its dual norm differ (soft threshold, l1, l-inf; group soft threshold,
l2, l2).

The linear-path certificate is the squared normal-equation residual
1/2 ||B_i t - g||^2 <= beta. For consistent systems this certifies the
model-gap condition directly (the model minimum is zero there); the
optional rigorous mode scales the tolerance by an estimate of
lambda_min(B_i) so that the model gap
1/2 ||B_i t - g||^2_{B_i^{-1}} <= beta is certified unconditionally.
A rigorous solve reports StopMode.RESIDUAL_SQUARED_SCALED: its
certificate is still 1/2 ||B_i t - g||^2, read against
beta * lambda_min(B_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "LinearSubproblem",
    "StopMode",
    "StopRule",
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
    """SPD system B t = g with an apply-only operator."""

    def __init__(self, operator, g: np.ndarray):
        self.g = np.asarray(g, dtype=float)
        self.dim = self.g.shape[0]
        if callable(operator) and not (sp.issparse(operator) or isinstance(operator, np.ndarray)):
            self._apply = operator
        else:
            self._apply = lambda t, B=operator: B @ t

    def apply(self, t: np.ndarray) -> np.ndarray:
        return self._apply(t)


class StopMode(Enum):
    RESIDUAL_SQUARED = "residual_squared"
    # rigorous solves: 1/2||B t - g||^2 compared with beta * lambda_min(B)
    RESIDUAL_SQUARED_SCALED = "residual_squared_scaled"
    DUALITY_GAP = "duality_gap"


@dataclass(frozen=True)
class StopRule:
    mode: StopMode = StopMode.RESIDUAL_SQUARED
    beta: float = 0.0
    max_inner_iters: int = 10_000
    # scale the residual tolerance by a lambda_min(B) estimate to certify
    # the model gap for inconsistent systems
    rigorous: bool = False
    lambda_min_estimate: float | None = None

    def residual_threshold(self) -> float:
        if self.rigorous:
            if self.lambda_min_estimate is None or self.lambda_min_estimate <= 0:
                raise ValueError("rigorous mode needs a positive lambda_min estimate")
            return self.beta * self.lambda_min_estimate
        return self.beta


@dataclass
class SolveStats:
    iterations: int
    certificate: float  # final 1/2||B t - g||^2 or duality gap
    mode: StopMode
    converged: bool = True


def _half_sq(v: np.ndarray) -> float:
    return 0.5 * float(v @ v)


def _krylov(
    prob: LinearSubproblem,
    precond,
    stop: StopRule,
    t0: np.ndarray | None,
) -> tuple[np.ndarray, SolveStats]:
    """The (P)CG loop on B t = g, stopping at 1/2||B t - g||^2 <= tol.

    precond applies M^{-1}; with precond=None the search direction comes
    from r itself (M = I), which is plain CG. A capped solve returns the
    iterate with the smallest residual seen.
    """
    tol = stop.residual_threshold()
    mode = StopMode.RESIDUAL_SQUARED_SCALED if stop.rigorous else stop.mode
    t = np.zeros(prob.dim) if t0 is None else np.array(t0, dtype=float)
    r = prob.g - (prob.apply(t) if t.any() else np.zeros(prob.dim))
    best_t, best_res = t.copy(), _half_sq(r)
    if best_res <= tol:
        return best_t, SolveStats(0, best_res, mode)
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(r @ z)
    k = 0
    maxiter = min(stop.max_inner_iters, 10 * prob.dim + 10)
    while k < maxiter:
        Bp = prob.apply(p)
        curv = float(p @ Bp)
        if curv <= 0:
            raise ValueError("negative curvature encountered: operator is not SPD")
        alpha = rz / curv
        t = t + alpha * p
        r = r - alpha * Bp
        k += 1
        res = _half_sq(r)
        if res < best_res:
            best_t, best_res = t.copy(), res
        if res <= tol:
            return t, SolveStats(k, res, mode)
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return best_t, SolveStats(k, best_res, mode, False)


def solve_cg(
    prob: LinearSubproblem,
    stop: StopRule,
    t0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients on B t = g, stopping at 1/2||B t - g||^2 <= tol."""
    return _krylov(prob, None, stop, t0)


def incomplete_cholesky(P, drop_tol: float) -> sp.csc_matrix:
    """Left-looking incomplete Cholesky with a relative drop tolerance.

    Entries of the working column smaller in magnitude than
    drop_tol * ||P[:, j]||_2 are dropped (the diagonal is always kept).
    A zero or negative pivot restarts the factorization on P + shift*I
    with shift = 1e-4 * trace(P)/dim, escalating by 10x, at most 3 times.
    """
    P = sp.csc_matrix(P)
    n = P.shape[0]
    if P.shape[0] != P.shape[1]:
        raise ValueError("P must be square")
    base_shift = 1e-4 * P.diagonal().sum() / n
    shift = 0.0
    for attempt in range(4):
        L = _ichol_attempt(P, n, drop_tol, shift)
        if L is not None:
            return L
        shift = base_shift * (10.0**attempt)
    raise ValueError(
        "incomplete Cholesky broke down after 3 pivot shifts; "
        "use the perturbed preconditioner P + rho*I instead"
    )


def _ichol_attempt(P: sp.csc_matrix, n: int, drop_tol: float, shift: float):
    col_idx: list[np.ndarray] = []
    col_val: list[np.ndarray] = []
    # row_map[i] lists (k, L[i,k]) for finalized columns k < j
    row_map: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    w = np.zeros(n)
    for j in range(n):
        lo, hi = P.indptr[j], P.indptr[j + 1]
        rows = P.indices[lo:hi]
        vals = P.data[lo:hi]
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
        # reset scratch (touched entries only)
        w[rows[keep]] = 0.0
        w[j] = 0.0
        for k, ljk in row_map[j]:
            w[col_idx[k]] = 0.0
        col_idx.append(idx)
        col_val.append(val)
        for pos in range(1, idx.size):
            row_map[idx[pos]].append((j, val[pos]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([ix.size for ix in col_idx])
    indices = np.concatenate(col_idx) if col_idx else np.zeros(0, dtype=np.int64)
    data = np.concatenate(col_val) if col_val else np.zeros(0)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


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
    precond_factor,
    stop: StopRule,
    t0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned CG with M = L L^T; same stopping test as solve_cg.

    precond_factor is L itself or a _TriangularPreconditioner built from it.
    """
    if not isinstance(precond_factor, _TriangularPreconditioner):
        precond_factor = _TriangularPreconditioner(precond_factor)
    return _krylov(prob, precond_factor.apply, stop, t0)


def solve_exact_cholesky(B, g: np.ndarray) -> tuple[np.ndarray, SolveStats]:
    """Exact SPD solve: Cholesky factors followed by two triangular solves."""
    try:
        dense = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
        factor = cho_factor(dense, lower=True)
        t = cho_solve(factor, g)
    except MemoryError as e:
        raise RuntimeError("out of memory forming the Cholesky factor") from e
    except np.linalg.LinAlgError as e:
        raise ValueError("B is not positive definite") from e
    res = _half_sq(dense @ t - g)
    return t, SolveStats(1, res, StopMode.RESIDUAL_SQUARED)


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


def _dual_gap(Ai, c: np.ndarray, y: np.ndarray, weight: float, order, dual_order) -> float:
    """Duality gap for min_y 1/2||A y - c||^2 + weight ||y||_order at the point y.

    The dual point is the residual scaled into the dual_order-norm ball of
    radius weight.
    """
    res = Ai @ y - c
    primal = _half_sq(res) + weight * float(np.linalg.norm(y, order))
    grad_dual = float(np.linalg.norm(Ai.T @ res, dual_order))
    s = 1.0 if grad_dual <= weight else weight / grad_dual
    nu = s * res
    dual = -_half_sq(nu) - float(nu @ c)
    return primal - dual


def _l1_dual_gap(Ai, c: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Duality gap for min_y 1/2||A y - c||^2 + lam ||y||_1 at the point y."""
    return _dual_gap(Ai, c, y, lam, 1, np.inf)


def estimate_operator_norm_sq(Ai, iters: int = 30, seed: int = 0) -> float:
    """Power-iteration estimate of ||A||^2 with a 1.05 safety factor."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(Ai.shape[1])
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(iters):
        u = Ai.T @ (Ai @ v)
        nrm = float(np.linalg.norm(u))
        if nrm == 0:
            return 1.0
        est = nrm
        v = u / nrm
    return 1.05 * est


def _prox_gradient(
    Ai, r, x_i, weight, beta, max_iters, lipschitz, prox, order, dual_order
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on 1/2||A_i t + r||^2 + weight ||x_i + t||_order.

    Works in y = x_i + t, so the problem reads
    min_y 1/2||A_i y - c||^2 + weight ||y||_order with c = A_i x_i - r, and
    terminates when the duality gap at y falls below beta. prox(v, s) is
    the proximal map of s ||.||_order.
    """
    if beta <= 0:
        raise ValueError("beta must be positive for the duality-gap test")
    c = Ai @ x_i - r
    L = lipschitz if lipschitz is not None else estimate_operator_norm_sq(Ai)
    step = 1.0 / L
    y = np.array(x_i, dtype=float, copy=True)
    gap = _dual_gap(Ai, c, y, weight, order, dual_order)
    k = 0
    while gap > beta and k < max_iters:
        grad = Ai.T @ (Ai @ y - c)
        y = prox(y - step * grad, weight * step)
        k += 1
        gap = _dual_gap(Ai, c, y, weight, order, dual_order)
    return y - x_i, SolveStats(k, gap, StopMode.DUALITY_GAP, gap <= beta)


def solve_l1_subproblem(
    Ai,
    r: np.ndarray,
    x_i: np.ndarray,
    lam: float,
    beta: float,
    max_iters: int = 50_000,
    lipschitz: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on V_i(t) = 1/2||A_i t + r||^2 + lam||x_i + t||_1,
    stopped when the duality gap falls below beta."""
    if lam <= 0:
        raise ValueError("lam must be positive; use the linear path for lam=0")
    return _prox_gradient(
        Ai, r, x_i, lam, beta, max_iters, lipschitz, soft_threshold, 1, np.inf
    )


def solve_group_subproblem(
    Ai,
    r: np.ndarray,
    x_i: np.ndarray,
    tau: float,
    beta: float,
    max_iters: int = 50_000,
    lipschitz: float | None = None,
) -> tuple[np.ndarray, SolveStats]:
    """Proximal gradient on 1/2||A_i t + r||^2 + tau||x_i + t||_2.

    Same scheme as the l1 solver with the group soft-threshold proximal
    map; tau already includes the group weight (lam * sqrt(d_i)).
    """
    if tau <= 0:
        raise ValueError("tau must be positive; use the linear path otherwise")
    return _prox_gradient(
        Ai, r, x_i, tau, beta, max_iters, lipschitz, group_soft_threshold, 2, 2
    )
