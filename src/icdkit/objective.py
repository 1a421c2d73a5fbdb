"""Composite objective F = f + Psi for a quadratic smooth part.

f(x) = 1/2 ||A x - b||^2 with A sparse or dense, and Psi block separable
(zero, l1 or group lasso). The natural metric for the quadratic is
B_i = A_i^T A_i, which makes the per-block model an exact upper bound.
The residual r = A x - b is maintained incrementally, so a block update
costs two products with A_i: the gradient A_i^T r and r += A_i t (a null
update, one whose solve takes no inner iteration, leaves r alone).

Storage rule. How A_i and B_i are held follows from the input alone.
- A is held once, as QuadraticSmooth.A: a sparse A as CSC, an ndarray as
  a column-major array (copied only if it is not one already). The full
  residual A x - b is A's own product, scipy's csc_matvec for a CSC A.
- No block holds an entry of its own. Of an ndarray, A_i is a view of its
  columns. Of a canonical CSC A, a block that stores all its M N_i
  entries (as the lasso and small-block instances hold Gaussian data) is
  their run of A.data read column-major, an ndarray view. Any other block
  of a CSC A, sparse or of a non-canonical A whose duplicate entries must
  be multiplied one by one, is its CSC column slice, a copy.
- A dense block's products A_i t, A_i^T r and Gram A_i^T A_i are BLAS
  calls; a CSC slice's are scipy's. blocks_T[i] is A_i's transpose view,
  so the gradient builds no matrix object per update.
- The metric keeps each block's lower Cholesky factor R_i of
  B_i = R_i R_i^T, formed once, in the Gram's own buffer, by
  blocks.packed_cholesky and held packed: 4 N_i (N_i + 1) bytes, half an
  N_i x N_i array. The Gram is then freed, so the metric holds no
  N_i x N_i array. Only the blocks module reads R_i: the metric applies
  B_i as two products with it, O(N_i^2), and solves with it. This module
  keeps the rank verdict and the shift. A sparse block that
  needed no rank shift and has 2 nnz(A_i) < N_i^2 also keeps A_i cut down
  to its nonzero rows (about 4 nnz(A_i) bytes of row indices; the values
  are A_i's) and applies B_i as A_i^T (A_i t), O(nnz(A_i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from icdkit.blocks import BlockMetric, BlockPartition, block_view, packed_cholesky

__all__ = [
    "QuadraticSmooth",
    "RegularizerKind",
    "SeparableRegularizer",
    "CompositeObjective",
    "ResidualState",
    "quadratic_metric",
]


class QuadraticSmooth:
    """f(x) = 1/2 ||A x - b||^2 with per-block column submatrices, held by
    the module's storage rule: A once, blocks[i] and blocks_T[i] sharing it."""

    def __init__(self, A, b: np.ndarray, partition: BlockPartition):
        if A.shape[1] != partition.N:
            raise ValueError("A has wrong number of columns for the partition")
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self.A = sp.csc_matrix(A, dtype=float) if sp.issparse(A) else np.asfortranarray(A, float)
        self.b = np.asarray(b, dtype=float)
        # a NaN or inf would pass every factorization silently, as a NaN factor
        for name, values in (("A", self.A.data if sp.issparse(self.A) else self.A), ("b", self.b)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
        self.partition = partition
        self.blocks = [_columns(self.A, partition.range(i)) for i in range(partition.n)]
        self.blocks_T = [Ai.T for Ai in self.blocks]

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def value_from_residual(self, r: np.ndarray) -> float:
        return 0.5 * float(r @ r)

    def gram(self) -> np.ndarray:
        """A^T A as a dense array, formed as a block's Gram is."""
        return _gram(_columns(self.A, slice(0, self.partition.N)))


def _columns(A, sl):
    """Columns sl of the held A by the module's storage rule, copying no
    entry except into a CSC slice."""
    if not sp.issparse(A):
        return A[:, sl]
    a, b, Ni = A.indptr[sl.start], A.indptr[sl.stop], sl.stop - sl.start
    if b - a == A.shape[0] * Ni and A.has_canonical_format:
        return A.data[a:b].reshape((A.shape[0], Ni), order="F")
    # a CSC slice copies, even one of every column
    return A if Ni == A.shape[1] else A[:, sl]


def _gram(Ai) -> np.ndarray:
    """Ai^T Ai as a dense array, for a block held by the module's storage rule."""
    return (Ai.T @ Ai).toarray() if sp.issparse(Ai) else Ai.T @ Ai


class RegularizerKind(Enum):
    ZERO = "zero"
    L1 = "l1"
    GROUP_LASSO = "group_lasso"


@dataclass(frozen=True)
class SeparableRegularizer:
    """Block separable Psi: zero, lam*||.||_1 or lam*sqrt(d_i)*||.||_2."""

    kind: RegularizerKind = RegularizerKind.ZERO
    lam: float = 0.0
    group_weights: tuple[float, ...] | None = None  # d_i, one per block

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.kind is RegularizerKind.GROUP_LASSO:
            if self.group_weights is None or any(d <= 0 for d in self.group_weights):
                raise ValueError("group lasso requires positive weights d_i")

    @classmethod
    def zero(cls):
        return cls(RegularizerKind.ZERO, 0.0)

    @classmethod
    def l1(cls, lam: float):
        return cls(RegularizerKind.L1, lam)

    @classmethod
    def group_lasso(cls, lam: float, d):
        return cls(RegularizerKind.GROUP_LASSO, lam, tuple(float(v) for v in d))

    def block_weight(self, i: int) -> float:
        """The weight of block i's penalty norm: lam, or lam*sqrt(d_i) for groups."""
        if self.kind is RegularizerKind.GROUP_LASSO:
            return self.lam * np.sqrt(self.group_weights[i])
        return self.lam

    def block_value(self, i: int, v: np.ndarray) -> float:
        if self.kind is RegularizerKind.ZERO:
            return 0.0
        if self.kind is RegularizerKind.L1:
            return self.block_weight(i) * float(np.abs(v).sum())
        return self.block_weight(i) * float(np.linalg.norm(v))


def quadratic_metric(smooth: QuadraticSmooth) -> BlockMetric:
    """Build the exact metric B_i = A_i^T A_i for a quadratic, kept as the
    module's storage rule says.

    A block whose factor does not fit in memory is a ValueError that names
    it. A rank-deficient block gets B_i = A_i^T A_i + eps*I with
    eps = 1e-8 * trace(A_i^T A_i) / N_i, which keeps B_i SPD at the cost of
    a strict (rather than exact) overapproximation, and always applies its
    factor, so the shift is never lost. A shifted B_i that still does not
    factor is a ValueError that names the block.
    """
    stored, sparse = [], []
    for i, Ai in enumerate(smooth.blocks):
        try:
            R, pair = _block_metric(Ai)
        except MemoryError as e:
            raise ValueError(
                f"out of memory forming the Cholesky factor of block {i} "
                f"({Ai.shape[1]} columns)"
            ) from e
        except np.linalg.LinAlgError as e:
            raise ValueError(f"block {i} ({Ai.shape[1]} columns): {e}") from e
        stored.append(R)
        sparse.append(pair)
    return BlockMetric(stored, sparse)


def _block_metric(Ai):
    """Block i's kept metric: the packed factor R_i its Cholesky rank check
    gives, and the row-cut pair (A_i, A_i^T) where the storage rule keeps
    one. One block per call: one dense B_i at a time."""
    Ni = Ai.shape[1]
    B = _gram(Ai)
    if Ai.shape[0] >= Ni:
        d = B.diagonal().copy()
        R = packed_cholesky(B)
        if R is not None:
            cheaper = sp.issparse(Ai) and 2 * Ai.nnz < Ni * Ni
            return R, _nonzero_rows(Ai) if cheaper else None
        # the failed dpotrf wrote B's upper triangle and diagonal only; B is
        # symmetric to the bit, so its strict lower triangle and d rebuild it
        B = np.tril(B, -1)
        B += B.T
        B[np.diag_indices(Ni)] = d
    eps = 1e-8 * float(np.trace(B)) / Ni
    if eps == 0:  # an all-zero block, whose B_i = 0 is its own factor
        return np.zeros(Ni * (Ni + 1) // 2), None
    B[np.diag_indices(Ni)] += eps
    R = packed_cholesky(B)
    if R is None:
        raise np.linalg.LinAlgError("the rank-shifted Gram is not positive definite")
    return R, None


def _nonzero_rows(Ai):
    """The CSC block Ai cut down to its nonzero rows, and its transpose view.
    Every entry keeps its place, so each product adds the same terms in the
    same order as the full-height one."""
    kept, rows = np.unique(Ai.indices, return_inverse=True)
    rows = rows.astype(Ai.indices.dtype)
    C = sp.csc_matrix((Ai.data, rows, Ai.indptr), shape=(kept.size, Ai.shape[1]))
    return C, C.T


class CompositeObjective:
    """Immutable bundle of smooth part, regularizer, metric and optima;
    metric, when given, is quadratic_metric(smooth), which objectives may share."""

    def __init__(
        self,
        smooth: QuadraticSmooth,
        reg: SeparableRegularizer | None = None,
        metric: BlockMetric | None = None,
        F_star: float | None = None,
        x_star: np.ndarray | None = None,
    ):
        self.smooth = smooth
        self.partition = smooth.partition
        self.reg = reg if reg is not None else SeparableRegularizer.zero()
        weights = self.reg.group_weights
        if weights is not None and len(weights) != self.partition.n:
            raise ValueError(f"group lasso has {len(weights)} weights for {self.partition.n} blocks")
        self.metric = metric if metric is not None else quadratic_metric(smooth)
        self.F_star = F_star
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)

    def start(self, x0: np.ndarray) -> "ResidualState":
        return ResidualState(self, x0)

    def block_gradient(self, state: "ResidualState", i: int) -> np.ndarray:
        """grad_i f = A_i^T r for the quadratic."""
        return self.smooth.blocks_T[i] @ state.r

    def model_value(
        self, state: "ResidualState", i: int, t: np.ndarray, grad: np.ndarray,
        Bt: np.ndarray | None = None,
    ) -> float:
        """V_i(x, t) = <grad_i f, t> + 1/2 <B_i t, t> + Psi_i(x^(i) + t),
        with grad = grad_i f(x), which the caller already holds, and Bt,
        when given, B_i t; otherwise the metric applies B_i to t."""
        if Bt is None:
            Bt = self.metric.apply(i, t)
        value = float(grad @ t) + 0.5 * float(t @ Bt)
        if self.reg.kind is RegularizerKind.ZERO:
            return value
        xi = state.x[self.partition.range(i)]
        return value + self.reg.block_value(i, xi + t)


class ResidualState:
    """Single-owner mutable iterate with incrementally maintained residual."""

    def __init__(self, objective: CompositeObjective, x0: np.ndarray):
        self.objective = objective
        self.x = np.array(x0, dtype=float, copy=True)
        if self.x.shape[0] != objective.partition.N:
            raise ValueError("x0 has wrong dimension")
        smooth = objective.smooth
        # at x = 0, A x - b is 0.0 - b to the bit, with no product with A
        self.r = smooth.residual(self.x) if np.count_nonzero(self.x) else 0.0 - smooth.b
        p = objective.partition
        self._psi_blocks = np.array(
            [objective.reg.block_value(i, block_view(self.x, i, p)) for i in range(p.n)]
        )

    def f_value(self) -> float:
        return self.objective.smooth.value_from_residual(self.r)

    def psi_value(self) -> float:
        if self.objective.reg.kind is RegularizerKind.ZERO:
            return 0.0
        return float(self._psi_blocks.sum())

    def F_value(self) -> float:
        return self.f_value() + self.psi_value()

    def apply_update(self, i: int, t: np.ndarray):
        """x^(i) += t; r += A_i t; per-block Psi cache refreshed (a zero Psi
        keeps its cache of zeros)."""
        p = self.objective.partition
        if t.shape[0] != p.sizes[i]:
            raise ValueError(f"update for block {i} must have length {p.sizes[i]}")
        xi = self.x[p.range(i)]
        xi += t
        self.r += self.objective.smooth.blocks[i] @ t
        reg = self.objective.reg
        if reg.kind is not RegularizerKind.ZERO:
            self._psi_blocks[i] = reg.block_value(i, xi)

    def recompute_residual(self) -> float:
        """Refresh r from scratch; returns the drift that was present."""
        fresh = self.objective.smooth.residual(self.x)
        drift = float(np.linalg.norm(self.r - fresh))
        self.r = fresh
        return drift
