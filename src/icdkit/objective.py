"""Composite objective F = f + Psi for a quadratic smooth part.

f(x) = 1/2 ||A x - b||^2 with A sparse or dense, and Psi block separable
(zero, l1 or group lasso). The natural metric for the quadratic is
l_i = 1, B_i = A_i^T A_i, which makes the per-block model an exact upper
bound. The residual r = A x - b is maintained incrementally so a block
update costs O(nnz(A_i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from icdkit.blocks import BlockMetric, BlockPartition, block_view

__all__ = [
    "QuadraticSmooth",
    "RegularizerKind",
    "SeparableRegularizer",
    "CompositeObjective",
    "ResidualState",
    "quadratic_metric",
]


class QuadraticSmooth:
    """f(x) = 1/2 ||A x - b||^2 with cached per-block column submatrices."""

    def __init__(self, A, b: np.ndarray, partition: BlockPartition):
        if A.shape[1] != partition.N:
            raise ValueError("A has wrong number of columns for the partition")
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self.A = sp.csc_matrix(A) if sp.issparse(A) else np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.partition = partition
        self.M = A.shape[0]
        # column slicing is cheap on CSC / contiguous on dense arrays
        self.blocks = [self.A[:, partition.range(i)] for i in range(partition.n)]

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def value_from_residual(self, r: np.ndarray) -> float:
        return 0.5 * float(r @ r)


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

    def value(self, x: np.ndarray, partition: BlockPartition) -> float:
        return sum(
            self.block_value(i, block_view(x, i, partition)) for i in range(partition.n)
        )


# A sparse block's B_i is stored dense up to this many columns and as CSR
# above it; only blocks up to this size get the Cholesky rank check.
_DENSE_METRIC_CAP = 600


def quadratic_metric(smooth: QuadraticSmooth) -> BlockMetric:
    """Build the exact metric l_i=1, B_i = A_i^T A_i for a quadratic.

    A rank-deficient block gets B_i = A_i^T A_i + eps*I with
    eps = 1e-8 * ||A_i||_F^2 / N_i, which keeps B_i SPD at the cost of a
    strict (rather than exact) overapproximation.
    """
    ops = []
    for i, Ai in enumerate(smooth.blocks):
        Ni = Ai.shape[1]
        small = Ni <= _DENSE_METRIC_CAP
        if sp.issparse(Ai):
            B = (Ai.T @ Ai).toarray() if small else sp.csr_matrix(Ai.T @ Ai)
            fro2 = float(Ai.multiply(Ai).sum())
        else:
            B = Ai.T @ Ai
            fro2 = float((Ai * Ai).sum())
        deficient = Ai.shape[0] < Ni
        if not deficient and small:
            try:
                np.linalg.cholesky(B)
            except np.linalg.LinAlgError:
                deficient = True
        if deficient:
            eps = 1e-8 * fro2 / Ni
            if sp.issparse(B):
                B = B + eps * sp.eye(Ni, format="csr")
            else:
                B = B + eps * np.eye(Ni)
        ops.append(B)
    return BlockMetric(ops, np.ones(len(ops)))


class CompositeObjective:
    """Immutable bundle of smooth part, regularizer, metric and optima."""

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
        return self.smooth.blocks[i].T @ state.r

    def model_value(self, state: "ResidualState", i: int, t: np.ndarray) -> float:
        """V_i(x, t) = <grad_i f, t> + (l_i/2) <B_i t, t> + Psi_i(x^(i) + t)."""
        xi = block_view(state.x, i, self.partition)
        return self.model_from_gradient(i, self.block_gradient(state, i), xi, t)

    def model_from_gradient(
        self, i: int, grad: np.ndarray, xi: np.ndarray, t: np.ndarray
    ) -> float:
        """V_i(x, t) from grad = grad_i f(x) and the block xi = x^(i)."""
        li = self.metric.lipschitz[i]
        quad = 0.5 * li * float(t @ self.metric.apply(i, t))
        return float(grad @ t) + quad + self.reg.block_value(i, xi + t)

    def eval_H(self, state: "ResidualState", T: np.ndarray) -> float:
        """f(x) + sum_i V_i(x, T^(i)); equals the full-dimensional surrogate
        f + <grad f, T> + 1/2 ||T||_L^2 + Psi(x + T)."""
        if T.shape[0] != self.partition.N:
            raise ValueError("T must be full-dimensional")
        total = state.f_value()
        for i in range(self.partition.n):
            total += self.model_value(state, i, block_view(T, i, self.partition))
        return total


class ResidualState:
    """Single-owner mutable iterate with incrementally maintained residual."""

    def __init__(self, objective: CompositeObjective, x0: np.ndarray):
        self.objective = objective
        self.x = np.array(x0, dtype=float, copy=True)
        if self.x.shape[0] != objective.partition.N:
            raise ValueError("x0 has wrong dimension")
        self.r = objective.smooth.residual(self.x)
        p = objective.partition
        self._psi_blocks = np.array(
            [objective.reg.block_value(i, block_view(self.x, i, p)) for i in range(p.n)]
        )

    def f_value(self) -> float:
        return self.objective.smooth.value_from_residual(self.r)

    def psi_value(self) -> float:
        return float(self._psi_blocks.sum())

    def F_value(self) -> float:
        return self.f_value() + self.psi_value()

    def apply_update(self, i: int, t: np.ndarray):
        """x^(i) += t; r += A_i t; per-block Psi cache refreshed."""
        p = self.objective.partition
        if t.shape[0] != p.sizes[i]:
            raise ValueError(f"update for block {i} must have length {p.sizes[i]}")
        self.x[p.range(i)] += t
        self.r += self.objective.smooth.blocks[i] @ t
        self._psi_blocks[i] = self.objective.reg.block_value(
            i, block_view(self.x, i, p)
        )

    def recompute_residual(self) -> float:
        """Refresh r from scratch; returns the drift that was present."""
        fresh = self.objective.smooth.residual(self.x)
        drift = float(np.linalg.norm(self.r - fresh))
        self.r = fresh
        return drift
