"""Block decomposition of R^N, the per-block model operators B_i and the
per-block weights.

Blocks are contiguous index ranges; any permutation of coordinates is
assumed to have been applied when the problem was assembled, so a block
view is a zero-copy slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmv

from icdkit.inner import estimate_lambda_min, estimate_operator_norm_sq

__all__ = [
    "BlockPartition",
    "BlockMetric",
    "WeightVector",
    "block_view",
]


@dataclass(frozen=True)
class BlockPartition:
    """Decomposition of R^N into n contiguous blocks of sizes N_i."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive integers")
        object.__setattr__(self, "sizes", sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        object.__setattr__(self, "offsets", tuple(int(o) for o in offsets))

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def N(self) -> int:
        return self.offsets[-1]

    def range(self, i: int) -> slice:
        if not 0 <= i < self.n:
            raise IndexError(f"block index {i} out of range [0, {self.n})")
        return slice(self.offsets[i], self.offsets[i + 1])


def block_view(x: np.ndarray, i: int, partition: BlockPartition) -> np.ndarray:
    """Return the contiguous slice of ``x`` belonging to block ``i``."""
    if x.shape[0] != partition.N:
        raise ValueError(f"vector of length {x.shape[0]} does not match N={partition.N}")
    return x[partition.range(i)]


class BlockMetric:
    """Per-block SPD operators B_i of the block models (L_i B_i in the
    paper; only the product enters the model, and it is stored here).

    objective.quadratic_metric builds it by the objective module's storage
    rule: stored[i] is the F-ordered upper Cholesky factor U_i of
    B_i = U_i^T U_i, and sparse[i] the pair (A_i, A_i^T) cut down to A_i's
    nonzero rows where the rule keeps one, else None. apply reads the pair
    where a block has one.
    """

    def __init__(self, stored, sparse=None):
        self.stored = list(stored)
        self.sparse = list(sparse) if sparse is not None else [None] * len(self.stored)
        self._prox = [None] * len(self.stored)

    def prox_constants(self, i: int) -> tuple[float, float]:
        """(mu_i, L_i), the prox step's estimates of lambda_min(B_i) and
        ||B_i||_2, both made from U_i (U_i^T U_i = B_i) on first use:
        L_i by the power iteration on U_i (2 N_i^2 flops a step), mu_i by
        the inverse power iteration with U_i, at most L_i."""
        if self._prox[i] is None:
            U = self.stored[i]
            L = estimate_operator_norm_sq(U)
            self._prox[i] = (estimate_lambda_min(U, L), L)
        return self._prox[i]

    def step_constant(self, i: int) -> float:
        """Estimate of ||B_i||_2, the prox step constant L_i (see prox_constants)."""
        return self.prox_constants(i)[1]

    @property
    def operators(self) -> list:
        """Every B_i, rebuilt from its factor; for readers off the hot path."""
        return [U.T @ U for U in self.stored]

    def apply(self, i: int, t: np.ndarray) -> np.ndarray:
        pair = self.sparse[i]
        if pair is not None:
            Ai, AiT = pair
            return AiT @ (Ai @ t)
        U = self.stored[i]
        return dtrmv(U, dtrmv(U, t), trans=1, overwrite_x=1)


@dataclass(frozen=True)
class WeightVector:
    """Positive per-block weights w_i of the norm sqrt(sum_i w_i <B_i x^(i), x^(i)>)."""

    w: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.w)
        if any(v <= 0 for v in w):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "w", w)

