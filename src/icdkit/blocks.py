"""Block decomposition of R^N, the per-block model operators B_i and the
per-block weights.

Blocks are contiguous index ranges; any permutation of coordinates is
assumed to have been applied when the problem was assembled, so a block
view is a zero-copy slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtpmv
from scipy.linalg.lapack import dtpttr

from icdkit.inner import estimate_lambda_min, estimate_operator_norm_sq, packed_order

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
    rule: stored[i] is the lower Cholesky factor R_i of B_i = R_i R_i^T,
    its triangle packed column by column (LAPACK's packed storage,
    N_i(N_i+1)/2 doubles; no block holds an N_i x N_i array), and sparse[i]
    the pair (A_i, A_i^T) cut down to A_i's nonzero rows where the rule
    keeps one, else None. apply reads the pair where a block has one, else
    applies B_i as two BLAS packed triangular products (tpmv) with R_i.
    """

    def __init__(self, stored, sparse=None):
        self.stored = list(stored)
        self.dims = [packed_order(R) for R in self.stored]
        self.sparse = list(sparse) if sparse is not None else [None] * len(self.stored)
        self._prox = [None] * len(self.stored)

    def prox_constants(self, i: int) -> tuple[float, float]:
        """(mu_i, L_i), the prox step's estimates of lambda_min(B_i) and
        ||B_i||_2, both made from R_i (R_i R_i^T = B_i) on first use:
        L_i by the power iteration on R_i^T (2 N_i^2 flops a step), mu_i by
        the inverse power iteration with R_i, at most L_i."""
        if self._prox[i] is None:
            R = self.stored[i]
            L = estimate_operator_norm_sq(R)
            self._prox[i] = (estimate_lambda_min(R, L), L)
        return self._prox[i]

    @property
    def operators(self) -> list:
        """Every B_i, rebuilt from its factor, unpacked by LAPACK tpttr; for
        readers off the hot path."""
        factors = (dtpttr(n, R, uplo="L")[0] for n, R in zip(self.dims, self.stored))
        return [L @ L.T for L in factors]

    def apply(self, i: int, t: np.ndarray) -> np.ndarray:
        pair = self.sparse[i]
        if pair is not None:
            Ai, AiT = pair
            return AiT @ (Ai @ t)
        n, R = self.dims[i], self.stored[i]
        return dtpmv(n, R, dtpmv(n, R, t, lower=1, trans=1), lower=1, overwrite_x=1)


@dataclass(frozen=True)
class WeightVector:
    """Positive per-block weights w_i of the norm sqrt(sum_i w_i <B_i x^(i), x^(i)>)."""

    w: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.w)
        if any(v <= 0 for v in w):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "w", w)

