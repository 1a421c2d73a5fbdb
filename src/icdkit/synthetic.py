"""Synthetic instances with a known optimum.

The lasso construction fixes a target x*, picks a subgradient s of the
l1 norm at x*, and chooses the residual r* as the minimum-norm solution
of A^T r = -lam * s, so that x* satisfies the first-order optimality
condition exactly and F* = 1/2 ||r*||^2 + lam ||x*||_1 is known in
closed form. The data vector is then b = A x* - r*.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from icdkit.blocks import BlockPartition
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
    quadratic_metric,
)

__all__ = ["lasso_instance"]

SUPPORT_FRACTION = 0.2  # share of the coordinates of x* that are nonzero (at least one)


def lasso_instance(
    M: int,
    N: int,
    sizes: tuple[int, ...],
    lam: float,
    seed: int = 0,
) -> CompositeObjective:
    """Random dense lasso problem min 1/2||Ax-b||^2 + lam||x||_1 with a
    known optimum x* and optimal value F*.

    A must have full column rank (M >= N) so the minimum-norm residual
    r* = A (A^T A)^{-1} (-lam s) is well defined.
    """
    if M < N:
        raise ValueError("the construction needs M >= N (full column rank)")
    partition = BlockPartition(sizes)
    if partition.N != N:
        raise ValueError("block sizes must sum to N")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((M, N)) / np.sqrt(M)

    x_star = np.zeros(N)
    support = rng.choice(N, size=max(1, int(SUPPORT_FRACTION * N)), replace=False)
    x_star[support] = rng.standard_normal(support.size)

    # subgradient of ||.||_1 at x*: signs on the support, interior values off it
    s = rng.uniform(-0.5, 0.5, size=N)
    s[support] = np.sign(x_star[support])

    r_star = A @ np.linalg.solve(A.T @ A, -lam * s)
    b = A @ x_star - r_star
    F_star = 0.5 * float(r_star @ r_star) + lam * float(np.abs(x_star).sum())

    # A in CSC, every entry stored column by column: sp.csc_matrix(A)'s
    # arrays, since a Gaussian draw has no zero, without its coordinate pass
    rows = np.tile(np.arange(M, dtype=np.int32), N)
    A = sp.csc_matrix((A.ravel(order="F"), rows, np.arange(0, M * N + 1, M)), shape=(M, N))
    smooth = QuadraticSmooth(A, b, partition)
    return CompositeObjective(
        smooth,
        SeparableRegularizer.l1(lam),
        quadratic_metric(smooth),
        F_star=F_star,
        x_star=x_star,
    )
