"""Block-angular matrices, their C^T C preconditioners and the spectral
verification of the preconditioned operators.

A block-angular matrix stacks a block diagonal [C_1 ... C_n] over dense
linking rows D = [D_1 ... D_n]. The column block for block i is
A_i = [C_i; D_i], so B_i = A_i^T A_i = C_i^T C_i + D_i^T D_i and the
proposed preconditioner is P_i = C_i^T C_i (tall, full column rank) or
its shifted variant P_i + rho*I (wide blocks, where P_i is singular).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from icdkit.blocks import BlockPartition

__all__ = [
    "BlockAngularMatrix",
    "GeneratorSpec",
    "SpectrumReport",
    "generate",
    "build_preconditioner",
    "build_perturbed",
    "spectrum_report",
]

SPECTRUM_DIM_CAP = 500


class BlockAngularMatrix:
    """Diagonal blocks C_i plus linking rows D_i."""

    def __init__(self, C_blocks, D_blocks):
        if len(C_blocks) != len(D_blocks):
            raise ValueError("one linking block per diagonal block required")
        self.C_blocks = [sp.csc_matrix(C) for C in C_blocks]
        self.D_blocks = [sp.csc_matrix(D) for D in D_blocks]
        ells = {D.shape[0] for D in self.D_blocks}
        if len(ells) != 1:
            raise ValueError("all linking blocks must have the same row count")
        self.ell = ells.pop()
        for C, D in zip(self.C_blocks, self.D_blocks):
            if C.shape[1] != D.shape[1]:
                raise ValueError("C_i and D_i must have matching column counts")
        self.n = len(self.C_blocks)
        self.block_rows = [C.shape[0] for C in self.C_blocks]
        self.m = sum(self.block_rows)
        self.M = self.m + self.ell
        self.partition = BlockPartition(tuple(C.shape[1] for C in self.C_blocks))
        self.N = self.partition.N

    def assemble(self) -> sp.csc_matrix:
        C = sp.block_diag(self.C_blocks, format="csc")
        D = sp.hstack(self.D_blocks, format="csc")
        return sp.vstack([C, D], format="csc")

    def column_block(self, i: int) -> sp.csc_matrix:
        """A_i = [C_i; D_i] (the zero rows of other diagonal blocks dropped)."""
        return sp.vstack([self.C_blocks[i], self.D_blocks[i]], format="csc")

    def gram_block(self, i: int):
        """B_i = C_i^T C_i + D_i^T D_i."""
        Ai = self.column_block(i)
        return Ai.T @ Ai


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random block-angular instance.

    Tall blocks (M_i >= N_i) get ~nnz_per_col nonzeros per column and are
    checked for full column rank at desk scale. Wide blocks (M_i < N_i)
    get an identity multiple added to their first M_i columns so they
    have full row rank.
    """

    n: int
    M_i: int
    N_i: int
    ell: int
    nnz_per_col: int = 20
    d_fill: float = 0.1
    # multiplies the linking-row entries; the wide-case eigenvalue
    # classification needs every nonzero singular value of D_i to exceed
    # sqrt(rho_shift), which weak linking rows do not guarantee
    d_scale: float = 1.0
    shape: str = "tall"  # "tall" or "wide"
    seed: int = 0

    def __post_init__(self):
        if self.shape not in ("tall", "wide"):
            raise ValueError("shape must be 'tall' or 'wide'")
        if self.shape == "tall" and self.M_i < self.N_i:
            raise ValueError("tall blocks need M_i >= N_i")
        if self.shape == "wide" and self.M_i >= self.N_i:
            raise ValueError("wide blocks need M_i < N_i")
        if self.n < 1 or self.ell < 0 or self.d_fill < 0 or self.d_fill > 1:
            raise ValueError("invalid generator parameters")
        if self.d_scale <= 0:
            raise ValueError("d_scale must be positive")


def _random_sparse_columns(rng, M, N, nnz_per_col) -> sp.csc_matrix:
    nnz = min(nnz_per_col, M)
    rows = np.concatenate([rng.choice(M, size=nnz, replace=False) for _ in range(N)])
    cols = np.repeat(np.arange(N), nnz)
    vals = rng.standard_normal(N * nnz)
    return sp.csc_matrix((vals, (rows, cols)), shape=(M, N))


def _random_linking(rng, ell, N, fill) -> sp.csc_matrix:
    if ell == 0:
        return sp.csc_matrix((0, N))
    mask = rng.random((ell, N)) < fill
    vals = np.where(mask, rng.standard_normal((ell, N)), 0.0)
    return sp.csc_matrix(vals)


def _full_rank(C: sp.csc_matrix, mode: str) -> bool:
    dense = C.toarray()
    s = np.linalg.svd(dense, compute_uv=False)
    want = min(C.shape)
    rank = int((s > 1e-10 * s[0]).sum()) if s.size else 0
    return rank == want and (
        (mode == "tall" and want == C.shape[1]) or (mode == "wide" and want == C.shape[0])
    )


def generate(spec: GeneratorSpec) -> tuple[BlockAngularMatrix, np.ndarray, np.ndarray]:
    """Random block-angular instance with b = A x* so F* = 0."""
    rng = np.random.default_rng(spec.seed)
    desk_scale = max(spec.M_i, spec.N_i) <= SPECTRUM_DIM_CAP
    C_blocks = []
    for _ in range(spec.n):
        for attempt in range(5):
            C = _random_sparse_columns(rng, spec.M_i, spec.N_i, spec.nnz_per_col)
            if spec.shape == "wide":
                # identity multiple on the leading columns forces full row rank
                C = (C + sp.eye(spec.M_i, spec.N_i, format="csc")).tocsc()
            if not desk_scale or _full_rank(C, spec.shape):
                break
        else:
            raise RuntimeError("could not generate a full-rank diagonal block")
        C_blocks.append(C)
    D_blocks = [
        spec.d_scale * _random_linking(rng, spec.ell, spec.N_i, spec.d_fill)
        for _ in range(spec.n)
    ]
    mat = BlockAngularMatrix(C_blocks, D_blocks)
    x_star = rng.standard_normal(mat.N)
    b = mat.assemble() @ x_star
    return mat, x_star, b


def build_preconditioner(mat: BlockAngularMatrix, i: int) -> sp.csc_matrix:
    """P_i = C_i^T C_i; only valid for tall blocks with full column rank."""
    C = mat.C_blocks[i]
    if C.shape[0] < C.shape[1]:
        raise ValueError(
            "C_i is wide so C_i^T C_i is rank deficient; "
            "use the perturbed preconditioner build_perturbed instead"
        )
    return (C.T @ C).tocsc()


def build_perturbed(mat: BlockAngularMatrix, i: int, rho_shift: float = 0.5) -> sp.csc_matrix:
    """P_hat_i = C_i^T C_i + rho_shift * I (nonsingular for any block shape)."""
    if rho_shift <= 0:
        raise ValueError("rho_shift must be positive")
    C = mat.C_blocks[i]
    N = C.shape[1]
    return (C.T @ C + rho_shift * sp.eye(N)).tocsc()


@dataclass
class SpectrumReport:
    which: str
    eigenvalues: np.ndarray
    rank_D: int
    rank_A: int
    counts: dict = field(default_factory=dict)
    trace_lhs: float | None = None
    trace_rhs: float | None = None
    trace_bound: float | None = None
    expected_eigenvalues: np.ndarray | None = None
    unit_tol: float = 1e-8
    extras: dict = field(default_factory=dict)


def _rank(dense: np.ndarray) -> int:
    if dense.size == 0:
        return 0
    s = np.linalg.svd(dense, compute_uv=False)
    return int((s > 1e-10 * s[0]).sum()) if s.size and s[0] > 0 else 0


def spectrum_report(
    mat: BlockAngularMatrix,
    i: int,
    which: str,
    rho_shift: float = 0.5,
    unit_tol: float = 1e-8,
) -> SpectrumReport:
    """Eigenvalues and classification of the preconditioned block operator.

    which is one of "PB" (P^{-1} B_i, tall blocks), "PhatB"
    (P_hat^{-1} B_i) or "PhatP" (P_hat^{-1} P). Eigensolves use the
    generalized symmetric-definite form, which is similar to the
    nonsymmetric preconditioned operator.
    """
    if not 0 <= i < mat.n:
        raise ValueError(f"block {i} outside [0, {mat.n})")
    C = mat.C_blocks[i].toarray()
    D = mat.D_blocks[i].toarray()
    Ni = C.shape[1]
    if Ni > SPECTRUM_DIM_CAP:
        raise ValueError(
            f"N_i = {Ni} exceeds the dense spectrum cap {SPECTRUM_DIM_CAP}; "
            "use a sampling-based spectrum estimate for blocks this large"
        )
    P = C.T @ C
    B = P + D.T @ D
    A_dense = np.vstack([C, D])
    r = _rank(D)
    s = _rank(A_dense)
    rep = SpectrumReport(which=which, eigenvalues=np.array([]), rank_D=r, rank_A=s, unit_tol=unit_tol)

    if which == "PB":
        if C.shape[0] < Ni:
            raise ValueError("P^{-1} B requires a tall block; use PhatB")
        vals = scipy.linalg.eigh(B, P, eigvals_only=True)
        rep.eigenvalues = vals
        rep.counts = {
            "equal_one": int(np.sum(np.abs(vals - 1.0) <= unit_tol)),
            "greater_one": int(np.sum(vals > 1.0 + unit_tol)),
            "less_one": int(np.sum(vals < 1.0 - unit_tol)),
        }
        # trace identity via D = Z C and the thin QR of C
        Z, res, *_ = np.linalg.lstsq(C.T, D.T, rcond=None)
        Z = Z.T
        factor_resid = np.linalg.norm(Z @ C - D)
        scale = max(np.linalg.norm(D), 1.0)
        if factor_resid > 1e-8 * scale:
            raise ValueError("linking rows are not in the row space of C_i")
        Y, _ = np.linalg.qr(C)
        rep.trace_lhs = float(np.trace(D @ np.linalg.solve(P, D.T)))
        rep.trace_rhs = float(np.sum((Z @ Y) ** 2))
        rep.trace_bound = float(np.sum(Z**2))
        rep.extras["eigen_sum"] = float(vals.sum())
        rep.extras["eigen_sum_expected"] = Ni + rep.trace_lhs
        return rep

    Phat = P + rho_shift * np.eye(Ni)
    if which == "PhatP":
        vals = scipy.linalg.eigh(P, Phat, eigvals_only=True)
        rep.eigenvalues = vals
        lam = np.linalg.eigvalsh(P)
        Mi = _rank(C)
        nonzero = lam[Ni - Mi :] if Mi > 0 else np.array([])
        expected = np.concatenate([np.zeros(Ni - Mi), nonzero / (nonzero + rho_shift)])
        rep.expected_eigenvalues = np.sort(expected)
        rep.counts = {
            "zero": int(np.sum(np.abs(vals) <= unit_tol)),
            "positive": int(np.sum(vals > unit_tol)),
        }
        return rep

    if which == "PhatB":
        vals = scipy.linalg.eigh(B, Phat, eigvals_only=True)
        rep.eigenvalues = vals
        # trace identity via the eigendecomposition of P
        lam, V = np.linalg.eigh(P)
        Mi = _rank(C)
        V1 = V[:, Ni - Mi :]
        V2 = V[:, : Ni - Mi]
        lam1 = lam[Ni - Mi :]
        lhs = float(np.trace(D @ np.linalg.solve(Phat, D.T)))
        rhs = 0.0
        for j in range(D.shape[0]):
            d = D[j]
            rhs += float(np.sum((V1.T @ d) ** 2 / (lam1 + rho_shift)))
            rhs += float(np.sum((V2.T @ d) ** 2)) / rho_shift
        rep.trace_lhs = lhs
        rep.trace_rhs = rhs
        upper = 1.0 + lhs
        rep.trace_bound = upper
        ztol = unit_tol * max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
        rep.counts = {
            "zero": int(np.sum(np.abs(vals) <= ztol)),
            "in_zero_one": int(np.sum((vals > ztol) & (vals < 1.0 - unit_tol))),
            "equal_one": int(np.sum(np.abs(vals - 1.0) <= unit_tol)),
            "greater_one": int(np.sum(vals > 1.0 + unit_tol)),
            "above_bound": int(np.sum(vals > upper + unit_tol)),
        }
        return rep

    raise ValueError(f"unknown operator selector {which!r}")
