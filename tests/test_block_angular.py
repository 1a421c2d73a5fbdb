"""Block-angular generation, preconditioners, and spectrum verification."""

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit.block_angular import (
    BlockAngularMatrix,
    GeneratorSpec,
    build_preconditioner,
    generate,
    spectrum_report,
)
from icdkit.objective import QuadraticSmooth, quadratic_metric


def _toy_tall():
    # C = I2, D = [1 0]
    return BlockAngularMatrix(
        [sp.csc_matrix(np.eye(2))], [sp.csc_matrix(np.array([[1.0, 0.0]]))]
    )


def _toy_wide():
    # C = [1 0], D = [0 1]
    return BlockAngularMatrix(
        [sp.csc_matrix(np.array([[1.0, 0.0]]))], [sp.csc_matrix(np.array([[0.0, 1.0]]))]
    )


# ------------------------------------------------------------ assembly


def test_assemble_structure():
    mat, _, _ = generate(GeneratorSpec(n=3, M_i=8, N_i=4, ell=2, seed=1))
    A = mat.assemble().toarray()
    assert A.shape == (3 * 8 + 2, 12)
    # off-diagonal C positions are zero
    assert np.all(A[0:8, 4:12] == 0)
    assert np.all(A[8:16, 0:4] == 0)
    assert np.all(A[8:16, 8:12] == 0)
    # block 1's columns hold C_1 in its own rows and D_1 in the linking rows
    Ai = A[:, mat.partition.range(1)]
    assert np.allclose(Ai[8:16], mat.C_blocks[1].toarray())
    assert np.allclose(Ai[24:], mat.D_blocks[1].toarray())
    assert np.all(Ai[0:8] == 0) and np.all(Ai[16:24] == 0)


def test_gram_block_identity():
    # the metric the solver builds from the assembled matrix is C_i^T C_i + D_i^T D_i
    def metric_of(mat):
        return quadratic_metric(QuadraticSmooth(mat.assemble(), np.zeros(mat.M), mat.partition))

    # C^T C + D^T D = I + e1 e1^T
    assert np.allclose(metric_of(_toy_tall()).operators[0], [[2.0, 0.0], [0.0, 1.0]])
    mat, _, _ = generate(GeneratorSpec(n=3, M_i=8, N_i=4, ell=2, seed=1))
    for i, B in enumerate(metric_of(mat).operators):
        C, D = mat.C_blocks[i], mat.D_blocks[i]
        assert np.allclose(B, (C.T @ C + D.T @ D).toarray(), rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------- generator


def test_generate_consistent_rhs():
    mat, x_star, b = generate(GeneratorSpec(n=4, M_i=60, N_i=20, ell=5, seed=7))
    A = mat.assemble()
    assert 0.5 * np.sum((A @ x_star - b) ** 2) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("spec", [
    GeneratorSpec(n=10, M_i=2000, N_i=500, ell=1, seed=3),
    GeneratorSpec(n=4, M_i=30, N_i=60, ell=2, shape="wide", seed=5),
    GeneratorSpec(n=3, M_i=40, N_i=12, ell=2, seed=1),
    GeneratorSpec(n=3, M_i=40, N_i=12, ell=0, seed=1),
], ids=["bench", "wide", "ell-2", "ell-0"])
def test_generate_forms_b_as_the_assembled_product_to_the_bit(spec):
    # b is formed block by block, with the assembled CSC product's additions
    mat, x_star, b = generate(spec)
    assert np.array_equal(b, mat.assemble() @ x_star)


def test_generate_nnz_per_column_near_target():
    mat, _, _ = generate(GeneratorSpec(n=4, M_i=60, N_i=20, ell=5, nnz_per_col=20, seed=7))
    for C in mat.C_blocks:
        counts = np.diff(C.tocsc().indptr)
        assert np.all(counts >= 15) and np.all(counts <= 25)


def test_generate_deterministic():
    a = generate(GeneratorSpec(n=2, M_i=30, N_i=10, ell=3, seed=5))
    b = generate(GeneratorSpec(n=2, M_i=30, N_i=10, ell=3, seed=5))
    assert (a[0].assemble() != b[0].assemble()).nnz == 0
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_generate_degenerate_single_block():
    mat, x_star, b = generate(GeneratorSpec(n=1, M_i=2, N_i=2, ell=0, seed=0))
    A = mat.assemble()
    assert A.shape == (2, 2)
    assert np.allclose(A @ x_star, b)


def test_generate_tall_blocks_full_column_rank():
    mat, _, _ = generate(GeneratorSpec(n=3, M_i=40, N_i=15, ell=2, seed=3))
    for C in mat.C_blocks:
        assert np.linalg.matrix_rank(C.toarray()) == 15


def test_generate_wide_blocks_full_row_rank():
    mat, _, _ = generate(GeneratorSpec(n=2, M_i=10, N_i=25, ell=2, shape="wide", seed=3))
    for C in mat.C_blocks:
        assert np.linalg.matrix_rank(C.toarray()) == 10


# ------------------------------------------------------ preconditioners


def test_preconditioner_identity():
    mat = _toy_tall()
    P = build_preconditioner(mat, 0)
    assert np.allclose(P.toarray() if sp.issparse(P) else P, np.eye(2))


def test_perturbed_preconditioner_wide():
    mat = _toy_wide()
    Ph = build_preconditioner(mat, 0, rho_shift=0.5)
    assert np.allclose(Ph.toarray() if sp.issparse(Ph) else Ph, np.diag([1.5, 0.5]))


def test_preconditioner_spd_on_random_tall():
    mat, _, _ = generate(GeneratorSpec(n=2, M_i=30, N_i=10, ell=2, seed=9))
    for i in range(2):
        P = build_preconditioner(mat, i)
        P = P.toarray() if sp.issparse(P) else P
        assert np.allclose(P, P.T)
        assert np.linalg.eigvalsh(P).min() > 0


# --------------------------------------------------------- tall spectra


def test_tall_toy_spectrum():
    rep = spectrum_report(_toy_tall(), 0, "PB")
    assert sorted(np.round(rep.eigenvalues, 10)) == [1.0, 2.0]
    assert rep.counts == {"equal_one": 1, "greater_one": 1, "less_one": 0}
    assert rep.trace_lhs == pytest.approx(1.0)
    assert rep.trace_bound == pytest.approx(1.0)


def test_tall_zero_linking_all_ones():
    mat = BlockAngularMatrix(
        [sp.csc_matrix(np.random.default_rng(0).standard_normal((6, 3)))],
        [sp.csc_matrix(np.zeros((2, 3)))],
    )
    rep = spectrum_report(mat, 0, "PB")
    assert np.allclose(rep.eigenvalues, 1.0, atol=1e-10)


def test_tall_random_counts_and_trace():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = 2
        mat, _, _ = generate(
            GeneratorSpec(
                n=n, M_i=int(rng.integers(20, 50)), N_i=int(rng.integers(5, 15)),
                ell=int(rng.integers(1, 5)), seed=int(rng.integers(10_000)),
            )
        )
        for i in range(n):
            rep = spectrum_report(mat, i, "PB")
            Ni = mat.partition.sizes[i]
            assert rep.counts["equal_one"] == Ni - rep.rank_D
            assert rep.counts["greater_one"] == rep.rank_D
            assert rep.counts["less_one"] == 0
            assert rep.trace_lhs == pytest.approx(rep.trace_rhs, rel=1e-10)
            assert rep.trace_rhs <= rep.trace_bound * (1 + 1e-10) + 1e-12
            # eigenvalue sum = N_i + trace(D P^-1 D^T)
            assert np.sum(rep.eigenvalues) == pytest.approx(Ni + rep.trace_lhs, rel=1e-10)


def test_trace_bound_equality_for_square_invertible_C():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    D = rng.standard_normal((2, 5))
    mat = BlockAngularMatrix([sp.csc_matrix(C)], [sp.csc_matrix(D)])
    rep = spectrum_report(mat, 0, "PB")
    assert rep.trace_rhs == pytest.approx(rep.trace_bound, rel=1e-10)


# --------------------------------------------------------- wide spectra


def test_wide_toy_spectra():
    mat = _toy_wide()
    rb = spectrum_report(mat, 0, "PhatB", rho_shift=0.5)
    assert sorted(np.round(rb.eigenvalues, 10)) == [pytest.approx(2 / 3), 2.0]
    assert rb.counts["zero"] == 0
    assert rb.counts["in_zero_one"] == 1
    assert rb.counts["greater_one"] == 1
    rp = spectrum_report(mat, 0, "PhatP", rho_shift=0.5)
    assert sorted(np.round(rp.eigenvalues, 10)) == [0.0, pytest.approx(2 / 3)]


def test_wide_shifted_gram_multiset():
    rng = np.random.default_rng(3)
    for trial in range(5):
        mat, _, _ = generate(
            GeneratorSpec(n=1, M_i=6, N_i=15, ell=3, shape="wide", seed=trial)
        )
        rho = 0.5
        rep = spectrum_report(mat, 0, "PhatP", rho_shift=rho)
        C = mat.C_blocks[0].toarray()
        lam = np.linalg.eigvalsh(C @ C.T)
        expected = np.sort(np.concatenate([np.zeros(15 - 6), lam / (lam + rho)]))
        assert np.allclose(np.sort(rep.eigenvalues), expected, atol=1e-10)


def test_wide_eigenvalues_approach_one_as_shift_shrinks():
    mat, _, _ = generate(GeneratorSpec(n=1, M_i=5, N_i=12, ell=2, shape="wide", seed=4))
    prev = None
    for rho in (0.5, 0.05, 0.005):
        rep = spectrum_report(mat, 0, "PhatP", rho_shift=rho)
        nonzero = np.sort(rep.eigenvalues[rep.eigenvalues > 1e-9])
        if prev is not None:
            assert np.all(nonzero >= prev - 1e-12)
        prev = nonzero
    assert np.all(prev > 0.99)


def test_wide_counts_and_trace():
    # the three-interval classification needs ell >= N_i - M_i so the
    # linking rows can span the null space of C_i, and every nonzero
    # singular value of D_i above sqrt(rho_shift); dense scaled linking
    # rows put the instance in that regime
    rng = np.random.default_rng(5)
    for trial in range(5):
        M_i = int(rng.integers(4, 10))
        N_i = int(rng.integers(12, 20))
        ell = N_i - M_i + int(rng.integers(0, 3))
        mat, _, _ = generate(
            GeneratorSpec(n=1, M_i=M_i, N_i=N_i, ell=ell, d_fill=1.0, d_scale=3.0,
                          shape="wide", seed=100 + trial)
        )
        sv = np.linalg.svd(mat.D_blocks[0].toarray(), compute_uv=False)
        assert sv[sv > 1e-10].min() ** 2 > 0.5
        rep = spectrum_report(mat, 0, "PhatB", rho_shift=0.5)
        Ni = mat.partition.sizes[0]
        s, r = rep.rank_A, rep.rank_D
        assert rep.counts["zero"] == Ni - s
        assert rep.counts["in_zero_one"] == s - r
        assert rep.counts["greater_one"] == r
        assert rep.counts["above_bound"] == 0
        assert rep.trace_lhs == pytest.approx(rep.trace_rhs, rel=1e-10)


def test_spectrum_rejects_oversized_block():
    rng = np.random.default_rng(6)
    C = sp.eye(600, format="csc")
    D = sp.csc_matrix((1, 600))
    mat = BlockAngularMatrix([C], [D])
    with pytest.raises(ValueError, match="sampling"):
        spectrum_report(mat, 0, "PB")


@pytest.mark.parametrize(
    "mat, which, error",
    [
        (_toy_tall(), "BP", "unknown operator selector 'BP'"),
        (BlockAngularMatrix([sp.eye(600, format="csc")], [sp.csc_matrix((1, 600))]), "PhatP",
         "exceeds the dense spectrum cap"),
        (_toy_wide(), "PB", "requires a tall block"),
    ],
    ids=["unknown-selector", "oversized", "PB-on-wide"],
)
def test_spectrum_checks_its_inputs_before_densifying(monkeypatch, mat, which, error):
    def densify(self, *args, **kwargs):
        raise AssertionError("a block was densified before the input checks")

    monkeypatch.setattr(sp.csc_matrix, "toarray", densify)
    with pytest.raises(ValueError, match=error):
        spectrum_report(mat, 0, which)


@pytest.mark.parametrize("i", [1, -1])
def test_spectrum_rejects_block_outside_the_instance(i):
    # the toy instance has one block; -1 must not wrap round to it
    with pytest.raises(ValueError, match=rf"block {i} outside \[0, 1\)"):
        spectrum_report(_toy_tall(), i, "PB")
