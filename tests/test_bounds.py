"""Iteration-complexity calculators: formulas, feasibility, degeneracies."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from icdkit.blocks import BlockPartition, WeightVector
from icdkit.bounds import (
    BoundInputs,
    constants_composite_convex,
    constants_smooth_convex,
    constants_smooth_strongly_convex,
    constants_strongly_convex,
    exact_case_i,
    exact_case_ii,
    iterations_case_i,
    iterations_case_ii,
    mu_quadratic,
    report,
    sigma_u,
)
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    SeparableRegularizer,
    quadratic_metric,
)


# ------------------------------------------------------------- sigma_u


def test_sigma_u_exact_case():
    assert sigma_u(100.0, 0.0, 0.0) == (0.0, 0.0)


def test_sigma_u_worked_values():
    sigma, u = sigma_u(100.0, 0.01, 0.01)
    assert sigma == pytest.approx(0.0223607, abs=1e-6)
    assert u == pytest.approx(1.61803, abs=1e-4)


def test_sigma_u_beta_zero():
    sigma, u = sigma_u(50.0, 0.3, 0.0)
    assert sigma == pytest.approx(0.3)
    assert u == pytest.approx(0.3 * 50.0)


# --------------------------------------------------------------- case i


def test_case_i_worked_example():
    inp = BoundInputs(c=80.0, alpha=0.0, beta=0.0, eps=1.0, rho=math.exp(-1), xi0=3.0)
    res = iterations_case_i(inp)
    assert res.feasible
    assert res.K == 136  # ceil(80 + (80 - 80/3) + 2)


def test_case_i_eps_above_xi0_infeasible():
    inp = BoundInputs(c=80.0, alpha=0.0, beta=0.0, eps=4.0, rho=0.3, xi0=3.0)
    res = iterations_case_i(inp)
    assert not res.feasible
    assert any("xi0" in v for v in res.violated)


def test_case_i_large_beta_infeasible():
    c1, rho, eps, alpha = 10.0, 0.2, 1.0, 0.0
    # beta pushing the eps lower bound just above eps
    beta = c1 * rho * ((2 * eps / c1 - alpha) ** 2 - alpha**2) / 4 + 1e-6
    res = iterations_case_i(BoundInputs(c=c1, alpha=alpha, beta=beta, eps=eps, rho=rho, xi0=5.0))
    assert not res.feasible
    assert any("4 beta" in v for v in res.violated)


def test_case_i_sigma_branch_uses_min():
    inp = BoundInputs(c=50.0, alpha=0.02, beta=0.001, eps=2.0, rho=0.3, xi0=20.0)
    res = iterations_case_i(inp)
    assert res.feasible
    k1 = res.derived["k1"]
    assert k1 <= res.derived["k1_first_branch"] + 1e-12


# -------------------------------------------------------------- case ii


def test_case_ii_exact_worked_example():
    inp = BoundInputs(c=10.0, alpha=0.0, beta=0.0, eps=0.01, rho=0.1, xi0=1.0)
    res = iterations_case_ii(inp)
    assert res.feasible
    assert res.K == 70  # ceil(10 ln 1000)


def test_case_ii_inexact_worked_example():
    inp = BoundInputs(c=10.0, alpha=0.05, beta=0.001, eps=0.3, rho=0.1, xi0=1.0)
    res = iterations_case_ii(inp)
    assert res.feasible
    assert res.derived["shift"] == pytest.approx(0.02)
    assert res.K == 92  # ceil(20 ln 98)


def test_case_ii_eps_below_threshold_infeasible():
    inp = BoundInputs(c=10.0, alpha=0.05, beta=0.001, eps=0.1, rho=0.1, xi0=1.0)
    res = iterations_case_ii(inp)
    assert not res.feasible


def test_case_ii_beta_zero_feasible_for_all_eps():
    for eps in (1e-6, 1e-3, 0.5):
        res = iterations_case_ii(
            BoundInputs(c=5.0, alpha=0.01, beta=0.0, eps=eps, rho=0.3, xi0=1.0)
        )
        assert res.feasible


# -------------------------------------------------- exact degeneracies


def test_degenerate_case_i_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c1 = float(rng.uniform(1.0, 200.0))
        xi0 = float(rng.uniform(0.5, 50.0))
        eps = float(rng.uniform(0.01, 0.99)) * min(c1, xi0)
        rho = float(rng.uniform(0.05, 0.9))
        res = iterations_case_i(BoundInputs(c=c1, alpha=0.0, beta=0.0, eps=eps, rho=rho, xi0=xi0))
        assert res.feasible
        closed = exact_case_i(c1, eps, rho, xi0)
        assert abs(res.K - closed) <= 1.0 + 1e-9


def test_degenerate_case_ii_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c2 = float(rng.uniform(1.0, 100.0))
        xi0 = float(rng.uniform(0.5, 50.0))
        eps = float(rng.uniform(0.001, 0.9)) * xi0
        rho = float(rng.uniform(0.05, 0.9))
        res = iterations_case_ii(BoundInputs(c=c2, alpha=0.0, beta=0.0, eps=eps, rho=rho, xi0=xi0))
        assert res.feasible
        closed = exact_case_ii(c2, eps, rho, xi0)
        assert abs(res.K - closed) <= 1.0 + 1e-9


def test_bound_monotonicity_in_parameters():
    base = dict(c=30.0, alpha=0.005, beta=0.001, eps=1.0, rho=0.2, xi0=10.0)
    k0 = iterations_case_ii(BoundInputs(**base)).K
    assert iterations_case_ii(BoundInputs(**{**base, "alpha": 0.01})).K >= k0
    assert iterations_case_ii(BoundInputs(**{**base, "beta": 0.005})).K >= k0
    assert iterations_case_ii(BoundInputs(**{**base, "eps": 2.0})).K <= k0
    assert iterations_case_ii(BoundInputs(**{**base, "rho": 0.4})).K <= k0


def test_case_i_lower_bound_predicate_equivalence():
    # (c1/2)(alpha + sqrt(alpha^2 + 4 beta/(c1 rho))) < eps  iff
    # eps > alpha c1 and beta c1 / (rho (eps - alpha c1)) < eps
    rng = np.random.default_rng(2)
    for _ in range(200):
        c1 = float(rng.uniform(1.0, 100.0))
        alpha = float(rng.uniform(0.0, 0.05))
        beta = float(rng.uniform(0.0, 0.5))
        rho = float(rng.uniform(0.05, 0.9))
        eps = float(rng.uniform(0.01, 20.0))
        lhs = 0.5 * c1 * (alpha + math.sqrt(alpha**2 + 4 * beta / (c1 * rho))) < eps
        rhs = eps > alpha * c1 and beta * c1 / (rho * (eps - alpha * c1)) < eps
        assert lhs == rhs


# ------------------------------------------------------------ constants


def test_constants_composite_convex():
    c1, c2 = constants_composite_convex(n=10, R2=4.0, xi0=3.0, eps=0.8)
    assert c1 == pytest.approx(80.0)
    assert c2 == pytest.approx(100.0)


def test_constants_composite_convex_tie():
    c1, _ = constants_composite_convex(n=5, R2=3.0, xi0=3.0, eps=1.0)
    assert c1 == pytest.approx(2 * 5 * 3.0)


def test_constants_strongly_convex():
    mu, c2, alpha_max = constants_strongly_convex(n=4, mu_f=0.5, mu_psi=0.0)
    assert mu == pytest.approx(0.5)
    assert c2 == pytest.approx(8.0)
    assert alpha_max == pytest.approx(0.125)


def test_constants_strongly_convex_mu_psi_monotone():
    vals = [constants_strongly_convex(2, 0.5, m)[0] for m in (0.0, 1.0, 10.0)]
    assert vals[0] < vals[1] < vals[2] < 1.0 + 1e-12


def test_constants_strongly_convex_boundary():
    mu, c2, _ = constants_strongly_convex(n=3, mu_f=1.0, mu_psi=0.0)
    assert mu == pytest.approx(1.0)
    assert c2 == pytest.approx(3.0)


def test_constants_strongly_convex_rejects_mu_f_above_one():
    with pytest.raises(ValueError):
        constants_strongly_convex(n=3, mu_f=1.5, mu_psi=0.0)


def test_constants_smooth():
    assert constants_smooth_convex(4.0) == pytest.approx(8.0)
    assert constants_smooth_strongly_convex(0.25) == pytest.approx(4.0)
    assert constants_smooth_strongly_convex(0.999) > 1.0
    with pytest.raises(ValueError):
        constants_smooth_strongly_convex(1.0)


def test_report_rows():
    row = report("composite_convex_i", eps=1.0, rho=float(np.exp(-1)), xi0=3.0, n=10, R2=4.0)
    assert row["K_inexact"] == 136
    assert abs(row["K_exact"] - row["K_inexact"]) <= 1
    row = report("composite_convex_ii", eps=0.3, rho=0.1, alpha=0.05, beta=0.001,
                 xi0=1.0, n=1, R2=1.5)
    assert row["constant"] == pytest.approx(10.0)
    assert row["K_inexact"] == 92
    # strongly convex, mu = 0.5 and c2 = n/mu = 8: alpha < mu/n is alpha c2 < 1
    row = report("strongly_convex", eps=0.1, rho=0.2, alpha=0.1, xi0=1.0, n=4, mu_f=0.5)
    assert row["feasible"] and row["K_inexact"] == math.ceil(8 / 0.2 * math.log(1 / 0.02))
    row = report("strongly_convex", eps=0.1, rho=0.2, alpha=0.125, xi0=1.0, n=4, mu_f=0.5)
    assert row["feasible"] is False and row["K_inexact"] is None  # the boundary is excluded
    assert row["violated"] == ["alpha c2 < 1"]
    assert row["derived"] == {"shift": None, "rate": None}  # no Infinity in the CLI's JSON
    assert row["K_exact"] == math.ceil(exact_case_ii(8.0, 0.1, 0.2, 1.0))


# ------------------------------------------------------------------ mu


def _quadratic_objective(A, b, sizes, dense=False):
    p = BlockPartition(sizes)
    smooth = QuadraticSmooth(A if dense else sp.csc_matrix(A), b, p)
    return CompositeObjective(
        smooth, SeparableRegularizer.zero(), quadratic_metric(smooth)
    )


def test_mu_quadratic_exact_metric_gives_one_for_single_block():
    # with B = A^T A and one block, the Hessian in its own metric is identity
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 4))
    obj = _quadratic_objective(A, np.zeros(8), (4,))
    assert mu_quadratic(obj, WeightVector((1.0,))) == pytest.approx(1.0, rel=1e-10)


def test_mu_quadratic_two_blocks_in_unit_interval():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 6))
    obj = _quadratic_objective(A, np.zeros(12), (3, 3))
    mu = mu_quadratic(obj, WeightVector((1.0, 1.0)))
    assert 0.0 < mu <= 1.0 + 1e-10
    # a dense A takes the dense Hessian branch and gives the same mu
    dense = _quadratic_objective(A, np.zeros(12), (3, 3), dense=True)
    assert mu_quadratic(dense, WeightVector((1.0, 1.0))) == pytest.approx(mu, rel=1e-10)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(c=-1.0, alpha=0.0, beta=0.0, eps=1.0, rho=0.5, xi0=2.0)
    with pytest.raises(ValueError):
        BoundInputs(c=1.0, alpha=0.0, beta=0.0, eps=1.0, rho=1.5, xi0=2.0)
