"""Iteration-complexity bound calculators for the randomized inexact
block coordinate descent method.

Two bound shapes are evaluated: the sublinear "case (i)" bound with the
shifted log/min structure, and the linear-rate "case (ii)" bound. Each
theorem row in THEOREMS pairs a problem-class constant with one shape,
and ``report`` evaluates a row for ``icdkit bounds``. Feasibility of
(alpha, beta, eps, rho) is evaluated once, by the shape's own
conditions; an infeasible query returns a flagged result listing the
violated conditions rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from icdkit.blocks import WeightVector
from icdkit.objective import CompositeObjective

__all__ = [
    "BoundInputs",
    "BoundResult",
    "sigma_u",
    "iterations_case_i",
    "iterations_case_ii",
    "exact_case_i",
    "exact_case_ii",
    "constants_composite_convex",
    "constants_strongly_convex",
    "constants_smooth_convex",
    "constants_smooth_strongly_convex",
    "mu_quadratic",
    "report",
]

# dense generalized eigensolves above this dimension are refused
EIGENSOLVE_DIM_CAP = 2000


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to a single bound evaluation.

    c is c1 for case (i) and c2 for case (ii); xi0 is the initial
    residual F(x0) - F*; rho is the confidence parameter.
    """

    c: float
    alpha: float
    beta: float
    eps: float
    rho: float
    xi0: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if self.xi0 <= 0:
            raise ValueError("xi0 must be positive")


@dataclass
class BoundResult:
    K: int | None
    feasible: bool
    violated: list[str] = field(default_factory=list)
    derived: dict = field(default_factory=dict)


def sigma_u(c1: float, alpha: float, beta: float) -> tuple[float, float]:
    """sigma = sqrt(alpha^2 + 4 beta / c1), u = (c1/2)(alpha + sigma)."""
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    sigma = math.sqrt(alpha * alpha + 4.0 * beta / c1)
    u = 0.5 * c1 * (alpha + sigma)
    return sigma, u


def iterations_case_i(inputs: BoundInputs) -> BoundResult:
    """Sublinear bound: log term plus the better of the two k1 estimates.

    Feasible when (c1/2)(alpha + sqrt(alpha^2 + 4 beta/(c1 rho))) < eps
    < min{(1+alpha) c1, xi0} and sigma < 1. The min's first branch only
    applies when sigma > 0; both branches are compared otherwise stated.
    """
    c1, a, b = inputs.c, inputs.alpha, inputs.beta
    eps, rho, xi0 = inputs.eps, inputs.rho, inputs.xi0
    sigma, u = sigma_u(c1, a, b)
    lower = 0.5 * c1 * (a + math.sqrt(a * a + 4.0 * b / (c1 * rho)))
    violated = []
    if sigma >= 1:
        violated.append("sigma = sqrt(alpha^2 + 4 beta/c1) < 1")
    if not eps > lower:
        violated.append("eps > (c1/2)(alpha + sqrt(alpha^2 + 4 beta/(c1 rho)))")
    if not eps < (1 + a) * c1:
        violated.append("eps < (1 + alpha) c1")
    if not eps < xi0:
        violated.append("eps < xi0")
    derived = {"sigma": sigma, "u": u, "eps_lower": lower}
    if violated:
        return BoundResult(None, False, violated, derived)
    shift = b * c1 / (eps - a * c1)
    k2 = c1 / (eps - a * c1) * math.log((eps - shift) / (eps * rho - shift))
    second = c1 / (eps - u) - c1 / (xi0 - u)
    if sigma == 0:
        k1 = second
    else:
        first = (1.0 / sigma) * math.log((xi0 - u) / (eps - u))
        k1 = min(first, second)
        derived["k1_first_branch"] = first
    derived["k1"] = k1
    derived["k2"] = k2
    return BoundResult(max(0, math.ceil(k2 + k1 + 2.0)), True, [], derived)


def iterations_case_ii(inputs: BoundInputs) -> BoundResult:
    """Linear-rate bound K = c2/(1-alpha c2) log((xi0-s)/(eps rho - s))
    with s = beta c2/(1-alpha c2)."""
    c2, a, b = inputs.c, inputs.alpha, inputs.beta
    eps, rho, xi0 = inputs.eps, inputs.rho, inputs.xi0
    violated = []
    contracts = a * c2 < 1
    if not contracts:
        violated.append("alpha c2 < 1")
    if not (1 + a) * c2 >= 1:
        violated.append("(1 + alpha) c2 >= 1")
    shift = b * c2 / (1 - a * c2) if contracts else None
    if contracts and not shift / rho < eps:
        violated.append("eps > beta c2 / (rho (1 - alpha c2))")
    if not eps < xi0:
        violated.append("eps < xi0")
    derived = {"shift": shift, "rate": 1 - (1 - a * c2) / c2 if contracts else None}
    if violated:
        return BoundResult(None, False, violated, derived)
    K = c2 / (1 - a * c2) * math.log((xi0 - shift) / (eps * rho - shift))
    return BoundResult(max(0, math.ceil(K)), True, [], derived)


def exact_case_i(c1: float, eps: float, rho: float, xi0: float) -> float:
    """Exact-method closed form (c1/eps)(1 + log(1/rho)) + 2 - c1/xi0."""
    return c1 / eps * (1.0 + math.log(1.0 / rho)) + 2.0 - c1 / xi0


def exact_case_ii(c2: float, eps: float, rho: float, xi0: float) -> float:
    """Exact-method closed form c2 log(xi0 / (eps rho))."""
    return c2 * math.log(xi0 / (eps * rho))


def constants_composite_convex(
    n: int, R2: float, xi0: float, eps: float
) -> tuple[float, float]:
    """Composite convex constants: c1 = 2n max{R^2, xi0}, c2 = 2n R^2/eps."""
    if n < 1 or R2 <= 0 or xi0 <= 0 or eps <= 0:
        raise ValueError("inputs must be positive")
    return 2.0 * n * max(R2, xi0), 2.0 * n * R2 / eps


def constants_strongly_convex(
    n: int, mu_f: float, mu_psi: float
) -> tuple[float, float, float]:
    """Strongly convex composite constants.

    mu = (mu_f + mu_psi)/(1 + mu_psi), c2 = n/mu, and the admissible
    multiplicative error is 0 <= alpha < mu/n.
    """
    if mu_f + mu_psi <= 0:
        raise ValueError("mu_f + mu_psi must be positive")
    if mu_f > 1:
        raise ValueError("mu_f measured in the Lipschitz-weighted norm cannot exceed 1")
    mu = (mu_f + mu_psi) / (1.0 + mu_psi)
    return mu, n / mu, mu / n


def constants_smooth_convex(R2: float) -> float:
    """Smooth convex constant c1_hat = 2 R^2 (radius in the L/p norm)."""
    if R2 <= 0:
        raise ValueError("R2 must be positive")
    return 2.0 * R2


def constants_smooth_strongly_convex(mu_f: float) -> float:
    """Smooth strongly convex constant c2 = 1/mu_f; requires 0 < mu_f < 1,
    so c2 > 1 always."""
    if not 0 < mu_f < 1:
        raise ValueError("mu_f must lie strictly in (0, 1)")
    return 1.0 / mu_f


# theorem -> (inputs its constant needs, exact-method closed form, inexact
# iteration bound, the constant c1 or c2 from keyword inputs)
THEOREMS = {
    "composite_convex_i": (("n", "R2"), exact_case_i, iterations_case_i,
        lambda n, R2, xi0, eps, **_: constants_composite_convex(n, R2, xi0, eps)[0]),
    "composite_convex_ii": (("n", "R2"), exact_case_ii, iterations_case_ii,
        lambda n, R2, xi0, eps, **_: constants_composite_convex(n, R2, xi0, eps)[1]),
    "strongly_convex": (("n", "mu_f"), exact_case_ii, iterations_case_ii,
        lambda n, mu_f, mu_psi, **_: constants_strongly_convex(n, mu_f, mu_psi)[1]),
    "smooth_convex": (("R2",), exact_case_i, iterations_case_i,
        lambda R2, **_: constants_smooth_convex(R2)),
    "smooth_strongly_convex": (("mu_f",), exact_case_ii, iterations_case_ii,
        lambda mu_f, **_: constants_smooth_strongly_convex(mu_f)),
}


def report(
    theorem: str,
    eps: float,
    rho: float,
    alpha: float = 0.0,
    beta: float = 0.0,
    xi0: float = 1.0,
    n: int | None = None,
    R2: float | None = None,
    mu_f: float | None = None,
    mu_psi: float = 0.0,
) -> dict:
    """Side-by-side exact/inexact iteration counts for one theorem row.

    An infeasible row has K_inexact None and lists what it violates; the
    strongly convex theorem's alpha < mu/n is its case (ii) alpha c2 < 1.
    Raises ValueError for an unknown theorem or one whose inputs are missing.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem selector {theorem!r}")
    needs, exact_of, iterations_of, constant_of = THEOREMS[theorem]
    inputs = dict(n=n, R2=R2, mu_f=mu_f, mu_psi=mu_psi, xi0=xi0, eps=eps)
    missing = [key for key in needs if inputs[key] is None]
    if missing:
        raise ValueError(f"theorem {theorem} needs {', '.join(missing)}")
    constant = constant_of(**inputs)
    res = iterations_of(BoundInputs(constant, alpha, beta, eps, rho, xi0))
    return {
        "theorem": theorem,
        "constant": constant,
        "K_exact": max(0, int(np.ceil(exact_of(constant, eps, rho, xi0)))),
        "K_inexact": res.K,
        "feasible": res.feasible,
        "violated": res.violated,
        "derived": res.derived,
    }


def mu_quadratic(objective: CompositeObjective, weights: WeightVector) -> float:
    """Strong convexity parameter of the quadratic smooth part relative to
    the weighted block norm: the smallest generalized eigenvalue of
    A^T A v = mu * blockdiag(w_i B_i) v, by a dense eigensolve for that
    eigenvalue alone. A^T A is QuadraticSmooth.gram, formed as the
    objective module's storage rule forms a block's Gram."""
    p = objective.partition
    if p.N > EIGENSOLVE_DIM_CAP:
        raise ValueError(
            f"dimension {p.N} exceeds the dense eigensolve cap "
            f"{EIGENSOLVE_DIM_CAP}; supply mu_f directly"
        )
    H = objective.smooth.gram()
    Bw = np.zeros((p.N, p.N))
    for i, B in enumerate(objective.metric.operators):
        sl = p.range(i)
        Bw[sl, sl] = weights.w[i] * B
    vals = scipy.linalg.eigh(H, Bw, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])

