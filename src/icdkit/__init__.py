"""Randomized inexact block coordinate descent for composite convex problems.

The library is organised around a handful of small modules:

``blocks``
    Block decomposition of R^N, the per-block model operators B_i and the
    per-block weights.
``objective``
    Composite objective F = f + Psi for a sparse quadratic f, with block
    gradients, the per-block model and incremental residual updates.
``inner``
    Inner solvers for the block subproblem, all reading block i's model
    through one ``LinearSubproblem``: CG, preconditioned CG,
    incomplete/exact Cholesky, and one proximal-gradient loop for the l1
    and group-lasso blocks that terminates on the duality gap.
``core``
    The randomized outer loop: block sampling, inexactness budgets and
    the driver producing per-iteration records.
``bounds``
    Iteration-complexity bounds, feasibility checks and the theorem report.
``block_angular``
    Block-angular matrix generation, the C^T C preconditioners and the
    spectrum verification reports.
``mmio``
    Matrix Market reading and writing of matrices and vectors.
``harness``
    Configuration-driven experiment runner, exposed through the
    ``icdkit`` command line tool (``cli``).
"""

from icdkit.blocks import BlockMetric, BlockPartition, WeightVector
from icdkit.objective import (
    CompositeObjective,
    QuadraticSmooth,
    ResidualState,
    SeparableRegularizer,
)
from icdkit.core import InexactnessPolicy, IterationRecord, SamplingLaw, icd_run
from icdkit.bounds import BoundInputs, BoundResult

__all__ = [
    "BlockMetric",
    "BlockPartition",
    "WeightVector",
    "CompositeObjective",
    "QuadraticSmooth",
    "ResidualState",
    "SeparableRegularizer",
    "InexactnessPolicy",
    "IterationRecord",
    "SamplingLaw",
    "icd_run",
    "BoundInputs",
    "BoundResult",
]

__version__ = "0.1.0"
