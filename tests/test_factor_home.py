"""The packed Cholesky factor has one home: the blocks module.

Only blocks.py may import a BLAS or LAPACK kernel that writes, reads or
unpacks the packed factor, or read BlockMetric.stored. Every other module
reaches a block's B_i through BlockMetric.apply and BlockMetric.solve, so
a change to how the factor is built or held stays inside one module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icdkit"
HOME = "blocks.py"
KERNELS = {"dpotrf", "dtrttp", "dtpmv", "dpptrs", "dtpttr"}


def _factor_uses(tree):
    """(line, name) of every kernel imported or read as an attribute, and
    of every read of an attribute named stored."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.rsplit(".", 1)[-1]
                if name in KERNELS:
                    yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr in KERNELS | {"stored"}:
            yield node.lineno, node.attr


def test_only_blocks_touches_the_packed_factor():
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != HOME
        for line, name in _factor_uses(ast.parse(path.read_text()))
    ]
    assert not offenders, offenders


def test_the_scan_sees_each_way_of_reaching_the_factor():
    source = (
        "from scipy.linalg.lapack import dpotrf as potrf\n"
        "from scipy.linalg import lapack\n"
        "x = lapack.dpptrs\n"
        "R = metric.stored[0]\n"
    )
    found = sorted(_factor_uses(ast.parse(source)))
    assert found == [(1, "dpotrf"), (3, "dpptrs"), (4, "stored")]
    blocks = ast.parse((PACKAGE / HOME).read_text())
    assert {name for _, name in _factor_uses(blocks)} == KERNELS | {"stored"}
