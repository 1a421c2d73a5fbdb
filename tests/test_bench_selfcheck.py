"""The benchmark's self-check runs clean against the package as it is.

The traced benchmark wraps icdkit functions by name, so a renamed
function or a changed return type would break ``--trace 1`` without
failing any unit test.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ok = [ln for ln in proc.stdout.splitlines() if re.match(r"self-check \S+ trace=[01]: ok", ln)]
    assert len(ok) == 6, proc.stdout
