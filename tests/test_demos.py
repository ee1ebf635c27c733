"""Every walkthrough under demos/ runs to completion.

Each demo asserts its own results, so exit code 0 means its story still
holds; running them here keeps a deletion in the package from silently
breaking a walkthrough that no other test imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=str(ROOT), env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
