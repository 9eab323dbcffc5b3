"""The short narrative demos run to completion against the package.

`demos/05_end_to_end_benchmark.py` trains an agent and takes about half a
minute, so it is left out here; CI runs it and checks its exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_short_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
