"""Every demo script runs to completion and prints its pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 prefix of each demo's stdout; demos 02-04 print ratios forced by
# the adversaries
STDOUT_DIGESTS = {
    "01_priced_evaluation.py": "9e8c4b4f053e134f",
    "02_symmetric_ratio.py": "fc549f46f2eb7054",
    "03_quadratic_lower_bound.py": "8fc85c0f68de02e0",
    "04_lp_evaluator.py": "5d3695aac86ea06d",
}


def test_the_four_demos_are_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == STDOUT_DIGESTS[demo.name]
