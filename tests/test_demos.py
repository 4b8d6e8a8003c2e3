"""The demo scripts and the benchmark's self-test run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("demo", ["duplicial_tour.py", "eulerian_idempotents.py"])
def test_demo_exits_cleanly(demo):
    proc = run_script(ROOT / "demos" / demo)
    assert proc.returncode == 0, proc.stderr


def test_bench_selftest_accepts_right_answers_and_rejects_wrong_ones():
    # the benchmark reads GradedEndo.mats densely and checks primitive_part
    # vectors; a change of representation they cannot follow fails here
    proc = run_script(ROOT / "bench" / "selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
