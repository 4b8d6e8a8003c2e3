"""Demos, the benchmark's self-test and its workloads run to completion on the source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(path, *args, paths=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), *map(str, paths), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path), *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("demo", ["duplicial_tour.py", "eulerian_idempotents.py"])
def test_demo_exits_cleanly(demo):
    proc = run_script(ROOT / "demos" / demo)
    assert proc.returncode == 0, proc.stderr


def test_bench_selftest_accepts_right_answers_and_rejects_wrong_ones():
    # the benchmark reads GradedEndo.mats densely and checks primitive_part
    # vectors; a change of representation they cannot follow fails here
    proc = run_script(ROOT / "bench" / "selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["suite", "relations", "convolution", "elimination"])
def test_bench_child_runs_every_workload_and_its_checks_pass(workload, trace):
    # one repetition as the benchmark runs it: an output its checks reject, or a
    # name the tracer no longer finds, fails here and not only in a timed run
    args = ["--workload", workload, "--seed", "1"] + (["--trace"] if trace else [])
    proc = run_script(ROOT / "bench" / "child.py", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["ops"]
    failed = [(op["name"], op["error"], op["problems"]) for op in report["ops"]
              if op["error"] or op["problems"]]
    assert not failed


TRACED_RUN = """
import operads
from operads.linalg import LinComb
from tracer import Tracer

tracer = Tracer()
tracer.install()
model = operads.get_model("dup", 1)
e = operads.versal_idempotent(model, 4)
assert e.compose(e) == e
a = LinComb((k, i + 1) for i, k in enumerate(model.basis(4)))
assert operads.pbw_reassemble(model, operads.pbw_expand(model, a)) == a
metrics, spans = tracer.report()
assert spans["calls"]["idempotents.map"] and spans["calls"]["structure.pbw"]
"""


def test_bench_tracer_wraps_the_versal_and_pbw_paths():
    # the tracer wraps idempotents.omega, materialize, iterated_coproduct and
    # reads _EULERIAN_CACHE; a rename it cannot follow fails here
    proc = run_script("-c", TRACED_RUN, paths=[ROOT / "bench"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


TRACED_CHECK = """
import operads
from tracer import Tracer

tracer = Tracer()
tracer.install()
report = operads.check_relation(operads.get_model("classical", 2), "delta", "mul", "hopf", 5)
assert report.holds
metrics, spans = tracer.report()
calls = spans["calls"].get("relations.eval_compat")
assert calls == report.checked_pairs == 196, (calls, report.checked_pairs)
assert metrics["relations.pairs_checked"] == (196, "count"), metrics["relations.pairs_checked"]
"""


def test_bench_tracer_counts_one_eval_compat_call_per_checked_pair():
    # the tracer wraps relations.eval_compat by name; evaluating pairs off that
    # name would make relations.eval_compat_calls read 0
    proc = run_script("-c", TRACED_CHECK, paths=[ROOT / "bench"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


TRACED_KERNELS = """
import operads
from tracer import Tracer

tracer = Tracer()
tracer.install()
report = operads.check_relation(operads.get_model("mag", 1), "liv", "mul", "livernet", 5)
assert report.holds
metrics, spans = tracer.report()
for name in ("models.coproduct_calls", "models.product_calls", "models.cache_lookups"):
    assert metrics[name][0] > 0, (name, metrics[name])
"""


def test_bench_tracer_counts_the_kernels_a_model_calls():
    # the tracer wraps the module-level kernels; a model built after install()
    # must hold the wrapped ones, and the Livernet kernel must read its memo
    proc = run_script("-c", TRACED_KERNELS, paths=[ROOT / "bench"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
