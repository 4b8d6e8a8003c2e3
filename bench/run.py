"""The benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (bench/child.py) that sets up, runs
the workload's operations once in a fixed order, checks every output and
exits, so no cache of the program outlives a repetition, as for a user of
the `operads` command.  Repetitions follow one another until the next one
would overrun S seconds; at least one runs.

--trace 0 prints the end-to-end metrics: wall_s (median wall time of the
operations), setup_s (median time from interpreter start to ready) and
peak_rss_mb (median peak resident set size).  Both times are scaled to the
machine's reference speed (speed.py); the raw figures are printed above the
result.  --trace 1 runs one traced
repetition, whose wrappers give the per-layer metrics, and then untraced
repetitions for the rest of the time, whose median wall time gives the
tracing overhead and the suite's per-bundle times.  Spans are written to
bench/out/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_PROBE_S, probe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("suite", "relations", "convolution", "elimination")
SUITE_BUNDLES = (
    "catalan", "relations", "idempotents", "eulerian", "pbw-tables",
    "lily", "series", "homology", "h2",
)
# set-up is short and noisy, so it is sampled more often than the workload runs
SETUP_SAMPLES = 20


class BenchError(Exception):
    pass


def spawn(workload, seed, trace=False, setup_only=False):
    """Start one child; return (raw and scaled setup seconds, parsed report or None).

    Set-up is scaled by a probe of the machine's speed taken just before.
    """
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    probe()  # warm
    p = min(probe(), probe(), probe())
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first != "ready\n":
        raise BenchError("child for %s exited with code %d" % (workload, code))
    setup = (setup, setup * REFERENCE_PROBE_S / p)
    if setup_only:
        return setup, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("child for %s printed no report" % workload)
    return setup, json.loads(lines[-1])


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "operads", "__init__.py")):
        raise BenchError("no program source at src/operads")
    # byte-compile up front, so that no repetition's set-up includes compiling
    for path in (os.path.join(ROOT, "src", "operads"), BENCH):
        compileall.compile_dir(path, quiet=1)

    start = time.perf_counter()
    traced = spawn(workload, seed, trace=True)[1] if trace else None
    setups, reports = [], []
    while True:
        t0 = time.perf_counter()
        setup, report = spawn(workload, seed)
        setups.append(setup)
        reports.append(report)
        rep_seconds = time.perf_counter() - t0
        if time.perf_counter() - start + rep_seconds > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, setup_only=True)[0])

    attempted = failed = 0
    correct = True
    for rep in reports + ([traced] if traced else []):
        for op in rep["ops"]:
            attempted += 1
            if op["error"]:
                failed += 1
            elif op["problems"]:
                correct = False

    for i, op in enumerate(reports[0]["ops"]):
        times = [rep["ops"][i]["seconds"] for rep in reports]
        raw = [rep["ops"][i]["raw_seconds"] for rep in reports]
        status = "FAILED %s" % op["error"] if op["error"] else (
            "WRONG %s" % "; ".join(op["problems"]) if op["problems"] else "ok")
        print("op %-42s median %.4f s (raw %.4f s)  n=%d  %s" % (
            op["name"], statistics.median(times), statistics.median(raw), len(times), status))
    wall = statistics.median(r["wall_s"] for r in reports)
    raw_wall = statistics.median(r["raw_wall_s"] for r in reports)
    for name, values in (
        ("wall_s", [r["wall_s"] for r in reports]),
        ("raw wall_s", [r["raw_wall_s"] for r in reports]),
        ("setup_s", [s[1] for s in setups]),
        ("raw setup_s", [s[0] for s in setups]),
        ("probe_s (median per repetition)", [statistics.median(r["probe_s"]) for r in reports]),
    ):
        print("%s samples=%d: %s" % (name, len(values), " ".join("%.4g" % v for v in values)))

    if not trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(s[1] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
        }
    else:
        metrics = {k: tuple(v) for k, v in traced["trace"]["metrics"].items()}
        metrics["trace.overhead_s"] = (traced["raw_wall_s"] - raw_wall, "s")
        for name in SUITE_BUNDLES:
            times = [r["bundles"].get(name, 0.0) for r in reports if "bundles" in r]
            metrics["cli.bundle.%s_s" % name] = (statistics.median(times) if times else 0.0, "s")
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-%d.json" % (workload, seed))
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "wall_s": traced["wall_s"],
                       "untraced_wall_s": raw_wall, "spans": traced["trace"]["spans"]}, fh)
        print("spans written to %s" % os.path.relpath(path, ROOT))

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
