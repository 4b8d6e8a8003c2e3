"""One repetition of one workload, in a fresh interpreter.

Run by run.py, never by hand.  Prints "ready" once the program is imported
and the workload's models are built (the end of set-up), then runs every
operation once, in order, and prints one JSON line: per-operation times,
failures and check problems, the wall time of the operations and the peak
resident set size.  With --setup-only it exits after "ready".  Untraced, the
machine's speed is sampled while the operations run (speed.py), and every
time is given both raw and scaled to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = sys.stdout

    import workloads
    import operads
    from speed import SpeedSampler
    if not operads.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit("operads was imported from %s, not from this checkout" % operads.__file__)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    clock = workloads.LineClock()
    ops = workloads.BUILDERS[args.workload](args.seed, clock)
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return

    sampler = None if tracer else SpeedSampler()
    results = []
    if sampler:
        sampler.start()
    start = time.perf_counter()
    for op in ops:
        run = op.run if tracer is None else tracer.span("op " + op.name, op.run, record=True)
        t0 = time.perf_counter()
        try:
            value, error = run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, "%s: %s" % (type(exc).__name__, exc)
        results.append((op, value, error, t0, time.perf_counter()))
    end = time.perf_counter()
    if sampler:
        sampler.stop()
        measure = sampler.measure
    else:
        measure = lambda t0, t1: (t1 - t0, t1 - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw, scaled = measure(start, end)
    report = {"raw_wall_s": raw, "wall_s": scaled, "rss_mb": rss_mb, "ops": []}
    if sampler:
        report["probe_s"] = [p for _, p, _ in sampler.samples]
    if clock.lines:
        report["bundles"] = workloads.bundle_seconds(clock, measure)
    if tracer is not None:
        # read before the checks run, since they call the program too
        metrics, spans = tracer.report()
        report["trace"] = {"metrics": metrics, "spans": spans}
    for op, value, error, t0, t1 in results:
        problems = [] if error else op.check(value)
        raw, scaled = measure(t0, t1)
        report["ops"].append({
            "name": op.name, "raw_seconds": raw, "seconds": scaled,
            "error": error, "problems": problems,
        })
    out.write(json.dumps(report) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
