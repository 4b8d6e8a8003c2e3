"""The benchmark's four workloads: fixed lists of operations, each with its check.

Building a workload constructs the models it uses; that is the set-up a
user pays before the first answer.  Functions of the program are looked up
on the `operads` package when an operation runs, so the traced run's
wrappers (installed on the package's modules) see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from typing import Callable

import operads
import operads.cli
from operads.linalg import LinComb

import checks
import oracles

# The suite prints this many check lines; the count is part of its contract.
SUITE_CHECKS = 60


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


class LineClock(io.TextIOBase):
    """A stdout stand-in that records when each output line arrives."""

    def __init__(self):
        self.lines = []
        self.times = []
        self._buf = ""

    def writable(self):
        return True

    def write(self, s):
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.lines.append(line)
            self.times.append(time.perf_counter())
        return len(s)


def run_cli(argv, clock):
    """operads.cli.main(argv) in-process; returns (exit code, output lines)."""
    with contextlib.redirect_stdout(clock):
        try:
            operads.cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, clock.lines


def bundle_seconds(clock, measure):
    """Seconds per suite bundle, from the arrival of each '[name]' header line.

    `measure(t0, t1)` gives (raw, scaled) seconds of an interval; the scaled
    figure is kept.
    """
    marks = [
        (line[1:-1], t) for line, t in zip(clock.lines, clock.times)
        if line.startswith("[") and line.endswith("]")
    ]
    end = clock.times[-1] if clock.times else 0.0
    out = {}
    for i, (name, t) in enumerate(marks):
        nxt = marks[i + 1][1] if i + 1 < len(marks) else end
        out[name] = measure(t, nxt)[1]
    return out


def seeded_element(model, degree, seed):
    """Every degree-n basis key with a nonzero integer coefficient drawn from seed.

    Coefficients are large so that no cancellation depends on the draw:
    the work done, and every count the traced run reports, is the same for
    every seed.
    """
    rng = random.Random(seed)
    terms = {}
    for key in model.basis(degree):
        c = 0
        while not c:
            c = rng.randint(-(1 << 20), 1 << 20)
        terms[key] = c
    return LinComb(terms)


# --- the workloads ---------------------------------------------------------------

def suite_ops(seed, clock):
    operads.relation_names()
    return [Op(
        "suite --all",
        lambda: run_cli(["suite", "--all"], clock),
        lambda r: checks.suite(r, SUITE_CHECKS),
    )]


# (model, alphabet, coproduct, product, relation, max degree, basis kind)
_RELATION_RUNS = [
    ("dup", 1, "delta", "left", "nui", 7, "dup"),
    ("dup", 1, "delta", "right", "nui", 6, "dup"),
    ("dup", 1, "dleft", "right", "bidup_dleft_right", 8, "dup"),
    ("classical", 2, "delta", "mul", "hopf", 5, "words"),
    ("zinb", 2, "delta", "left", "semi_hopf_left", 5, "words"),
    ("mag", 1, "hopf", "mul", "hopf", 6, "mag"),
    ("mag", 1, "liv", "mul", "livernet", 8, "mag"),
    ("as", 2, "delta", "mul", "nui", 6, "words"),
]

# Negative controls: (model, alphabet, coproduct, product, relation, max degree,
# degree pair of the first failure).  lily on lie is the documented defect.
_RELATION_FAILURES = [
    ("as", 1, "delta", "mul", "hopf", 4, (1, 1)),
    ("lie", 2, "delta", "mul", "lily", 4, (1, 3)),
]


def relations_ops(seed, clock):
    operads.relation_names()
    ops = []
    for mname, k, dsym, msym, rel, deg, kind in _RELATION_RUNS:
        model = operads.get_model(mname, k)
        ops.append(Op(
            "check %s %s/%d (%s,%s) deg %d" % (rel, mname, k, dsym, msym, deg),
            lambda m=model, d=dsym, p=msym, r=rel, n=deg: operads.check_relation(m, d, p, r, n),
            lambda rep, kind=kind, k=k, n=deg: checks.relation_holds(rep, kind, k, n),
        ))
    for mname, k, dsym, msym, rel, deg, pair in _RELATION_FAILURES:
        model = operads.get_model(mname, k)
        ops.append(Op(
            "check %s %s/%d (%s,%s) deg %d fails" % (rel, mname, k, dsym, msym, deg),
            lambda m=model, d=dsym, p=msym, r=rel, n=deg: operads.check_relation(m, d, p, r, n),
            lambda rep, pair=pair: checks.relation_fails_at(rep, pair),
        ))
    return ops


def _versal(model, degree, square):
    e = operads.versal_idempotent(model, max_degree=degree)
    return e, (e.compose(e) == e if square else None)


def _pbw(model, element):
    comps = operads.pbw_expand(model, element)
    return comps, operads.pbw_reassemble(model, comps)


def convolution_ops(seed, clock):
    dup = operads.get_model("dup", 1)
    dup2 = operads.get_model("dup", 2)
    classical = operads.get_model("classical", 2)
    bidup = operads.get_model("bidup", 1)
    ctx = operads.ConvolutionContext(classical)
    pbw_bidup = seeded_element(bidup, 5, seed)
    pbw_dup = seeded_element(dup, 5, seed + 1)
    zero = LinComb.zero()
    return [
        Op("versal dup/1 deg 6, e o e = e",
           lambda: _versal(dup, 6, True),
           lambda r: checks.versal_dup(r, 1, 6, seed)),
        Op("versal dup/2 deg 4",
           lambda: _versal(dup2, 4, False),
           lambda r: checks.versal_dup(r, 2, 4, seed)),
        Op("eulerian e(1..5) classical/2 deg 5",
           lambda: [operads.eulerian(ctx, i, 5) for i in range(1, 6)],
           lambda r: checks.eulerian_family(r, 2, 5, seed)),
        Op("h2 bidup/1 deg 5",
           lambda: operads.check_h2(bidup, 5),
           lambda r: checks.h2(r, "iso", 5, oracles.catalan)),
        Op("h2 dup/1 deg 6",
           lambda: operads.check_h2(dup, 6),
           lambda r: checks.h2(r, "epi-with-splitting", 6, lambda n: 1)),
        Op("pbw bidup/1 seeded deg 5",
           lambda: _pbw(bidup, pbw_bidup),
           lambda r: checks.pbw_roundtrip(r, pbw_bidup, 5)),
        Op("pbw dup/1 seeded deg 5",
           lambda: _pbw(dup, pbw_dup),
           lambda r: checks.pbw_roundtrip(r, pbw_dup, 5)),
        # Known fault: pbw_expand takes max() over the empty support of zero
        # and raises ValueError.  The right answer is no components.
        Op("pbw dup/1 zero element",
           lambda: _pbw(dup, zero),
           lambda r: checks.pbw_roundtrip(r, zero, 0)),
    ]


def elimination_ops(seed, clock):
    dup = operads.get_model("dup", 1)
    dup2 = operads.get_model("dup", 2)
    classical = operads.get_model("classical", 2)
    return [
        Op("prim dup/1 deg 6",
           lambda: operads.primitive_part(dup, 6),
           lambda r: checks.primitives(r, dup, 6, oracles.dup_prim_dim(6, 1))),
        Op("prim dup/2 deg 4",
           lambda: operads.primitive_part(dup2, 4),
           lambda r: checks.primitives(r, dup2, 4, oracles.dup_prim_dim(4, 2))),
        Op("prim classical/2 deg 7",
           lambda: operads.primitive_part(classical, 7),
           lambda r: checks.primitives(r, classical, 7, oracles.witt(7, 2))),
        Op("homology report internal degree 5",
           lambda: operads.homology_report(5),
           lambda r: checks.homology(r, 5)),
    ]


BUILDERS = {
    "suite": suite_ops,
    "relations": relations_ops,
    "convolution": convolution_ops,
    "elimination": elimination_ops,
}
