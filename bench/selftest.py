"""Self-test of the benchmark's checks: each accepts a right answer and rejects a wrong one.

    python3 bench/selftest.py

Right answers come from small runs of the program; each wrong answer is
the right one with a single fault put in (an off-by-one count, a perturbed
matrix entry, a dependent vector, a wrong verdict).  Exits 1 if any check
accepts a wrong answer or rejects a right one.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import operads  # noqa: E402
from operads.linalg import LinComb  # noqa: E402
from operads.relations import RelationReport  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label, problems, ok):
    good = (not problems) == ok
    if not good:
        FAILURES.append(label)
    print("%s %-58s %s" % ("ok  " if good else "BAD ", label,
                           "accepted" if not problems else "rejected: " + problems[0]))


def perturbed(endo, n, i, j):
    bad = copy.deepcopy(endo)
    bad.mats[n][i][j] += 1
    return bad


def oracle_tests():
    expect("oracle Catalan 1..7", [] if [oracles.catalan(n) for n in range(1, 8)]
           == [1, 2, 5, 14, 42, 132, 429] else ["wrong"], True)
    expect("oracle Witt at alphabet 2", [] if [oracles.witt(n, 2) for n in range(1, 7)]
           == [2, 1, 2, 3, 6, 9] else ["wrong"], True)
    counts = [oracles.checked_pairs("dup", 1, 8), oracles.checked_pairs("dup", 1, 9),
              oracles.checked_pairs("words", 2, 6), oracles.checked_pairs("words", 2, 7),
              oracles.checked_pairs("mag", 1, 9)]
    expect("oracle pair counts 2806 9878 516 1284 2055",
           [] if counts == [2806, 9878, 516, 1284, 2055] else [str(counts)], True)
    ok = all(sum(oracles.eulerian_ranks(n, 2)) == 2 ** n
             and oracles.eulerian_ranks(n, 2)[-1] == n + 1 for n in range(1, 8))
    expect("oracle Eulerian ranks sum to 2^n, e(n)_n = n+1", [] if ok else ["wrong"], True)
    expect("oracle rank mod p sees a dependent row",
           [] if oracles.rank_mod_p([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2 else ["wrong"], True)


def relation_tests():
    dup = operads.get_model("dup", 1)
    good = operads.check_relation(dup, "delta", "left", "nui", 5)
    expect("relation holds: right answer", checks.relation_holds(good, "dup", 1, 5), True)
    expect("relation holds: pair count off by one", checks.relation_holds(
        RelationReport(True, good.checked_pairs + 1), "dup", 1, 5), False)
    expect("relation holds: reported false", checks.relation_holds(
        RelationReport(False, good.checked_pairs), "dup", 1, 5), False)
    fails = operads.check_relation(operads.get_model("as", 1), "delta", "mul", "hopf", 4)
    expect("negative control: right answer", checks.relation_fails_at(fails, (1, 1)), True)
    expect("negative control: wrong degree pair", checks.relation_fails_at(fails, (1, 2)), False)
    expect("negative control: reported true",
           checks.relation_fails_at(RelationReport(True, 10), (1, 1)), False)


def idempotent_tests():
    dup = operads.get_model("dup", 1)
    e = operads.versal_idempotent(dup, max_degree=4)
    expect("versal: right answer", checks.versal_dup((e, True), 1, 4), True)
    expect("versal: one matrix entry perturbed", checks.versal_dup((perturbed(e, 4, 0, 0), True), 1, 4), False)
    expect("versal: program says e o e != e", checks.versal_dup((e, False), 1, 4), False)
    expect("versal: wrong alphabet law", checks.versal_dup((e, None), 2, 4), False)
    ctx = operads.ConvolutionContext(operads.get_model("classical", 2))
    fam = [operads.eulerian(ctx, i, 4) for i in range(1, 5)]
    expect("eulerian: right answer", checks.eulerian_family(fam, 2, 4), True)
    expect("eulerian: one matrix entry perturbed", checks.eulerian_family(
        [fam[0], perturbed(fam[1], 3, 1, 2)] + fam[2:], 2, 4), False)
    expect("eulerian: two members swapped", checks.eulerian_family(
        [fam[1], fam[0]] + fam[2:], 2, 4), False)
    expect("eulerian: one member repeated", checks.eulerian_family(
        [fam[0], fam[1], fam[1], fam[3]], 2, 4), False)


def structure_tests():
    dup = operads.get_model("dup", 1)
    prim = operads.primitive_part(dup, 4)
    want = oracles.dup_prim_dim(4, 1)
    expect("prim: right answer", checks.primitives(prim, dup, 4, want), True)
    expect("prim: one vector dropped", checks.primitives(prim[:-1], dup, 4, want), False)
    expect("prim: one vector repeated", checks.primitives(prim[:-1] + prim[:1], dup, 4, want), False)
    key = dup.basis(4)[0]
    bad = prim[:-1] + [prim[-1] + LinComb.of(key)]
    expect("prim: one vector not primitive", checks.primitives(bad, dup, 4, want), False)

    iso = operads.check_h2(operads.get_model("bidup", 1), 4)
    expect("h2: right answer", checks.h2(iso, "iso", 4, oracles.catalan), True)
    expect("h2: wrong verdict", checks.h2(iso, "epi-with-splitting", 4, oracles.catalan), False)
    off = copy.deepcopy(iso)
    n, da, dc, r = off.per_degree[2]
    off.per_degree[2] = (n, da, dc, r - 1)
    expect("h2: rank off by one", checks.h2(off, "iso", 4, oracles.catalan), False)

    element = workloads.seeded_element(dup, 4, 7)
    comps = operads.pbw_expand(dup, element)
    back = operads.pbw_reassemble(dup, comps)
    expect("pbw: right answer", checks.pbw_roundtrip((comps, back), element, 4), True)
    expect("pbw: reassembly off by one term", checks.pbw_roundtrip(
        (comps, back + LinComb.of(dup.basis(4)[0])), element, 4), False)
    zero = LinComb.zero()
    expect("pbw zero: right answer", checks.pbw_roundtrip(([], zero), zero, 0), True)
    expect("pbw zero: spurious component", checks.pbw_roundtrip((comps[:1], zero), zero, 0), False)


def homology_tests():
    report = operads.homology_report(4)
    expect("homology: right answer", checks.homology(report, 4), True)
    bad = copy.deepcopy(report)
    bad["totDims"][1] += 1
    expect("homology: Tot dim off by one", checks.homology(bad, 4), False)
    bad = copy.deepcopy(report)
    bad["homologyDims"][2] = 1
    expect("homology: nonzero homology", checks.homology(bad, 4), False)
    bad = copy.deepcopy(report)
    bad["differentialChecks"] = False
    expect("homology: differentials fail", checks.homology(bad, 4), False)


def suite_tests():
    n = workloads.SUITE_CHECKS
    lines = ["[all]"] + ["  pass check %d" % i for i in range(n)] + [
        "suite: %d/%d checks passed" % (n, n)]
    expect("suite: right answer", checks.suite((0, lines), n), True)
    expect("suite: exit code 1", checks.suite((1, lines), n), False)
    bad = list(lines)
    bad[5] = "  FAIL check 4"
    expect("suite: one check fails", checks.suite((0, bad), n), False)
    expect("suite: one check missing", checks.suite((0, lines[:3] + lines[4:]), n), False)


def main():
    oracle_tests()
    relation_tests()
    idempotent_tests()
    structure_tests()
    homology_tests()
    suite_tests()
    if FAILURES:
        print("selftest: %d checks misjudged: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("selftest: every check accepts the right answer and rejects the wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
