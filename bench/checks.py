"""Checks of each operation's output against oracles and mathematical properties.

Each check takes the operation's result (plus the parameters the workload
fixed) and returns a list of problems; an empty list means the output is
right.  No check compares against a saved copy of an earlier output.
"""

from __future__ import annotations

import random
import re

import oracles


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


def relation_holds(report, kind, alphabet, max_degree):
    """An exhaustive check that holds and visited every pair the formula counts."""
    problems = []
    _expect(problems, "holds", report.holds, True)
    _expect(problems, "checked pairs", report.checked_pairs,
            oracles.checked_pairs(kind, alphabet, max_degree))
    return problems


def relation_fails_at(report, degrees):
    """A negative control: the checker must report a failure at a known degree pair."""
    problems = []
    _expect(problems, "holds", report.holds, False)
    got = tuple(report.first_failure[0]) if report.first_failure else None
    _expect(problems, "failing degree pair", got, tuple(degrees))
    return problems


# --- graded endomorphisms ------------------------------------------------------

def _idempotent_problems(label, mat, rng):
    """Freivalds test of M(Mv) = Mv modulo a prime for two random vectors v."""
    m = [[oracles.mod_p(x) for x in row] for row in mat]
    p = oracles.PRIME
    for _ in range(2):
        v = [rng.randrange(p) for _ in m]
        mv = [sum(a * b for a, b in zip(row, v)) % p for row in m]
        mmv = [sum(a * b for a, b in zip(row, mv)) % p for row in m]
        if mmv != mv:
            return ["%s is not idempotent" % label]
    return []


def _trace(mat):
    return sum(mat[i][i] for i in range(len(mat)))


def idempotent_ranks(endo, ranks, seed=0):
    """e o e = e in every degree and rank e_n = trace e_n = ranks[n-1]."""
    problems = []
    rng = random.Random(seed)
    _expect(problems, "degrees", sorted(endo.mats), list(range(1, len(ranks) + 1)))
    for n, want in enumerate(ranks, start=1):
        mat = endo.mats.get(n)
        if mat is None:
            continue
        problems += _idempotent_problems("e_%d" % n, mat, rng)
        _expect(problems, "rank e_%d" % n, _trace(mat), want)
    return problems


def versal_dup(result, alphabet, max_degree, seed=0):
    """Versal idempotent of dup: ranks follow Catalan(n-1) k^n; composes to itself."""
    endo, squares_to_itself = result
    problems = idempotent_ranks(
        endo, [oracles.dup_prim_dim(n, alphabet) for n in range(1, max_degree + 1)], seed
    )
    if squares_to_itself is not None:
        _expect(problems, "e o e == e (program)", squares_to_itself, True)
    return problems


def eulerian_family(family, alphabet, max_degree, seed=0):
    """Idempotents summing to the identity whose ranks are the dims of S^i(Lie)."""
    problems = []
    _expect(problems, "family size", len(family), max_degree)
    for i, endo in enumerate(family, start=1):
        want = [
            oracles.eulerian_ranks(n, alphabet)[i - 1] if i <= n else 0
            for n in range(1, max_degree + 1)
        ]
        problems += ["e(%d): %s" % (i, p) for p in idempotent_ranks(endo, want, seed + i)]
    # idempotents summing to the identity whose ranks add up to the dimension
    # are mutually orthogonal, so the whole family is checked by this sum
    for n in range(1, max_degree + 1):
        mats = [endo.mats[n] for endo in family if n in endo.mats]
        if len(mats) != len(family):
            continue
        d = len(mats[0])
        total = [[sum(m[i][j] for m in mats) for j in range(d)] for i in range(d)]
        if any(total[i][j] != (1 if i == j else 0) for i in range(d) for j in range(d)):
            problems.append("family does not sum to the identity in degree %d" % n)
    return problems


# --- primitives, phi, PBW --------------------------------------------------------

def primitives(vectors, model, n, expected_dim):
    """Prim_n: the right count, annihilated by every generating coproduct, independent."""
    problems = []
    _expect(problems, "dim Prim_%d" % n, len(vectors), expected_dim)
    for idx, v in enumerate(vectors):
        for sym in model.generating_coproducts:
            if model.coproducts[sym](v):
                problems.append("vector %d is not annihilated by %s" % (idx, sym))
                break
    if vectors:
        basis = {k: i for i, k in enumerate(model.basis(n))}
        rows = []
        for v in vectors:
            row = [0] * len(basis)
            for k, c in v.items():
                if k not in basis:
                    problems.append("key %r outside the degree-%d basis" % (k, n))
                    return problems
                row[basis[k]] = c
            rows.append(row)
        rank = oracles.rank_mod_p(rows)
        if rank != len(vectors):
            problems.append("vectors are dependent: rank mod p %d < %d" % (rank, len(vectors)))
    return problems


def h2(report, verdict, max_degree, dim_c):
    """Verdict and per-degree (n, dim A, dim C, rank phi), with dim A = Catalan(n)."""
    problems = []
    _expect(problems, "verdict", report.verdict, verdict)
    # iso: rank = dim A = dim C; split epi: rank = dim C
    want = [(n, oracles.catalan(n), dim_c(n), dim_c(n)) for n in range(1, max_degree + 1)]
    _expect(problems, "per-degree dims", [tuple(r) for r in report.per_degree], want)
    return problems


def pbw_roundtrip(result, element, degree):
    """Reassembling the PBW components returns the input exactly."""
    comps, back = result
    problems = []
    if back != element:
        problems.append("reassembled element differs from the input")
    for c in comps:
        if not 1 <= c.arity <= degree:
            problems.append("component arity %d outside 1..%d" % (c.arity, degree))
    if element == 0 and comps:
        problems.append("zero element expanded into %d components" % len(comps))
    return problems


# --- homology and the suite ------------------------------------------------------

def homology(report, n):
    """Tot dims by the closed form; d^2 = 0; homology vanishes; Euler characteristics agree."""
    problems = []
    tot = oracles.total_complex_dims(n)
    _expect(problems, "Tot dims", report["totDims"], tot)
    _expect(problems, "differential checks", report["differentialChecks"], True)
    dims = report["homologyDims"]
    _expect(problems, "homology dims", dims, [1] if n == 1 else [0] * n)
    _expect(problems, "Euler characteristic",
            oracles.euler_characteristic(dims), oracles.euler_characteristic(tot))
    return problems


_SUITE_LINE = re.compile(r"^  (pass|FAIL) ")


def suite(result, checks):
    """`operads suite --all` exits 0 with every check passing."""
    code, lines = result
    problems = []
    _expect(problems, "exit code", code, 0)
    verdicts = [m.group(1) for m in map(_SUITE_LINE.match, lines) if m]
    _expect(problems, "check lines", len(verdicts), checks)
    _expect(problems, "failing checks", verdicts.count("FAIL"), 0)
    _expect(problems, "summary", lines[-1] if lines else None,
            "suite: %d/%d checks passed" % (checks, checks))
    return problems
