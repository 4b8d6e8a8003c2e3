"""End-to-end acceptance checks, one printed verdict line per criterion.

Every check is exact rational arithmetic with tolerance zero.  The lie
cobracket criterion is a known defect and is marked xfail; see the test
docstring there for the precise witnesses.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from operads.homology import check_differentials, total_homology_dims
from operads.idempotents import (
    ConvolutionContext,
    dynkin,
    eulerian,
    model_bases,
    versal_idempotent,
)
from operads.linalg import GradedEndo, LinComb, exact_rank, same_column_space, sparse_rows
from operads.models import get_model, lie_subspace, tree_key, words
from operads.relations import check_nap_colaw, check_relation
from operads.series import check_koszul_dual, check_triple_identity, gen_series
from operads.structure import check_h2, pbw_expand, pbw_reassemble, primitive_part
from operads.trees import catalan


def verdict(num, label, ok):
    print("acceptance %02d %s: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_01_catalan_dimensions():
    start = time.monotonic()
    model = get_model("dup", 1)
    got = [len(model.basis(n)) for n in range(1, 7)]
    ok = got == [1, 2, 5, 14, 42, 132] and time.monotonic() - start < 1.0
    verdict(1, "catalan dimensions", ok)


def test_02_relation_suite():
    checks = [
        ("as", "delta", "mul", "nui", 6),
        ("dup", "delta", "left", "nui", 6),
        ("dup", "delta", "right", "nui", 6),
        ("mag", "delta", "mul", "magmatic", 6),
        ("mag", "liv", "mul", "livernet", 5),
        ("dup", "dleft", "left", "bidup_dleft_left", 5),
        ("dup", "dright", "right", "bidup_dright_right", 5),
        ("dup", "dleft", "right", "bidup_dleft_right", 5),
        ("dup", "dright", "left", "bidup_dright_left", 5),
        ("zinb", "delta", "left", "semi_hopf_left", 5),
    ]
    ok = all(
        check_relation(get_model(m), d, mu, rel, deg).holds
        for m, d, mu, rel, deg in checks
    )
    ok = ok and check_nap_colaw(get_model("mag"), "liv", 5).holds
    verdict(2, "relation suite", ok)


def test_03_idempotency_and_primitives():
    ok = True
    prims = {}
    for name, deg in (("dup", 6), ("as", 6), ("mag", 6), ("classical", 5)):
        model = get_model(name)
        e = versal_idempotent(model, max_degree=deg)
        ok = ok and e.compose(e) == e
        prims[name] = [len(primitive_part(model, n)) for n in range(1, deg + 1)]
        ok = ok and [e.rank(n) for n in range(1, deg + 1)] == prims[name]
    ok = ok and prims["dup"] == [catalan(n - 1) for n in range(1, 7)]
    ok = ok and prims["classical"] == [2, 1, 2, 3, 6]
    verdict(3, "idempotency and primitives", ok)


def test_04_eulerian_equality():
    deg = 5
    model = get_model("classical", 2)
    ctx = ConvolutionContext(model)
    e = [eulerian(ctx, i, deg) for i in range(1, deg + 1)]
    ok = versal_idempotent(model, max_degree=deg) == e[0]
    for i in range(deg):
        for j in range(deg):
            comp = e[i].compose(e[j])
            if i == j:
                ok = ok and comp == e[i]
            else:
                ok = ok and all(
                    all(not c for c in row)
                    for m in comp.mats.values()
                    for row in m
                )
    total = e[0]
    for f in e[1:]:
        total = total + f
    ok = ok and total == GradedEndo.identity(model_bases(model, deg))
    dk = dynkin(deg, 2)
    ok = ok and all(
        same_column_space(dk.mats[n], e[0].mats[n]) for n in range(1, deg + 1)
    )
    verdict(4, "eulerian equality", ok)


def test_05_pbw_tables():
    model = get_model("dup", 3)
    lt, rt = model.products["left"], model.products["right"]

    def leaf(c):
        return LinComb.of(tree_key("(.,.)", c))

    def dot(a, b):
        return lt(a, b) - rt(a, b)

    x, y, z = (leaf(c) for c in "xyz")
    comps = pbw_expand(model, rt(x, y))
    ok = [c.arity for c in comps] == [2] and comps[0].tensor == x.tensor(y)
    comps = pbw_expand(model, lt(x, y))
    ok = ok and comps[0].tensor == lt(x, y) - rt(x, y)
    rows = [
        rt(x, rt(y, z)), rt(lt(x, y), z), rt(x, lt(y, z)),
        lt(x, rt(y, z)), lt(x, lt(y, z)),
    ]
    for lhs in rows:
        ok = ok and pbw_reassemble(model, pbw_expand(model, lhs)) == lhs
    ok = ok and rt(lt(x, y), z) == rt(dot(x, y), z) + rt(x, rt(y, z))
    ok = ok and rt(x, lt(y, z)) == rt(x, dot(y, z)) + rt(x, rt(y, z))
    ok = ok and lt(x, rt(y, z)) == (
        dot(dot(x, y), z) - dot(x, dot(y, z))
        + rt(dot(x, y), z) + rt(x, rt(y, z))
    )
    ok = ok and lt(x, lt(y, z)) == (
        dot(dot(x, y), z)
        + rt(dot(x, y), z) + rt(x, dot(y, z)) + rt(x, rt(y, z))
    )
    cl = get_model("classical", 3)
    mul = cl.products["mul"]
    cx, cy, cz = (LinComb.of(c) for c in "xyz")
    xy = mul(cx, cy)
    comps = pbw_expand(cl, xy)
    ok = ok and comps[0].tensor == (xy - mul(cy, cx)).scale(Fraction(1, 2))
    ok = ok and pbw_reassemble(cl, comps) == xy
    xyz = mul(xy, cz)
    comps = pbw_expand(cl, xyz)
    ok = ok and pbw_reassemble(cl, comps) == xyz
    verdict(5, "pbw tables", ok)


def _lie_tensor_escape(n):
    model = get_model("lie")
    tensor_basis = [
        (u, v)
        for i in range(1, n)
        for u in words(2, i)
        for v in words(2, n - i)
    ]
    pos = {k: i for i, k in enumerate(tensor_basis)}

    def vec_of(lc):
        vec = [Fraction(0)] * len(tensor_basis)
        for k, c in lc.items():
            vec[pos[k]] = c
        return vec

    span = [
        vec_of(a.tensor(b))
        for i in range(1, n)
        for a in lie_subspace(2, i)
        for b in lie_subspace(2, n - i)
    ]
    base_rank = exact_rank(sparse_rows(span))
    return any(
        exact_rank(sparse_rows(span + [vec_of(model.coproducts["delta"](elt))])) != base_rank
        for elt in lie_subspace(2, n)
    )


@pytest.mark.xfail(
    strict=True,
    reason="the postulated bracket compatibility admits no cobracket on the "
    "free Lie algebra: the antisymmetrized deconcatenation satisfies it in "
    "degrees <= 3 but leaves the span of Lie x Lie in degree 4 (witness "
    "[[[x,y],x],x]), and the relation itself is inconsistent at the degree "
    "pair (1, 3); no rescaling or twist of the deconcatenation repairs it",
)
def test_06_lie_cobracket():
    """The full degree <= 4 claim is false; the true behaviour is pinned below.

    What does hold, and is asserted in test_models and the CLI suite: the
    cobracket vanishes on letters, sends [x,y] to 2(x(x)y - y(x)x), kills
    xy + yx, lands in Lie x Lie through degree 3, and the bracket
    compatibility holds exhaustively through degree 3.
    """
    model = get_model("lie")
    in_span = not any(_lie_tensor_escape(n) for n in (2, 3, 4))
    holds = check_relation(model, "delta", "mul", "lily", 4).holds
    ok = in_span and holds
    verdict(6, "lie cobracket (known defect at degree 4)", ok)


def test_07_series_identities():
    ok = check_triple_identity("Com", "As", "Lie", 12)
    ok = ok and check_triple_identity("As", "Dup", "Mag", 12)
    ok = ok and check_koszul_dual("Dup", "Dup!", 12)
    ok = ok and check_koszul_dual("Mag", "Nil", 12)
    ok = ok and gen_series("Sab", 5).dims() == [1, 1, 8, 78, 1104]
    ok = ok and not check_triple_identity("Com", "As", "Com", 4)
    verdict(7, "series identities", ok)


def test_08_koszulity_witness():
    ok = all(check_differentials(n) for n in range(1, 6))
    ok = ok and total_homology_dims(1) == [1]
    ok = ok and all(total_homology_dims(n) == [0] * n for n in range(2, 6))
    verdict(8, "koszulity witness", ok)


def test_09_h2_classification():
    ok = check_h2(get_model("as"), 6).verdict == "iso"
    ok = ok and check_h2(get_model("mag"), 6).verdict == "iso"
    ok = ok and check_h2(get_model("bidup"), 6).verdict == "iso"
    ok = ok and check_h2(get_model("dup"), 6).verdict == "epi-with-splitting"
    verdict(9, "h2 classification", ok)


def test_10_determinism():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "operads.cli", "suite", "--all"],
            capture_output=True,
            text=True,
        )

    first, second = run(), run()
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.strip().endswith("checks passed")
    )
    verdict(10, "determinism", ok)
