"""End-to-end acceptance: every bundle of `operads suite` passes, run in process.

The checks are the suite's own (`operads.cli.SUITE_BUNDLES`), so the suite
and its acceptance test cannot drift apart.  Every check is exact rational
arithmetic with tolerance zero.  The full degree <= 4 lie cobracket claim is
a known defect and is marked xfail; see the test docstring there for the
precise witnesses.
"""

from fractions import Fraction

import pytest

from operads.cli import SUITE_BUNDLES
from operads.linalg import exact_rank, sparse_rows
from operads.models import get_model, lie_subspace, words
from operads.relations import check_relation


def verdict(num, label, ok):
    print("acceptance %02d %s: %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, label


@pytest.mark.parametrize("bundle", [b for _, b in SUITE_BUNDLES],
                         ids=[name for name, _ in SUITE_BUNDLES])
def test_suite_bundle(bundle):
    failed = [label for label, ok in bundle() if not ok]
    assert not failed, failed


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
