"""Planar binary trees: enumeration, grafting, path cuts."""

import pytest
from hypothesis import given, strategies as st

from operads import trees
from operads.errors import UsageError
from operads.linalg import LinComb
from operads.models import _left_edge_cuts, _right_edge_cuts, dup_coproduct, tree_key
from operads.trees import (
    LEAF,
    Y,
    catalan,
    enumerate_trees,
    leaf_count,
    left_comb,
    over,
    path_cut,
    path_cuts,
    right_comb,
    split,
    under,
    validate,
    vee,
)


def test_catalan_numbers():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_enumeration_counts_are_catalan():
    for n in range(1, 8):
        ts = enumerate_trees(n)
        assert len(ts) == catalan(n - 1)
        assert list(ts) == sorted(ts)
        assert len(set(ts)) == len(ts)
        for t in ts:
            validate(t)
            assert leaf_count(t) == n


def test_enumeration_refuses_more_leaves_than_the_deepest_comb(monkeypatch):
    # the comb with MAX_DEPTH + 2 leaves nests deeper than validate accepts; the
    # listing is refused before it recurses (a recursive call here fails the test
    # at once, where a listing would hold Catalan(MAX_DEPTH + 1) trees)
    listing = trees.enumerate_trees

    def no_recursion(n):
        raise AssertionError("listed %d leaves before refusing" % n)
    monkeypatch.setattr(trees, "enumerate_trees", no_recursion)
    with pytest.raises(UsageError) as exc:
        listing(trees.MAX_DEPTH + 2)
    assert str(exc.value) == "need at most %d leaves" % (trees.MAX_DEPTH + 1)


def test_validate_rejects_garbage():
    for bad in ["", "(", "(.,)", "(.,.", "(.,.))", "..", "(.,.)(.,.)", "(.;.)"]:
        with pytest.raises(ValueError):
            validate(bad)


def test_vee_and_split_are_inverse():
    for t in enumerate_trees(3):
        for s in enumerate_trees(2):
            u = vee(t, s)
            assert split(u) == (t, s)
    with pytest.raises(ValueError):
        split(LEAF)


def test_over_under_leaf_identities():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert over(LEAF, t) == t
            assert over(t, LEAF) == t
            assert under(t, LEAF) == t
            assert under(LEAF, t) == t


def test_over_under_are_associative_graftings():
    some = enumerate_trees(3)
    for a in some:
        for b in some:
            for c in enumerate_trees(2):
                assert over(over(a, b), c) == over(a, over(b, c))
                assert under(under(a, b), c) == under(a, under(b, c))


def test_combs():
    assert left_comb(1) == Y and right_comb(1) == Y
    assert left_comb(2) == "((.,.),.)"
    assert right_comb(2) == "(.,(.,.))"
    for n in range(1, 6):
        assert leaf_count(left_comb(n)) == n + 1
        assert left_comb(n) == right_comb(n)[::-1].translate(
            str.maketrans("()", ")(")
        )


def test_path_cut_leaf_counts_and_range():
    for n in range(2, 6):
        for t in enumerate_trees(n + 1):
            for i in range(1, n):
                l, r = path_cut(t, i)
                validate(l)
                validate(r)
                assert leaf_count(l) == i + 1
                assert leaf_count(r) == n - i + 1
            with pytest.raises(ValueError):
                path_cut(t, 0)
            with pytest.raises(ValueError):
                path_cut(t, n)


def test_path_cut_on_combs():
    # cutting a right comb always returns (leaf-capped prefix, right comb)
    t = right_comb(4)
    for i in range(1, 4):
        l, r = path_cut(t, i)
        assert l == right_comb(i)
        assert r == right_comb(4 - i)


# --- the cut families against reference walkers -------------------------------

def ref_cut(t, i):
    """The cut along the path from leaf i to the root, recomputed from the root down."""
    if t == LEAF:
        return LEAF, LEAF
    l, r = split(t)
    nl = leaf_count(l)
    if i < nl:
        ll, lr = ref_cut(l, i)
        return ll, vee(lr, r)
    rl, rr = ref_cut(r, i - nl)
    return vee(l, rl), rr


def ref_right_edge_cuts(t):
    """Walk the right branch; at each edge rebuild t1 with the subtree t2 replaced by a leaf."""
    out = []
    prefix = []
    cur = t
    while cur != LEAF:
        l, r = split(cur)
        prefix.append(l)
        cur = r
        if cur != LEAF:
            t1 = LEAF
            for left in reversed(prefix):
                t1 = vee(left, t1)
            out.append((t1, cur))
    return out


def ref_left_edge_cuts(t):
    """Walk the left branch; at each edge rebuild t2 with the subtree t1 replaced by a leaf."""
    out = []
    suffix = []
    cur = t
    while cur != LEAF:
        l, r = split(cur)
        suffix.append(r)
        cur = l
        if cur != LEAF:
            t2 = LEAF
            for right in reversed(suffix):
                t2 = vee(t2, right)
            out.append((cur, t2))
    return out


def test_cut_families_match_the_reference_walkers():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert path_cuts(t) == [ref_cut(t, i) for i in range(n)], t
            right, left = _right_edge_cuts(t), _left_edge_cuts(t)
            assert right == ref_right_edge_cuts(t), t
            assert left == ref_left_edge_cuts(t), t
            assert all(under(t1, t2) == t for t1, t2 in right)
            assert all(over(t1, t2) == t for t1, t2 in left)


@pytest.mark.parametrize("t", [
    left_comb(8), right_comb(8), "(((.,(.,.)),((.,.),.)),(.,(.,.)))",
])
def test_path_cuts_split_each_node_once(monkeypatch, t):
    calls = []
    orig = trees.split

    def counted(u):
        calls.append(u)
        return orig(u)
    monkeypatch.setattr(trees, "split", counted)
    key = tree_key(t, "x" * 8)
    assert len(dup_coproduct(key)) == 7
    assert leaf_count(t) == 9 and len(calls) == 8


@st.composite
def random_tree(draw, max_leaves=8):
    n = draw(st.integers(min_value=2, max_value=max_leaves))
    ts = enumerate_trees(n)
    return ts[draw(st.integers(min_value=0, max_value=len(ts) - 1))]


@given(random_tree(), random_tree())
def test_grafting_adds_leaf_counts(t, s):
    assert leaf_count(over(t, s)) == leaf_count(t) + leaf_count(s) - 1
    assert leaf_count(under(t, s)) == leaf_count(t) + leaf_count(s) - 1
    assert leaf_count(vee(t, s)) == leaf_count(t) + leaf_count(s)


@given(random_tree())
def test_every_tree_reassembles_from_its_root_split(t):
    l, r = split(t)
    assert vee(l, r) == t
