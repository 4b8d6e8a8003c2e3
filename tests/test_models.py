"""Free bialgebra models: bases, products, coproducts, axioms."""

import itertools
import time
from fractions import Fraction
from functools import partial, wraps
from math import factorial

import pytest

from operads import models, trees
from operads.idempotents import ConvolutionContext, eulerian, versal_idempotent
from operads.linalg import LinComb, _Memo, coords, exact_rank, frac_str, tensor_transpose
from operads.models import (
    as_concat,
    as_deconcat,
    as_shuffle_coproduct,
    bilinear,
    dup_coproduct,
    dup_left,
    dup_right,
    get_model,
    key_parts,
    left_nested_bracket,
    lie_bracket,
    lie_cobracket,
    lie_subspace,
    lie_tensor_escape,
    mag_dual_coproduct,
    mag_hopf_coproduct,
    mag_product,
    model_names,
    shuffle_product,
    tree_key,
    words,
    zinb_half_shuffle,
)
from operads.series import gen_series
from operads.trees import LEAF, catalan


def lc(key):
    return LinComb.of(key)


def coassociative(coproduct, elements):
    """(delta x id) delta == (id x delta) delta on the given elements; delta on keys."""
    for a in elements:
        d = a.map_keys(coproduct)
        left = LinComb.zero()
        right = LinComb.zero()
        for (k1, k2), c in d.items():
            left = left + coproduct(k1).tensor(lc(k2)).scale(c)
            right = right + lc(k1).tensor(coproduct(k2)).scale(c)
        if left != right:
            return False
    return True


def cocommutative(coproduct, elements):
    return all(tensor_transpose(a.map_keys(coproduct)) == a.map_keys(coproduct) for a in elements)


def basis_elements(model, max_degree):
    for n in range(1, max_degree + 1):
        for k in model.basis(n):
            yield lc(k)


# --- dimensions --------------------------------------------------------------

def test_dup_dimensions_are_catalan():
    start = time.monotonic()
    model = get_model("dup", 1)
    assert [len(model.basis(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert time.monotonic() - start < 1.0


def test_mag_dimensions_are_shifted_catalan():
    model = get_model("mag", 1)
    assert [len(model.basis(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


@pytest.mark.parametrize("name,series", [
    ("as", "As"), ("classical", "As"), ("zinb", "As"), ("nil", "Nil"),
    ("mag", "Mag"), ("dup", "Dup"), ("bidup", "Dup"),
])
def test_dimensions_are_the_generating_series_coefficients(name, series):
    # on one letter, dim A_n counts the n-ary operations
    model = get_model(name, 1)
    assert [len(model.basis(n)) for n in range(1, 10)] == list(gen_series(series, 9).coeffs)


def test_word_model_dimensions():
    assert len(words(2, 4)) == 16
    assert len(words(3, 3)) == 27


def test_words_refuse_an_alphabet_past_the_letters():
    assert len(words(16, 1)) == 16
    with pytest.raises(ValueError, match="alphabet size must be <= 16"):
        words(17, 1)
    with pytest.raises(ValueError):
        get_model("as", 20).basis(1)


def test_lie_dimensions_follow_witt_numbers():
    # necklace polynomial values for a 2-letter alphabet
    assert [len(lie_subspace(2, n)) for n in range(1, 6)] == [2, 1, 2, 3, 6]


def test_nil_model_truncates():
    model = get_model("nil")
    assert len(model.basis(1)) == 2
    assert len(model.basis(2)) == 4
    assert model.basis(3) == []
    # product of two letters lives in degree 2, triple products vanish
    x, y = lc("x"), lc("y")
    mul = model.products["mul"]
    assert mul(x, y) == lc("xy")
    assert mul(mul(x, y), x) == LinComb.zero()


# --- associative / classical --------------------------------------------------

def test_concat_is_associative_and_deconcat_coassociative():
    model = get_model("as", 2)
    elems = list(basis_elements(model, 3))
    concat = bilinear(as_concat)
    for a, b, c in itertools.product(elems[:6], repeat=3):
        assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert coassociative(as_deconcat, list(basis_elements(model, 6)))


def test_bilinear_matches_the_sum_of_its_pair_images():
    # the reference sums one LinComb per pair of terms, term order and denominator included
    def half_bracket(u, v):  # non-integral: (uv - vu) / 2
        return LinComb(((u + v, Fraction(1, 2)), (v + u, Fraction(-1, 2))))

    def reference(key_fn, a, b):
        return LinComb.sum((key_fn(k1, k2), c1 * c2)
                           for k1, c1 in a.items() for k2, c2 in b.items())

    x_plus_y = LinComb((("x", 1), ("y", 1)))
    cases = [
        # the pairs (x, y) and (y, x) cancel; the xy pairs are non-integral
        (half_bracket, x_plus_y + LinComb.of("xy", Fraction(2, 3)), x_plus_y),
        (half_bracket, x_plus_y, x_plus_y),
        (lie_bracket, x_plus_y, x_plus_y),
        (lie_bracket, LinComb((("x", Fraction(1, 3)), ("yx", 2))), LinComb((("y", 3), ("x", -1)))),
        (as_concat, LinComb((("x", 2), ("xy", Fraction(-1, 4)))), LinComb((("yy", 6),))),
        (zinb_half_shuffle, x_plus_y, LinComb.zero()),
    ]
    for key_fn, a, b in cases:
        got, want = bilinear(key_fn)(a, b), reference(key_fn, a, b)
        assert (got.terms, got.den) == (want.terms, want.den), (key_fn.__name__, a, b)
    assert bilinear(half_bracket)(x_plus_y, x_plus_y) == LinComb.zero()
    assert bilinear(lie_bracket)(x_plus_y, x_plus_y) == LinComb.zero()

    # a declared one-key product adds c1 c2 at its key map's key; the generic path,
    # taken by any wrapper of it, calls the kernel once per pair of terms
    def combination(model, top):
        return LinComb((k, Fraction((-1) ** i * (i + 1), 3))
                       for i, (_, k) in enumerate(keys_through(model, top)))
    mag, dup = get_model("mag", 2), get_model("dup", 2)
    # x.yx and xy.x both give xyx, and cancel
    cancelling = LinComb((("x", 1), ("xy", -1))), LinComb((("yx", 1), ("x", 1)))
    assert not bilinear(as_concat)(*cancelling).coeff("xyx")
    declared_cases = [
        (as_concat, LinComb((("x", 2), ("xy", Fraction(-1, 4)))),
         LinComb((("yy", Fraction(6, 5)), ("x", 3)))),
        (as_concat, x_plus_y, LinComb.zero()),
        (as_concat, LinComb.zero(), x_plus_y),
        (as_concat, *cancelling),
        (mag_product, combination(mag, 2), combination(mag, 2).scale(Fraction(7, 2))),
        (dup_left, combination(dup, 2), combination(dup, 1)),
        (dup_right, combination(dup, 1), combination(dup, 2).scale(-3)),
    ]
    for key_fn, a, b in declared_cases:
        assert key_fn in models._KEY_MAPS
        calls = []

        def plain(u, v, key_fn=key_fn):
            calls.append((u, v))
            return key_fn(u, v)
        wrapped = wraps(key_fn)(plain)
        got = bilinear(key_fn)(a, b)
        for generic in (plain, wrapped):
            calls.clear()
            want = bilinear(generic)(a, b)
            assert (list(got.terms.items()), got.den) == (list(want.terms.items()), want.den), (
                key_fn.__name__, a, b)
            assert len(calls) == len(a) * len(b)
        assert got == reference(key_fn, a, b)


def test_one_key_products_are_declared_by_their_key_maps():
    declared = set()
    for name in ("as", "classical", "mag", "dup", "bidup"):
        for alphabet in (1, 2):
            model = get_model(name, alphabet)
            keys = keys_through(model, 3)
            for kernel in model.key_products.values():
                key_map = models._KEY_MAPS[kernel]
                declared.add(kernel)
                for (n1, k1), (n2, k2) in itertools.product(keys, repeat=2):
                    if n1 + n2 <= 4:
                        got, want = kernel(k1, k2), LinComb.of(key_map(k1, k2))
                        assert (got.terms, got.den) == (want.terms, want.den), (k1, k2)
                        # one basis key of degree n1 + n2: a set operad's product
                        assert model.is_key(key_map(k1, k2)), (name, k1, k2)
    assert declared == set(models._KEY_MAPS) == {as_concat, mag_product, dup_left, dup_right}
    for kernel in (shuffle_product, zinb_half_shuffle, lie_bracket, models.nil_concat):
        assert kernel not in models._KEY_MAPS


def test_shuffle_coproduct_is_coassociative_and_cocommutative():
    model = get_model("classical", 2)
    elems = list(basis_elements(model, 6))
    assert coassociative(as_shuffle_coproduct, elems)
    assert cocommutative(as_shuffle_coproduct, elems)


# --- Zinbiel -------------------------------------------------------------------

def test_zinbiel_relation_to_degree_6():
    half = bilinear(zinb_half_shuffle)
    for p in range(1, 5):
        for q in range(1, 5):
            for r in range(1, 5):
                if p + q + r > 6:
                    continue
                for u in words(2, p):
                    for v in words(2, q):
                        for w in words(2, r):
                            a, b, c = lc(u), lc(v), lc(w)
                            lhs = half(half(a, b), c)
                            rhs = half(a, half(b, c) + half(c, b))
                            assert lhs == rhs


def test_symmetrized_half_shuffle_is_the_shuffle():
    for p in range(1, 4):
        for q in range(1, 4):
            for u in words(2, p):
                for v in words(2, q):
                    assert zinb_half_shuffle(u, v) + zinb_half_shuffle(v, u) == (
                        shuffle_product(u, v)
                    )


# --- magmatic ------------------------------------------------------------------

def test_mag_product_grafts_at_the_root():
    a = tree_key("(.,.)", "xy")
    b = tree_key(".", "z")
    assert mag_product(a, b) == lc(tree_key("((.,.),.)", "xyz"))


def test_mag_hopf_coproduct_is_coassociative_and_cocommutative():
    model = get_model("mag", 2)
    elems = list(basis_elements(model, 5))
    assert coassociative(mag_hopf_coproduct, elems)
    assert cocommutative(mag_hopf_coproduct, elems)


def test_mag_dual_coproduct_handshake_count():
    # the number of (cut) pairs produced from all trees of degree n equals
    # the number of (tree with a marked proper root split) configurations
    for n in range(2, 7):
        total = 0
        model = get_model("mag", 1)
        for k in model.basis(n):
            total += len(mag_dual_coproduct(k))
        # each pair (t1, t2) of degrees (i, n-i) appears exactly once
        expected = sum(
            catalan(i - 1) * catalan(n - i - 1) for i in range(1, n)
        )
        assert total == expected


# --- duplicial -----------------------------------------------------------------

def test_duplicial_axioms_to_degree_6():
    model = get_model("dup", 1)
    triples = [
        (a, b, c)
        for p in range(1, 5)
        for q in range(1, 5)
        for r in range(1, 5)
        if p + q + r <= 6
        for a in map(lc, model.basis(p))
        for b in map(lc, model.basis(q))
        for c in map(lc, model.basis(r))
    ]
    left, right = bilinear(dup_left), bilinear(dup_right)
    for a, b, c in triples:
        assert left(left(a, b), c) == left(a, left(b, c))
        assert left(right(a, b), c) == right(a, left(b, c))
        assert right(right(a, b), c) == right(a, right(b, c))


def test_dup_combs_are_iterated_one_sided_products():
    x = lc(tree_key("(.,.)", "x"))
    right = bilinear(dup_right)(x, bilinear(dup_right)(x, x))
    left = bilinear(dup_left)(bilinear(dup_left)(x, x), x)
    (rk,) = right.terms
    (lk,) = left.terms
    # x > (x > x) is the left comb, (x < x) < x the right comb
    assert key_parts(rk)[0] == "(((.,.),.),.)"
    assert key_parts(lk)[0] == "(.,(.,(.,.)))"


def test_dup_coproduct_is_coassociative_to_degree_6():
    model = get_model("dup", 1)
    assert coassociative(dup_coproduct, list(basis_elements(model, 6)))


# --- the graft and cut kernels against one kernel per operation ----------------

def ref_cut_keys(key, cuts, extra):
    """The cut image rebuilt through key_parts, tree_key, leaf_count and LinComb(list)."""
    t, w = key_parts(key)
    out = []
    for t1, t2 in cuts(t):
        p = trees.leaf_count(t1) - extra
        out.append(((tree_key(t1, w[:p]), tree_key(t2, w[p:])), 1))
    return LinComb(out)


def ref_graft_keys(graft, k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return LinComb([(tree_key(graft(t1, t2), w1 + w2), 1)])


def ref_vee_keys(k1, k2):
    t1, w1 = key_parts(k1)
    t2, w2 = key_parts(k2)
    return tree_key(trees.vee(t1, t2), w1 + w2)


def ref_mag_split(key):
    t, w = key_parts(key)
    l, r = trees.split(t)
    return tree_key(l, w[:trees.leaf_count(l)]), tree_key(r, w[trees.leaf_count(l):])


def ref_mag_dual_key(key):
    t, _ = key_parts(key)
    if t == LEAF:
        return LinComb.zero()
    return lc(models.mag_split(key))


def ref_dup_coproduct_key(key):
    t, w = key_parts(key)
    out = []
    for i in range(1, len(w)):
        r, s = trees.path_cut(t, i)
        out.append(((tree_key(r, w[:i]), tree_key(s, w[i:])), 1))
    return LinComb(out)


ref_mag_prod_key = partial(ref_graft_keys, trees.vee)
ref_dup_left_key = partial(ref_graft_keys, trees.under)
ref_dup_right_key = partial(ref_graft_keys, trees.over)
ref_dup_dleft_key = partial(ref_cut_keys, cuts=models._right_edge_cuts, extra=1)
ref_dup_dright_key = partial(ref_cut_keys, cuts=models._left_edge_cuts, extra=1)


def keys_through(model, degree):
    return [(n, k) for n in range(1, degree + 1) for k in model.basis(n)]


def test_tree_kernels_match_one_kernel_per_operation():
    # alphabet 2, so that a word split at the wrong point gives another key
    mag, dup = get_model("mag", 2), get_model("dup", 2)
    for key_fn, ref, model in [
        (mag_dual_coproduct, ref_mag_dual_key, mag),
        (dup_coproduct, ref_dup_coproduct_key, dup),
        (models.dup_dleft, ref_dup_dleft_key, dup),
        (models.dup_dright, ref_dup_dright_key, dup),
    ]:
        for _, k in keys_through(model, 4):
            assert key_fn(k) == ref(k), (ref, k)
    for product, ref, model in [
        (mag_product, ref_mag_prod_key, mag),
        (dup_left, ref_dup_left_key, dup),
        (dup_right, ref_dup_right_key, dup),
    ]:
        keys = keys_through(model, 4)
        for (n1, k1), (n2, k2) in itertools.product(keys, repeat=2):
            if n1 + n2 <= 5:
                assert product(k1, k2) == ref(k1, k2), (ref, k1, k2)
                if model is mag:
                    assert models._vee_keys(k1, k2) == ref_vee_keys(k1, k2)


def _root_split(t):
    return [] if t == LEAF else [trees.split(t)]


@pytest.mark.parametrize("name,alphabet,top", [("dup", 1, 8), ("dup", 2, 5), ("mag", 2, 5)])
def test_one_pass_tree_kernels_match_the_split_and_rebuild_reference(name, alphabet, top):
    model = get_model(name, alphabet)
    keys = keys_through(model, top)
    cut_kernels = {
        "dup": [(dup_coproduct, lambda t: trees.path_cuts(t)[1:-1], 1),
                (models.dup_dleft, models._right_edge_cuts, 1),
                (models.dup_dright, models._left_edge_cuts, 1)],
        "mag": [(mag_dual_coproduct, _root_split, 0)],
    }[name]
    for _, k in keys:
        t, _ = key_parts(k)
        for kernel, cuts, extra in cut_kernels:
            got, want = kernel(k), ref_cut_keys(k, cuts, extra)
            # the same terms in the same order, and one term per cut: no two cuts merge
            assert (list(got.items()), got.den) == (list(want.items()), want.den), (k, kernel)
            assert len(got) == len(cuts(t)), (k, kernel)
        if name == "mag" and t != LEAF:
            assert models.mag_split(k) == ref_mag_split(k), k
    grafts = {"dup": [(dup_left, trees.under), (dup_right, trees.over)],
              "mag": [(mag_product, trees.vee)]}[name]
    for (n1, k1), (n2, k2) in itertools.product(keys, repeat=2):
        if n1 + n2 <= top:
            for product, graft in grafts:
                got, want = product(k1, k2), ref_graft_keys(graft, k1, k2)
                assert (got.terms, got.den) == (want.terms, want.den), (k1, k2, product)


# --- Lie -----------------------------------------------------------------------

def test_left_nested_bracket_examples():
    assert left_nested_bracket("xy") == LinComb({"xy": 1, "yx": -1})
    assert left_nested_bracket("xx") == LinComb.zero()
    assert left_nested_bracket("xyx") == LinComb(
        {"xyx": 2, "xxy": -1, "yxx": -1}
    )


def test_lie_bracket_antisymmetry_and_jacobi():
    elems = [left_nested_bracket(w) for w in ("xy", "xyx", "xyy")] + [
        lc("x"),
        lc("y"),
    ]
    bracket = bilinear(lie_bracket)
    assert lie_bracket("x", "x") == LinComb.zero()
    for a in elems:
        for b in elems:
            assert bracket(a, b) == bracket(b, a).scale(-1)
    for a in elems:
        for b in elems:
            for c in elems:
                jac = (
                    bracket(a, bracket(b, c))
                    + bracket(b, bracket(c, a))
                    + bracket(c, bracket(a, b))
                )
                assert jac == LinComb.zero()


def test_lie_cobracket_small_examples():
    assert lie_cobracket("x") == LinComb.zero()
    assert LinComb({"xy": 1, "yx": -1}).map_keys(lie_cobracket) == LinComb(
        {("x", "y"): 2, ("y", "x"): -2}
    )
    assert LinComb({"xy": 1, "yx": 1}).map_keys(lie_cobracket) == LinComb.zero()


def unshuffles_by_scan(w):
    """The unshuffle pairs as first written: combinations, and a scan for the rest."""
    out = []
    n = len(w)
    for r in range(1, n):
        for picks in itertools.combinations(range(n), r):
            left = "".join(w[i] for i in picks)
            rest = "".join(w[i] for i in range(n) if i not in picks)
            out.append((left, rest))
    return out


def test_shuffle_coproduct_matches_the_scan_with_multiplicities():
    # the letter-by-letter image counts each unshuffle pair as often as the scan lists it
    for alphabet, longest in ((2, 8), (5, 5)):
        for n in range(longest + 1):
            for w in words(alphabet, n):
                assert as_shuffle_coproduct(w) == LinComb((p, 1) for p in unshuffles_by_scan(w)), w
    assert as_shuffle_coproduct("") == LinComb.zero() == as_shuffle_coproduct("y")


def lie_tensor_membership(img, n):
    """Is a two-slot tensor inside the span of Lie x Lie in degree n?"""
    tensor_basis = [
        (u, v)
        for i in range(1, n)
        for u in words(2, i)
        for v in words(2, n - i)
    ]
    span = [
        a.tensor(b)
        for i in range(1, n)
        for a in lie_subspace(2, i)
        for b in lie_subspace(2, n - i)
    ]
    base = exact_rank(coords(span, tensor_basis))
    return exact_rank(coords(span + [img], tensor_basis)) == base


def test_lie_cobracket_stays_in_lie_tensor_lie_through_degree_3():
    for n in (2, 3):
        for elt in lie_subspace(2, n):
            assert lie_tensor_membership(elt.map_keys(lie_cobracket), n)


def test_lie_cobracket_escapes_lie_tensor_lie_in_degree_4():
    # pinned witness: X = [[[x,y],x],x]; the middle component of the
    # cobracket is 2(xy+yx)(x)xx - 2xx(x)(xy+yx), and xy+yx is not Lie
    X = left_nested_bracket("xyxx")
    img = X.map_keys(lie_cobracket)
    middle = LinComb(
        (k, c) for k, c in img.items() if len(k[0]) == 2
    )
    assert middle == LinComb(
        {
            ("xy", "xx"): 2,
            ("yx", "xx"): 2,
            ("xx", "xy"): -2,
            ("xx", "yx"): -2,
        }
    )
    assert not lie_tensor_membership(img, 4)


def test_lie_tensor_escape_first_happens_in_degree_4():
    assert not lie_tensor_escape(2, 2)
    assert not lie_tensor_escape(2, 3)
    assert lie_tensor_escape(2, 4)


def greedy_lie_subspace(alphabet, n):
    """Reference: each left-nested bracket, in word order, kept when it raises the rank."""
    all_words = words(alphabet, n)
    basis = []
    for w in all_words:
        cand = left_nested_bracket(w)
        if cand and exact_rank(coords(basis + [cand], all_words)) > len(basis):
            basis.append(cand)
    return basis


def lie_tensor_escape_reference(alphabet, n):
    """Reference: some cobracket image lies outside the span of Lie x Lie, one test each."""
    span = [a.tensor(b) for i in range(1, n)
            for a in greedy_lie_subspace(alphabet, i) for b in greedy_lie_subspace(alphabet, n - i)]
    rank = exact_rank(coords(span))
    return not all(exact_rank(coords(span + [x.map_keys(lie_cobracket)])) == rank
                   for x in greedy_lie_subspace(alphabet, n))


@pytest.mark.parametrize("alphabet, top", [(1, 6), (2, 6), (3, 5)])
def test_lie_subspace_is_the_greedy_bracket_basis(alphabet, top):
    for n in range(1, top + 1):
        assert lie_subspace(alphabet, n) == greedy_lie_subspace(alphabet, n)


@pytest.mark.parametrize("alphabet, top", [(1, 5), (2, 5), (3, 4)])
def test_lie_tensor_escape_matches_one_span_test_per_element(alphabet, top):
    for n in range(2, top + 1):
        assert lie_tensor_escape(alphabet, n) == lie_tensor_escape_reference(alphabet, n)


# --- the associative splitting -------------------------------------------------

@pytest.mark.parametrize("name, alphabet, product, scalar", [
    ("as", 2, as_concat, lambda n: 1),
    ("dup", 1, dup_right, lambda n: 1),
    ("classical", 2, as_concat, lambda n: Fraction(1, factorial(n))),
])
def test_tower_terms_map_to_the_right_nested_product(name, alphabet, product, scalar):
    model = get_model(name, alphabet)
    operation = model.splitting.operation(None)
    product = bilinear(product)
    for n in range(1, 6):
        for key in model.basis(n):
            for term in model.splitting.decompose(key).terms:
                slots = term[1:]
                folded = lc(slots[-1])
                for s in reversed(slots[:-1]):
                    folded = product(lc(s), folded)
                assert operation(lc(slots)) == folded.scale(scalar(len(slots)))


def tower_versal(decompose, product, scalar):
    """The versal memo read off the whole tower, with a memo of slot suffixes.

    e(x) = x - sum over tower terms c (s_1, ..., s_n) of x with n >= 2 of
    c scalar(n) e(s_1) (e(s_2) (... e(s_n))); on a tuple of slots the memo
    holds that nested product, so every suffix is built once.
    """
    def nested_e(x, nested):
        if isinstance(x, tuple):
            return product(nested(x[0]), nested(x[1] if len(x) == 2 else x[1:]))
        rests = {}  # the tower terms of arity >= 2, grouped by their first slot
        for t, c in decompose(x).items():
            if len(t) > 2:
                rests.setdefault(t[1], []).append(
                    (nested(t[2] if len(t) == 3 else t[2:]), c * scalar(len(t) - 1)))
        return LinComb.of(x) - LinComb.sum(
            (product(nested(s), LinComb.sum(r)), 1) for s, r in rests.items())
    return _Memo(nested_e)


@pytest.mark.parametrize("name, alphabet, max_degree, product, scalar, step", [
    ("as", 1, 6, as_concat, lambda n: 1, 1),
    ("as", 2, 6, as_concat, lambda n: 1, 1),
    ("as", 3, 6, as_concat, lambda n: 1, 1),
    ("dup", 1, 6, dup_right, lambda n: 1, 1),
    ("dup", 2, 6, dup_right, lambda n: 1, 1),
    # every 50th of the 96,228 degree-6 keys; all of them take about half a
    # minute, and reading a key's memo fills the lower-degree keys it needs
    ("dup", 3, 6, dup_right, lambda n: 1, 50),
    ("classical", 2, 6, as_concat, lambda n: Fraction(1, factorial(n)), 1),
    ("classical", 3, 5, as_concat, lambda n: Fraction(1, factorial(n)), 1),
])
def test_versal_memo_matches_the_tower_reference(name, alphabet, max_degree, product, scalar, step):
    # the versal memo reads the reduced coproduct only; the reference walks a
    # fresh model's tower.  step samples the top degree.
    model = get_model(name, alphabet)
    reference = tower_versal(get_model(name, alphabet).splitting.decompose, bilinear(product),
                             scalar)
    for n in range(1, max_degree + 1):
        for key in model.basis(n)[::step if n == max_degree else 1]:
            assert model.splitting.versal(key) == reference(key), key


def tree_versal_reference(decompose, apply):
    """The tree versal memo as it was read off the whole decomposition.

    e(x) = x - the sum of c s(label)(e(s_1), ..., e(s_n)) over the labeled
    cooperations c (label, s_1, ..., s_n) of x of arity >= 2, with
    s(label) = apply(label, slot LinCombs).
    """
    def step(key, e):
        return LinComb.of(key) - LinComb.sum(
            (apply(t[0], tuple(map(e, t[1:]))), c)
            for t, c in decompose(key).items() if len(t) > 2)
    return _Memo(step)


@pytest.mark.parametrize("name, apply", [
    ("mag", models._mag_tree_apply), ("bidup", models._dup_tree_apply),
])
def test_tree_versal_matches_the_decomposition_reference(name, apply):
    # the versal is the arity-1 part of the components memo; the reference
    # walks a fresh model's raw decomposition
    kernels = {"mag": {"product": bilinear(models.mag_product)},
               "bidup": {"left": bilinear(models.dup_left), "right": bilinear(models.dup_right)}}
    model = get_model(name, 2)
    reference = tree_versal_reference(get_model(name, 2).splitting.decompose,
                                      partial(apply, **kernels[name]))
    for n in range(1, 7):
        for key in model.basis(n):
            assert model.splitting.versal(key) == reference(key), key


def matrix_json(m):
    """A dense matrix as the strings `idempotent --report matrix` prints."""
    return [[frac_str(c) for c in row] for row in m]


def test_composed_idempotents_render_as_themselves():
    e = versal_idempotent(get_model("dup", 1), 5)
    e2 = eulerian(ConvolutionContext(get_model("classical", 2)), 2, 4)
    for endo in (e, e2):
        square = endo.compose(endo)
        for n in endo.mats:
            assert matrix_json(square.mats[n]) == matrix_json(endo.mats[n])


# --- registry ------------------------------------------------------------------

def test_model_registry():
    names = model_names()
    for required in ("as", "classical", "zinb", "mag", "dup", "bidup", "lie", "nil"):
        assert required in names
    with pytest.raises(KeyError):
        get_model("nope")
