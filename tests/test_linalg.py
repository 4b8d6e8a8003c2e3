"""Exact linear algebra: LinComb arithmetic, coordinates, ranks, kernels, spans."""

import gc
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from operads.linalg import (
    GradedEndo,
    LinComb,
    _Memo,
    _echelon,
    coords,
    exact_rank,
    frac_str,
    kernel_basis,
    lincomb_json,
    mat_mul,
    same_column_space,
    serialize_key,
    sparse_rows,
    tensor_transpose,
)


# --- a deliberately naive oracle for ranks ---------------------------------

def naive_rank(m):
    """Textbook Gaussian elimination over Fraction, row by row."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense(rows, ncols):
    """The dense matrix of sparse rows, for the naive oracle."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def apply_row(row, v):
    """A sparse row times a kernel vector (a LinComb over column indices), exactly."""
    return sum(a * v.coeff(j) for j, a in row.items())


def test_exact_rank_against_naive_oracle_many_samples():
    rng = random.Random(20240817)
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert exact_rank(sparse_rows(m)) == naive_rank(m)


def test_rank_of_rigged_low_rank_matrices():
    rng = random.Random(7)
    for _ in range(200):
        # build rank <= 2 matrices as outer-product sums
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        u1 = [rng.randint(-3, 3) for _ in range(nr)]
        v1 = [rng.randint(-3, 3) for _ in range(nc)]
        u2 = [rng.randint(-3, 3) for _ in range(nr)]
        v2 = [rng.randint(-3, 3) for _ in range(nc)]
        m = [[u1[i] * v1[j] + u2[i] * v2[j] for j in range(nc)] for i in range(nr)]
        assert exact_rank(sparse_rows(m)) <= 2
        assert exact_rank(sparse_rows(m)) == naive_rank(m)


def test_kernel_basis_annihilates_and_matches_rank_nullity():
    rng = random.Random(99)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        rows = sparse_rows(m)
        ker = kernel_basis(rows, nc)
        assert len(ker) == nc - exact_rank(rows)
        for v in ker:
            for row in rows:
                assert apply_row(row, v) == 0
        # kernel vectors are independent
        if ker:
            assert exact_rank(coords(ker)) == len(ker)


def random_sparse(rng, nr, nc):
    """About 80 % zeros, rational entries, and some all-zero rows and columns."""
    zero_rows = set(rng.sample(range(nr), rng.randint(0, nr // 3)))
    zero_cols = set(rng.sample(range(nc), rng.randint(0, nc // 3)))
    return [
        [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            if i not in zero_rows and j not in zero_cols and rng.random() < 0.2
            else Fraction(0)
            for j in range(nc)
        ]
        for i in range(nr)
    ]


def test_exact_rank_on_sparse_matrices_against_naive_oracle():
    rng = random.Random(31)
    for _ in range(400):
        m = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12))
        assert exact_rank(sparse_rows(m)) == naive_rank(m)
    assert exact_rank(sparse_rows([[0, 0], [0, 0]])) == 0
    assert exact_rank([]) == exact_rank([{}]) == 0


def test_kernel_basis_is_the_reduced_echelon_kernel():
    rng = random.Random(5)
    for _ in range(200):
        nr, nc = rng.randint(1, 10), rng.randint(1, 10)
        m = random_sparse(rng, nr, nc)
        # a column is free when it does not raise the rank of the columns before it
        free = [
            c for c in range(nc)
            if naive_rank([row[:c + 1] for row in m]) == naive_rank([row[:c] for row in m])
        ]
        rows = sparse_rows(m)
        ker = kernel_basis(rows, nc)
        assert len(ker) == len(free)
        for f, v in zip(free, ker):
            assert all(0 <= j < nc for j in v.terms)
            assert stored_ok(v)
            assert [v.coeff(g) for g in free] == [1 if g == f else 0 for g in free]
            for row in rows:
                assert apply_row(row, v) == 0


def random_sparse_rows(rng, nr, nc):
    """Sparse rows mixing int and Fraction entries, some rows empty, some columns unused."""
    zero_cols = set(rng.sample(range(nc), rng.randint(0, nc // 3)))
    rows = []
    for _ in range(nr):
        row = {}
        if rng.random() < 0.8:
            for j in range(nc):
                if j not in zero_cols and rng.random() < 0.25:
                    x = rng.choice([-3, -2, -1, 1, 2, 3])
                    row[j] = x if rng.random() < 0.5 else Fraction(x, rng.randint(1, 4))
        rows.append(row)
    return rows


def test_repeated_and_rescaled_rows_change_no_rank_pivot_or_kernel():
    # rows equal to an earlier one up to a positive factor, or listed in another
    # column order, are dropped or eliminated: the answers are those without them
    rng = random.Random(73)
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        base = random_sparse_rows(rng, nr, nc)
        rows = list(base)
        for row in rng.choices(base, k=rng.randint(1, 2 * nr)):
            extra = rng.choice([
                dict(row),
                {j: 2 * x for j, x in row.items()},
                dict(reversed(list(row.items()))),
            ])
            rows.insert(rng.randint(0, len(rows)), extra)
        before = [list(row.items()) for row in rows]
        assert exact_rank(rows) == exact_rank(base)
        assert _echelon(rows)[1] == _echelon(base)[1]
        assert kernel_basis(rows, nc) == kernel_basis(base, nc)
        assert [list(row.items()) for row in rows] == before
    # the three kinds of extra row on one fixed matrix
    base = [{0: 1, 2: Fraction(1, 2)}, {1: 3, 2: -1}]
    rows = base + [{0: 1, 2: Fraction(1, 2)}, {1: 6, 2: -2}, {2: -1, 1: 3}]
    assert exact_rank(rows) == 2 and _echelon(rows)[1] == [0, 1]
    kernel = [LinComb({0: Fraction(-1, 2), 1: Fraction(1, 3), 2: 1})]
    assert kernel_basis(rows, 3) == kernel_basis(base, 3) == kernel


def test_exact_rank_on_sparse_rows_of_ints_and_fractions():
    rng = random.Random(41)
    for _ in range(400):
        nr, nc = rng.randint(0, 12), rng.randint(1, 12)
        rows = random_sparse_rows(rng, nr, nc)
        before = [dict(row) for row in rows]
        assert exact_rank(rows) == naive_rank(dense(rows, nc))
        assert rows == before


def test_sparse_kernel_annihilates_every_row_and_is_reduced_at_free_columns():
    rng = random.Random(43)
    for _ in range(300):
        nr, nc = rng.randint(0, 10), rng.randint(1, 10)
        rows = random_sparse_rows(rng, nr, nc)
        m = dense(rows, nc)
        free = [
            c for c in range(nc)
            if naive_rank([row[:c + 1] for row in m]) == naive_rank([row[:c] for row in m])
        ]
        ker = kernel_basis(rows, nc)
        assert len(ker) == len(free) == nc - exact_rank(rows)
        for f, v in zip(free, ker):
            assert [v.coeff(g) for g in free] == [1 if g == f else 0 for g in free]
            assert stored_ok(v)
            assert all(apply_row(row, v) == 0 for row in rows)


def test_matrices_without_columns_or_rows():
    rows = coords([], ["x", "y", "z"])
    assert rows == [{}, {}, {}]
    assert exact_rank(rows) == 0
    assert kernel_basis(rows, 0) == []
    assert kernel_basis([], 2) == [LinComb.of(0), LinComb.of(1)]
    assert sparse_rows([[0, Fraction(1, 2)], [0, 0]]) == [{1: Fraction(1, 2)}, {}]


def test_kernel_vectors_are_integral_when_the_pivots_divide():
    # x0 = x1 - x2 and x2 = 2 x3: every kernel entry is an int, stored over 1
    rows = [{0: 1, 1: -1, 2: 1}, {2: 1, 3: -2}]
    assert kernel_basis(rows, 4) == [LinComb({1: 1, 0: 1}), LinComb({3: 1, 0: -2, 2: 2})]
    assert all(v.den == 1 for v in kernel_basis(rows, 4))
    # 2 x0 + x1 = 0 and x1 + 3 x2 = 0: x0 = 3/2 x2 needs a denominator
    (v,) = kernel_basis([{0: 2, 1: 1}, {1: 1, 2: 3}], 3)
    assert stored_ok(v) and (v.terms, v.den) == ({2: 2, 0: 3, 1: -6}, 2)


def test_negative_pivot_leads_give_kernel_vectors_in_stored_form():
    # the free column first, then the pivots in ascending order, over a positive denominator
    (v,) = kernel_basis([{0: -2, 1: 1}, {1: -1, 2: 3}], 3)
    assert (list(v.terms.items()), v.den) == ([(2, 2), (0, 3), (1, 6)], 2)
    ker = kernel_basis([{0: -3, 2: 2}, {1: 2, 2: -1, 3: 4}], 4)
    assert [(list(v.terms.items()), v.den) for v in ker] == [
        ([(2, 6), (0, 4), (1, 3)], 6), ([(3, 1), (1, -2)], 1)]


def test_memos_evaluate_chains_longer_than_the_recursion_limit():
    depth = 3 * sys.getrecursionlimit()
    chain = _Memo(lambda n, memo: memo(n - 1) + 1 if n else 0)
    assert chain(depth) == depth
    # two memos reading each other: the bound counts the open steps of both
    half = _Memo(lambda n, memo: whole(n - 1) + 1 if n else 0)
    whole = _Memo(lambda n, memo: half(n) + 1 if n else 0)
    assert whole(depth) == 2 * depth
    # a failing step leaves no step open behind it
    broken = _Memo(lambda n, memo: memo(n - 1) if n else 1 // 0)
    with pytest.raises(ZeroDivisionError):
        broken(depth)
    assert chain(2 * depth) == 2 * depth


def test_a_memo_chain_past_the_nesting_bound_leaves_no_reference_cycle():
    # the misses unwound on the way hold no memo once they are evaluated
    gc.collect()
    gc.disable()
    try:
        chain = _Memo(lambda n, memo: memo(n - 1) + 1 if n else 0)
        assert chain(1000) == 1000
        del chain
        assert gc.collect() == 0
    finally:
        gc.enable()


def in_span(lincombs, lc):
    """Is lc a linear combination of the given LinCombs?

    With pivots taken left to right, exactly when lc's column (the last) is
    not a pivot column of one echelon form.
    """
    cols = [*lincombs, lc]
    pivots = _echelon(coords(cols))[1]
    return not pivots or pivots[-1] != len(cols) - 1


def test_in_span_agrees_with_two_ranks_on_random_inputs():
    rng = random.Random(11)
    basis = ["x", "y", "z", "u", "v", "w"]

    def random_lc():
        return LinComb(
            (k, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for k in basis if rng.random() < 0.3
        )

    for _ in range(300):
        span = [random_lc() for _ in range(rng.randint(0, 4))]
        if span and rng.random() < 0.5:
            lc = LinComb.zero()
            for s in span:
                lc = lc + s.scale(rng.randint(-2, 2))
        else:
            lc = random_lc()
        two_ranks = (naive_rank(dense(coords(span + [lc], basis), len(span) + 1))
                     == naive_rank(dense(coords(span, basis), len(span))))
        assert in_span(span, lc) == two_ranks


def test_coords_in_a_declared_basis():
    basis = ["x", "y", "z"]
    cols = [LinComb({"y": 2, "x": Fraction(1, 3)}), LinComb.zero(), LinComb.of("z", -1)]
    assert coords(cols, basis) == [
        {0: Fraction(1, 3)},
        {0: 2},
        {2: -1},
    ]
    assert coords([], basis) == [{}, {}, {}]


def test_coords_rows_follow_first_appearance_without_basis():
    cols = [LinComb({"b": 1}), LinComb({"a": 2, "b": 3}), LinComb({"c": -1, "a": 1})]
    assert coords(cols) == [  # rows b, a, c
        {0: 1, 1: 3},
        {1: 2, 2: 1},
        {2: -1},
    ]
    assert coords([LinComb.zero()]) == []


def test_coords_rejects_a_key_outside_the_basis():
    with pytest.raises(ValueError):
        coords([LinComb.of("x"), LinComb.of("w")], ["x", "y"])


def test_coords_consumes_a_generator():
    basis = ["x", "y"]
    seen = []

    def images():
        for key in basis:
            seen.append(key)
            yield LinComb.of(key, 2) + LinComb.of("y")

    assert coords(images(), basis) == [{0: 2}, {0: 1, 1: 3}]
    assert seen == basis


def test_in_span_agrees_with_exact_rank():
    span = [LinComb({"x": 1, "y": 1}), LinComb({"y": 1, "z": -1})]
    inside = LinComb({"x": 2, "y": 5, "z": -3})
    outside = LinComb({"x": 1, "z": -1})
    basis = ["x", "y", "z"]
    base = exact_rank(coords(span, basis))
    assert in_span(span, inside)
    assert exact_rank(coords(span + [inside], basis)) == base
    assert not in_span(span, outside)
    assert exact_rank(coords(span + [outside], basis)) == base + 1
    assert in_span(span, LinComb.zero())
    assert in_span([], LinComb.zero())
    assert not in_span([], LinComb.of("x"))
    assert not in_span(span, LinComb.of("w"))


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
keys = st.sampled_from(["x", "y", "z", "xy", "yx", "xx"])
lincombs = st.dictionaries(keys, coeffs, max_size=4).map(LinComb)


@given(lincombs, lincombs, lincombs)
def test_lincomb_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(lincombs, lincombs, coeffs)
def test_lincomb_scaling_distributes(a, b, s):
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert a - a == LinComb.zero()


@given(lincombs, lincombs, lincombs)
def test_tensor_is_bilinear_and_associative(a, b, c):
    assert a.tensor(b + c) == a.tensor(b) + a.tensor(c)
    assert (a.tensor(b)).tensor(c) == a.tensor(b.tensor(c))


@given(lincombs, lincombs)
def test_tensor_transpose_is_an_involution(a, b):
    t = a.tensor(b)
    assert tensor_transpose(tensor_transpose(t)) == t


def test_lincomb_never_stores_zeros():
    lc = LinComb({"x": 1}) + LinComb({"x": -1})
    assert not lc
    assert len(lc) == 0
    assert LinComb({"x": 0}).terms == {}


def test_serialization_helpers():
    assert frac_str(Fraction(3, 2)) == "3/2"
    assert frac_str(Fraction(-4, 2)) == "-2"
    assert serialize_key(("xy", "z")) == "xy|z"
    assert serialize_key("xy") == "xy"
    lc = LinComb({("y", "x"): Fraction(1, 3), ("x", "y"): -2})
    assert lincomb_json(lc) == {"x|y": "-2", "y|x": "1/3"}


def test_mat_mul_matches_definition():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert mat_mul(a, b) == [[19, 22], [43, 50]]


def naive_mat_mul(a, b):
    """The triple loop over Fraction."""
    if not a or not b:
        return []
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def stored_form(m):
    """The product as mat_mul must store it: ints for integral entries."""
    return [[(x.numerator if x.denominator == 1 else x) for x in row] for row in m]


@pytest.mark.parametrize("a, b", [
    # rational entries with different denominators
    ([[Fraction(1, 2), Fraction(2, 3)], [Fraction(-5, 7), Fraction(1, 6)]],
     [[Fraction(3, 4), Fraction(-1, 5)], [Fraction(9, 2), Fraction(7, 3)]]),
    # a rectangular 2x3 times 3x2 product
    ([[1, Fraction(1, 2), 3], [0, -2, Fraction(4, 9)]],
     [[Fraction(2, 3), 1], [5, 0], [Fraction(-1, 4), Fraction(9, 8)]]),
    # all-zero rows and columns on both sides
    ([[0, 0, 0], [1, 0, Fraction(1, 3)], [0, 0, 0]],
     [[0, 2, 0], [0, 0, 0], [0, Fraction(3, 5), 0]]),
    # mixed int and Fraction input, denominators that cancel in the product
    ([[2, Fraction(1, 2)], [Fraction(3, 1), 4]],
     [[Fraction(1, 2), 6], [2, Fraction(1, 3)]]),
    # entries that cancel to zero
    ([[1, 1], [Fraction(1, 2), Fraction(-1, 2)]], [[1, -1], [-1, 1]]),
    # the empty matrix
    ([], []),
    ([], [[1, 2]]),
    ([[1, 2]], []),
])
def test_mat_mul_against_the_triple_loop(a, b):
    got = mat_mul(a, b)
    want = naive_mat_mul(a, b)
    assert got == want
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in stored_form(want)]


def test_mat_mul_on_random_rationals_against_the_triple_loop():
    rng = random.Random(7)
    entry = [0, 0, 0, 1, -2, 5, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(4, 2)]
    for _ in range(60):
        r, m, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.choice(entry) for _ in range(m)] for _ in range(r)]
        b = [[rng.choice(entry) for _ in range(c)] for _ in range(m)]
        assert mat_mul(a, b) == naive_mat_mul(a, b)


def columns(m):
    """The columns of a dense matrix, as LinCombs over its row indices."""
    return [LinComb((i, row[j]) for i, row in enumerate(m)) for j in range(len(m[0]))]


def test_same_column_space():
    a = columns([[1, 0], [0, 1], [0, 0]])
    b = columns([[1, 1], [1, -1], [0, 0]])
    c = columns([[1, 0], [0, 0], [0, 1]])
    assert same_column_space(a, b)
    assert not same_column_space(a, c)


def test_same_column_space_with_different_widths():
    a = columns([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
    b = columns([[2], [0], [Fraction(-1, 3)]])
    assert not same_column_space(a, b)
    assert same_column_space(columns([[1, 0], [0, 0], [1, 0]]),
                             columns([[Fraction(1, 2), 0, 0], [0, 0, 0], [Fraction(1, 2), 0, 0]]))
    assert not same_column_space(columns([[0, 1], [1, 0]]), columns([[0, 1], [0, 1]]))
    assert not same_column_space(columns([[0, 1], [0, 0]]), columns([[0, 0], [1, 0]]))
    assert same_column_space(columns([[0, 0]]), columns([[0]]))


def test_graded_endo_roundtrip_and_algebra():
    bases = {1: ["x", "y"], 2: ["xx", "xy", "yx", "yy"]}

    def swap_letters(key):
        return LinComb.of(key.translate(str.maketrans("xy", "yx")))

    s = GradedEndo.from_function(bases, swap_letters)
    ident = GradedEndo.identity(bases)
    assert s.compose(s) == ident
    # the column of xy is the image yx
    assert [row[bases[2].index("xy")] for row in s.mats[2]] == [0, 0, 1, 0]
    assert (s + s).scale(Fraction(1, 2)) == s
    assert (s + s.scale(-1)).rank(2) == 0
    assert s.rank(1) == 2 and s.rank(2) == 4


def test_graded_endo_rejects_images_outside_basis():
    bases = {1: ["x"]}
    with pytest.raises(ValueError):
        GradedEndo.from_function(bases, lambda key: LinComb.of("zz"))


# --- the coefficient contract: int numerators over one denominator ----------

exact = st.one_of(st.integers(-6, 6), coeffs)  # ints, and Fractions (some of denominator 1)
raw_terms = st.dictionaries(keys, exact, max_size=4)


def stored_ok(lc):
    """The stored form: nonzero int numerators over one positive denominator, in lowest terms.

    den is 1 exactly when every coefficient is an integer (zero included).
    """
    assert all(type(c) is int and c for c in lc.terms.values()), lc.terms
    assert type(lc.den) is int and lc.den >= 1
    assert gcd(lc.den, *lc.terms.values()) == 1
    assert (lc.den == 1) == all(Fraction(c, lc.den).denominator == 1 for c in lc.terms.values())
    return True


def values(lc):
    """The exact coefficients, read through items()."""
    return {k: Fraction(c) for k, c in lc.items()}


def oracle_sum(pairs):
    """sum of scalar * terms over (terms, scalar), all in Fraction, zeros dropped."""
    out = {}
    for terms, s in pairs:
        for k, c in terms.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(c) * Fraction(s)
    return {k: c for k, c in out.items() if c}


@given(st.lists(st.tuples(raw_terms, exact), max_size=5))
def test_sum_matches_the_fraction_oracle(pairs):
    lc = LinComb.sum((LinComb(terms), s) for terms, s in pairs)
    assert stored_ok(lc)
    assert values(lc) == oracle_sum(pairs)
    # a list is read once as well, whichever summand first has a denominator
    assert LinComb.sum([(LinComb(terms), s) for terms, s in pairs]) == lc


@given(raw_terms, raw_terms, exact)
def test_add_scale_tensor_and_map_keys_match_the_fraction_oracle(a, b, s):
    la, lb = LinComb(a), LinComb(b)
    assert stored_ok(la) and values(la) == oracle_sum([(a, 1)])
    for got, want in (
        (la + lb, oracle_sum([(a, 1), (b, 1)])),
        (la - lb, oracle_sum([(a, 1), (b, -1)])),
        (la.scale(-1), oracle_sum([(a, -1)])),
        (la.scale(s), oracle_sum([(a, s)])),
    ):
        assert stored_ok(got)
        assert values(got) == want
    tensor = la.tensor(lb)
    assert stored_ok(tensor)
    assert values(tensor) == oracle_sum(
        [({(k1, k2): Fraction(c1) * Fraction(c2)}, 1) for k1, c1 in a.items() for k2, c2 in b.items()]
    )
    assert stored_ok(tensor_transpose(tensor))

    def image(k):
        return {k + "x": Fraction(1, 2), k[::-1]: Fraction(3), "y": -2}

    mapped = la.map_keys(lambda k: LinComb(image(k)))
    assert stored_ok(mapped)
    assert values(mapped) == oracle_sum([(image(k), c) for k, c in oracle_sum([(a, 1)]).items()])


@given(raw_terms, keys)
def test_coeff_is_always_a_fraction(a, key):
    c = LinComb(a).coeff(key)
    assert type(c) is Fraction
    assert c == oracle_sum([(a, 1)]).get(key, 0)


def test_no_float_is_ever_stored():
    lc = LinComb({"x": 0.5, "y": 2.0, "z": Fraction(4, 2)})
    assert stored_ok(lc)
    assert (lc.terms, lc.den) == ({"x": 1, "y": 4, "z": 4}, 2)
    assert values(lc) == {"x": Fraction(1, 2), "y": 2, "z": 2}
    assert list(lc.items()) == [("x", Fraction(1, 2)), ("y", 2), ("z", 2)]
    half = LinComb.of("x", 3.0).scale(0.5)
    assert stored_ok(half) and (half.terms, half.den) == ({"x": 3}, 2)
    assert (LinComb.of("x", Fraction(6, 3)).terms, LinComb.of("x", Fraction(6, 3)).den) == ({"x": 2}, 1)
    whole = LinComb.of("x", Fraction(1, 2)).scale(2)
    assert stored_ok(whole) and (whole.terms, whole.den) == ({"x": 1}, 1)
    assert type(next(iter(whole.items()))[1]) is int


@given(raw_terms, raw_terms, exact)
def test_equal_values_built_by_different_paths_compare_equal(a, b, s):
    # one canonical form: __init__, sum, tensor and scale agree on every value
    la, lb = LinComb(a), LinComb(b)
    want = oracle_sum([(a, s)])
    for got in (LinComb(want), LinComb(want.items()), la.scale(s), LinComb.sum([(la, s)]),
                LinComb.sum([(la, s), (lb, 1), (lb, -1)]),
                la.scale(s).scale(2).scale(Fraction(1, 2)),
                LinComb.sum((LinComb.of(k, c), s) for k, c in la.items())):
        assert stored_ok(got)
        assert got == LinComb(want) and values(got) == want
    # tensoring with s times one key, on either side
    right = LinComb({(k, "u"): c for k, c in want.items()})
    assert la.tensor(LinComb.of("u", s)) == la.scale(s).tensor(LinComb.of("u")) == right
    assert tensor_transpose(LinComb.of("u", s).tensor(la)) == right
    tensor = LinComb.sum(
        (LinComb.of((k1, k2), Fraction(c1) * Fraction(c2)), 1) for k1, c1 in a.items() for k2, c2 in b.items())
    assert la.tensor(lb) == tensor


@given(raw_terms, raw_terms, exact)
def test_sum_drops_terms_that_cancel(a, b, s):
    la, lb = LinComb(a), LinComb(b)
    assert LinComb.sum([(la, s), (la, -s)]).terms == {}
    assert LinComb.sum([(la, s), (lb, 1), (la, -s)]).terms == lb.terms
    half = LinComb.sum([(la, Fraction(1, 2)), (la, Fraction(1, 2))])
    assert stored_ok(half) and half.terms == la.terms


def test_sum_never_writes_into_its_first_summand():
    # a kept value (a memo's, say) may be the first summand, with scalar 1
    kept = LinComb({"a": 1, "b": 2})
    assert LinComb.sum([(kept, 1), (LinComb({"a": -1, "c": 5}), 1)]) == LinComb({"b": 2, "c": 5})
    assert kept.terms == {"a": 1, "b": 2}
    assert LinComb.sum([(kept, 1), (kept, -1)]) == LinComb.zero()
    assert kept.terms == {"a": 1, "b": 2}
