"""The map phi, primitives, PBW expansions, composite dimension counts."""

import dataclasses
import gc
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from operads import idempotents, linalg, models, structure, trees
from operads.errors import UsageError
from operads.idempotents import ConvolutionContext, eulerian, geometric_idempotent, versal_idempotent
from operads.linalg import LinComb, as_slots, coords, exact_rank, sparse_rows
from operads.models import (
    LETTERS, _tree_key_degree, as_deconcat, by_label, get_model, iterated_coproduct, lie_subspace,
    tree_key,
)
from operads.structure import (
    PbwComponent,
    _STRUCTURE_TRIPLES,
    _splitting_section_ok,
    check_h2,
    generator_key,
    multilinear_basis,
    pbw_expand,
    pbw_reassemble,
    phi_map,
    primitive_part,
    verify_structure_iso,
)
from operads.trees import LEAF, Y, catalan, enumerate_trees


def test_multilinear_basis_sizes():
    assert multilinear_basis(get_model("as", 2), 4) == ["xyzu"]
    assert len(multilinear_basis(get_model("dup", 1), 4)) == catalan(4)
    assert len(multilinear_basis(get_model("mag", 1), 4)) == catalan(3)


def test_one_letter_basis_checks_one_key_per_degree():
    assert structure._one_letter_basis(get_model("nil", 2), 3) == []
    for name in models.model_names():
        model = get_model(name, 2)
        if not isinstance(model.basis(1)[0], str):  # lie: no basis keys
            continue
        for n in range(1, 8):
            every = [k for k in multilinear_basis(model, n, "x" * n) if model.is_key(k)]
            assert structure._one_letter_basis(model, n) == every, (name, n)


def test_generator_key_shapes():
    assert generator_key(get_model("as", 2), "y") == "y"
    assert generator_key(get_model("mag", 1), "y") == tree_key(".", "y")


def test_phi_map_shapes_and_ranks():
    # associative: 1 x 1 in every degree, always invertible
    model = get_model("as", 2)
    for n in range(1, 6):
        mat, ncols = phi_map(model, n)
        assert len(mat) == 1 and ncols == 1
        assert mat[0].get(0, 0) != 0
    # magmatic dual basis: square of size catalan(n-1), full rank
    model = get_model("mag", 1)
    for n in range(2, 6):
        mat, ncols = phi_map(model, n)
        assert len(mat) == ncols == catalan(n - 1)
        assert exact_rank(mat) == catalan(n - 1)
    # duplicial over the associative cooperad: 1 x catalan(n), onto
    model = get_model("dup", 1)
    for n in range(2, 6):
        mat, ncols = phi_map(model, n)
        assert len(mat) == 1 and ncols == catalan(n)
        assert exact_rank(mat) == 1


@pytest.mark.parametrize(
    "name,verdict",
    [
        ("as", "iso"),
        ("mag", "iso"),
        ("bidup", "iso"),
        ("dup", "epi-with-splitting"),
    ],
)
def test_h2_verdicts(name, verdict):
    report = check_h2(get_model(name), 6)
    assert report.verdict == verdict
    d = report.to_json_dict()
    assert d["verdict"] == verdict
    assert len(d["perDegree"]) == 6


def test_h2_unsupported_without_cooperad():
    # phi is read on one-letter keys, which only a nonsymmetric cooperad
    # allows: check_h2 and phi_map refuse Com with one message
    model = get_model("classical", 2)
    for call in (check_h2, phi_map):
        with pytest.raises(UsageError) as exc:
            call(model, 3)
        assert str(exc.value) == (
            "h2 is unsupported on model classical: its cooperad Com is symmetric")


@pytest.mark.parametrize("name", ["as", "dup", "mag", "bidup"])
def test_splitting_is_a_section_of_phi(name):
    # phi o s = id: coop_i(op_j(x1 x ... x xn)) has coefficient delta_ij at x1 x ... x xn
    assert _splitting_section_ok(get_model(name), 5)


def _with_operation(model, change):
    """The model with its splitting operations replaced by change(splitting)."""
    sp = model.splitting
    return dataclasses.replace(model, splitting=dataclasses.replace(sp, operation=change(sp)))


def test_section_check_rejects_wrong_splittings():
    def doubled(sp):
        return lambda label: lambda t: sp.operation(label)(t).scale(2)

    def mixed(sp):
        # the first arity-3 operation picks up the second one: the diagonal stays 1
        first, second = sp.labels(3)[:2]

        def operation(label):
            if label != first:
                return sp.operation(label)
            return lambda t: sp.operation(first)(t) + sp.operation(second)(t)
        return operation

    assert not _splitting_section_ok(_with_operation(get_model("dup"), doubled), 3)
    assert not _splitting_section_ok(_with_operation(get_model("as"), doubled), 3)
    # mag has two trees with three leaves, so the mixture leaves the dual basis
    assert not _splitting_section_ok(_with_operation(get_model("mag"), mixed), 3)


@pytest.mark.parametrize("name, alphabet, top", [("as", 1, 7), ("as", 2, 7), ("dup", 1, 7),
                                                 ("dup", 2, 5)])
def test_associative_phi_equals_the_tower_reading(name, alphabet, top):
    # phi reads generator paths off the reduced coproduct memo; the reference reads the
    # coefficient of (None, g, ..., g) off the labeled tower of a separate model
    model, decompose = get_model(name, alphabet), get_model(name, alphabet).splitting.decompose
    for n in range(1, top + 1):
        target = (generator_key(model, "x"),) * n
        keys = multilinear_basis(model, n, "x" * n)
        reference = [[decompose(key).coeff((None,) + target) for key in keys]]
        assert phi_map(model, n) == (sparse_rows(reference), len(keys)), (name, alphabet, n)


@pytest.mark.parametrize("name", ["as", "dup", "mag", "bidup"])
def test_phi_on_one_letter_keys_equals_the_multilinear_phi(name):
    # phi over n distinct letters needs an alphabet of n letters
    model = get_model(name)
    for n in range(1, 7):
        big = get_model(name, n)
        target = tuple(generator_key(big, LETTERS[i]) for i in range(n))
        multilinear = [
            [big.splitting.decompose(key).coeff((label,) + target)
             for key in multilinear_basis(big, n)]
            for label in big.splitting.labels(n)
        ]
        ncols = len(multilinear_basis(big, n))
        assert phi_map(model, n) == (sparse_rows(multilinear), ncols), (name, n)


def test_primitive_dimensions():
    dup = get_model("dup", 1)
    assert [len(primitive_part(dup, n)) for n in range(1, 7)] == [
        catalan(n - 1) for n in range(1, 7)
    ]
    asm = get_model("as", 2)
    assert [len(primitive_part(asm, n)) for n in range(1, 7)] == [2, 0, 0, 0, 0, 0]
    cl = get_model("classical", 2)
    assert [len(primitive_part(cl, n)) for n in range(1, 6)] == [2, 1, 2, 3, 6]


def witt(n, k):
    """Necklace polynomial: the degree-n dimension of the free Lie algebra on k letters."""
    def mobius(d):
        sign, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if d > 1 else sign

    return sum(mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_primitive_dimensions_past_the_pinned_degrees():
    # differential oracles: Catalan numbers for dup, the Witt formula for classical
    assert [witt(n, 2) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert len(primitive_part(get_model("dup", 1), 7)) == catalan(6) == 132
    assert len(primitive_part(get_model("classical", 2), 7)) == witt(7, 2) == 18


def test_primitive_dimensions_scale_with_the_alphabet():
    # a nonsymmetric model only slices words: dim Prim_n on k letters is k^n times one letter's
    for k, top in ((2, 6), (3, 4)):
        model = get_model("dup", k)
        assert [len(primitive_part(model, n)) for n in range(1, top + 1)] == [
            catalan(n - 1) * k ** n for n in range(1, top + 1)]
    # the magmatic and biduplicial coproducts leave only the generators primitive
    for name in ("bidup", "mag"):
        model = get_model(name, 2)
        assert [len(primitive_part(model, n)) for n in range(1, 7)] == [2, 0, 0, 0, 0, 0]


def _independent_primitives(model, n, vectors):
    """Every vector is killed by every generating coproduct; together they have full rank."""
    for v in vectors:
        for sym in model.generating_coproducts:
            assert model.coproducts[sym](v) == LinComb.zero()
    return exact_rank(coords(vectors, model.basis(n))) == len(vectors)


def test_classical_primitives_match_the_witt_formula_in_degree_8():
    model = get_model("classical", 2)
    prim = primitive_part(model, 8)
    assert len(prim) == witt(8, 2) == 30
    assert _independent_primitives(model, 8, prim)


def test_dup_primitives_are_catalan_in_degree_8():
    model = get_model("dup", 1)
    prim = primitive_part(model, 8)
    assert len(prim) == catalan(7) == 429
    assert _independent_primitives(model, 8, prim)


def test_primitives_really_are_primitive():
    model = get_model("dup", 1)
    for n in range(2, 6):
        for p in primitive_part(model, n):
            for sym in model.generating_coproducts:
                assert model.coproducts[sym](p) == LinComb.zero()


def test_classical_primitives_span_the_lie_subspace():
    model = get_model("classical", 2)
    for n in range(2, 6):
        prim = primitive_part(model, n)
        oracle = lie_subspace(2, n)
        words_n = model.basis(n)
        a = coords(prim, words_n)
        b = coords(oracle, words_n)
        stacked = coords(prim + oracle, words_n)
        assert exact_rank(a) == exact_rank(b) == exact_rank(stacked)


def gauss_jordan_primitives(model, n):
    """Prim_n by textbook Fraction Gauss-Jordan on the tagged matrix, duplicates kept.

    One row per (coproduct index, tensor key) over the whole basis, one
    column per basis key; a vector per free column, in column order, 1 there
    and 0 at every other free column.
    """
    basis = model.basis(n)
    tagged = {}
    for j, key in enumerate(basis):
        for i, sym in enumerate(model.generating_coproducts):
            for tkey, c in model.key_coproducts[sym](key).items():
                tagged.setdefault((i, tkey), {})[j] = Fraction(c)
    rows, reduced = list(tagged.values()), {}  # reduced: pivot column -> its row
    for c in range(len(basis)):
        pivot = next((row for row in rows if c in row), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = {j: x / pivot[c] for j, x in pivot.items()}
        for row in [*rows, *reduced.values()]:
            f = row.get(c)
            if f:
                for j, x in pivot.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        reduced[c] = pivot
    return [LinComb({basis[f]: 1, **{basis[p]: -row[f] for p, row in reduced.items() if f in row}})
            for f in range(len(basis)) if f not in reduced]


@pytest.mark.parametrize("name, alphabet, top", [
    ("classical", 2, 7), ("classical", 3, 5), ("bidup", 1, 6), ("zinb", 2, 5), ("dup", 2, 5),
    ("mag", 1, 6),
])
def test_primitive_part_matches_a_gauss_jordan_oracle(name, alphabet, top):
    # the stacked row blocks, equal rows dropped and any lift give the same vectors
    # in the same order as eliminating the tagged matrix with every row kept
    model = get_model(name, alphabet)
    for n in range(1, top + 1):
        assert primitive_part(model, n) == gauss_jordan_primitives(model, n), n


@pytest.mark.parametrize("name, alphabet, top", [
    ("dup", 1, 8), ("dup", 2, 5), ("dup", 3, 4), ("as", 2, 5),
])
def test_primitive_part_is_the_nonzero_versal_images(name, alphabet, top):
    # e projects onto Prim along A+.A+, and e(x) - x is on keys that sort before
    # x, so the nonzero images of e are the echelon kernel vectors, in basis order;
    # on as they are the letters
    model = get_model(name, alphabet)
    e = versal_idempotent(model, top)
    for n in range(1, top + 1):
        assert primitive_part(model, n) == [lc for lc in e.cols[n] if lc], n
    if name == "as":
        assert [lc for n in e.cols for lc in e.cols[n] if lc] == [
            LinComb.of(x) for x in LETTERS[:alphabet]]


# --- PBW -----------------------------------------------------------------------

def x_(model, c):
    return LinComb.of(tree_key("(.,.)", c))


def test_dup_pbw_table_degree_2():
    model = get_model("dup", 3)
    lt, rt = model.products["left"], model.products["right"]
    x, y = x_(model, "x"), x_(model, "y")
    # x > y is already a splitting monomial: a single arity-2 component
    comps = pbw_expand(model, rt(x, y))
    assert [c.arity for c in comps] == [2]
    assert comps[0].tensor == x.tensor(y)
    # x < y = (x < y - x > y) + x > y: a primitive plus the monomial
    comps = pbw_expand(model, lt(x, y))
    assert [c.arity for c in comps] == [1, 2]
    assert comps[0].tensor == lt(x, y) - rt(x, y)
    assert comps[1].tensor == x.tensor(y)


def test_dup_pbw_table_degree_3_rows_reassemble():
    model = get_model("dup", 3)
    lt, rt = model.products["left"], model.products["right"]
    x, y, z = (x_(model, c) for c in "xyz")
    rows = [
        rt(x, rt(y, z)),
        rt(lt(x, y), z),
        rt(x, lt(y, z)),
        lt(x, rt(y, z)),
        lt(x, lt(y, z)),
    ]
    for lhs in rows:
        comps = pbw_expand(model, lhs)
        assert pbw_reassemble(model, comps) == lhs
    # the pure right comb has no lower components
    comps = pbw_expand(model, rows[0])
    assert [c.arity for c in comps] == [3]
    assert comps[0].tensor == x.tensor(y).tensor(z)


def test_dup_pbw_dot_expansions():
    model = get_model("dup", 3)
    lt, rt = model.products["left"], model.products["right"]

    def dot(a, b):
        return lt(a, b) - rt(a, b)

    x, y, z = (x_(model, c) for c in "xyz")
    # expansions of the mixed degree-3 products over the monomial basis
    assert lt(x, y) == dot(x, y) + rt(x, y)
    assert rt(lt(x, y), z) == rt(dot(x, y), z) + rt(x, rt(y, z))
    assert rt(x, lt(y, z)) == rt(x, dot(y, z)) + rt(x, rt(y, z))
    assert lt(x, rt(y, z)) == (
        dot(dot(x, y), z) - dot(x, dot(y, z))
        + rt(dot(x, y), z) + rt(x, rt(y, z))
    )
    assert lt(x, lt(y, z)) == (
        dot(dot(x, y), z)
        + rt(dot(x, y), z) + rt(x, dot(y, z)) + rt(x, rt(y, z))
    )


def test_classical_pbw_degree_2_and_3():
    model = get_model("classical", 3)
    mul = model.products["mul"]
    x, y, z = (LinComb.of(c) for c in "xyz")
    xy = mul(x, y)
    comps = pbw_expand(model, xy)
    assert [c.arity for c in comps] == [1, 2]
    # primitive part (xy - yx)/2, symmetric part reassembles via 1/2(x.y + y.x)
    assert comps[0].tensor == (xy - mul(y, x)).scale(Fraction(1, 2))
    assert pbw_reassemble(model, comps) == xy
    xyz = mul(xy, z)
    comps = pbw_expand(model, xyz)
    assert pbw_reassemble(model, comps) == xyz
    assert comps[-1].arity == 3


def test_pbw_expand_reads_the_versal_memo_without_growing_it():
    model = get_model("dup", 1)
    a = LinComb({k: i + 1 for i, k in enumerate(model.basis(4))})
    versal_idempotent(model, 4)
    memo = model.splitting.versal.values
    size = len(memo)
    first = pbw_expand(model, a)
    assert pbw_expand(model, a) == first
    assert len(memo) == size
    assert pbw_reassemble(model, first) == a


def test_pbw_of_zero_has_no_components():
    for name in ("dup", "mag", "classical"):
        model = get_model(name)
        assert pbw_expand(model, LinComb.zero()) == []
        assert pbw_reassemble(model, []) == LinComb.zero()


def test_pbw_expand_refuses_a_key_outside_the_basis():
    model = get_model("dup", 1)
    # a leaf carries no letter in dup, a word on two letters is not in dup/1
    for key in (".:x", "garbage", "(.,.):y", "(.,.):"):
        message = "key %r is not a basis element of model dup" % key
        with pytest.raises(UsageError, match=re.escape(message)):
            pbw_expand(model, LinComb.of("(.,.):x") + LinComb.of(key))


def test_mag_pbw_roundtrip_with_dual_scheme():
    model = get_model("mag", 2)
    mul = model.products["mul"]
    a = mul(LinComb.of(tree_key(".", "x")), LinComb.of(tree_key(".", "y")))
    b = mul(a, LinComb.of(tree_key(".", "x")))
    for elt in (a, b, a + b.scale(Fraction(2, 3))):
        comps = pbw_expand(model, elt)
        assert pbw_reassemble(model, comps) == elt
        assert all(c.label is not None for c in comps)


# --- the components memo against the PBW it replaces -----------------------------

def pbw_reference(model, a):
    """pbw_expand as it read the whole decomposition of each key.

    Every labeled cooperation of every key, grouped by arity and label, the
    labels of each arity scanned in cooperad basis order, and the versal
    memo of a fresh model applied slot by slot to each group.
    """
    splitting = model.splitting
    e = get_model(model.name, model.alphabet).splitting.versal
    parts = by_label(a.map_keys(splitting.decompose))
    comps = []
    for k in sorted(parts):
        for label in splitting.labels(k):
            if label not in parts[k]:
                continue
            tensor = LinComb.sum((reduce(LinComb.tensor, map(e, as_slots(key))), c)
                                 for key, c in parts[k][label].items())
            if tensor:
                comps.append(PbwComponent(arity=k, label=label, tensor=tensor))
    return comps


@pytest.mark.parametrize("name, alphabet, top", [
    ("as", 2, 6), ("classical", 2, 6), ("dup", 1, 7), ("mag", 1, 7), ("bidup", 1, 7),
    ("dup", 2, 5), ("mag", 2, 5), ("bidup", 2, 5),
])
def test_pbw_expand_matches_the_decomposition_reference(name, alphabet, top):
    model = get_model(name, alphabet)
    for n in range(1, top + 1):
        for key in model.basis(n):
            a = LinComb.of(key)
            assert pbw_expand(model, a) == pbw_reference(model, a), key


def record_memos(monkeypatch):
    """A list that gets every _Memo made from now on."""
    made, init = [], linalg._Memo.__init__

    def recording(memo, step):
        init(memo, step)
        made.append(memo)
    monkeypatch.setattr(linalg._Memo, "__init__", recording)
    return made


@pytest.mark.parametrize("name, extra_leaves", [("dup", 1), ("mag", 0), ("bidup", 1)])
def test_pbw_of_a_left_comb_costs_what_its_one_component_does(monkeypatch, name, extra_leaves):
    # no label scan, and memo entries linear in the leaf count: the cost
    # follows the output, one component, and not the Catalan many labels
    def no_scan(n):
        raise AssertionError("pbw_expand listed the trees with %d leaves" % n)
    for module in (trees, structure):
        monkeypatch.setattr(module, "enumerate_trees", no_scan)
    memos = record_memos(monkeypatch)
    for leaves in (30, 60):
        del memos[:]
        model = get_model(name, 1)
        a = LinComb.of(tree_key(trees.left_comb(leaves - 1), "x" * (leaves - extra_leaves)))
        comps = pbw_expand(model, a)
        assert len(comps) == 1 and pbw_reassemble(model, comps) == a
        # dup keeps three memos (cuts, versal, components), each with a key per subcomb
        entries = sum(len(memo.values) for memo in memos)
        assert 0 < entries <= 3 * leaves, (leaves, entries)


# --- one coproduct memo per model ------------------------------------------------

def count_cuts(monkeypatch, kernel):
    """Count, per key, the calls of a key-level coproduct kernel of models."""
    seen = Counter()
    cut = getattr(models, kernel)

    def counted(key):
        seen[key] += 1
        return cut(key)
    monkeypatch.setattr(models, kernel, counted)
    return seen


def test_versal_idempotent_cuts_each_key_once(monkeypatch):
    # every arity and every key of one model's versal memo read one coproduct
    # memo; a product key, whose image is zero, is cut too, so the memo that
    # check_h2 and pbw_expand read next holds every basis key
    seen = count_cuts(monkeypatch, "dup_coproduct")
    model = get_model("dup", 1)
    versal_idempotent(model, 6)
    every = {key for n in range(1, 7) for key in model.basis(n)}
    assert set(seen) == every and set(seen.values()) == {1}
    assert set(model.splitting.cuts[1].values) == every


def without_decompose(model, reader):
    """A copy of model whose splitting's decompose raises: reader must not read it.

    The Splitting is frozen, so the copy is made with dataclasses.replace.
    """
    def boom(key):
        raise AssertionError("%s read decompose" % reader)
    splitting = dataclasses.replace(model.splitting, decompose=boom)
    return dataclasses.replace(model, splitting=splitting)


@pytest.mark.parametrize("name, alphabet, reads", [
    ("dup", 3, 64), ("bidup", 2, 64), ("mag", 2, 23), ("as", 2, 5),
])
def test_versal_idempotent_reads_the_versal_memo_once_per_one_letter_key(name, alphabet, reads):
    # a key t:w is read off its one-letter twin t:x...x, each twin once
    model = get_model(name, alphabet)
    seen = Counter()

    def counted(key):
        seen[key] += 1
        return model.splitting.versal(key)
    splitting = dataclasses.replace(model.splitting, versal=counted)
    counting = dataclasses.replace(model, splitting=splitting)
    assert versal_idempotent(counting, 5) == versal_idempotent(model, 5)
    assert len(seen) == sum(seen.values()) == reads
    assert all(set(key.rpartition(":")[2]) == {models.LETTERS[0]} for key in seen)


@pytest.mark.parametrize("name, alphabet, kernel", [
    ("as", 2, "as_deconcat"), ("dup", 1, "dup_coproduct"), ("classical", 2, "as_shuffle_coproduct"),
])
def test_associative_versal_reads_the_reduced_coproduct_and_never_the_tower(
        monkeypatch, name, alphabet, kernel):
    # the tower Delta^[n-1] of every arity is decompose's; the versal memo reads Delta alone
    seen = count_cuts(monkeypatch, kernel)
    model = without_decompose(get_model(name, alphabet), "the versal memo")
    versal_idempotent(model, 6)
    assert seen and set(seen.values()) == {1}
    assert len(seen) == sum(len(model.basis(n)) for n in range(1, 7))


@pytest.mark.parametrize("name, alphabet, verdict", [
    ("as", 2, "iso"), ("dup", 1, "epi-with-splitting"), ("dup", 2, "epi-with-splitting"),
])
def test_associative_check_h2_never_walks_the_tower(monkeypatch, name, alphabet, verdict):
    # phi and the section check read the reduced coproduct memo, never decompose
    seen = count_cuts(monkeypatch, {"as": "as_deconcat", "dup": "dup_coproduct"}[name])
    model = without_decompose(get_model(name, alphabet), "check_h2")
    assert check_h2(model, 7).verdict == verdict
    assert seen and set(seen.values()) == {1}


def test_pbw_expand_cuts_each_key_once(monkeypatch):
    seen = [count_cuts(monkeypatch, k) for k in ("dup_dleft", "dup_dright")]
    model = get_model("bidup", 1)
    a = LinComb((k, i % 3 - 1) for i, k in enumerate(model.basis(5)))
    comps = pbw_expand(model, a)
    assert pbw_reassemble(model, comps) == a
    for counts in seen:
        assert counts and set(counts.values()) == {1}


def test_check_h2_cuts_each_key_once(monkeypatch):
    # phi and the section check read the model's own memo in every degree
    seen = count_cuts(monkeypatch, "dup_coproduct")
    assert check_h2(get_model("dup"), 6).verdict == "epi-with-splitting"
    assert seen and set(seen.values()) == {1}


def test_bidup_versal_idempotent_cuts_each_key_once(monkeypatch):
    seen = [count_cuts(monkeypatch, k) for k in ("dup_dleft", "dup_dright")]
    versal_idempotent(get_model("bidup", 1), 6)
    for counts in seen:
        assert counts and set(counts.values()) == {1}


def test_eulerian_family_cuts_each_word_once(monkeypatch):
    # every convolution power reads the coproduct memo of the model's splitting,
    # which the versal memo has already filled
    monkeypatch.setattr(idempotents, "_EULERIAN_CACHE", {})
    seen = count_cuts(monkeypatch, "as_shuffle_coproduct")
    model = get_model("classical", 2)
    versal_idempotent(model, 5)
    ctx = ConvolutionContext(model)
    for i in range(1, 6):
        eulerian(ctx, i, 5)
    assert len(seen) == 62 and set(seen.values()) == {1}


@pytest.mark.parametrize("name", ["as", "classical", "dup", "mag", "bidup"])
def test_a_dropped_model_frees_its_memos_without_the_cycle_collector(name):
    # the splitting and convolution memos recurse through an argument, not
    # through a closure naming them, so they form no reference cycle
    gc.collect()
    gc.disable()
    try:
        model = get_model(name, 2)
        versal_idempotent(model, 4)
        pbw_expand(model, LinComb((k, 1) for k in model.basis(4)))
        idempotents.omega(model, 2, 4)
        idempotents.omega(model, 3, 4)
        if "mul" in model.products:
            ctx = ConvolutionContext(model)
            geometric_idempotent(ctx, 4)
            del ctx
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bidup_h2_past_the_pinned_degree():
    report = check_h2(get_model("bidup"), 7)
    assert report.verdict == "iso"
    assert report.per_degree[-1] == (7, 429, 429, 429)


@pytest.mark.parametrize("name", ["dup", "bidup", "mag"])
def test_memoized_cooperations_match_a_fresh_model(name):
    model = get_model(name, 2)
    x, y = (LinComb.of(k) for k in model.basis(4)[5:7])
    for elt in (x, x + y.scale(2), x):
        fresh = get_model(name, 2).splitting.decompose
        terms = elt.map_keys(model.splitting.decompose)
        assert max(len(k) - 1 for k in terms.terms) == 4  # every arity up to 4
        assert terms == elt.map_keys(fresh), name


def test_models_do_not_share_a_memo(monkeypatch):
    seen = count_cuts(monkeypatch, "dup_coproduct")
    key = tree_key("((.,.),(.,.))", "xxx")
    one, two = get_model("dup", 1), get_model("dup", 2)
    one.splitting.decompose(key)
    assert seen[key] == 1
    two.splitting.decompose(key)
    assert seen[key] == 2
    one.splitting.decompose(key)
    assert seen[key] == 2


# --- the decomposition against the cooperations it replaces ----------------------
#
# The reference cooperations below are built one closure per tree, each
# replaying the generating coproducts on its own, as the models did before
# every labeled cooperation came out of one decomposition.  They are slow
# and kept only as an independent oracle.

def mag_tree_cooperation(t, delta):
    """The cooperation dual to the tree t in the comagmatic cooperad.

    delta is the dual coproduct on LinCombs (per_key of mag_dual_coproduct).
    """
    if t == LEAF:
        return lambda lc: lc
    l, r = trees.split(t)
    fl = mag_tree_cooperation(l, delta)
    fr = mag_tree_cooperation(r, delta)

    def coop(lc):
        return LinComb.sum(
            (fl(LinComb.of(k1)).tensor(fr(LinComb.of(k2))), c)
            for (k1, k2), c in delta(lc).items()
        )
    return coop


def dup_tree_cooperation(t, dleft, dright):
    """The cooperation dual to the duplicial monomial of the tree t.

    Mirrors the unique writing of t with n+1 leaves as
    (m(t_left) > x) < m(t_right) at the root.  dleft and dright are the
    edge-cutting coproducts on LinCombs (per_key of dup_dleft and dup_dright).
    """
    if t == Y:
        return lambda lc: lc
    l, r = trees.split(t)

    if r == LEAF:
        fl = dup_tree_cooperation(l, dleft, dright)

        def coop(lc):
            return LinComb.sum(
                (fl(LinComb.of(ka)).tensor(LinComb.of(km)), c)
                for (ka, km), c in dright(lc).items() if _tree_key_degree(km) == 1
            )
        return coop

    fr = dup_tree_cooperation(r, dleft, dright)

    if l == LEAF:
        def coop(lc):
            return LinComb.sum(
                (LinComb.of(ku).tensor(fr(LinComb.of(kb))), c)
                for (ku, kb), c in dleft(lc).items() if _tree_key_degree(ku) == 1
            )
        return coop

    fl = dup_tree_cooperation(l, dleft, dright)

    def coop(lc):
        return LinComb.sum(
            (fl(LinComb.of(ka)).tensor(LinComb.of(km)).tensor(fr(LinComb.of(kb))), c * c2)
            for (ku, kb), c in dleft(lc).items()
            for (ka, km), c2 in dright(LinComb.of(ku)).items()
            if _tree_key_degree(km) == 1
        )
    return coop


def per_key(fn):
    """The linear extension of the key kernel fn, evaluated at most once per basis key."""
    image = lru_cache(maxsize=None)(fn)
    return lambda lc: LinComb.sum((image(key), c) for key, c in lc.items())


def _tree_cooperation(name, t):
    if name == "mag":
        return mag_tree_cooperation(t, per_key(models.mag_dual_coproduct))
    return dup_tree_cooperation(t, per_key(models.dup_dleft), per_key(models.dup_dright))


@pytest.mark.parametrize("name,extra_leaves", [("mag", 0), ("bidup", 1)])
def test_decompose_matches_the_tree_cooperations(name, extra_leaves):
    model = get_model(name, 2)
    coops = {
        (n, t): _tree_cooperation(name, t)
        for n in range(1, 6) for t in enumerate_trees(n + extra_leaves)
    }
    for d in range(1, 6):
        for key in model.basis(d):
            parts = by_label(model.splitting.decompose(key))
            assert {(n, t) for n, group in parts.items() for t in group} <= set(coops)
            for (n, t), coop in coops.items():
                if n <= d:
                    got = parts.get(n, {}).get(t, LinComb.zero())
                    assert got == coop(LinComb.of(key)), (key, t)


@pytest.mark.parametrize("name", ["as", "dup", "classical"])
def test_associative_decompose_is_the_iterated_coproduct(name):
    model = get_model(name, 2)
    delta = model.key_coproducts["delta"]
    for d in range(1, 6):
        for key in model.basis(d):
            parts = by_label(model.splitting.decompose(key))
            assert parts.keys() == set(range(1, d + 1))
            for n in range(1, d + 1):
                assert parts[n].keys() == {None}
                assert parts[n][None] == iterated_coproduct(delta, n - 1)(LinComb.of(key))


def test_iterated_coproduct_of_a_non_integral_coproduct():
    # a coproduct scaled by 1/len(w) on each word: the cuts meet many denominators
    def scaled(w):
        return as_deconcat(w).scale(Fraction(1, len(w)))

    def cut_first(lc):  # Delta x id x ... x id, one tensor per key
        return LinComb.sum((scaled(k[0]).tensor(LinComb.of(k[1:])), c)
                           for k, c in lc.items())
    lc = LinComb({"xyxy": Fraction(2, 3), "yxxyx": -1, "xyzzy": Fraction(5, 7)})
    want = lc.map_keys(scaled)
    for k in range(1, 4):
        got = iterated_coproduct(scaled, k)(lc)
        assert got == want and got.den != 1
        want = cut_first(want)


# --- structure iso ---------------------------------------------------------------

@pytest.mark.parametrize(
    "name,c,p",
    [("as", "As", "Vect"), ("dup", "As", "Mag"), ("mag", "Mag", "Vect"), ("bidup", "Dup", "Vect")],
)
def test_structure_iso_dimension_counts(name, c, p):
    assert _STRUCTURE_TRIPLES[name] == (c, p)
    report = verify_structure_iso(get_model(name), 9)
    assert report.ok
    assert [n for (n, _, _) in report.per_degree] == list(range(1, 10))
    assert all(da == comp for (_, da, comp) in report.per_degree)
