"""Idempotents: versal, Eulerian family, Dynkin, geometric."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from operads import idempotents, models
from operads.idempotents import (
    ConvolutionContext,
    dynkin,
    eulerian,
    eulerian_family,
    geometric_idempotent,
    materialize,
    model_bases,
    omega,
    versal_idempotent,
)
from operads.linalg import GradedEndo, LinComb, _Memo, exact_rank, mat_mul, same_column_space, sparse_rows
from operads.models import as_concat, get_model, lie_subspace
from operads.structure import primitive_part
from operads.trees import catalan
from records import replace


def is_zero_endo(endo):
    return all(not c for m in endo.mats.values() for row in m for c in row)


def convolve(ctx, f, g):
    """Reference f * g = mu (f x g) delta, with the reduced coproduct, once per key."""
    @lru_cache(maxsize=None)
    def image(key):
        return LinComb.sum(
            (ctx.product(f(LinComb.of(k1)), g(LinComb.of(k2))), c)
            for (k1, k2), c in ctx.model.key_coproducts["delta"](key).items()
        )
    return lambda lc: LinComb.sum((image(key), c) for key, c in lc.items())


def reference_powers(ctx, f, n):
    """[f, f*f, ..., f*^n], each power f convolved onto the one before."""
    powers = [f]
    for _ in range(n - 1):
        powers.append(convolve(ctx, f, powers[-1]))
    return powers


def test_convolution_identity_power():
    model = get_model("as", 2)
    ctx = ConvolutionContext(model)
    w = LinComb.of("xyx")
    # on a word of length n, Id*Id produces (n-1) copies of the word, and
    # Id^{*3} one copy: a length-3 word cuts into three letters one way
    assert ctx.identity_powers("xyx") == [w, w.scale(2), w]
    # a key of degree d has at most d powers
    for d in range(1, 6):
        assert all(len(ctx.identity_powers(k)) <= d for k in model.basis(d))


def reference_eulerian_powers(ctx, n):
    """Identity powers and [e, e*e, ..., e*^n] for e = e^(1) = sum_m (-1)^{m-1}/m Id*^m."""
    ids = reference_powers(ctx, lambda lc: lc, n)

    def e1(lc):
        return LinComb.sum((p(lc), Fraction((-1) ** m, m + 1)) for m, p in enumerate(ids))
    return ids, reference_powers(ctx, e1, n)


@pytest.mark.parametrize("name", ["as", "classical", "mag", "nil"])
def test_per_key_powers_match_the_recursive_convolution(name):
    model = get_model(name, 2)
    ctx = ConvolutionContext(model)
    deg = 5
    ids, es = reference_eulerian_powers(ctx, deg)
    for d in range(1, deg + 1):
        for key in model.basis(d):
            for memo, reference in ((ctx.identity_powers, ids), (eulerian_family(ctx), es)):
                got = memo(key)
                assert len(got) <= d, key
                padded = got + [LinComb.zero()] * (deg - len(got))
                assert padded == [p(LinComb.of(key)) for p in reference], (name, key)


@pytest.mark.parametrize("alphabet, deg", [(2, 6), (3, 5)])
def test_classical_eulerian_idempotents_match_the_e1_power_recursion(alphabet, deg):
    # the classical family is read off the identity powers by Stirling
    # numbers; the right-nested convolution powers of e^(1) are the oracle
    ctx = ConvolutionContext(get_model("classical", alphabet))
    _, es = reference_eulerian_powers(ctx, deg)
    for i, power in enumerate(es, 1):
        endo = eulerian(ctx, i, deg)
        for d, basis in endo.bases.items():
            assert endo.cols[d] == [power(LinComb.of(k)).scale(Fraction(1, factorial(i)))
                                    for k in basis], (alphabet, i, d)


def test_classical_eulerian_family_calls_the_product_only_where_the_identity_powers_do(
        monkeypatch):
    def counted_context():
        calls = []

        def mul(a, b):
            calls.append(1)
            return as_concat(a, b)
        model = replace(get_model("classical", 2), key_products={"mul": mul})
        return ConvolutionContext(model), calls

    monkeypatch.setattr(idempotents, "_EULERIAN_CACHE", {})
    ctx, family_calls = counted_context()
    for i in range(1, 6):
        eulerian(ctx, i, 5)
    ctx, power_calls = counted_context()
    for d in range(1, 6):
        for key in ctx.model.basis(d):
            ctx.identity_powers(key)
    assert len(family_calls) == len(power_calls) == 3118


@pytest.mark.parametrize(
    "name,deg",
    [("dup", 6), ("as", 6), ("mag", 6), ("classical", 5), ("bidup", 5)],
)
def test_versal_idempotent_squares_to_itself(name, deg):
    model = get_model(name)
    e = versal_idempotent(model, max_degree=deg)
    assert e.compose(e) == e


@pytest.mark.parametrize(
    "name,deg",
    [("dup", 6), ("as", 6), ("mag", 6), ("classical", 5), ("bidup", 6), ("dup", 7),
     ("bidup", 7), ("mag", 7)],
)
def test_versal_rank_equals_primitive_dimension(name, deg):
    model = get_model(name)
    e = versal_idempotent(model, max_degree=deg)
    for n in range(1, deg + 1):
        assert e.rank(n) == len(primitive_part(model, n)), (name, n)



@pytest.mark.parametrize("name", ["as", "dup", "mag", "bidup", "classical"])
def test_omega_matrices_compose_to_the_versal_idempotent(name):
    model = get_model(name)
    deg = 5
    ident = GradedEndo.identity(model_bases(model, deg))
    e = ident
    for n in range(2, deg + 1):
        e = e.compose(ident + omega(model, n, deg).scale(-1))
    assert e == versal_idempotent(model, max_degree=deg)
    with pytest.raises(ValueError):
        omega(model, 1, deg)


def test_dup_primitive_dimensions_are_shifted_catalan():
    model = get_model("dup", 1)
    e = versal_idempotent(model, max_degree=6)
    assert [e.rank(n) for n in range(1, 7)] == [catalan(n - 1) for n in range(1, 7)]


def test_rigid_models_have_no_higher_primitives():
    for name in ("as", "mag"):
        model = get_model(name)
        e = versal_idempotent(model, max_degree=6)
        assert e.rank(1) == len(model.basis(1))
        assert all(e.rank(n) == 0 for n in range(2, 7))


def test_classical_primitives_match_lie_oracle():
    model = get_model("classical", 2)
    e = versal_idempotent(model, max_degree=5)
    ranks = [e.rank(n) for n in range(1, 6)]
    oracle = [len(lie_subspace(2, n)) for n in range(1, 6)]
    assert ranks == oracle == [2, 1, 2, 3, 6]


@pytest.mark.parametrize("alphabet, deg", [(2, 5), (2, 6), (3, 4)])
def test_versal_equals_first_eulerian_on_classical(alphabet, deg):
    # the PBW recursion against the convolution logarithm of Id
    model = get_model("classical", alphabet)
    ctx = ConvolutionContext(model)
    assert versal_idempotent(model, max_degree=deg) == eulerian(ctx, 1, deg)


@pytest.mark.parametrize("name, alphabet, step", [
    ("as", 1, 1), ("as", 2, 1), ("dup", 1, 1), ("dup", 2, 1),
    # every 50th degree-6 key pair and key, as in the tower reference test
    ("dup", 3, 50),
])
def test_the_versal_memo_kills_products_and_fixes_the_free_keys(name, alphabet, step):
    # e(mu(a, b)) = 0 on every key pair; a key outside the image of mu on key
    # pairs has coefficient 1 at itself, and those keys are the nonzero images
    model = get_model(name, alphabet)
    e = model.splitting.versal
    key_map = models._KEY_MAPS[model.splitting.kernels[1]]
    for n in range(1, 7):
        sample = step if n == 6 else 1
        pairs = [(a, b) for p in range(1, n) for a in model.basis(p) for b in model.basis(n - p)]
        products = {key_map(a, b) for a, b in pairs}
        for a, b in pairs[::sample]:
            assert not e(key_map(a, b)), (a, b)
        keys = model.basis(n)[::sample]
        free = [key for key in keys if key not in products]
        assert all(e(key).coeff(key) == 1 for key in free)
        assert [key for key in keys if e(key)] == free
        if sample == 1:
            assert len(free) == (catalan(n - 1) * alphabet ** n if name == "dup"
                                 else alphabet if n == 1 else 0)


@pytest.mark.parametrize("name, alphabet, degree", [
    ("dup", 1, 6), ("dup", 2, 5), ("as", 2, 5), ("classical", 2, 5),
])
def test_the_product_skip_changes_no_versal_value(name, alphabet, degree, monkeypatch):
    # with the splitting's product kernel undeclared, the versal memo takes the
    # whole recursion on every key: the values and their term order are the same
    skip = get_model(name, alphabet)
    kernel = skip.splitting.kernels[1]
    keys = skip.basis(degree)
    on = [skip.splitting.versal(key) for key in keys]
    monkeypatch.delitem(models._KEY_MAPS, kernel)
    full = get_model(name, alphabet).splitting.versal
    assert [(list(v.terms.items()), v.den) for v in on] == [
        (list(v.terms.items()), v.den) for v in map(full, keys)]
    if isinstance(full, _Memo):
        for key, value in skip.splitting.versal.values.items():
            assert value == full(key), key
        # the skip is taken: a product key reads none of its left factors
        assert len(skip.splitting.versal.values) < len(full.values)
    else:
        # classical keeps its exponential path: xy = x y has a nonzero image,
        # e(xy) = (xy - yx)/2, so a key taking the skip would differ
        assert skip.splitting.versal("xy") == LinComb([("xy", Fraction(1, 2)),
                                                       ("yx", Fraction(-1, 2))])


def test_eulerian_family_is_a_complete_orthogonal_system():
    model = get_model("classical", 2)
    ctx = ConvolutionContext(model)
    deg = 5
    family = [eulerian(ctx, i, deg) for i in range(1, deg + 1)]
    for i, ei in enumerate(family):
        assert ei.compose(ei) == ei
        for j, ej in enumerate(family):
            if i != j:
                assert is_zero_endo(ei.compose(ej))
    total = family[0]
    for f in family[1:]:
        total = total + f
    assert total == GradedEndo.identity(model_bases(model, deg))


def test_eulerian_values_on_small_words():
    model = get_model("classical", 2)
    ctx = ConvolutionContext(model)

    def e1(key):
        return eulerian_family(ctx)(key)[0]
    # e(xy) = (xy - yx)/2
    assert e1("xy") == LinComb({"xy": Fraction(1, 2), "yx": Fraction(-1, 2)})
    # symmetric words are killed
    assert e1("xy") + e1("yx") == LinComb.zero()


def test_eulerian_family_is_rebuilt_for_a_model_with_another_product(monkeypatch):
    # a copy with its product halved keeps the original's name and alphabet
    model = get_model("classical", 2)
    product = model.key_products["mul"]
    halved = replace(
        model, key_products={"mul": lambda u, v: product(u, v).scale(Fraction(1, 2))})
    monkeypatch.setattr(idempotents, "_EULERIAN_CACHE", {})
    alone = eulerian(ConvolutionContext(halved), 1, 4)
    monkeypatch.setattr(idempotents, "_EULERIAN_CACHE", {})
    original = eulerian(ConvolutionContext(model), 1, 4)
    assert alone != original
    assert eulerian(ConvolutionContext(halved), 1, 4) == alone
    # contexts on one model share its coproduct and product, and so the memo
    assert eulerian_family(ConvolutionContext(halved)) is eulerian_family(
        ConvolutionContext(halved))
    assert len(idempotents._EULERIAN_CACHE) == 1


def test_dynkin_image_equals_first_eulerian_image():
    model = get_model("classical", 2)
    ctx = ConvolutionContext(model)
    deg = 5
    dk = dynkin(deg, 2)
    e1 = eulerian(ctx, 1, deg)
    for n in range(1, deg + 1):
        assert same_column_space(dk.cols[n], e1.cols[n])
    # dynkin restricted to its image is the identity there, so dk is
    # idempotent as well (Dynkin, Specht, Wever)
    assert dk.compose(dk) == dk


def column(endo, key):
    """The image of a word key under endo: its column in the degree-len(key) matrix."""
    basis = endo.bases[len(key)]
    j = basis.index(key)
    return LinComb((k, row[j]) for k, row in zip(basis, endo.mats[len(key)]))


def test_dynkin_small_values():
    dk = dynkin(3, 2)
    assert column(dk, "xy") == LinComb(
        {"xy": Fraction(1, 2), "yx": Fraction(-1, 2)}
    )
    assert column(dk, "xx") == LinComb.zero()


def test_geometric_idempotent_on_the_tensor_bialgebra():
    model = get_model("as", 2)
    ctx = ConvolutionContext(model)
    geo = geometric_idempotent(ctx, 6)
    assert geo.compose(geo) == geo
    # projects onto the generators: full rank in degree 1, zero above
    assert geo.rank(1) == 2
    assert all(geo.rank(n) == 0 for n in range(2, 7))


def test_materialize_matches_function_application():
    model = get_model("as", 2)
    double = materialize(model, lambda key: LinComb.of(key, 2), 3)
    assert column(double, "xyx") == LinComb.of("xyx", 2)


# --- the map contract: materialize takes a function of a basis key ----------

def record_maps(monkeypatch):
    """Every (fn, [(key, fn(key)), ...]) that materialize receives, calls logged."""
    seen = []

    def recording(model, fn, max_degree):
        calls = []

        def spy(arg):
            value = fn(arg)
            calls.append((arg, value))
            return value
        seen.append((fn, calls))
        return materialize(model, spy, max_degree)
    monkeypatch.setattr(idempotents, "materialize", recording)
    return seen


def classical_context():
    return ConvolutionContext(get_model("classical", 2))


CONTRACT_CASES = [
    ("versal as/2", lambda: versal_idempotent(get_model("as", 2), 4)),
    ("versal dup/1", lambda: versal_idempotent(get_model("dup", 1), 4)),
    ("versal bidup/1", lambda: versal_idempotent(get_model("bidup", 1), 4)),
    ("versal classical/2", lambda: versal_idempotent(get_model("classical", 2), 4)),
    ("eulerian:1", lambda: eulerian(classical_context(), 1, 4)),
    ("eulerian:2", lambda: eulerian(classical_context(), 2, 4)),
    ("eulerian:3", lambda: eulerian(classical_context(), 3, 4)),
    ("geometric as/2", lambda: geometric_idempotent(ConvolutionContext(get_model("as", 2)), 4)),
    ("dynkin", lambda: dynkin(4, 2)),
    ("omega:2 dup/1", lambda: omega(get_model("dup", 1), 2, 4)),
    ("omega:3 dup/1", lambda: omega(get_model("dup", 1), 3, 4)),
]


@pytest.mark.parametrize("case,build", CONTRACT_CASES, ids=[case for case, _ in CONTRACT_CASES])
def test_each_column_is_the_map_on_its_basis_key(case, build, monkeypatch):
    seen = record_maps(monkeypatch)
    endo = build()
    (fn, calls), = seen
    # called once per basis key, in basis order, on the key itself
    assert not any(isinstance(arg, LinComb) for arg, _ in calls)
    assert [arg for arg, _ in calls] == [key for n in sorted(endo.bases) for key in endo.bases[n]]
    for n, basis in endo.bases.items():
        for j, key in enumerate(basis):
            column = LinComb((k, row[j]) for k, row in zip(basis, endo.mats[n]))
            assert column == fn(key), (case, key)


@pytest.mark.parametrize("name,alphabet", [("as", 2), ("dup", 1), ("bidup", 1), ("classical", 2)])
def test_versal_memo_values_are_read_never_changed(name, alphabet, monkeypatch):
    seen = record_maps(monkeypatch)
    model = get_model(name, alphabet)
    e = versal_idempotent(model, 5)
    assert e.compose(e) == e
    fresh = get_model(name, alphabet).splitting.versal
    (_, calls), = seen
    # the very objects the memo handed to the columns
    for key, value in calls:
        assert value == fresh(key), key
    versal = model.splitting.versal
    if isinstance(versal, _Memo):
        assert versal.values
        for key, value in versal.values.items():
            assert value == fresh(key), key


# --- the per-key algebra against the dense matrices it stands for ------------

def versal_and_omegas(name, alphabet, arities=(2,)):
    model = get_model(name, alphabet)
    return [versal_idempotent(model, 4)] + [omega(model, n, 4) for n in arities]


def classical_maps():
    ctx = classical_context()
    return [eulerian(ctx, i, 5) for i in range(1, 6)] + [geometric_idempotent(ctx, 5), dynkin(5, 2)]


DENSE_CASES = [
    ("as/2", lambda: versal_and_omegas("as", 2)),
    ("dup/1", lambda: versal_and_omegas("dup", 1, (2, 3))),
    ("dup/2", lambda: versal_and_omegas("dup", 2)),
    ("mag/1", lambda: versal_and_omegas("mag", 1)),
    ("bidup/1", lambda: versal_and_omegas("bidup", 1)),
    ("classical/2", classical_maps),
]


@pytest.mark.parametrize("case,build", DENSE_CASES, ids=[case for case, _ in DENSE_CASES])
def test_graded_maps_compose_add_scale_and_rank_as_their_matrices(case, build):
    maps = build()
    q = Fraction(-2, 3)
    for a in maps:
        scaled = a.scale(q)
        for n, mat in a.mats.items():
            assert scaled.mats[n] == [[x * q for x in row] for row in mat], (case, n)
            assert a.rank(n) == exact_rank(sparse_rows(mat)), (case, n)
        for b in maps:
            composed, total = a.compose(b), a + b
            for n in a.mats:
                assert composed.mats[n] == mat_mul(a.mats[n], b.mats[n]), (case, n)
                assert total.mats[n] == [[x + y for x, y in zip(r, s)]
                                         for r, s in zip(a.mats[n], b.mats[n])], (case, n)


def test_graded_maps_stay_per_key_until_output():
    tracemalloc.start()
    try:
        e = versal_idempotent(get_model("dup", 2), 5)
        ranks = [e.rank(n) for n in range(1, 6)]
        squares_to_itself = e.compose(e) == e
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks == [catalan(n - 1) * 2 ** n for n in range(1, 6)]
    assert squares_to_itself
    # a dense 1344 x 1344 matrix in degree 5 alone is about 15 MB of row lists
    assert peak < 8 * 2 ** 20
    derived = [e.compose(e), e + e, e.scale(Fraction(1, 2)), e + e.scale(-1)]
    assert e == e and derived[0] == e
    for endo in [e, *derived]:
        assert "mats" not in vars(endo)
    assert e.mats is e.mats
