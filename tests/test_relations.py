"""Compatibility relation DSL: library entries, the checker, controls."""

import dataclasses
import gc
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from operads import models, relations
from operads.linalg import LinComb
from operads.models import _RENAMING, BialgebraModel, get_model
from operads.relations import (
    check_nap_colaw,
    check_relation,
    eval_compat,
    get_relation,
    load_library,
    relation_names,
)


def test_library_loads_all_expected_entries():
    lib = load_library()
    for name in (
        "hopf",
        "nui",
        "magmatic",
        "livernet",
        "lily",
        "semi_hopf_left",
        "nil",
        "bidup_dleft_left",
        "bidup_dright_right",
        "bidup_dleft_right",
        "bidup_dright_left",
    ):
        assert name in lib
    assert set(relation_names()) == set(lib)
    with pytest.raises(KeyError):
        get_relation("unknown")


def test_identical_bodies_are_aliases():
    lib = load_library()
    assert lib["bidup_dleft_left"] == lib["bidup_dright_right"] == lib["nui"]


_BODY = {
    "arity": 2,
    "terms": [{"coeff": "1", "inCoops": ["id", "id"], "perm": [0, 1], "outOps": ["id", "id"]}],
}


@pytest.mark.parametrize(
    "raw,message",
    [
        ({"a": _BODY, "b": _BODY}, "same body"),
        ({"a": _BODY, "b": "c"}, "not a relation body"),
        ({"a": _BODY, "b": "a", "c": "b"}, "not a relation body"),
    ],
)
def test_library_rejects_duplicate_bodies_and_dangling_aliases(monkeypatch, raw, message):
    monkeypatch.setattr(relations, "_library_text", lambda: json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        load_library()


def _one_term_body(in_coops, perm, out_ops, arity=2):
    return {"arity": arity, "terms": [
        {"coeff": "1", "inCoops": in_coops, "perm": perm, "outOps": out_ops}]}


@pytest.mark.parametrize(
    "body",
    [
        _one_term_body(["id", "id"], [0, 1], ["mu"]),  # right side in A
        _one_term_body(["delta", "id"], [0, 1, 2], ["id", "id", "id"]),  # in A (x) A (x) A
        _one_term_body(["id", "id", "id"], [0, 1, 2], ["id", "mu"], arity=3),  # three inputs
    ],
)
def test_library_rejects_bodies_the_checker_cannot_compare(monkeypatch, body):
    # each body is consistent on its own, but delta(mu(a, b)) of two inputs is in A (x) A
    monkeypatch.setattr(relations, "_library_text", lambda: json.dumps({"a": body}))
    with pytest.raises(ValueError, match="ill-typed relation term"):
        load_library()


def test_lily_coefficients():
    expr = get_relation("lily")
    coeffs = sorted(t.coeff for t in expr.terms)
    assert coeffs == [
        Fraction(-2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]
    # exactly two Phi1 terms (no inner coproduct applied), four Phi2 terms
    phi1 = [t for t in expr.terms if all(s == "id" for s in t.in_coops)]
    assert (len(phi1), len(expr.terms) - len(phi1)) == (2, 4)


def test_nui_shape():
    expr = get_relation("nui")
    assert len(expr.terms) == 3
    assert sum(all(s == "id" for s in t.in_coops) for t in expr.terms) == 1
    assert all(t.coeff == 1 for t in expr.terms)


def test_nui_holds_on_deconcatenation():
    report = check_relation(get_model("as", 2), "delta", "mul", "nui", 6)
    assert report.holds
    assert report.first_failure is None
    assert report.checked_pairs > 0


def test_nui_holds_on_both_duplicial_products():
    model = get_model("dup", 1)
    assert check_relation(model, "delta", "left", "nui", 6).holds
    assert check_relation(model, "delta", "right", "nui", 6).holds


def test_magmatic_relation_holds():
    assert check_relation(get_model("mag", 1), "delta", "mul", "magmatic", 6).holds


def test_livernet_relation_and_nap_colaw():
    model = get_model("mag", 1)
    assert check_relation(model, "liv", "mul", "livernet", 5).holds
    assert check_nap_colaw(model, "liv", 5).holds


def test_biduplicial_relations_hold():
    model = get_model("dup", 1)
    for dsym, msym, rel in (
        ("dleft", "left", "bidup_dleft_left"),
        ("dright", "right", "bidup_dright_right"),
        ("dleft", "right", "bidup_dleft_right"),
        ("dright", "left", "bidup_dright_left"),
    ):
        assert check_relation(model, dsym, msym, rel, 5).holds, (dsym, msym)


def test_semi_hopf_holds_on_zinbiel():
    assert check_relation(get_model("zinb", 2), "delta", "left", "semi_hopf_left", 5).holds


def test_hopf_holds_on_mag_hopf_coproduct():
    assert check_relation(get_model("mag", 1), "hopf", "mul", "hopf", 5).holds


def test_negative_control_hopf_fails_on_deconcatenation():
    report = check_relation(get_model("as", 2), "delta", "mul", "hopf", 4)
    assert not report.holds
    assert report.first_failure is not None
    degrees, pair, lhs, rhs = report.first_failure
    assert sum(degrees) <= 4
    assert lhs != rhs


def test_negative_control_livernet_coproduct_is_not_hopf():
    report = check_relation(get_model("mag", 1), "liv", "mul", "hopf", 4)
    assert not report.holds


def test_negative_control_nui_fails_on_shuffle_coproduct():
    report = check_relation(get_model("classical", 2), "delta", "mul", "nui", 3)
    assert not report.holds


def test_eval_compat_is_multilinear():
    model = get_model("as", 2)
    expr = get_relation("nui")
    a1, a2 = LinComb.of("x"), LinComb.of("y")
    b = LinComb.of("xy")
    lhs = eval_compat(expr, model, [a1 + a2.scale(3), b])
    rhs = eval_compat(expr, model, [a1, b]) + eval_compat(expr, model, [a2, b]).scale(3)
    assert lhs == rhs


def test_eval_compat_matches_manual_nui_expansion():
    model = get_model("as", 2)
    expr = get_relation("nui")
    a, b = LinComb.of("xy"), LinComb.of("yx")
    got = eval_compat(expr, model, [a, b])
    # a(x)b + a1(x)a2 b + a b1(x)b2
    expected = LinComb(
        {
            ("xy", "yx"): 1,
            ("x", "yyx"): 1,
            ("xyy", "x"): 1,
        }
    )
    assert got == expected
    # the checker's positive verdict means delta(ab) equals this
    assert model.coproducts["delta"](model.products["mul"](a, b)) == expected


def test_report_json_shape():
    report = check_relation(get_model("as", 2), "delta", "mul", "nui", 3)
    d = report.to_json_dict()
    assert d["holds"] is True
    assert "checkedPairs" in d
    bad = check_relation(get_model("as", 2), "delta", "mul", "hopf", 3)
    d = bad.to_json_dict()
    assert d["holds"] is False
    assert "firstFailure" in d
    assert set(d["firstFailure"]) == {"degrees", "pair", "lhs", "rhs"}


# --- the evaluation on keys against the LinComb evaluation it replaces --------

def reference_eval_compat(expr, model, args, mu="mul", delta="delta"):
    """The right-hand side as one LinComb per tensor key, tensored and summed."""
    def pieces(term):
        inter = LinComb.of(())
        for sym, arg in zip(term.in_coops, args):
            piece = arg if sym == "id" else arg.map_keys(
                model.lookup("key_coproducts", delta if sym == "delta" else sym))
            inter = inter.tensor(piece)
            if not inter:
                return
        ops = [None if sym == "id" else model.lookup("key_products", mu if sym == "mu" else sym)
               for sym in term.out_ops]
        for key, c in inter.items():
            slots = tuple(key[p] for p in term.perm)
            out = None
            pos = 0
            for op in ops:
                if op is None:
                    block = LinComb.of(slots[pos])
                    pos += 1
                else:
                    block = op(slots[pos], slots[pos + 1])
                    pos += 2
                out = block if out is None else out.tensor(block)
            yield out, c * term.coeff

    return LinComb.sum(piece for term in expr.terms for piece in pieces(term))


def _mixed(model, n):
    """Every basis element of degree n with a distinct Fraction coefficient."""
    return LinComb.sum((relations._as_lincomb(k), Fraction(2 * i - 3, i + 2))
                       for i, k in enumerate(model.basis(n)))


@pytest.mark.parametrize("name,alphabet", [
    ("as", 2), ("classical", 2), ("zinb", 2), ("nil", 2), ("mag", 1), ("dup", 1), ("lie", 2),
])
def test_eval_compat_on_keys_matches_the_lincomb_evaluation(name, alphabet):
    model = get_model(name, alphabet)
    one, two = _mixed(model, 1), _mixed(model, 2)
    zero = LinComb.zero()
    # degree <= 3 in all: multi-term, inhomogeneous and zero arguments
    pairs = [(one, one), (one, two), (two, one), (one + two, one), (zero, two), (one, zero)]
    assert len(one + two) > 1 and any(type(c) is Fraction for _, c in two.items())
    shared = {}
    for rel in relation_names():
        expr = get_relation(rel)
        coops = {s for t in expr.terms for s in t.in_coops} - {"id", "delta"}
        ops = {s for t in expr.terms for s in t.out_ops} - {"id", "mu"}
        if not (coops <= set(model.coproducts) and ops <= set(model.products)):
            continue
        for delta in model.coproducts:
            for mu in model.products:
                for a, b in pairs:
                    want = reference_eval_compat(expr, model, (a, b), mu, delta)
                    assert eval_compat(expr, model, (a, b), mu, delta) == want, (rel, delta, mu)
                    assert eval_compat(expr, model, (a, b), mu, delta, images=shared) == want
                    # into=: the same sum times den = expr den * a.den * b.den, added in place
                    into = {("x", "x"): 1}
                    assert eval_compat(expr, model, (a, b), mu, delta, into=into) is None
                    den = expr.numerators[0] * a.den * b.den
                    assert LinComb(into).scale(Fraction(1, den)) == want + LinComb(
                        {("x", "x"): Fraction(1, den)})


def test_eval_compat_with_non_integral_images_matches_the_lincomb_evaluation():
    # (co)products with coefficients off the integers: the sum holds Fractions
    model = get_model("as", 2)
    halved = dataclasses.replace(
        model,
        key_products={"mul": lambda u, v: model.key_products["mul"](u, v).scale(Fraction(1, 2))},
        key_coproducts={"delta": lambda w: model.key_coproducts["delta"](w).scale(Fraction(2, 3))})
    one, two = _mixed(halved, 1), _mixed(halved, 2)
    shared = {}
    for rel in ("nui", "hopf", "magmatic"):
        expr = get_relation(rel)
        for a, b in [(one, two), (two, one), (one + two, two)]:
            want = reference_eval_compat(expr, halved, (a, b))
            assert want.den != 1
            assert eval_compat(expr, halved, (a, b)) == want, rel
            assert eval_compat(expr, halved, (a, b), images=shared) == want, rel


def reference_check_relation(model, delta, mu, rel, top):
    """(checked pairs, first failure) with the left side as LinCombs: delta(mu(a, b))."""
    checked = 0
    for da in range(1, top):
        for db in range(1, top - da + 1):
            for a in model.basis(da):
                for b in model.basis(db):
                    la, lb = relations._as_lincomb(a), relations._as_lincomb(b)
                    lhs = model.coproducts[delta](model.products[mu](la, lb))
                    rhs = eval_compat(get_relation(rel), model, (la, lb), mu, delta)
                    checked += 1
                    if lhs != rhs:
                        return checked, ((da, db), (la, lb), lhs, rhs)
    return checked, None


def _rescaled_as2(mul, delta):
    """as/2 with its product times `mul` and its coproduct times `delta`, on keys."""
    model = get_model("as", 2)
    product, coproduct = model.key_products["mul"], model.key_coproducts["delta"]
    return dataclasses.replace(model, key_products={"mul": lambda u, v: product(u, v).scale(mul)},
                               key_coproducts={"delta": lambda w: coproduct(w).scale(delta)})


def test_check_relation_left_side_on_keys_matches_the_lincomb_left_side():
    model = get_model("as", 2)
    product, coproduct = model.key_products["mul"], model.key_coproducts["delta"]
    halved = [  # a non-integral product image, coproduct image, or both
        dataclasses.replace(model, **changes) for changes in (
            {"key_products": {"mul": lambda u, v: product(u, v).scale(Fraction(1, 2))}},
            {"key_coproducts": {"delta": lambda w: coproduct(w).scale(Fraction(2, 3))}},
            {"key_products": {"mul": lambda u, v: product(u, v).scale(Fraction(1, 2))},
             "key_coproducts": {"delta": lambda w: coproduct(w).scale(Fraction(2, 3))}})]
    runs = [(model, "delta", "mul", "hopf", 4), (model, "delta", "mul", "nui", 5),
            (get_model("lie", 2), "delta", "mul", "lily", 4),
            (get_model("dup", 1), "delta", "left", "nui", 5),
            (get_model("mag", 1), "hopf", "mul", "hopf", 5)]
    runs += [(m, "delta", "mul", rel, 4) for m in halved for rel in ("nui", "hopf")]
    # Fraction product images whose scales cancel in nui but not in hopf or magmatic
    scaled = _rescaled_as2(Fraction(1, 2), 2)
    assert scaled.key_products["mul"]("x", "xx") == LinComb({"xxx": Fraction(1, 2)})
    runs += [(scaled, "delta", "mul", rel, 5) for rel in ("nui", "hopf", "magmatic")]
    reports = []
    for m, delta, mu, rel, top in runs:
        reports.append(check_relation(m, delta, mu, rel, top))
        assert (reports[-1].checked_pairs, reports[-1].first_failure) == reference_check_relation(
            m, delta, mu, rel, top), (m.name, delta, mu, rel)
    # the lie witness stays the documented degree-4 defect
    assert reports[2].first_failure[0] == (1, 3)
    nui, hopf, magmatic = reports[-3:]
    assert nui.holds and nui.checked_pairs == 196
    assert (hopf.checked_pairs, hopf.first_failure[0]) == (1, (1, 1))
    # delta(mu(x, xx)) = 2 * 1/2 (xx|x + x|xx): the witness is integral again
    assert (magmatic.checked_pairs, magmatic.first_failure[0]) == (5, (1, 2))


def test_a_holding_check_never_calls_the_lincomb_level_maps():
    # lie's basis entries are LinCombs; the rescaled as/2 has Fraction product images
    def boom(*args):
        raise AssertionError("a holding pair called a LinComb-level map")
    for model, rel, top, pairs in ((get_model("lie", 2), "lily", 3, 8),
                                   (_rescaled_as2(Fraction(1, 2), 2), "nui", 5, 196)):
        for maps in (model.products, model.coproducts):
            maps.update(dict.fromkeys(maps, boom))
        report = check_relation(model, "delta", "mul", rel, top)
        assert report.holds and report.checked_pairs == pairs


# (model, alphabet or None for the default, coproduct, product, relation, max degree):
# the suite's relation checks, the rows of the relations benchmark capped at degree
# 6, and integral checks that fail past their first pairs
_SUITE_RELATIONS = [
    ("as", None, "delta", "mul", "nui", 6),
    ("dup", None, "delta", "left", "nui", 6),
    ("dup", None, "delta", "right", "nui", 6),
    ("mag", None, "delta", "mul", "magmatic", 6),
    ("mag", None, "liv", "mul", "livernet", 5),
    ("dup", None, "dleft", "left", "bidup_dleft_left", 5),
    ("dup", None, "dright", "right", "bidup_dright_right", 5),
    ("dup", None, "dleft", "right", "bidup_dleft_right", 5),
    ("dup", None, "dright", "left", "bidup_dright_left", 5),
    ("zinb", None, "delta", "left", "semi_hopf_left", 5),
]
_BENCH_RELATIONS = [
    ("dup", 1, "delta", "left", "nui", 6),
    ("dup", 1, "delta", "right", "nui", 6),
    ("dup", 1, "dleft", "right", "bidup_dleft_right", 6),
    ("classical", 2, "delta", "mul", "hopf", 5),
    ("zinb", 2, "delta", "left", "semi_hopf_left", 5),
    ("mag", 1, "hopf", "mul", "hopf", 6),
    ("mag", 1, "liv", "mul", "livernet", 6),
    ("as", 2, "delta", "mul", "nui", 6),
    ("as", 1, "delta", "mul", "hopf", 4),
]
_LATE_FAILURES = [
    ("zinb", 2, "delta", "left", "nui", 4),
    ("mag", 1, "liv", "mul", "magmatic", 6),
]


@pytest.mark.parametrize("name,alphabet,delta,mu,rel,top",
                         _SUITE_RELATIONS + _BENCH_RELATIONS + _LATE_FAILURES)
def test_check_relation_report_matches_the_lincomb_reference(name, alphabet, delta, mu, rel, top):
    model = get_model(name, alphabet)
    report = check_relation(model, delta, mu, rel, top)
    assert (report.checked_pairs, report.first_failure) == reference_check_relation(
        model, delta, mu, rel, top)
    if (name, rel) == ("zinb", "nui"):
        assert (report.checked_pairs, report.first_failure[0]) == (29, (2, 1))
    if (delta, rel) == ("liv", "magmatic"):
        assert report.first_failure[0] == (2, 1)


def _counting(ops, calls):
    def count(fn):
        def counted(*args):
            calls[fn, args] += 1
            return fn(*args)
        return counted
    return {sym: count(fn) for sym, fn in ops.items()}


def _pairs_up_to(dim, n):
    """The number of basis pairs with deg a + deg b <= n, from dim A_d."""
    return sum(dim(da) * dim(db) for da in range(1, n) for db in range(1, n - da + 1))


def test_check_relation_computes_each_image_once_per_check():
    model = get_model("classical", 2)
    coproduct_calls, product_calls = Counter(), Counter()
    counted = dataclasses.replace(
        model, key_coproducts=_counting(model.key_coproducts, coproduct_calls),
        key_products=_counting(model.key_products, product_calls))
    report = check_relation(counted, "delta", "mul", "hopf", 5)
    assert report.holds and report.checked_pairs == _pairs_up_to(lambda d: 2 ** d, 5) == 196
    # one coproduct per pair's left side, one per key of degree < 5 on the right
    assert sum(coproduct_calls.values()) <= report.checked_pairs + (2 + 4 + 8 + 16)
    # one product per pair's left side, one per slot pair (u, v) of nonempty words
    # with |u| + |v| <= 4 on the right
    slot_pairs = sum(2 ** i * 2 ** (s - i) for s in range(2, 5) for i in range(1, s))
    assert slot_pairs == 68
    assert sum(product_calls.values()) <= report.checked_pairs + slot_pairs


def test_check_relation_computes_each_coproduct_image_once_on_both_sides():
    model = get_model("classical", 2)
    calls = Counter()
    counted = dataclasses.replace(
        model, key_coproducts=_counting(model.key_coproducts, calls))
    report = check_relation(counted, "delta", "mul", "hopf", 5)
    assert report.holds and report.checked_pairs == 196
    # delta(mu(a, b)) and the right side read one table: one call per word of degree 1-5
    assert max(calls.values()) == 1
    assert sum(calls.values()) <= 2 + 4 + 8 + 16 + 32 == 62


def test_check_relation_calls_eval_compat_once_per_checked_pair(monkeypatch):
    calls = []

    def counted(*args, evaluate=relations.eval_compat, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(relations, "eval_compat", counted)
    report = check_relation(get_model("dup", 1), "delta", "left", "nui", 5)
    assert report.holds
    assert report.checked_pairs == _pairs_up_to(lambda d: comb(2 * d, d) // (d + 1), 5)
    assert len(calls) == report.checked_pairs


def test_a_declared_one_key_product_fills_the_product_tables_without_a_kernel_call(monkeypatch):
    calls = []

    def counted(k1, k2):
        calls.append((k1, k2))
        return models.dup_right(k1, k2)
    monkeypatch.setitem(models._KEY_MAPS, counted, models._KEY_MAPS[models.dup_right])
    plain = get_model("dup", 1)
    stand_in = dataclasses.replace(plain, key_products={**plain.key_products, "right": counted})
    report = check_relation(stand_in, "dleft", "right", "bidup_dleft_right", 5)
    # the left side and the right side's product tables both read the key map
    assert calls == []
    want = check_relation(plain, "dleft", "right", "bidup_dleft_right", 5)
    assert report.to_json_dict() == want.to_json_dict()


def test_a_shared_images_dict_resolves_the_plans_again_when_mu_or_delta_changes():
    model, expr = get_model("dup", 1), get_relation("nui")
    a, b = (relations._as_lincomb(k) for k in model.basis(2))
    shared, last = {}, None
    # each step changes only mu or only delta, for the same expr and model
    for mu, delta in [("left", "delta"), ("right", "delta"), ("right", "dleft"),
                      ("right", "dright"), ("left", "dright"), ("left", "delta")]:
        want = reference_eval_compat(expr, model, (a, b), mu, delta)
        assert want != last  # stale plans would give the last pair's sum
        assert eval_compat(expr, model, (a, b), mu, delta, images=shared) == want, (mu, delta)
        last = want


def test_eval_compat_on_scaled_single_keys_matches_the_lincomb_evaluation():
    for name in ("as", "dup", "mag"):
        model = get_model(name, 2)
        a = LinComb.of(model.basis(2)[1], 3)
        b = LinComb.of(model.basis(1)[0], Fraction(1, 2))
        for rel in ("nui", "hopf", "magmatic"):
            expr = get_relation(rel)
            delta, mu = next(iter(model.key_coproducts)), next(iter(model.key_products))
            for la, lb in [(a, b), (b, a), (a, a), (b, b)]:
                want = reference_eval_compat(expr, model, (la, lb), mu, delta)
                assert eval_compat(expr, model, (la, lb), mu, delta) == want, (name, rel)
                into = {}
                assert eval_compat(expr, model, (la, lb), mu, delta, into=into) is None
                den = expr.numerators[0] * la.den * lb.den
                assert LinComb(into).scale(Fraction(1, den)) == want, (name, rel)


def test_check_relation_images_table_dies_with_the_call():
    model = get_model("dup", 1)
    calls = Counter()
    counted = dataclasses.replace(
        model, key_coproducts=_counting(model.key_coproducts, calls),
        key_products=_counting(model.key_products, calls))

    def run():
        before = sum(calls.values())
        assert check_relation(counted, "dleft", "right", "bidup_dleft_right", 7).holds
        # with the collector off, a table kept alive by a reference cycle is
        # counted here; a full collection also empties the interpreter's free
        # lists, so what tracemalloc reports after it is what the call left behind
        cycles = gc.collect()
        return sum(calls.values()) - before, cycles, tracemalloc.get_traced_memory()[0]

    gc.collect()
    gc.disable()
    try:
        warm_calls, _, _ = run()  # the model's basis and module-level caches fill here
        tracemalloc.start()
        first_calls, first_cycles, held_first = run()
        second_calls, second_cycles, _ = run()
        third_calls, third_cycles, held_third = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    # every call computes its images again and keeps none of them
    assert warm_calls == first_calls == second_calls == third_calls > 0
    assert first_cycles == second_cycles == third_cycles == 0
    assert held_third - held_first < (peak - held_first) // 100, (held_first, held_third, peak)


def test_relations_hold_past_the_pinned_degrees():
    report = check_relation(get_model("classical", 2), "delta", "mul", "hopf", 6)
    assert report.holds and report.checked_pairs == _pairs_up_to(lambda d: 2 ** d, 6)
    report = check_relation(get_model("dup", 1), "delta", "right", "nui", 7)
    assert report.holds
    assert report.checked_pairs == _pairs_up_to(lambda d: comb(2 * d, d) // (d + 1), 7)


def test_check_relation_resolves_each_term_once_per_check(monkeypatch):
    calls = Counter()

    def counted(self, table, sym, lookup=BialgebraModel.lookup):
        calls[table] += 1
        return lookup(self, table, sym)
    monkeypatch.setattr(BialgebraModel, "lookup", counted)
    model = get_model("dup", 1)
    per_check = []
    for top in (4, 6):
        calls.clear()
        assert check_relation(model, "delta", "left", "nui", top).holds
        per_check.append(dict(calls))
    # the left side looks up delta and mu once, and nui names each twice,
    # however many pairs the check reaches
    assert per_check[0] == per_check[1] == {"key_coproducts": 3, "key_products": 3}


def test_an_unlifted_failing_check_keeps_its_pair_count_and_witness():
    # liv is no word kernel but commutes with renaming the letters, so mag/2
    # evaluates only the standard pairs; 40269 is the witness's loop position
    model = get_model("mag", 2)
    assert _RENAMING[model.key_coproducts["liv"]] == "orbit"
    report = check_relation(model, "liv", "mul", "magmatic", 8)
    assert not report.holds and report.checked_pairs == 40269
    degrees, pair, lhs, rhs = report.first_failure
    assert degrees == (2, 1)
    assert [repr(p) for p in pair] == ["1*(.,.):xx", "1*.:x"]
    assert repr(lhs) == "2*(.,.):xx|.:x + 1*.:x|(.,.):xx"
    assert repr(rhs) == "1*(.,.):xx|.:x"
