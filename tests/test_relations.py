"""Compatibility relation DSL: library entries, the checker, controls."""

import json
from fractions import Fraction

import pytest

from operads import relations
from operads.linalg import LinComb
from operads.models import get_model
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
    # exactly two Phi1 terms (no inner coproduct applied)
    assert len(expr.phi1().terms) == 2
    assert len(expr.phi2().terms) == 4


def test_nui_shape():
    expr = get_relation("nui")
    assert len(expr.terms) == 3
    assert len(expr.phi1().terms) == 1
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
