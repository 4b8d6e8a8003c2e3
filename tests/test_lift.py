"""Word-preserving and letter-renaming kernels, and the answers read off one-letter keys or
one pair or block per orbit of the letter permutations, against the direct ones."""

import inspect
import itertools
import json

import pytest

from operads import models, primitive_part, relations, versal_idempotent
from operads.cli import main
from operads.idempotents import ConvolutionContext, eulerian, geometric_idempotent
from operads.linalg import LinComb, _Memo, as_slots
from operads.models import (LETTERS, _RENAMING, _standard, _word_stem, as_concat,
                            as_shuffle_coproduct, get_model, lie_bracket, lie_cobracket, words)
from operads.relations import check_relation, get_relation, relation_names
from records import replace

NONSYMMETRIC = ("as", "nil", "dup", "bidup", "mag")
QUALIFYING = ("nui", "bidup_dleft_left", "bidup_dright_right", "magmatic", "nil",
              "bidup_dleft_right", "bidup_dright_left")


def _twin(key):
    stem, word = _word_stem(key)
    return stem + LETTERS[0] * len(word)


def _put_back(lc, word):
    """lc, a LinComb over one-letter keys or slot tuples of them, with word put back by position."""
    out = []
    for key, c in lc.items():
        slots, pos = [], 0
        for slot in as_slots(key):
            stem, w = _word_stem(slot)
            slots.append(stem + word[pos:pos + len(w)])
            pos += len(w)
        assert pos == len(word)
        out.append((tuple(slots) if isinstance(key, tuple) else slots[0], c))
    return LinComb(out)


def _keys(model, top):
    return [k for n in range(1, top + 1) for k in model.basis(n)]


def _mismatches(kernel, arity, keys):
    """The key tuples whose image is not their one-letter twins' image with the word put back."""
    return [ks for ks in itertools.product(keys, repeat=arity)
            if kernel(*ks) != _put_back(kernel(*map(_twin, ks)),
                                        "".join(_word_stem(k)[1] for k in ks))]


@pytest.mark.parametrize("name", NONSYMMETRIC)
@pytest.mark.parametrize("alphabet", [2, 3])
def test_declared_kernels_keep_words(name, alphabet):
    model = get_model(name, alphabet)
    coproducts = [fn for fn in model.key_coproducts.values() if _RENAMING.get(fn) == "lift"]
    products = [fn for fn in model.key_products.values() if _RENAMING.get(fn) == "lift"]
    assert products and coproducts
    if name == "mag":
        assert set(model.key_coproducts) - {"delta"} == {"hopf", "liv"}
        assert coproducts == [model.key_coproducts["delta"]]
    else:
        assert len(coproducts) == len(model.key_coproducts)
    assert len(products) == len(model.key_products)
    for fn in coproducts:
        assert not _mismatches(fn, 1, _keys(model, 5))
    for fn in products:
        assert not _mismatches(fn, 2, _keys(model, 3))


@pytest.mark.parametrize("name, syms", [
    ("mag", ["hopf", "liv"]), ("classical", ["delta"]), ("zinb", ["left", "star"]),
])
def test_letter_moving_kernels_are_not_declared(name, syms):
    # classical's product and zinb's coproduct are as's, and are declared
    model = get_model(name, 2)
    ops = {**model.key_coproducts, **model.key_products}
    assert {sym for sym, fn in ops.items() if _RENAMING.get(fn) != "lift"} == set(syms)
    for sym in syms:
        arity = 1 if sym in model.key_coproducts else 2
        assert _mismatches(ops[sym], arity, _keys(model, 3 if arity == 1 else 2))


def test_lie_kernels_move_letters_and_are_not_declared():
    model = get_model("lie", 2)
    kernels = {*model.key_products.values(), *model.key_coproducts.values()}
    assert not kernels & _RENAMING.keys()
    assert _mismatches(lie_bracket, 2, ["x", "y"]) and _mismatches(lie_cobracket, 1, ["xy"])


def _renamed(lc, table):
    """lc, a LinComb over keys or slot tuples of keys, with its letters renamed by table."""
    return LinComb((tuple(s.translate(table) for s in key) if isinstance(key, tuple)
                    else key.translate(table), c) for key, c in lc.items())


def _content(keys):
    return sorted("".join(_word_stem(k)[1] for k in keys))


@pytest.mark.parametrize("name", ["as", "classical", "zinb", "nil", "mag", "dup", "bidup"])
def test_declared_kernels_commute_with_renaming_the_letters_and_keep_content(name):
    model = get_model(name, 3)
    coproducts, products = model.key_coproducts.values(), model.key_products.values()
    assert {*coproducts, *products} <= _RENAMING.keys()
    renamings = [str.maketrans("xyz", "".join(p)) for p in itertools.permutations("xyz")]
    keys = {n: model.basis(n) for n in range(1, 6)}
    cases = [(fn, (k,)) for fn in coproducts for n in keys for k in keys[n]]
    cases += [(fn, (k1, k2)) for fn in products for n1 in range(1, 4) for n2 in range(1, 5 - n1)
              for k1 in keys[n1] for k2 in keys[n2]]
    for fn, ks in cases:
        image = fn(*ks)
        assert all(_content(as_slots(key)) == _content(ks) for key in image.terms), (fn, ks)
        for table in renamings:
            assert fn(*(k.translate(table) for k in ks)) == _renamed(image, table), (fn, ks)


def _relabelled(word):
    """The word with its letters renamed x, y, z, ... in order of first appearance."""
    names = {}
    return "".join(names.setdefault(ch, LETTERS[len(names)]) for ch in word)


def test_a_word_is_standard_exactly_when_it_is_its_first_occurrence_relabelling():
    every = [w for n in range(1, 7) for w in words(3, n)]
    assert [w for w in every if _standard(w)] == [w for w in every if w == _relabelled(w)]
    assert _standard("xyxz") and not _standard("xzy") and not _standard("yx")


def _direct(monkeypatch, fn, *args):
    """fn(*args) on the direct path: with no kernel declared word-preserving or renaming."""
    with monkeypatch.context() as patch:
        patch.setattr(models, "_RENAMING", {})
        return fn(*args)


def _one_letter(key):
    return not _word_stem(key)[1].strip(LETTERS[0])


def _same_terms(endo, other):
    """Equal GradedEndos, with the same terms in the same order in every column."""
    assert endo == other
    for n, col in endo.cols.items():
        assert [list(lc.terms.items()) for lc in col] == [
            list(lc.terms.items()) for lc in other.cols[n]]


def _top_keys_standard(memo, top):
    """Does memo hold keys of degree top, each of them standard?"""
    keys = [k for k in memo.values if len(_word_stem(k)[1]) == top]
    return bool(keys) and all(_standard(_word_stem(k)[1]) for k in keys)


@pytest.mark.parametrize("name", ["as", "mag", "dup", "bidup", "classical"])
@pytest.mark.parametrize("alphabet, top", [(2, 5), (3, 5)])
def test_lifted_versal_idempotent_is_the_direct_one(name, alphabet, top, monkeypatch):
    model = get_model(name, alphabet)
    lifted = versal_idempotent(model, top)
    _same_terms(lifted, _direct(monkeypatch, versal_idempotent, get_model(name, alphabet), top))
    memo = model.splitting.versal
    if name == "classical":  # orbit: the power memo behind e holds standard keys at the top
        assert models.reduction(model, model.splitting.kernels) == "orbit"
        assert _top_keys_standard(inspect.getclosurevars(memo).nonlocals["powers"], top)
        return
    memo = memo if isinstance(memo, _Memo) else model.splitting.components
    assert memo.values and all(map(_one_letter, memo.values))


@pytest.mark.parametrize("name, alphabet, mode", [
    ("classical", 2, "orbit"), ("classical", 3, "orbit"),
    ("as", 2, "lift"), ("nil", 2, "lift"), ("mag", 2, "lift"),
])
def test_eulerian_and_geometric_idempotents_are_the_direct_ones(name, alphabet, mode,
                                                                  monkeypatch):
    top = 5
    ctx = ConvolutionContext(get_model(name, alphabet))
    assert ctx.mode == mode

    def maps(ctx):
        return [eulerian(ctx, i, top) for i in range(1, top + 1)] + [
            geometric_idempotent(ctx, top)]
    direct = _direct(monkeypatch, maps, ConvolutionContext(get_model(name, alphabet)))
    for endo, other in zip(maps(ctx), direct):
        _same_terms(endo, other)
    powers = ctx.identity_powers
    if mode == "lift":
        assert powers.values and all(map(_one_letter, powers.values))
    else:
        assert _top_keys_standard(powers, top)


def _recording(model, seen, monkeypatch):
    """model with each kernel recording its keys in seen, declared where the original is."""
    def record(fn):
        def recorded(*keys):
            seen.update(keys)
            return fn(*keys)
        return recorded
    products = {sym: record(fn) for sym, fn in model.key_products.items()}
    coproducts = {sym: record(fn) for sym, fn in model.key_coproducts.items()}
    originals = {**model.key_products, **model.key_coproducts}
    wrapped = {**products, **coproducts}
    for sym, fn in originals.items():
        if fn in models._RENAMING:
            monkeypatch.setitem(models._RENAMING, wrapped[sym], models._RENAMING[fn])
    return replace(model, key_products=products, key_coproducts=coproducts)


@pytest.mark.parametrize("name", NONSYMMETRIC + ("zinb",))
@pytest.mark.parametrize("alphabet, top", [(2, 5), (3, 5)])
def test_lifted_primitive_part_is_the_direct_one(name, alphabet, top, monkeypatch):
    seen = set()
    model = _recording(get_model(name, alphabet), seen, monkeypatch)
    for n in range(1, top + 1):
        lifted = primitive_part(model, n)
        direct = _direct(monkeypatch, primitive_part, model, n)
        assert [list(v.terms.items()) for v in lifted] == [list(v.terms.items()) for v in direct]
        assert len(lifted) % alphabet ** n == 0
    seen.clear()
    primitive_part(model, top if model.basis(top) else 2)  # nil stops at degree 2
    assert seen and all(map(_one_letter, seen))


def _checks(name):
    """(coproduct, product, relation) of every library relation that resolves on the model."""
    model = get_model(name, 1)
    out = []
    for delta, mu in itertools.product(model.key_coproducts, model.key_products):
        for rel in relation_names():
            syms = {s for t in get_relation(rel).terms for s in t.in_coops + t.out_ops}
            syms -= {"id", "delta", "mu"}
            if syms <= set(model.key_coproducts) | set(model.key_products):
                out.append((delta, mu, rel))
    return out


@pytest.mark.parametrize("name", NONSYMMETRIC)
@pytest.mark.parametrize("alphabet, top", [(2, 5), (3, 4)])
def test_lifted_relation_checks_report_what_the_direct_ones_do(name, alphabet, top, monkeypatch):
    qualifying = 0
    for delta, mu, rel in _checks(name):
        seen = set()
        model = _recording(get_model(name, alphabet), seen, monkeypatch)
        report = check_relation(model, delta, mu, rel, top).to_json_dict()
        direct = _direct(monkeypatch, check_relation, model, delta, mu, rel, top).to_json_dict()
        assert json.dumps(report) == json.dumps(direct), (delta, mu, rel)
        seen.clear()
        check_relation(model, delta, mu, rel, top)
        lifted = rel in QUALIFYING and {models._RENAMING.get(model.key_coproducts[delta]),
                                        models._RENAMING.get(model.key_products[mu])} == {"lift"}
        if lifted or report["holds"]:  # a check that fails early may see one-letter keys only
            assert all(map(_one_letter, seen)) == lifted, (delta, mu, rel)
        qualifying += lifted
    assert qualifying


def test_lifted_answers_list_the_one_letter_keys_not_the_basis():
    # a lifted call lists only degree 1 (the generator template); the k^n-word
    # basis of every degree was listed and filtered before
    model = get_model("dup", 3)
    degrees = []

    def basis(n):
        degrees.append(n)
        return model.basis(n)
    counted = replace(model, basis=basis)
    assert len(primitive_part(counted, 5)) == len(primitive_part(model, 5))
    assert check_relation(counted, "delta", "left", "nui", 5).holds
    assert set(degrees) == {1}


@pytest.mark.parametrize("alphabet, pairs", [(1, 3), (2, 9), (3, 19)])
@pytest.mark.parametrize("delta, mu, rel", [
    ("dleft", "left", "magmatic"), ("dleft", "left", "nil"), ("dleft", "right", "bidup_dright_left"),
])
def test_lifted_checks_count_the_pairs_before_a_late_failure(alphabet, pairs, delta, mu, rel,
                                                             monkeypatch):
    # at alphabet 1 each fails on the second pair of block (1, 2); at alphabet k
    # that is k^2 pairs of block (1, 1), then i_b k^2 + 1 with i_b = 1
    model = get_model("dup", alphabet)
    report = check_relation(model, delta, mu, rel, 4)
    assert report.to_json_dict() == _direct(
        monkeypatch, check_relation, model, delta, mu, rel, 4).to_json_dict()
    assert not report.holds and report.checked_pairs == pairs == 2 * alphabet ** 2 + 1
    assert report.first_failure[0] == (1, 2)
    assert [repr(p) for p in report.first_failure[1]] == ["1*(.,.):x", "1*(.,(.,.)):xx"]


def test_lifted_checks_count_the_pairs_before_a_failure_past_the_first_tree(monkeypatch):
    # dup's < doubled on the second tree of degree 2 times itself: the first failure
    # is at one-letter indices (1, 1) of block (2, 2), and keeps words, so it lifts
    model = get_model("dup", 2)
    second = model.basis(2)[4].partition(":")[0]
    left = model.key_products["left"]

    def doubled(k1, k2):
        image = left(k1, k2)
        return image.scale(2) if k1.startswith(second + ":") and k2.startswith(second + ":") else image
    broken = replace(model, key_products={"left": doubled})
    monkeypatch.setitem(models._RENAMING, doubled, "lift")
    report = check_relation(broken, "delta", "left", "nui", 4)
    assert report.to_json_dict() == _direct(
        monkeypatch, check_relation, broken, "delta", "left", "nui", 4).to_json_dict()
    k = 2
    before = 1 * 1 * k ** 2 + 1 * 2 * k ** 3 + 1 * 5 * k ** 4 + 2 * 1 * k ** 3
    assert report.first_failure[0] == (2, 2)
    assert report.checked_pairs == before + 1 * k ** 2 * 2 * k ** 2 + 1 * k ** 2 + 1 == 153


# (model, alphabet, coproduct, product, relation, degree, checkedPairs, the
# failing pair or None): each pins the direct path's report
ORBIT_CHECKS = [
    ("classical", 2, "delta", "mul", "hopf", 6, 516, None),
    ("classical", 3, "delta", "mul", "hopf", 5, 1278, None),
    ("zinb", 3, "delta", "left", "nui", 6, 1090, ["1*xx", "1*x"]),
    ("zinb", 3, "delta", "left", "semi_hopf_left", 6, 4923, None),
    ("mag", 3, "liv", "mul", "magmatic", 6, 11620, ["1*(.,.):xx", "1*.:x"]),
    ("mag", 2, "hopf", "mul", "hopf", 5, 548, None),
]


def _standard_pairs(model, top):
    """The key pairs (a, b), deg a + deg b <= top, whose word a.b is its own relabelling."""
    keys = {n: [_word_stem(k)[1] for k in model.basis(n)] for n in range(1, top)}
    return sum(_relabelled(a + b) == a + b
               for da in keys for db in range(1, top - da + 1) for a in keys[da] for b in keys[db])


@pytest.mark.parametrize("name, alphabet, delta, mu, rel, top, pairs, failing", ORBIT_CHECKS)
def test_orbit_relation_checks_report_what_the_direct_ones_do(name, alphabet, delta, mu, rel, top,
                                                               pairs, failing, monkeypatch):
    model = get_model(name, alphabet)
    assert models.reduction(model, [model.key_coproducts[delta], model.key_products[mu]]) == "orbit"
    calls = []
    evaluate = relations.eval_compat

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(relations, "eval_compat", counted)
    report = check_relation(model, delta, mu, rel, top)
    evaluated = len(calls)
    calls.clear()
    direct = _direct(monkeypatch, check_relation, model, delta, mu, rel, top)
    assert json.dumps(report.to_json_dict()) == json.dumps(direct.to_json_dict())
    assert (report.holds, report.checked_pairs) == (failing is None, pairs)
    if failing:
        assert report.first_failure[0] == (2, 1)
        assert [repr(p) for p in report.first_failure[1]] == failing
    else:  # one evaluated pair per orbit, against every pair on the direct path
        assert evaluated == _standard_pairs(model, top) < len(calls) == pairs


@pytest.mark.parametrize("alphabet, top", [(2, 8), (3, 6)])
def test_orbit_primitive_part_is_the_direct_one(alphabet, top, monkeypatch):
    seen = set()
    model = _recording(get_model("classical", alphabet), seen, monkeypatch)
    assert models.reduction(model, [model.key_coproducts["delta"]]) == "orbit"
    for n in range(1, top + 1):
        seen.clear()
        orbit = primitive_part(model, n)
        counts = [[k.count(ch) for ch in LETTERS[:alphabet]] for k in seen]
        # only the first content of each orbit is eliminated: its counts do not increase
        assert all(c == sorted(c, reverse=True) for c in counts)
        direct = _direct(monkeypatch, primitive_part, model, n)
        assert [(list(v.terms.items()), v.den) for v in orbit] == [
            (list(v.terms.items()), v.den) for v in direct]


def test_a_wrapped_unshuffle_takes_the_direct_path(monkeypatch):
    seen = set()

    def wrapped(key):
        seen.add(key)
        return as_shuffle_coproduct(key)
    model = get_model("classical", 2)

    def wrapped_model():  # its splitting's memos are new, so each map reads the wrapper again
        return replace(model, key_coproducts={"delta": wrapped},
                                   splitting=models._associative_splitting(
                                       wrapped, as_concat, exponential=True))
    every = {k for n in range(1, 6) for k in model.basis(n)}
    versal = versal_idempotent(wrapped_model(), 5)
    assert seen == every
    _same_terms(versal, versal_idempotent(model, 5))
    for i in (1, 2):
        seen.clear()
        ctx = ConvolutionContext(wrapped_model())
        assert ctx.mode is None
        e = eulerian(ctx, i, 5)
        assert seen == every
        _same_terms(e, eulerian(ConvolutionContext(model), i, 5))
    seen.clear()
    changed = wrapped_model()
    assert models.reduction(changed, [wrapped]) is None
    prim = primitive_part(changed, 6)
    assert seen == set(model.basis(6))
    assert [(list(v.terms.items()), v.den) for v in prim] == [
        (list(v.terms.items()), v.den) for v in primitive_part(model, 6)]
    seen.clear()
    report = check_relation(changed, "delta", "mul", "hopf", 5)
    assert report.to_json_dict() == check_relation(model, "delta", "mul", "hopf", 5).to_json_dict()
    assert not all(map(_standard, seen))  # the pair (y, x) too


@pytest.mark.parametrize("kind", ["versal", "eulerian:2", "geometric"])
def test_orbit_idempotent_matrices_print_the_direct_bytes(kind, capsys, monkeypatch):
    argv = ["idempotent", "--model", "classical", "--alphabet", "3", "--max-degree", "5",
            "--kind", kind, "--report", "matrix"]

    def printed(run, *args):
        with pytest.raises(SystemExit) as stop:
            run(*args)
        return stop.value.code, capsys.readouterr()
    orbit = printed(main, argv)
    assert orbit == printed(_direct, monkeypatch, main, argv)
    assert orbit[0] == 0 and orbit[1].out
