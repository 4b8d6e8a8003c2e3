"""Distributive compatibility relations as data, plus an exhaustive checker.

A relation body describes the right-hand side of delta(mu(a, b)) as a sum
of composites: apply coproducts to the two inputs, permute the resulting
tensor slots, then apply products blockwise, two blocks to a term, so the
sum is in A (x) A.  The placeholder symbols "delta" and "mu" resolve to
whatever pair is being checked; any other symbol is looked up in the
model, so one relation can mix several operations.  The checker resolves
each term once per check, keeps one table of images per kernel, and
decides each pair on one dict of delta(mu(a, b)) minus the right side.  A
check made of word-preserving kernels with every term in slot order is
decided on the one-letter keys; one made of kernels that commute with
renaming the letters, on one pair per orbit of the letter permutations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from importlib import resources
from math import lcm

from .errors import UsageError
from .linalg import LinComb, _coef
from .models import _key_items, _standard, _word_stem, iterated_coproduct, reduction
from .structure import _one_letter_basis


@dataclass(frozen=True)
class Term:
    coeff: int | Fraction
    in_coops: tuple   # one symbol per input: "id", "delta", or a model symbol
    perm: tuple       # output slot j reads input slot perm[j]
    out_ops: tuple    # "id" (1 slot), "mu" or a model symbol (2 slots)


@dataclass(frozen=True)
class CompatExpr:
    terms: tuple

    @cached_property
    def numerators(self):
        """(den, an int per term): the terms' coefficients over the lcm of their denominators."""
        den = lcm(*(t.coeff.denominator for t in self.terms))
        return den, tuple(t.coeff.numerator * (den // t.coeff.denominator) for t in self.terms)


def expr_from_dict(d):
    """A relation body: two inputs, and every term's right side in A (x) A."""
    if d.get("arity", 2) != 2:
        raise ValueError("ill-typed relation term: arity %r, not 2" % (d["arity"],))
    terms = tuple(Term(coeff=_coef(t["coeff"]), in_coops=tuple(t["inCoops"]),
                       perm=tuple(t["perm"]), out_ops=tuple(t["outOps"])) for t in d["terms"])
    for t in terms:
        produced = sum(1 if s == "id" else 2 for s in t.in_coops)
        consumed = sum(1 if s == "id" else 2 for s in t.out_ops)
        if (len(t.in_coops) != 2 or len(t.out_ops) != 2 or produced != consumed
                or sorted(t.perm) != list(range(produced))):
            raise ValueError("ill-typed relation term: %r" % (t,))
    return CompatExpr(terms)


def _library_text():
    return resources.files("operads").joinpath("data/relations.json").read_text()


def load_library():
    """The shipped relation library, keyed by name.

    An entry is a relation body, or a string naming the body it aliases.
    Two equal bodies and an alias that names no body are errors.
    """
    raw = json.loads(_library_text())
    bodies = {
        name: expr_from_dict(entry) for name, entry in raw.items() if not isinstance(entry, str)
    }
    first = {}
    for name, expr in bodies.items():
        other = first.setdefault(expr, name)
        if other != name:
            raise ValueError("relations %r and %r have the same body; make one an alias"
                             % (other, name))
    library = {}
    for name, entry in raw.items():
        if isinstance(entry, str) and entry not in bodies:
            raise ValueError("alias %r names %r, which is not a relation body" % (name, entry))
        library[name] = bodies[entry if isinstance(entry, str) else name]
    return library


@cache
def _library():
    return load_library()


def get_relation(name):
    library = _library()
    if name not in library:
        raise KeyError("unknown relation %r (choose from %s)" % (name, sorted(library)))
    return library[name]


def relation_names():
    return sorted(_library())


def _require_symbols(model, name, expr):
    """Refuse a relation whose terms name a (co)product the model lacks."""
    for term in expr.terms:
        for kind, syms, own, table in (("coproduct", term.in_coops, "delta", model.key_coproducts),
                                       ("product", term.out_ops, "mu", model.key_products)):
            for sym in syms:
                if sym not in ("id", own) and sym not in table:
                    raise UsageError("relation %s needs %s %r, which model %s lacks"
                                     % (name, kind, sym, model.name))


class _Images(dict):
    """One kernel's images, each computed on its first read: a key -> the items
    of fn(key) for a coproduct, a key pair -> fn(k1, k2) for a product, whose
    fn is _key_items of its kernel: a one-key product builds no LinComb."""
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, keys):
        items = self[keys] = tuple(self.fn(*keys) if type(keys) is tuple else self.fn(keys).items())
        return items


def _plans(images, expr, model, mu, delta):
    """Per term of expr: (numerator, the two inputs' coproduct tables, the two
    output blocks), with None for "id".  A block is (product table, i, j) on
    slots i and j of the inputs' tensor, or (None, i, None) on slot i.

    `images` maps each kernel to its one table, and None to the last plans
    resolved on it, so every call for the same (expr, model, mu, delta)
    reads them without resolving a symbol or hashing expr.
    """
    last = images.get(None)
    if last and last[0] is expr and last[1] is model and last[2] == mu and last[3] == delta:
        return last[4]

    def table(kind, sym, read=lambda fn: fn):
        fn = model.lookup(kind, sym)
        return images.setdefault(fn, _Images(read(fn)))
    plans = []
    for term, num in zip(expr.terms, expr.numerators[1]):
        plan, pos = [num], 0
        for sym in term.in_coops:
            plan.append(None if sym == "id" else table(
                "key_coproducts", delta if sym == "delta" else sym))
        for sym in term.out_ops:
            op = None if sym == "id" else table(
                "key_products", mu if sym == "mu" else sym, _key_items)
            plan.append((op, term.perm[pos], None if op is None else term.perm[pos + 1]))
            pos += 1 if op is None else 2
        plans.append(plan)
    images[None] = (expr, model, mu, delta, plans)
    return plans


def _pair(plans, a, b, scale, out):
    """Add scale * RHS(a, b), for basis keys a and b, into out: (u, v) -> numerator."""
    get, ida, idb = out.get, (((a,), 1),), (((b,), 1),)
    for num, ta, tb, (t1, i1, j1), (t2, i2, j2) in plans:
        num *= scale
        for sa, x in ida if ta is None else ta[a]:
            for sb, y in idb if tb is None else tb[b]:
                flat, c = sa + sb, num * x * y
                first = ((flat[i1], 1),) if t1 is None else t1[flat[i1], flat[j1]]
                second = ((flat[i2], 1),) if t2 is None else t2[flat[i2], flat[j2]]
                for u, p in first:
                    p *= c
                    for v, q in second:
                        key = u, v
                        q = get(key, 0) + p * q
                        if q:
                            out[key] = q
                        else:
                            out.pop(key, None)


def eval_compat(expr, model, args, mu="mul", delta="delta", *, images=None, into=None):
    """Evaluate the relation right-hand side on a pair of LinCombs (a, b).

    The sum is taken on key pairs, into one dict of numerators (ints, or
    Fractions off non-integral images) over den, the lcm of the terms'
    denominators times a.den * b.den.  `images` maps each kernel to its
    table of images, computed once per table, and holds the terms' plans
    (see _plans): check_relation passes one to every pair, a direct call
    gets its own.  Given a dict `into`, the numerators are added into it
    and None is returned; else the sum is returned as a LinComb.
    """
    if len(args) != 2:
        raise ValueError("expected 2 arguments, got %d" % len(args))
    plans = _plans({} if images is None else images, expr, model, mu, delta)
    out = {} if into is None else into
    la, lb = args
    for a, x in la.terms.items():
        for b, y in lb.terms.items():
            _pair(plans, a, b, x * y, out)
    if into is not None:
        return None
    return LinComb.sum(((LinComb(out), 1),), expr.numerators[0] * la.den * lb.den)


@dataclass
class RelationReport:
    holds: bool
    checked_pairs: int
    first_failure: tuple | None = None  # (degrees, pair, lhs, rhs)

    def to_json_dict(self):
        d = {"holds": self.holds, "checkedPairs": self.checked_pairs}
        if self.first_failure is not None:
            degs, pair, lhs, rhs = self.first_failure
            d["firstFailure"] = {
                "degrees": list(degs),
                "pair": [repr(p) for p in pair],
                "lhs": repr(lhs),
                "rhs": repr(rhs),
            }
        return d


def _as_lincomb(entry):
    return entry if isinstance(entry, LinComb) else LinComb.of(entry)


def check_nap_colaw(model, delta_sym, max_degree):
    """(delta x Id) delta = (Id x tau)(delta x Id) delta on every basis key, max_degree >= 1."""
    twice = iterated_coproduct(model.lookup("key_coproducts", delta_sym), 2)
    if max_degree < 1:
        raise UsageError("nap-colaw needs max degree >= 1")
    checked = 0
    for n in range(1, max_degree + 1):
        for key in model.basis(n):
            lc = _as_lincomb(key)
            lhs = twice(lc)
            rhs = LinComb(((k[0], k[2], k[1]), c) for k, c in lhs.items())
            checked += 1
            if lhs != rhs:
                return RelationReport(
                    holds=False,
                    checked_pairs=checked,
                    first_failure=((n,), (lc,), lhs, rhs),
                )
    return RelationReport(holds=True, checked_pairs=checked)


def check_relation(model, delta_sym, mu_sym, relation_name, max_degree):
    """Compare delta(mu(a,b)) with the relation on every basis pair.

    Exhaustive over pairs with deg a + deg b <= max_degree; exact. A
    failing pair is reported, not raised.  For every pair, -den *
    delta(mu(a, b)), summed on keys off the coproduct's image table, which
    the right side reads too, and den * RHS (eval_compat's `into`) go into
    one dict, which holds Fractions where an image is not integral: the
    pair holds when it is all zero.  Only a failing pair builds LinCombs,
    for its witness.  The terms are resolved once, before the first pair.

    Where the model declares every kernel the relation resolves
    word-preserving and every term keeps slot order, a pair of keys fails
    exactly when the pair of their one-letter twins does, so the loop runs
    on the one-letter keys alone, listed without listing the basis.  Each
    of them stands for k^deg keys of the alphabet-k basis, which lists
    trees first and words second, so checked_pairs counts the pairs the
    direct loop would reach, and the first failure, on one-letter keys, is
    the direct one.

    Where every kernel commutes with renaming the letters instead (see
    models.reduction; a word-preserving check with a term out of slot order
    too), a pair fails exactly when every pair of its orbit under the
    letter permutations does, so only the pairs whose word a.b is standard,
    its letters first appearing in LETTERS order, are evaluated.  The basis
    lists trees first and words in lexicographic order, and the least
    relabelling of a word is its first-occurrence standardization, so the
    standard pair comes first in its orbit in loop order: the first failure
    and checked_pairs, the loop position, are the direct ones.  Refused
    before the first pair where the model lacks a (co)product the check
    names, or where max_degree < 2 leaves no pair.
    """
    expr = get_relation(relation_name)
    key_coproduct = model.lookup("key_coproducts", delta_sym)
    key_product = model.lookup("key_products", mu_sym)
    _require_symbols(model, relation_name, expr)
    if max_degree < 2:
        raise UsageError("a relation needs max degree >= 2")
    product = _key_items(key_product)  # a one-key product builds no LinComb per pair
    images, neg_den = {}, -expr.numerators[0]  # the tables live and die with this call
    _plans(images, expr, model, mu_sym, delta_sym)  # a table for each kernel the terms name
    coproduct = images.setdefault(key_coproduct, _Images(key_coproduct))
    kernels = [key_product] + [fn for fn in images if fn is not None]
    mode = reduction(model, kernels)
    lifted = mode == "lift" and all(t.perm == tuple(range(len(t.perm))) for t in expr.terms)
    orbit = mode is not None and not lifted  # every word kernel renames letters too
    scale = model.alphabet if lifted else 1  # a key looped over in degree n is scale^n keys
    keys = {n: _one_letter_basis(model, n) if lifted else model.basis(n)
            for n in range(1, max_degree)}
    basis = {n: list(map(_as_lincomb, ks)) for n, ks in keys.items()}
    words = {n: [_word_stem(k)[1] for k in ks] for n, ks in keys.items()} if orbit else {}
    enough = model.alphabet - 1  # a standard a on this many letters makes every a.b standard
    checked = 0
    for da in range(1, max_degree):
        for db in range(1, max_degree - da + 1):
            wa, wb = scale ** da, scale ** db
            for ia, la in enumerate(basis[da]):
                if orbit:
                    word = words[da][ia]
                    if not _standard(word):
                        continue
                    every_b = len(set(word)) >= enough
                for ib, lb in enumerate(basis[db]):
                    if orbit and not every_b and not _standard(word + words[db][ib]):
                        continue
                    diff = {}
                    for a, x in la.terms.items():
                        for b, y in lb.terms.items():
                            for k, c in product(a, b):
                                c *= neg_den * x * y
                                for t, z in coproduct[k]:
                                    diff[t] = diff.get(t, 0) + c * z
                    eval_compat(expr, model, (la, lb), mu=mu_sym, delta=delta_sym,
                                images=images, into=diff)
                    if any(diff.values()):
                        lhs = model.coproducts[delta_sym](model.products[mu_sym](la, lb))
                        rhs = eval_compat(expr, model, (la, lb), mu=mu_sym, delta=delta_sym,
                                          images=images)
                        return RelationReport(
                            holds=False,
                            checked_pairs=checked + (ia * wa * len(basis[db]) + ib) * wb + 1,
                            first_failure=((da, db), (la, lb), lhs, rhs),
                        )
            checked += len(basis[da]) * wa * len(basis[db]) * wb
    return RelationReport(holds=True, checked_pairs=checked)
