"""Distributive compatibility relations as data, plus an exhaustive checker.

A relation describes the right-hand side of delta(mu(a, b)) as a sum of
composites: apply coproducts to the inputs, permute the resulting tensor
slots, then apply products blockwise.  The placeholder symbols "delta"
and "mu" resolve to whatever pair is being checked; any other symbol is
looked up in the model, so one relation can mix several operations.  The
checker resolves each term's kernels once and computes each (co)product
image of a basis key once per check, and decides each pair on one dict of
delta(mu(a, b)) minus the right side.  A check made of word-preserving
kernels with every term in slot order is decided on the one-letter keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from importlib import resources
from math import lcm

from .linalg import LinComb, _coef, as_slots
from .models import iterated_coproduct, lifts
from .structure import _one_letter_basis


@dataclass(frozen=True)
class Term:
    coeff: int | Fraction
    in_coops: tuple   # one symbol per input: "id", "delta", or a model symbol
    perm: tuple       # output slot j reads input slot perm[j]
    out_ops: tuple    # "id" (1 slot), "mu" or a model symbol (2 slots)


@dataclass(frozen=True)
class CompatExpr:
    arity: int
    terms: tuple

    @cached_property
    def numerators(self):
        """(den, an int per term): the terms' coefficients over the lcm of their denominators."""
        den = lcm(*(t.coeff.denominator for t in self.terms))
        return den, tuple(t.coeff.numerator * (den // t.coeff.denominator) for t in self.terms)


def _op_arity(sym):
    return 1 if sym == "id" else 2


def term_from_dict(d):
    return Term(
        coeff=_coef(d["coeff"]),
        in_coops=tuple(d["inCoops"]),
        perm=tuple(d["perm"]),
        out_ops=tuple(d["outOps"]),
    )


def expr_from_dict(d):
    terms = tuple(term_from_dict(t) for t in d["terms"])
    expr = CompatExpr(arity=d.get("arity", 2), terms=terms)
    for t in terms:
        produced = sum(_op_arity(s) for s in t.in_coops)
        consumed = sum(_op_arity(s) for s in t.out_ops)
        if produced != consumed or sorted(t.perm) != list(range(produced)):
            raise ValueError("ill-typed relation term: %r" % (t,))
        if len(t.in_coops) != expr.arity:
            raise ValueError("term arity mismatch: %r" % (t,))
    return expr


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


def _resolve_coop(model, sym, delta_sym):
    if sym == "delta":
        sym = delta_sym
    return model.key_coproducts[sym]


def _resolve_op(model, sym, mu_sym):
    if sym == "mu":
        sym = mu_sym
    return model.key_products[sym]


def _image(images, fn, keys):
    """fn(*keys) as (slot tuple, int or Fraction coefficient) items, once per `images` table."""
    items = images.get((fn, keys))
    if items is None:
        items = images[fn, keys] = tuple((as_slots(k), c) for k, c in fn(*keys).items())
    return items


def _plans(images, expr, model, mu, delta):
    """Per term of expr: its numerator, the coproduct kernel of each input, and
    per output block its product kernel and input slots (None for "id").

    Resolved once per `images` table, under (expr, mu, delta).
    """
    plans = images.get((expr, mu, delta))
    if plans is None:
        plans = images[expr, mu, delta] = []
        for term, num in zip(expr.terms, expr.numerators[1]):
            coops = tuple(None if sym == "id" else _resolve_coop(model, sym, delta)
                          for sym in term.in_coops)
            blocks, pos = [], 0
            for sym in term.out_ops:
                op = None if sym == "id" else _resolve_op(model, sym, mu)
                blocks.append((op, term.perm[pos], op and term.perm[pos + 1]))
                pos += 1 if op is None else 2
            plans.append((num, coops, blocks))
    return plans


def eval_compat(expr, model, args, mu="mul", delta="delta", *, images=None, into=None):
    """Evaluate the relation right-hand side on a tuple of LinCombs.

    The sum is taken on keys, into one dict of numerators (ints, or
    Fractions off non-integral images) over den, the lcm of the terms'
    denominators times the arguments'.  `images` maps (kernel, input keys)
    to the image's (slot tuple, coefficient) items, computed once per
    table, and (expr, mu, delta) to the terms' plans: check_relation passes
    one to every pair, a direct call gets its own.  Given a dict `into`,
    the numerators are added into it and None is returned; else the sum is
    returned as a LinComb.
    """
    if len(args) != expr.arity:
        raise ValueError("expected %d arguments, got %d" % (expr.arity, len(args)))
    images = {} if images is None else images
    get_image = images.get
    out = {} if into is None else into
    get = out.get
    for num, coops, blocks in _plans(images, expr, model, mu, delta):
        inter = [((), num)]  # the inputs' tensor: (slot tuple, numerator)
        for coop, arg in zip(coops, args):
            inter = [(s + t, c * x * y) for k, x in arg.terms.items()
                     for t, y in (_image(images, coop, (k,)) if coop else ((as_slots(k), 1),))
                     for s, c in inter]
        single = len(blocks) == 1  # one block: its keys stay as they are, not slot tuples
        for flat, coeff in inter:
            pieces = [((), coeff)]
            for op, i, j in blocks:
                if op is None:
                    pieces = [(s + (flat[i],), c) for s, c in pieces]
                    continue
                block = get_image((op, (flat[i], flat[j])))
                if block is None:
                    block = _image(images, op, (flat[i], flat[j]))
                pieces = [(s + t, c * y) for t, y in block for s, c in pieces]
            for key, c in pieces:
                if single:
                    key = key[0]
                x = get(key, 0) + c
                if x:
                    out[key] = x
                else:
                    out.pop(key, None)
    if into is not None:
        return None
    den = expr.numerators[0]
    for arg in args:
        den *= arg.den
    return LinComb.sum(((LinComb(out), 1),), den)


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
    """(delta x Id) delta = (Id x tau)(delta x Id) delta on every basis key."""
    twice = iterated_coproduct(model.key_coproducts[delta_sym], 2)
    checked = 0
    for n in range(1, max_degree + 1):
        for key in model.basis(n):
            lc = _as_lincomb(key)
            lhs = twice(lc)
            rhs = LinComb(
                ((k[0], k[2], k[1]), c) for k, c in lhs.items()
            )
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
    delta(mu(a, b)), summed on keys off the images table the right side
    shares, and den * RHS (eval_compat's `into`) go into one dict, which
    holds Fractions where an image is not integral: the pair holds when it
    is all zero.  Only a failing pair builds LinCombs, for its witness.

    Where the model declares every kernel the relation resolves
    word-preserving and every term keeps slot order, a pair of keys fails
    exactly when the pair of their one-letter twins does, so the loop runs
    on the one-letter keys alone, listed without listing the basis.  Each
    of them stands for k^deg keys of the alphabet-k basis, which lists
    trees first and words second, so checked_pairs counts the pairs the
    direct loop would reach, and the first failure, on one-letter keys, is
    the direct one.
    """
    expr = get_relation(relation_name)
    key_coproduct, key_product = model.key_coproducts[delta_sym], model.key_products[mu_sym]
    images, neg_den = {}, -expr.numerators[0]  # the table lives and dies with this call
    kernels = [key_coproduct, key_product] + [
        fn for _, coops, blocks in _plans(images, expr, model, mu_sym, delta_sym)
        for fn in (*coops, *(op for op, _, _ in blocks)) if fn]
    lifted = lifts(model, kernels) and all(t.perm == tuple(range(len(t.perm))) for t in expr.terms)
    scale = model.alphabet if lifted else 1  # a key looped over in degree n is scale^n keys
    basis = {n: list(map(_as_lincomb, _one_letter_basis(model, n) if lifted else model.basis(n)))
             for n in range(1, max_degree)}
    checked = 0
    for da in range(1, max_degree):
        for db in range(1, max_degree - da + 1):
            wa, wb = scale ** da, scale ** db
            for ia, la in enumerate(basis[da]):
                for ib, lb in enumerate(basis[db]):
                    diff = {}
                    for a, x in la.terms.items():
                        for b, y in lb.terms.items():
                            for k, c in key_product(a, b).items():
                                c *= neg_den * x * y
                                for t, z in _image(images, key_coproduct, (k,)):
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
