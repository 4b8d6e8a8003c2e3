"""Convolution algebra of graded endomorphisms and the idempotent zoo.

Every idempotent is a map from a basis key to its image LinComb, which
`materialize` keeps per key of a model's declared basis, degree by degree
(GradedEndo); only materializing takes a degree bound.  The versal
idempotent is the model's own memo, built by the PBW recursion of its
splitting (see models.Splitting); on an associative splitting that memo
reads the reduced coproduct of each key once and never the tower.  The
product formula over the omega^[n] and, on the classical model, the
Eulerian idempotent e^(1) = log*(Id) are independent constructions of the
same map.  Convolution powers are kept per key by linalg._power_memo:
powers(key) = [f(key), f*f(key), ...], where f^{*n}(key) is the sum of
c mul(f(k1), f^{*(n-1)}(k2)) over the reduced coproduct (k1, k2, c) of the
key.  The reduced coproduct lowers degree and vanishes on generators, so a
key of degree d has at most d powers and no list needs a degree bound.

On the classical model the Eulerian family needs no powers of its own.
There the convolution is associative, so e^(1) = log(1 + J) for
J = Id - u eps is a power series in J and so is each e^(i) = (e^(1))^{*i} / i!:
by the Stirling generating function (log(1+x))^i / i! = sum_{n>=i}
s(n,i) x^n / n!, with s the signed Stirling numbers of the first kind,
e^(i)(key) = sum_n s(n,i)/n! J^{*n}(key), read off the identity powers the
geometric idempotent keeps too.  Without associativity (mag) a power of a
series in J is not the series of the composite, so every other model keeps
the e^(1)-power recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .errors import UsageError
from .linalg import GradedEndo, LinComb, _Memo, _power_memo
from .models import (BialgebraModel, _lifted, by_label, classical_model, left_nested_bracket, lifts,
                     require_keys, require_splitting)
from .models import iterated_coproduct  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class ConvolutionContext:
    """Convolution on a model: its product "mul" after its reduced coproduct "delta"."""

    model: BialgebraModel

    def __post_init__(self):
        if "mul" not in self.model.products:
            raise UsageError("model %s has no product 'mul'" % self.model.name)
        if "delta" not in self.model.coproducts:
            raise UsageError("model %s has no coproduct 'delta'" % self.model.name)

    @property
    def product(self):
        return self.model.products["mul"]

    @cached_property
    def coproduct(self):
        """The reduced coproduct per key: the splitting's own memo where its tower cuts with delta."""
        delta, splitting = self.model.key_coproducts["delta"], self.model.splitting
        if splitting is not None and splitting.cuts and splitting.cuts[0] is delta:
            return splitting.cuts[1]
        return _Memo(lambda key, _: delta(key))

    @cached_property
    def identity_powers(self):
        """key -> [Id(key), Id*Id(key), ...], shared by the geometric and Eulerian maps."""
        return _power_memo(lambda key, _: LinComb.of(key), self.coproduct, self.product)


def model_bases(model, max_degree):
    return {n: list(model.basis(n)) for n in range(1, max_degree + 1)}


def materialize(model, fn, max_degree):
    """The GradedEndo through max_degree of fn, a map from a basis key to its image LinComb."""
    bases = model_bases(model, max_degree)
    require_keys(model, bases.get(1))
    return GradedEndo.from_function(bases, fn)


# (coproduct, product, Eulerian family memo) by (name, alphabet): bench/tracer.py counts
# them, and contexts with the same coproduct and product objects reuse the memo
_EULERIAN_CACHE = {}


@cache
def _stirling_weights(m):
    """[[i! s(n,i)/n! for n = i..m] for i = 1..m]: s the signed Stirling numbers, first kind."""
    rows, s = [], [1]  # s[i] = s(n, i), from s(n+1, i) = s(n, i-1) - n s(n, i)
    for n in range(m):
        s = [0] + [a - n * b for a, b in zip(s, s[1:] + [0])]
        rows.append(s)
    return [[Fraction(factorial(i) * rows[n - 1][i], factorial(n)) for n in range(i, m + 1)]
            for i in range(1, m + 1)]


def eulerian_family(ctx):
    """key -> [e(key), e*e(key), ...] for e = e^(1) = sum_n (-1)^{n-1}/n Id*^n.

    The i-th Eulerian idempotent e^(i) is the i-th power over i!.  On the
    classical model, whose convolution is associative, the i-th power is
    i! sum_{n=i}^{m} s(n,i)/n! Id*^n (key), m the number of identity powers
    of the key, so the family calls the product only where the identity
    powers do; any other model convolves e^(1) into each power.
    """
    cache_key, coproduct, product = (ctx.model.name, ctx.model.alphabet), ctx.coproduct, ctx.product
    entry = _EULERIAN_CACHE.get(cache_key)
    if entry is None or entry[0] is not coproduct or entry[1] is not product:
        ids = ctx.identity_powers
        if ctx.model.classical:
            def step(key, _):
                powers = ids(key)
                return [LinComb.sum(zip(powers[i:], weights))
                        for i, weights in enumerate(_stirling_weights(len(powers)))]
            family = _Memo(step)
        else:
            family = _power_memo(lambda key, _: LinComb.sum(
                (p, Fraction((-1) ** n, n + 1)) for n, p in enumerate(ids(key))),
                coproduct, product)
        entry = _EULERIAN_CACHE[cache_key] = coproduct, product, family
    return entry[2]


def eulerian(ctx, i, max_degree):
    """The i-th Eulerian idempotent: the i-th e^(1)-power over i!, 0 below degree i.

    On the classical model this is sum_{n>=i} s(n,i)/n! Id*^n, read off the
    identity powers (see eulerian_family); other models keep the recursion.
    """
    if i < 1:
        raise UsageError("eulerian index must be >= 1")
    powers, scale = eulerian_family(ctx), factorial(i)
    return materialize(ctx.model, lambda key: LinComb.sum(
        ((p, 1) for p in powers(key)[i - 1:i]), scale), max_degree)


def dynkin(max_degree, alphabet=2):
    """The Dynkin map word -> (1/n) [..[[x1,x2],x3]..,xn] on the classical model."""
    return materialize(classical_model(alphabet),
                       lambda w: left_nested_bracket(w).scale(Fraction(1, len(w))), max_degree)


def geometric_idempotent(ctx, max_degree):
    """e = sum_{n>=1} (-1)^{n-1} Id*^n, read per key off the context's Id powers."""
    powers = ctx.identity_powers
    return materialize(ctx.model, lambda key: LinComb.sum(
        (p, (-1) ** n) for n, p in enumerate(powers(key))), max_degree)


def omega(model, n, max_degree):
    """omega^[n] = s(n) o Delta^[n]: the arity-n labels of each key, through their operations.

    Read straight off the splitting, with no memo of its own: the factors
    of the product formula e = (Id - omega^[2])(Id - omega^[3]) ..., an
    oracle for the versal memo.
    """
    if n < 2:
        raise UsageError("omega is defined for arity >= 2")
    splitting = require_splitting(model)

    def om(key):
        group = by_label(splitting.decompose(key)).get(n, {})
        return LinComb.sum((splitting.operation(label)(t), 1) for label, t in group.items())
    return materialize(model, om, max_degree)


def versal_idempotent(model, max_degree=6):
    """The versal idempotent through max_degree, read off the model's versal memo.

    Where the model declares the splitting's kernels word-preserving (on more
    than one letter), the image of t:w is the memo's image of t:x...x with w
    put back, so the memo holds one-letter keys only.
    """
    splitting = require_splitting(model)
    versal = _lifted(splitting.versal) if lifts(model, splitting.kernels) else splitting.versal
    return materialize(model, versal, max_degree)
