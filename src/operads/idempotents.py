"""Convolution algebra of graded endomorphisms and the idempotent zoo.

All idempotents are built as plain LinComb -> LinComb functions and then
materialized degreewise into exact matrices (GradedEndo) over a model's
declared basis.  The versal idempotent is the model's own memo, built by
the PBW recursion of its splitting (see models.Splitting); the product
formula over the omega^[n] and, on the classical model, the Eulerian
idempotent e^(1) are independent constructions of the same map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .linalg import GradedEndo, LinComb, memoized
from .models import BialgebraModel, by_label, left_nested_bracket
from .models import iterated_coproduct  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class ConvolutionContext:
    """Convolution on a model: its product "mul" after its reduced coproduct "delta"."""

    model: BialgebraModel

    @property
    def product(self):
        return self.model.products["mul"]

    @cached_property
    def coproduct(self):
        """The reduced coproduct, cut once per key for every convolution power."""
        return memoized(self.model.coproducts["delta"])


def identity_map(lc):
    return lc


def convolve(ctx, f, g):
    """f * g = mu (f x g) delta, with the reduced coproduct."""
    product = ctx.product
    coproduct = ctx.coproduct

    def conv(lc):
        return LinComb.sum(
            (product(f(LinComb.of(k1)), g(LinComb.of(k2))), c)
            for (k1, k2), c in coproduct(lc).items()
        )
    return memoized(conv)


def _convolution_powers(ctx, f, n):
    """[f, f*f, ..., f*^n], each power f convolved onto the one before."""
    powers = [f]
    for _ in range(n - 1):
        powers.append(convolve(ctx, f, powers[-1]))
    return powers


def model_bases(model, max_degree):
    return {n: list(model.basis(n)) for n in range(1, max_degree + 1)}


def materialize(model, fn, max_degree):
    return GradedEndo.from_function(model_bases(model, max_degree), fn)


_EULERIAN_CACHE = {}


def eulerian_family(ctx, max_degree):
    """The maps e^(1), ..., e^(max_degree) of the convolution-log family."""
    cache_key = (ctx.model.name, ctx.model.alphabet, max_degree)
    if cache_key in _EULERIAN_CACHE:
        return _EULERIAN_CACHE[cache_key]
    powers = _convolution_powers(ctx, identity_map, max_degree)

    def e1(lc):
        return LinComb.sum(
            (p(lc), Fraction((-1) ** (n - 1), n)) for n, p in enumerate(powers, start=1)
        )

    family = [
        _scaled(p, Fraction(1, factorial(i)))
        for i, p in enumerate(_convolution_powers(ctx, memoized(e1), max_degree), start=1)
    ]
    _EULERIAN_CACHE[cache_key] = family
    return family


def _scaled(fn, scalar):
    if scalar == 1:
        return fn

    def scaled(lc):
        return fn(lc).scale(scalar)
    return scaled


def eulerian_map(ctx, i, max_degree):
    """The i-th Eulerian idempotent as a function (classical context)."""
    if i < 1:
        raise ValueError("Eulerian index must be >= 1")
    return eulerian_family(ctx, max_degree)[i - 1]


def eulerian(ctx, i, max_degree):
    return materialize(ctx.model, eulerian_map(ctx, i, max_degree), max_degree)


def dynkin_map(lc):
    """word -> (1/n) [..[[x1,x2],x3]..,xn]."""
    return LinComb.sum((left_nested_bracket(w), Fraction(c, len(w))) for w, c in lc.items())


def dynkin(max_degree, alphabet=2):
    from .models import classical_model
    return materialize(classical_model(alphabet), dynkin_map, max_degree)


def geometric_map(ctx, max_degree):
    """e = sum_{n>=1} (-1)^{n-1} Id*^n; truncates exactly per degree."""
    powers = _convolution_powers(ctx, identity_map, max_degree)

    def geo(lc):
        return LinComb.sum((p(lc), (-1) ** (n - 1)) for n, p in enumerate(powers, start=1))
    return memoized(geo)


def geometric_idempotent(ctx, max_degree):
    return materialize(ctx.model, geometric_map(ctx, max_degree), max_degree)


def omega_map(model, n):
    """omega^[n] = s(n) o Delta^[n]: the arity-n labels of each key, through their operations.

    Read straight off the splitting, with no memo of its own: the factors
    of the product formula e = (Id - omega^[2])(Id - omega^[3]) ..., an
    oracle for the versal memo.
    """
    if n < 2:
        raise ValueError("omega is defined for arity >= 2")
    splitting = model.splitting

    def om(key):
        group = by_label(splitting.decompose(key)).get(n, {})
        return LinComb.sum((splitting.operation(label)(t), 1) for label, t in group.items())
    return lambda lc: lc.map_keys(om)


def omega(model, n, max_degree):
    return materialize(model, omega_map(model, n), max_degree)


def versal_idempotent(model, max_degree=6):
    """The versal idempotent through max_degree, read off the model's versal memo."""
    if model.splitting is None:
        raise ValueError("model %s declares no splitting scheme" % model.name)
    versal = model.splitting.versal
    return materialize(model, lambda lc: lc.map_keys(versal), max_degree)
