"""Truncated exact power series and the generating-series identities.

Series are stored in the exponential convention, coefficient of t^n equal
to dim(n)/n!.  For the nonsymmetric operads modelled here dim(n) is n!
times the graded dimension, so the coefficients coincide with the
nonsymmetric dimension counts and no second bookkeeping is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import UsageError


class TruncatedSeries:
    """Power series with zero constant term, exact to a fixed order.

    It has what the identities use: scaling, products, t -> -t and composition.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if order < 1:
            raise UsageError("order must be >= 1")
        cs = [Fraction(c) for c in coeffs][:order]
        cs += [Fraction(0)] * (order - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def t(cls, order):
        return cls(order, [1])

    def coeff(self, n):
        """Coefficient of t^n, n >= 1."""
        if not 1 <= n <= self.order:
            raise IndexError("coefficient index out of range")
        return self.coeffs[n - 1]

    def dims(self):
        """n! times the coefficients: the symmetric dimension counts."""
        return [self.coeffs[n - 1] * factorial(n) for n in range(1, self.order + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def scale(self, c):
        c = Fraction(c)
        return TruncatedSeries(self.order, [c * a for a in self.coeffs])

    def __mul__(self, other):
        self._match(other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs, start=1):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, start=1):
                if i + j > n:
                    break
                out[i + j - 1] += a * b
        return TruncatedSeries(n, out)

    def alt(self):
        """f(-t), negated: the substitution t -> -t with an outer minus."""
        return TruncatedSeries(
            self.order, [-c if n % 2 == 0 else c for n, c in enumerate(self.coeffs, start=1)]
        )

    def compose(self, inner):
        """self(inner(t)); inner has zero constant term by construction."""
        self._match(inner)
        return _apply_tail(lambda k: self.coeffs[k - 1], inner)

    def _match(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")


def _apply_tail(tail_coeff, u):
    """sum_{k>=1} tail_coeff(k) u^k, truncated at u.order, summed in place."""
    n = u.order
    out = [Fraction(0)] * n
    power = u
    for k in range(1, n + 1):
        c = tail_coeff(k)
        if c:
            for i, p in enumerate(power.coeffs):
                out[i] += c * p
        if k < n:
            power = power * u
    return TruncatedSeries(n, out)


def sqrt1m(u):
    """sqrt(1 - u) - 1 as a series with zero constant term."""
    def coeff(k):
        # binomial(1/2, k) * (-1)^k
        num = Fraction(1)
        for i in range(k):
            num *= Fraction(1, 2) - i
        return num / factorial(k) * (-1) ** k
    return _apply_tail(coeff, u)


def log1p(u):
    """log(1 + u)."""
    return _apply_tail(lambda k: Fraction((-1) ** (k + 1), k), u)


def expm1(u):
    """exp(u) - 1."""
    return _apply_tail(lambda k: Fraction(1, factorial(k)), u)


def catalan_series(order):
    """c(t) = (1 - sqrt(1 - 4t)) / 2, coefficients 1, 1, 2, 5, 14, ..."""
    t = TruncatedSeries.t(order)
    return sqrt1m(t.scale(4)).scale(Fraction(-1, 2))


# name -> builder of the series from t; the lambdas look the helpers up at
# call time, so a wrapper bound to the module attribute sees each call
_SERIES = {
    "As": lambda t: TruncatedSeries(t.order, [1] * t.order),
    "Com": lambda t: expm1(t),
    "Lie": lambda t: TruncatedSeries(t.order, [Fraction(1, n) for n in range(1, t.order + 1)]),
    "Mag": lambda t: catalan_series(t.order),
    "Dup": lambda t: _apply_tail(lambda k: Fraction(1), catalan_series(t.order)),  # c / (1 - c)
    "Dup!": lambda t: TruncatedSeries(t.order, list(range(1, t.order + 1))),
    "Nil": lambda t: TruncatedSeries(t.order, [1, 1]),
    "Sab": lambda t: log1p(catalan_series(t.order)),
    "Vect": lambda t: t,
}


def gen_series(name, order):
    """Generating series of the operad `name`, a key of `_SERIES`, exact to `order`."""
    t = TruncatedSeries.t(order)
    if name not in _SERIES:
        raise KeyError("unknown series %r (choose from %s)" % (name, ", ".join(_SERIES)))
    return _SERIES[name](t)


def series_names():
    return list(_SERIES)


def check_triple_identity(c, a, p, order):
    """f^A(t) = f^C(f^P(t)) coefficientwise to the given order."""
    return gen_series(a, order) == gen_series(c, order).compose(gen_series(p, order))


def check_koszul_dual(p, pdual, order):
    """f^{P!}(-f^P(-t)) = t, exact to the given order."""
    return gen_series(pdual, order).compose(gen_series(p, order).alt()) == TruncatedSeries.t(order)
