"""Truncated exact power series and the generating-series identities.

Series are stored in the exponential convention, coefficient of t^n equal
to dim(n)/n!.  For the nonsymmetric operads modelled here dim(n) is n!
times the graded dimension, so the coefficients coincide with the
nonsymmetric dimension counts and no second bookkeeping is needed.

A series is stored as LinComb is: int numerators `nums` (t^n at index
n - 1) over one positive `den` in lowest terms, a unique form, so ==
compares fields.  Arithmetic is on ints, with one gcd per result; a
Fraction is built only when `coeffs`, `coeff` or `dims` is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .errors import UsageError


class TruncatedSeries:
    """Power series with zero constant term, exact to a fixed order.

    It has what the identities use: scaling, products, t -> -t and composition.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coeffs=()):
        if order < 1:
            raise UsageError("order must be >= 1")
        cs = [Fraction(c) for c in coeffs][:order]
        den = lcm(*(c.denominator for c in cs))  # the reduced numerators are coprime to it
        self.order, self.den = order, den
        self.nums = [c.numerator * (den // c.denominator) for c in cs] + [0] * (order - len(cs))

    @classmethod
    def _reduced(cls, order, nums, den):
        """The series nums / den, for den > 0, with the gcd divided out once."""
        res, g = cls.__new__(cls), gcd(den, *nums)
        res.order, res.nums, res.den = order, [a // g for a in nums] if g > 1 else nums, den // g
        return res

    @classmethod
    def t(cls, order):
        return cls(order, [1])

    @property
    def coeffs(self):
        return tuple(Fraction(a, self.den) for a in self.nums)

    def coeff(self, n):
        """Coefficient of t^n, n >= 1."""
        if not 1 <= n <= self.order:
            raise IndexError("coefficient index out of range")
        return Fraction(self.nums[n - 1], self.den)

    def dims(self):
        """n! times the coefficients: the symmetric dimension counts."""
        return [Fraction(a * factorial(n), self.den) for n, a in enumerate(self.nums, start=1)]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and (
            (self.order, self.den, self.nums) == (other.order, other.den, other.nums))

    def scale(self, c):
        num, den = Fraction(c).as_integer_ratio()
        return self._reduced(self.order, [num * a for a in self.nums], den * self.den)

    def __mul__(self, other):
        self._match(other)
        n, out = self.order, [0] * self.order
        for i, a in enumerate(self.nums[:n - 1]):
            if a:
                for j, b in enumerate(other.nums[:n - 1 - i], start=i + 1):
                    out[j] += a * b
        return self._reduced(n, out, self.den * other.den)

    def alt(self):
        """f(-t), negated: the substitution t -> -t with an outer minus."""
        return self._reduced(self.order, [-a if i % 2 else a for i, a in enumerate(self.nums)],
                             self.den)

    def compose(self, inner):
        """self(inner(t)); inner has zero constant term by construction."""
        self._match(inner)
        return _apply_tail(lambda k: (self.nums[k - 1], self.den), inner)

    def _match(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")


def _apply_tail(tail_coeff, u):
    """sum_{k>=1} tail_coeff(k) u^k to u.order, tail_coeff(k) a pair (numerator, den > 0),
    summed as LinComb.sum sums: over a common denominator, raised to an lcm as needed.
    """
    n = u.order
    out, common, power = [0] * n, 1, u
    for k in range(1, n + 1):
        num, den = tail_coeff(k)
        if num:
            den *= power.den
            if common % den:
                m = lcm(common, den) // common
                common *= m
                out = [a * m for a in out]
            num *= common // den
            for i, p in enumerate(power.nums):
                out[i] += num * p
        if k < n:
            power = power * u
    return TruncatedSeries._reduced(n, out, common)


def sqrt1m(u):
    """sqrt(1 - u) - 1 as a series with zero constant term."""
    # binomial(1/2, k) * (-1)^k = -binomial(2k, k) / ((2k - 1) 4^k)
    return _apply_tail(lambda k: (-comb(2 * k, k), (2 * k - 1) * 4 ** k), u)


def log1p(u):
    """log(1 + u)."""
    return _apply_tail(lambda k: ((-1) ** (k + 1), k), u)


def expm1(u):
    """exp(u) - 1."""
    return _apply_tail(lambda k: (1, factorial(k)), u)


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
    "Dup": lambda t: _apply_tail(lambda k: (1, 1), catalan_series(t.order)),  # c / (1 - c)
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
