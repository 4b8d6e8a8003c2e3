"""Truncated generating series: arithmetic, closed forms, identities."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, strategies as st

from operads.series import (
    TruncatedSeries,
    catalan_series,
    check_koszul_dual,
    check_triple_identity,
    expm1,
    gen_series,
    log1p,
    series_names,
    sqrt1m,
)
from operads.trees import catalan


def series(coeffs, order=None):
    order = order or len(coeffs)
    return TruncatedSeries(order, [Fraction(c) for c in coeffs])


def plus(*terms):
    """The coefficientwise sum of series of one order."""
    return TruncatedSeries(terms[0].order, [sum(cs) for cs in zip(*(s.coeffs for s in terms))])


small = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=4,
    max_size=4,
)


@given(small, small, small)
def test_addition_and_multiplication_are_ring_like(a, b, c):
    A, B, C = series(a), series(b), series(c)
    assert plus(A, B) == plus(B, A)
    assert plus(plus(A, B), C) == plus(A, plus(B, C))
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert A * plus(B, C) == plus(A * B, A * C)


@given(small, small, small)
def test_composition_is_associative(a, b, c):
    A, B, C = series(a), series(b), series(c)
    assert A.compose(B).compose(C) == A.compose(B.compose(C))


@given(small)
def test_alt_is_an_involution(a):
    A = series(a)
    assert A.alt().alt() == A


def test_identity_series_neutral_for_composition():
    t = TruncatedSeries.t(8)
    s = gen_series("Dup", 8)
    assert s.compose(t) == s
    assert t.compose(s) == s


def test_sqrt1m_squares_back():
    u = TruncatedSeries.t(10)
    a = sqrt1m(u)
    # (sqrt(1-u))^2 = 1 - u; constant terms are implicit, compare tails:
    # sqrt(1 - u) = 1 + a, so 2a + a^2 = -u
    assert plus(a.scale(2), a * a).coeffs == u.scale(-1).coeffs


def test_log_exp_roundtrip():
    u = TruncatedSeries.t(10).scale(Fraction(1, 2))
    assert expm1(log1p(u)) == u
    assert log1p(expm1(u)) == u


def test_catalan_series_solves_its_quadratic():
    c = catalan_series(10)
    t = TruncatedSeries.t(10)
    # c^2 - c + t = 0
    assert plus(c * c, c.scale(-1), t).coeffs == (0,) * 10
    assert list(c.coeffs) == [catalan(n - 1) for n in range(1, 11)]


def test_gen_series_tables():
    assert list(gen_series("As", 5).coeffs) == [1, 1, 1, 1, 1]
    assert list(gen_series("Com", 5).coeffs) == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
        Fraction(1, 120),
    ]
    assert list(gen_series("Lie", 4).coeffs) == [
        1,
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    ]
    assert list(gen_series("Mag", 6).coeffs) == [catalan(n - 1) for n in range(1, 7)]
    assert list(gen_series("Dup", 6).coeffs) == [catalan(n) for n in range(1, 7)]
    assert list(gen_series("Dup!", 5).coeffs) == [1, 2, 3, 4, 5]
    assert list(gen_series("Nil", 5).coeffs) == [1, 1, 0, 0, 0]
    assert list(gen_series("Vect", 5).coeffs) == [1, 0, 0, 0, 0]
    with pytest.raises(KeyError):
        gen_series("nope", 3)
    assert "Sab" in series_names()


def test_sabinin_dimensions():
    assert gen_series("Sab", 5).dims() == [1, 1, 8, 78, 1104]


def test_triple_identities_order_12():
    assert check_triple_identity("Com", "As", "Lie", 12)
    assert check_triple_identity("As", "Dup", "Mag", 12)
    assert check_triple_identity("Vect", "As", "As", 12)


def test_koszul_duality_checks_order_12():
    assert check_koszul_dual("Dup", "Dup!", 12)
    assert check_koszul_dual("Dup!", "Dup", 12)
    assert check_koszul_dual("Mag", "Nil", 12)
    assert check_koszul_dual("As", "As", 12)


def test_negative_controls():
    assert not check_triple_identity("Com", "As", "Com", 4)
    assert not check_koszul_dual("Dup", "Nil", 4)


def test_dims_scales_by_factorial():
    s = gen_series("Com", 4)
    assert s.dims() == [1, 1, 1, 1]


def test_identities_and_closed_forms_at_order_40():
    n = 40
    assert check_triple_identity("Com", "As", "Lie", n)
    assert check_triple_identity("As", "Dup", "Mag", n)
    for p, pdual in (("Dup", "Dup!"), ("Dup!", "Dup"), ("Mag", "Nil"), ("As", "As")):
        assert check_koszul_dual(p, pdual, n)
    assert not check_triple_identity("Com", "As", "Com", n)
    degrees = range(1, n + 1)
    assert list(gen_series("Mag", n).coeffs) == [catalan(k - 1) for k in degrees]
    assert list(gen_series("Dup", n).coeffs) == [catalan(k) for k in degrees]
    assert list(gen_series("Com", n).coeffs) == [Fraction(1, factorial(k)) for k in degrees]
    assert list(gen_series("Lie", n).coeffs) == [Fraction(1, k) for k in degrees]


# --- the Fraction reference ----------------------------------------------------
# The series arithmetic written on Fraction coefficients, one Fraction per
# coefficient: TruncatedSeries keeps int numerators over one denominator and
# must read back the same coefficients.

class FractionSeries:
    def __init__(self, order, coeffs=()):
        cs = [Fraction(c) for c in coeffs][:order]
        self.order, self.coeffs = order, tuple(cs + [Fraction(0)] * (order - len(cs)))

    def scale(self, c):
        return FractionSeries(self.order, [Fraction(c) * a for a in self.coeffs])

    def __mul__(self, other):
        out = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs, start=1):
            for j, b in enumerate(other.coeffs, start=1):
                if i + j <= self.order:
                    out[i + j - 1] += a * b
        return FractionSeries(self.order, out)

    def alt(self):
        return FractionSeries(
            self.order, [-c if n % 2 == 0 else c for n, c in enumerate(self.coeffs, start=1)]
        )

    def compose(self, inner):
        return reference_tail(lambda k: self.coeffs[k - 1], inner)


def reference_tail(tail_coeff, u):
    """sum_{k>=1} tail_coeff(k) u^k, truncated at u.order."""
    out, power = [Fraction(0)] * u.order, u
    for k in range(1, u.order + 1):
        out = [c + tail_coeff(k) * p for c, p in zip(out, power.coeffs)]
        power = power * u
    return FractionSeries(u.order, out)


def reference_sqrt1m(u):
    def coeff(k):
        # binomial(1/2, k) * (-1)^k
        num = Fraction(1)
        for i in range(k):
            num *= Fraction(1, 2) - i
        return num / factorial(k) * (-1) ** k
    return reference_tail(coeff, u)


REFERENCE_TAILS = [
    (sqrt1m, reference_sqrt1m),
    (log1p, lambda u: reference_tail(lambda k: Fraction((-1) ** (k + 1), k), u)),
    (expm1, lambda u: reference_tail(lambda k: Fraction(1, factorial(k)), u)),
]


def is_canonical(s):
    """int numerators, one per degree, over a positive denominator in lowest terms."""
    return (
        len(s.nums) == s.order
        and all(type(a) is int for a in s.nums)
        and s.den > 0
        and gcd(s.den, *s.nums) == 1
    )


# ints, and fractions built from unreduced numerator / denominator pairs
coefficient = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
)


@st.composite
def same_order_coefficients(draw):
    """An order 1..8 and two coefficient lists, short ones padded with zeros (or empty)."""
    order = draw(st.integers(1, 8))
    cs = st.lists(coefficient, max_size=order)
    return order, draw(cs), draw(cs)


@given(same_order_coefficients(), coefficient)
def test_int_numerators_agree_with_the_fraction_reference(orders_and_coeffs, c):
    order, a, b = orders_and_coeffs
    A, B = TruncatedSeries(order, a), TruncatedSeries(order, b)
    RA, RB = FractionSeries(order, a), FractionSeries(order, b)
    pairs = [
        (A, RA),
        (A * B, RA * RB),
        (A.compose(B), RA.compose(RB)),
        (A.alt(), RA.alt()),
        (A.scale(c), RA.scale(c)),
    ] + [(new(A), reference(RA)) for new, reference in REFERENCE_TAILS]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert is_canonical(got)
        assert [got.coeff(n) for n in range(1, order + 1)] == list(want.coeffs)


def test_the_stored_form_is_canonical():
    zero = TruncatedSeries(4)
    assert (zero.nums, zero.den) == ([0, 0, 0, 0], 1)
    assert TruncatedSeries(4, [0, Fraction(0, 3)]) == zero
    thirds = TruncatedSeries(4, [Fraction(1, 3), Fraction(-2, 3)])
    assert (thirds.nums, thirds.den) == ([1, -2, 0, 0], 3)
    assert thirds.scale(0) == zero and thirds.scale(0).den == 1
    assert (thirds * zero).den == 1 and thirds.compose(zero) == zero
    assert TruncatedSeries(3, [Fraction(2, 4)]) == TruncatedSeries(3, [Fraction(1, 2)])
    tripled = thirds.scale(3)
    assert (tripled.nums, tripled.den) == ([1, -2, 0, 0], 1)
    assert tripled == TruncatedSeries(4, [1, -2])
    assert TruncatedSeries(4, [1, -2]) != TruncatedSeries(3, [1, -2])
