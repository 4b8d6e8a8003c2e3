"""Truncated generating series: arithmetic, closed forms, identities."""

from fractions import Fraction

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
