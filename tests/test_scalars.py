"""Exact arithmetic in F2[U], its localization at (U), and parsing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uchain.errors import BothZero, ExponentOverflow, NotAUnit, ParseError
from uchain.scalars import EXPONENT_LIMIT, LocalScalar, Poly, poly_gcd

polys = st.integers(min_value=0, max_value=(1 << 48) - 1).map(Poly)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 48) - 1).map(Poly)
unit_polys = st.integers(min_value=0, max_value=(1 << 24) - 1).map(
    lambda b: Poly(b | 1))


def _termwise_derivative(p: Poly) -> Poly:
    # independent route: U^k -> k*U^(k-1) applied one exponent at a time
    return Poly.of(*[k - 1 for k in p.exponents() if k % 2 == 1])


# ---------------------------------------------------------------------------
# polynomial ring


def test_addition_cancels_matching_exponents():
    assert Poly.of(2, 3) + Poly.of(3, 5) == Poly.of(2, 5)


def test_addition_with_zero_is_identity():
    p = Poly.of(0, 4, 7)
    assert p + Poly(0) == p


def test_square_of_one_plus_u_is_frobenius():
    one_plus_u = Poly.of(0, 1)
    assert one_plus_u * one_plus_u == Poly.of(0, 2)


def test_monomials_multiply_by_adding_exponents():
    assert Poly.u(2) * Poly.u(3) == Poly.u(5)


def test_multiplication_by_zero():
    assert Poly.of(1, 2, 9) * Poly(0) == Poly(0)


@given(p=polys)
def test_every_polynomial_is_its_own_negative(p: Poly):
    assert p + p == Poly(0)


@given(p=polys, q=polys, r=polys)
def test_multiplication_distributes_over_addition(p: Poly, q: Poly, r: Poly):
    assert p * (q + r) == p * q + p * r


@given(p=polys, q=polys)
def test_multiplication_commutes(p: Poly, q: Poly):
    assert p * q == q * p


@given(p=nonzero_polys, q=nonzero_polys)
def test_degree_is_additive(p: Poly, q: Poly):
    assert (p * q).degree() == p.degree() + q.degree()


def test_valuation_picks_smallest_exponent():
    assert Poly.of(2, 5).valuation() == 2
    assert Poly.of(0, 1).valuation() == 0


def test_valuation_of_zero_is_infinite():
    assert Poly(0).valuation() == math.inf


@given(p=polys, q=polys)
def test_valuation_is_additive_with_absorbing_infinity(p: Poly, q: Poly):
    assert (p * q).valuation() == p.valuation() + q.valuation()


def test_derivative_of_odd_power_drops_one():
    assert Poly.u(3).derivative() == Poly.u(2)


def test_derivative_of_even_power_vanishes():
    assert Poly.u(2).derivative() == Poly(0)


def test_derivative_keeps_only_odd_exponents():
    assert Poly.of(0, 1, 4).derivative() == Poly.of(0)


@given(p=polys)
def test_derivative_matches_termwise_route(p: Poly):
    assert p.derivative() == _termwise_derivative(p)


@given(p=polys, q=polys)
def test_derivative_satisfies_leibniz_rule(p: Poly, q: Poly):
    lhs = (p * q).derivative()
    rhs = p * q.derivative() + q * p.derivative()
    assert lhs == rhs


@given(p=polys)
def test_derivative_of_square_vanishes(p: Poly):
    assert (p * p).derivative() == Poly(0)


# ---------------------------------------------------------------------------
# gcd


def test_gcd_extracts_common_power_of_u():
    # U^2+U^3 = (1+U) * U^2
    assert poly_gcd(Poly.of(2, 3), Poly.u(2)) == Poly.u(2)


def test_gcd_of_coprime_pair_is_one():
    # U = 1*(1+U) + 1
    assert poly_gcd(Poly.of(0, 1), Poly.u(1)) == Poly(1)


def test_gcd_with_zero_returns_other_argument():
    p = Poly.of(1, 3)
    assert poly_gcd(p, Poly(0)) == p
    assert poly_gcd(Poly(0), p) == p


def test_gcd_of_two_zeros_is_rejected():
    with pytest.raises(BothZero):
        poly_gcd(Poly(0), Poly(0))


@given(g=nonzero_polys, x=nonzero_polys, y=nonzero_polys)
def test_gcd_divides_both_and_is_divisible_by_common_factors(
        g: Poly, x: Poly, y: Poly):
    p, q = g * x, g * y
    d = poly_gcd(p, q)
    assert p % d == Poly(0)
    assert q % d == Poly(0)
    assert d % g == Poly(0)


# ---------------------------------------------------------------------------
# the localization at (U)


def test_fractions_are_stored_reduced():
    # (U+U^2) / (1+U) = U
    s = LocalScalar(Poly.of(1, 2), Poly.of(0, 1))
    assert s == LocalScalar(Poly.u(1))
    assert Poly(s.num) == Poly.u(1)
    assert Poly(s.den) == Poly(1)


def test_zero_is_always_zero_over_one():
    assert LocalScalar(Poly(0), Poly.of(0, 3)) == LocalScalar(0)


def test_denominator_must_be_a_unit():
    with pytest.raises(NotAUnit):
        LocalScalar(Poly(1), Poly.u(1))


def test_inverse_swaps_numerator_and_denominator():
    s = LocalScalar(Poly.of(0, 1))
    assert s.inverse() == LocalScalar(Poly(1), Poly.of(0, 1))
    assert LocalScalar(1).inverse() == LocalScalar(1)


def test_elements_of_positive_valuation_have_no_inverse():
    with pytest.raises(NotAUnit):
        LocalScalar(Poly.u(1)).inverse()
    with pytest.raises(NotAUnit):
        LocalScalar(0).inverse()


@given(n=unit_polys, d=unit_polys)
def test_inverse_is_an_involution_on_units(n: Poly, d: Poly):
    s = LocalScalar(n, d)
    assert s.inverse().inverse() == s
    assert s * s.inverse() == LocalScalar(1)


@given(n=polys, d=unit_polys, c=unit_polys)
def test_reduced_form_is_canonical(n: Poly, d: Poly, c: Poly):
    assert LocalScalar(n * c, d * c) == LocalScalar(n, d)


def _canonical(num: int, den: int) -> tuple[int, int]:
    """num/den as the reduced pair, zero as 0/1, by a Euclid of its own."""
    if num == 0:
        return 0, 1
    a, b = Poly(num), Poly(den)
    while b:
        a, b = b, a % b
    return (Poly(num) // a).bits, (Poly(den) // a).bits


@given(a=polys, b=polys)
def test_denominator_one_arithmetic_is_canonical(a: Poly, b: Poly):
    # LocalScalar(n), and the sum and product of two such, skip the gcd;
    # they must land on the pair a reduction by gcd gives, zero included
    x, y = LocalScalar(a), LocalScalar(b)
    for got, num in ((x, a.bits), (y, b.bits), (x + y, (a + b).bits),
                     (x * y, (a * b).bits), (x + x, 0), (x * LocalScalar(0), 0)):
        assert (got.num, got.den) == _canonical(num, 1)
    # and agree with the general path, through a unit denominator
    u = LocalScalar(1, Poly.of(0, 1))
    assert (x * u + y * u) / u == x + y
    assert (x * u) * (y * u) / (u * u) == x * y


@given(a=polys, b=polys, d=unit_polys, e=unit_polys)
def test_local_arithmetic_is_a_commutative_ring(a: Poly, b: Poly,
                                                d: Poly, e: Poly):
    s, t = LocalScalar(a, d), LocalScalar(b, e)
    assert s + t == t + s
    assert s * t == t * s
    assert (s + t) * s == s * s + t * s


@given(n=polys, d=unit_polys, order=st.integers(min_value=1, max_value=40))
def test_series_expansion_matches_fraction(n: Poly, d: Poly, order: int):
    s = LocalScalar(n, d)
    # den * expansion == num (mod U^order)
    prod = Poly(s.den) * Poly(s.series(order))
    mask = (1 << order) - 1
    assert Poly(prod.bits & mask) == Poly(s.num & mask)


def test_geometric_series_of_one_over_one_plus_u():
    s = LocalScalar(Poly(1), Poly.of(0, 1))
    assert Poly(s.series(5)) == Poly.of(0, 1, 2, 3, 4)


def test_valuation_of_fraction_is_valuation_of_numerator():
    s = LocalScalar(Poly.of(3, 5), Poly.of(0, 2))
    assert s.valuation() == 3
    assert LocalScalar(0).valuation() == math.inf


@pytest.mark.parametrize("call, error, match", [
    (lambda: Poly(-1), ValueError, "negative bit mask"),
    (lambda: Poly.u(-1), ValueError, "negative exponent"),
    (lambda: Poly.of(0, 3) // Poly(0), ZeroDivisionError, "division by zero"),
    (lambda: Poly.of(0, 3) % Poly(0), ZeroDivisionError, "division by zero"),
    (lambda: LocalScalar(1, 0), ZeroDivisionError, "zero denominator"),
    (lambda: LocalScalar(1) / LocalScalar(0), NotAUnit, "division by zero"),
], ids=["negative-mask", "negative-exponent", "poly-floordiv-zero",
        "poly-mod-zero", "zero-denominator", "local-division-by-zero"])
def test_the_scalar_api_refuses_what_it_cannot_represent(call, error, match):
    with pytest.raises(error, match=match):
        call()


@given(n=polys, d=unit_polys, c=unit_polys)
def test_equal_scalars_hash_equal(n: Poly, d: Poly, c: Poly):
    # equal values built by different routes must collapse in a set
    assert Poly.of(*n.exponents()) == n
    assert hash(Poly.of(*n.exponents())) == hash(n)
    assert hash(Poly.parse(str(n))) == hash(n)
    assert LocalScalar(n * c, d * c) == LocalScalar(n, d)
    assert hash(LocalScalar(n * c, d * c)) == hash(LocalScalar(n, d))
    assert len({LocalScalar(n * c, d * c), LocalScalar(n, d)}) == 1


# ---------------------------------------------------------------------------
# text syntax


def test_parse_handles_all_monomial_spellings():
    assert Poly.parse("U^2+U^5") == Poly.of(2, 5)
    assert Poly.parse("1+U") == Poly.of(0, 1)
    assert Poly.parse("0") == Poly(0)
    assert Poly.parse("1 + U + U^4") == Poly.of(0, 1, 4)


@given(p=polys)
def test_format_parse_round_trip(p: Poly):
    assert Poly.parse(str(p)) == p


@pytest.mark.parametrize("text", ["", "U^", "v", "U^1", "U+U", "U**2", "2"])
def test_malformed_polynomials_are_rejected(text: str):
    with pytest.raises(ParseError):
        Poly.parse(text)


def test_parse_error_reports_line_and_token():
    with pytest.raises(ParseError) as exc:
        Poly.parse("U^2+w", line=7)
    assert "line 7" in exc.value.detail
    assert "'w'" in exc.value.detail


# ---------------------------------------------------------------------------
# overflow guard


def test_exponents_beyond_the_limit_are_rejected():
    Poly.u(EXPONENT_LIMIT)  # the boundary itself is fine
    # and prints exactly, from its three set bits
    assert str(Poly.of(0, 1, EXPONENT_LIMIT)) == f"1+U+U^{EXPONENT_LIMIT}"
    with pytest.raises(ExponentOverflow):
        Poly.u(EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflow):
        Poly.parse(f"U^{EXPONENT_LIMIT + 1}")


def test_multiplication_overflow_is_caught():
    half = Poly.u(EXPONENT_LIMIT // 2 + 1)
    with pytest.raises(ExponentOverflow):
        half * half
    # sums and products build their result unchecked; the product's degree
    # check is what holds the limit
    top = Poly.u(EXPONENT_LIMIT)
    assert (top + Poly(1)).degree() == (top * Poly(1)).degree() == EXPONENT_LIMIT
    assert not top + top and not top * Poly(0)
    with pytest.raises(ExponentOverflow):
        top * Poly.u(1)
    with pytest.raises(ExponentOverflow):
        Poly.of(0, EXPONENT_LIMIT // 2 + 1) * Poly.u(EXPONENT_LIMIT // 2)
