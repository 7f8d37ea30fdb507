"""Exact scalar, polynomial, and Laurent-polynomial arithmetic."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qkrall
from qkrall import (AlSalamCarlitzParams, LaguerreParams, Laurent,
                    MeixnerParams, ParamDegeneracy, Poly, QDiffOperator,
                    SearchProblem, ZeroDenominator, build_P1, divmod_poly,
                    poly_from_json, poly_gcd, poly_to_json, q_derivative_ops,
                    qpochhammer, rational, rational_str)
from qkrall.exact import _over_common
from conftest import B0, C0, T0, assert_stored_form, wide_fracs

F = Fraction

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_polys = st.lists(small_fracs, min_size=0, max_size=5).map(
    lambda cs: Poly(cs))
small_laurents = st.builds(Laurent, small_polys, st.integers(-3, 3))
nonzero_points = st.fractions(min_value=-5, max_value=5,
                              max_denominator=7).filter(lambda v: v != 0)
wide_polys = st.lists(wide_fracs, max_size=7).map(Poly)
points = st.one_of(st.integers(-9, 9), wide_fracs)
# scalars: zero, ints, and negative Fractions of small and large denominator
scalars = st.one_of(st.just(0), st.integers(-9, 9),
                    wide_fracs.filter(lambda v: v < 0))
# arguments of scale_arg: below zero, and with a large denominator
lambdas = st.one_of(
    st.fractions(min_value=-5, max_value=-1, max_denominator=7),
    st.builds(F, st.integers(-10 ** 9, 10 ** 9),
              st.integers(10 ** 9, 10 ** 12)))


def _schoolbook_mul(a: Poly, b: Poly) -> list[F]:
    """The Fraction reference for the integer product kernel."""
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return out if a.coeffs and b.coeffs else []


def _trimmed(cs: list[F]) -> tuple[F, ...]:
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return tuple(cs)


def _schoolbook_add(a: Poly, b: Poly) -> tuple[F, ...]:
    """The Fraction reference for +, coefficient by coefficient."""
    n = max(len(a.coeffs), len(b.coeffs))
    return _trimmed([a.coeff(k) + b.coeff(k) for k in range(n)])


def _schoolbook_eval(p: Poly, x0: F) -> F:
    """The Fraction reference for the integer Horner kernel."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def test_rational_parses_strings_ints_fractions():
    assert rational("3/7") == F(3, 7)
    assert rational(-2) == F(-2)
    assert rational(F(5, 9)) == F(5, 9)
    assert rational("  -10/4 ") == F(-5, 2)
    with pytest.raises(ValueError):
        rational("not-a-number")
    with pytest.raises(TypeError):
        rational(0.5)  # floats are refused, never silently converted


def test_every_exported_name_resolves():
    missing = [name for name in qkrall.__all__ if not hasattr(qkrall, name)]
    assert missing == []


# Every entry point that takes a base q, each with otherwise valid inputs.
_BASE_ENTRY_POINTS = {
    "MeixnerParams": lambda q: MeixnerParams(q, B0, C0),
    "LaguerreParams": lambda q: LaguerreParams(q, T0),
    "AlSalamCarlitzParams": lambda q: AlSalamCarlitzParams(q, F(4, 3)),
    "QDiffOperator": lambda q: QDiffOperator(q, {0: Laurent.one()}),
    "q_derivative_ops": q_derivative_ops,
    "build_P1": lambda q: build_P1(Poly((0, 1)), F(1), F(1), q),
    "SearchProblem": lambda q: SearchProblem(
        tuple(Poly.monomial(n) for n in range(13)), 1, q),
}


@pytest.mark.parametrize("q", [F(0), F(1), F(-1)], ids=str)
@pytest.mark.parametrize("entry", sorted(_BASE_ENTRY_POINTS))
def test_every_base_q_entry_point_rejects_degenerate_q(entry, q):
    # all of them share exact.check_base, so one error and one message
    with pytest.raises(ParamDegeneracy, match=r"q != \+-1 and q != 0"):
        _BASE_ENTRY_POINTS[entry](q)


def test_rational_str_round_trips():
    for value in (F(0), F(7), F(-3, 8), F(22, 7)):
        assert rational(rational_str(value)) == value


def test_qpochhammer_small_cases():
    q = F(2, 5)
    assert qpochhammer(F(1, 3), q, 0) == 1
    assert qpochhammer(F(1, 3), q, 1) == F(2, 3)
    assert qpochhammer(F(1, 3), q, 2) == F(2, 3) * (1 - F(1, 3) * q)
    # (q; q)_3 accumulates three factors
    assert qpochhammer(q, q, 3) == (1 - q) * (1 - q ** 2) * (1 - q ** 3)


def test_poly_basic_shape():
    p = Poly((1, 0, F(3, 2)))
    assert p.degree() == 2
    assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == F(3, 2)
    assert p.coeff(17) == 0
    assert p.leading() == F(3, 2)
    assert p(F(2)) == 1 + F(3, 2) * 4
    assert Poly.zero().is_zero()
    assert not p.is_zero()
    # trailing zeros are normalized away so equality is canonical
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))


def test_poly_arithmetic_known_product():
    p = Poly((-1, 1))   # x - 1
    r = Poly((1, 1))    # x + 1
    assert p * r == Poly((-1, 0, 1))
    assert p + r == Poly((0, 2))
    assert p - r == Poly((-2,))
    assert -p == Poly((1, -1))
    assert 3 * p == Poly((-3, 3))
    assert p * Poly.zero() == Poly.zero()


def test_poly_scale_and_shift_argument():
    p = Poly((0, 0, 1))  # x^2
    assert p.scale_arg(F(2, 5)) == Poly((0, 0, F(4, 25)))
    q = Poly((1, 1)).shift_arg(F(3))  # (x + 3) + 1
    assert q == Poly((4, 1))
    lam = F(5, 3)
    arg = F(7, 2)
    big = Poly((2, -1, 0, F(4, 7)))
    assert big.shift_arg(lam)(arg) == big(arg + lam)
    assert big.scale_arg(lam)(arg) == big(lam * arg)


def test_divmod_and_exact_division():
    a = Poly((-1, 0, 1))       # x^2 - 1
    b = Poly((1, 1))           # x + 1
    quot, rem = divmod_poly(a, b)
    assert quot == Poly((-1, 1)) and rem.is_zero()
    with pytest.raises(ZeroDenominator):
        divmod_poly(a, Poly.zero())


def test_poly_gcd_normalizes_monic():
    a = Poly((-1, 0, 1)) * Poly((2, 3))
    b = Poly((1, 1)) * Poly((5, 7))
    g = poly_gcd(a, b)
    assert g == Poly((1, 1))  # monic representative of the common factor


def test_laurent_normal_form():
    f = Laurent(Poly((0, 0, 2, 1)), -3)  # (2x^2 + x^3) / x^3
    assert f.poly == Poly((2, 1)) and f.val == -1
    assert f.num == Poly((2, 1)) and f.den == Poly.x()
    assert f == Laurent(Poly((2, 1)), -1)
    assert hash(f) == hash(Laurent(Poly((2, 1)), -1))
    zero = Laurent(Poly.zero(), -4)
    assert zero.is_zero() and zero.val == 0 and zero == Laurent.zero()
    g = Laurent(Poly((3, 1)), 2)  # 3x^2 + x^3
    assert g.is_polynomial() and g.as_poly() == Poly((0, 0, 3, 1))
    assert g.den == Poly.one() and g == Poly((0, 0, 3, 1))
    assert not f.is_polynomial()
    with pytest.raises(ValueError):
        f.as_poly()
    with pytest.raises(ZeroDenominator):
        f(0)
    assert f.pretty() == "(2 + x) / (x)" and g.pretty() == "3*x^2 + x^3"


def test_laurent_ring_ops():
    x_inv = Laurent(Poly.one(), -1)
    one_plus_x = Laurent(Poly((1, 1)))
    s = x_inv + one_plus_x
    # 1/x + 1 + x = (1 + x + x^2) / x
    assert s.num == Poly((1, 1, 1)) and s.den == Poly.x()
    assert x_inv * one_plus_x == Laurent(Poly((1, 1)), -1)
    assert (x_inv - x_inv).is_zero()
    # cancellation of the lowest terms moves the valuation up
    assert (s - x_inv) == one_plus_x
    assert Poly.x() * x_inv == Laurent.one() == x_inv * Poly.x()
    assert x_inv * F(3) == Laurent.constant(3) * x_inv
    assert x_inv.scale_arg(F(2, 5)) == Laurent(Poly.constant(F(5, 2)), -1)


def test_json_round_trips():
    p = Poly((F(1, 3), 0, F(-7, 2)))
    assert poly_from_json(poly_to_json(p)) == p


@settings(deadline=None)
@given(st.lists(wide_fracs, max_size=8))
def test_over_common_is_the_lcm_of_the_denominators(cs):
    nums, den = _over_common(cs)
    assert all(type(n) is int for n in nums)
    assert den > 0 and all(den % F(c).denominator == 0 for c in cs)
    assert [F(n, den) for n in nums] == cs
    assert math.gcd(den, *nums) == 1


@settings(deadline=None)
@given(wide_polys, wide_polys)
@example(Poly(()), Poly((1, F(2, 3))))
@example(Poly((F(-5, 7),)), Poly((F(1, 2), 0, F(3, 4))))
@example(Poly((0, F(1, 6))), Poly((F(6, 1),)))
def test_product_kernel_equals_schoolbook(a, b):
    assert list((a * b).coeffs) == _schoolbook_mul(a, b)


@settings(deadline=None)
@given(wide_polys, points)
@example(Poly((F(3, 4), 1, F(-2, 9))), 0)
@example(Poly((F(3, 4), 1, F(-2, 9))), -3)
@example(Poly((F(3, 4), 1, F(-2, 9))), F(-5, 6))
@example(Poly((F(1, 3), F(1, 6), F(1, 9))), 7)
@example(Poly(()), F(-2, 3))
def test_evaluation_kernel_equals_schoolbook(p, x0):
    assert p(x0) == _schoolbook_eval(p, F(x0))


def test_kernels_exact_with_unrelated_large_denominators():
    # Mersenne primes and a power of 3 share no factor, so the common
    # denominator is their product
    dens = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, 3 ** 90)
    a = Poly([F((-1) ** k * (k + 2), d) for k, d in enumerate(dens)])
    b = Poly([F(k + 1, d + 2) for k, d in enumerate(reversed(dens))])
    x0 = F(-(2 ** 31 - 1), 3 ** 40)
    product = a * b
    assert list(product.coeffs) == _schoolbook_mul(a, b)
    assert product.coeff(0) == F(2, (2 ** 61 - 1) * (3 ** 90 + 2))
    assert product(x0) == _schoolbook_eval(a, x0) * _schoolbook_eval(b, x0)


def test_poly_refuses_floats_and_bools():
    # the constructor reads its coefficients through rational(), as every
    # other exact entry point does
    for bad in ([0.1], [True, 2], [1, False], [F(1, 2), 2.5]):
        with pytest.raises(TypeError):
            Poly(bad)


@settings(deadline=None)
@given(st.lists(wide_fracs, max_size=7), wide_polys, scalars, lambdas)
@example([F(0), F(0)], Poly(()), 0, F(-1, 10 ** 12))
@example([F(1, 6), F(-5, 4)], Poly((F(5, 6), F(5, 4))), F(-6, 5), F(-3))
def test_poly_results_are_stored_canonically(cs, b, s, lam):
    a = Poly(cs)
    assert_stored_form(a)
    assert a.coeffs == _trimmed(list(cs))
    for result, reference in (
            (a + b, _schoolbook_add(a, b)),
            (a - b, _schoolbook_add(a, -b)),
            (-a, _trimmed([-c for c in a.coeffs])),
            (a * s, _trimmed([c * s for c in a.coeffs])),
            (s * a, _trimmed([c * s for c in a.coeffs])),
            (a * b, _trimmed(_schoolbook_mul(a, b))),
            (a.scale_arg(lam),
             _trimmed([c * lam ** k for k, c in enumerate(a.coeffs)]))):
        assert_stored_form(result)
        assert result.coeffs == reference


def test_sum_with_unrelated_large_denominators_is_reduced():
    # Mersenne primes and a power of 3 share no factor, so + works over
    # their product, and the 2^61 - 1 that cancels must leave the result
    m61, m89, m107, t90 = 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 3 ** 90
    a = Poly((F(1, m61) + F(1, t90), F(1, m89)))
    b = Poly((F(-1, m61), F(1, m107)))
    total = a + b
    assert_stored_form(total)
    assert total.den == t90 * m89 * m107
    assert total.nums == (m89 * m107, t90 * (m89 + m107))
    assert total.coeffs == (F(1, t90), F(1, m89) + F(1, m107))
    assert total - b == a and (total - a - b).nums == ()


@settings(deadline=None)
@given(wide_polys, st.integers(-2, 3))
def test_laurent_equal_to_a_poly_hashes_like_it(p, val):
    f = Laurent(p, val)
    if val >= 0:
        g = Poly((0,) * val + p.coeffs)
        assert f == g and g == f and hash(f) == hash(g)
        assert f in {g} and g in {f}
    # a Laurent polynomial with a pole equals no Poly
    assert (f == f.num) == f.is_polynomial()
    assert hash(f) == hash(f.num) or not f.is_polynomial()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        return
    quot, rem = divmod_poly(a, b)
    assert quot * b + rem == a
    assert rem.is_zero() or rem.degree() < b.degree()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    _, ra = divmod_poly(a, g)
    _, rb = divmod_poly(b, g)
    assert ra.is_zero() and rb.is_zero()


@settings(max_examples=60, deadline=None)
@given(small_laurents, small_laurents, nonzero_points, nonzero_points)
def test_laurent_ops_agree_with_evaluation(f, g, lam, point):
    assert (f + g)(point) == f(point) + g(point)
    assert (f - g)(point) == f(point) - g(point)
    assert (f * g)(point) == f(point) * g(point)
    assert f.scale_arg(lam)(point) == f(lam * point)
    assert f(point) == f.num(point) / f.den(point)


@settings(max_examples=60, deadline=None)
@given(small_laurents, small_laurents)
def test_laurent_num_den_are_coprime_with_monic_den(f, g):
    for h in (f, g, f + g, f * g):
        assert poly_gcd(h.num, h.den) == Poly.one()
        assert h.den.leading() == 1
        assert Laurent(h.num, -h.den.degree()) == h
