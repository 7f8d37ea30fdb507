"""q-difference operator algebra: action, composition, order bookkeeping."""
from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkrall import (Laurent, MixedBase, Poly, QDiffOperator,
                    poly_of_operator, q_derivative_ops)
from conftest import (apply_by_shifts, assert_normal_laurent, laurent_mul,
                      laurent_scale_arg, wide_fracs)

F = Fraction
Q = F(2, 5)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_laurents = st.builds(
    Laurent, st.lists(small_fracs, max_size=3).map(Poly), st.integers(-2, 2))
random_ops = st.dictionaries(st.integers(-2, 2), small_laurents,
                             max_size=3).map(lambda t: QDiffOperator(Q, t))
small_polys = st.lists(small_fracs, max_size=7).map(Poly)
operands = st.one_of(small_polys,
                     st.builds(Laurent, small_polys, st.integers(-4, 3)))
# bases below zero, above one and in between
bases = st.sampled_from([F(-3, 2), F(-2, 7), F(5, 2), F(7), Q])
wide_laurents = st.builds(
    Laurent, st.lists(wide_fracs, max_size=4).map(Poly), st.integers(-3, 2))
based_ops = st.builds(
    QDiffOperator, bases,
    st.dictionaries(st.integers(-2, 2), wide_laurents, max_size=3))


def _schoolbook_apply(op: QDiffOperator, p: Laurent) -> dict[int, F]:
    """The Fraction reference for apply's integer kernel: sum_j f_j(x)
    p(q^j x), term by term, as a map from exponent to coefficient."""
    out: dict[int, F] = {}
    for j, f in op.terms.items():
        s = op.q ** j
        for a, fa in enumerate(f.poly.coeffs, f.val):
            for e, c in enumerate(p.poly.coeffs, p.val):
                out[a + e] = out.get(a + e, F(0)) + fa * c * s ** e
    return {k: c for k, c in out.items() if c}


def _terms(f: Laurent) -> dict[int, F]:
    """f as a map from exponent to nonzero coefficient."""
    return {e: c for e, c in enumerate(f.poly.coeffs, f.val) if c}


def _top_exponent(p: Poly | Laurent) -> int:
    return p.degree() if isinstance(p, Poly) else p.val + p.poly.degree()


def _dq_by_hand(p: Poly, q: F) -> Poly:
    """(p(qx) - p(x)) / ((q - 1) x), exact on polynomials."""
    diff = p.scale_arg(q) - p
    coeffs = list(diff.coeffs)
    assert coeffs[0] == 0
    return Poly(coeffs[1:]) * F(1, 1) * (1 / F(q - 1))


def test_q_derivative_matches_divided_difference():
    d_q, d_inv = q_derivative_ops(Q)
    p = Poly((3, -2, 0, F(5, 7)))
    assert d_q.apply(p) == _dq_by_hand(p, Q)
    assert d_inv.apply(p) == _dq_by_hand(p, 1 / Q)


def test_q_derivative_monomial_eigen_like_action():
    d_q, d_inv = q_derivative_ops(Q)
    for n in range(1, 6):
        xn = Poly.monomial(n)
        bracket = (Q ** n - 1) / (Q - 1)
        assert d_q.apply(xn) == bracket * Poly.monomial(n - 1)
        bracket_inv = (Q ** -n - 1) / (Q ** -1 - 1)
        assert d_inv.apply(xn) == bracket_inv * Poly.monomial(n - 1)
    assert d_q.apply(Poly.one()).is_zero()


def test_identity_zero_and_order():
    ident = QDiffOperator.identity(Q)
    zero = QDiffOperator.zero(Q)
    assert ident.order() == 0
    p = Poly((1, 2, 3))
    assert ident.apply(p) == p
    assert zero.apply(p).is_zero()
    d_q, d_inv = q_derivative_ops(Q)
    assert d_q.order() == 1
    assert d_q.min_shift() == 0 and d_q.max_shift() == 1
    both = d_q + d_inv
    assert both.order() == 2
    assert both.min_shift() == -1 and both.max_shift() == 1


def test_linear_structure():
    d_q, d_inv = q_derivative_ops(Q)
    p = Poly((0, 1, 1, 4))
    lhs = (d_q * F(3, 2) - d_inv).apply(p)
    rhs = laurent_mul(d_q.apply(p), F(3, 2)) - d_inv.apply(p)
    assert lhs == rhs
    assert (d_q - d_q).apply(p).is_zero()
    assert (-d_q).apply(p) == -(d_q.apply(p))


def test_mul_fn_left_multiplies():
    d_q, _ = q_derivative_ops(Q)
    f = Laurent(Poly((1, 1)), -1)  # (x+1)/x
    op = d_q.mul_fn(f)
    p = Poly((0, 0, 1))
    # d_q(x^2) = (q+1) x, then times (x+1)/x stays polynomial
    assert op.apply(p) == (Q + 1) * Poly((1, 1))
    # d_q(x) = 1 and (x+1)/x is not polynomial: apply reports that honestly
    assert not op.apply(Poly.x()).is_polynomial()


def test_composition_matches_sequential_application():
    d_q, d_inv = q_derivative_ops(Q)
    comp = d_q @ d_inv
    for p in (Poly((1, 2, 3)), Poly((0, 0, 0, 1)), Poly((-1, 0, F(2, 3), 5))):
        assert comp.apply(p) == d_q.apply(d_inv.apply(p))
    assoc_a = (d_q @ d_inv) @ d_q
    assoc_b = d_q @ (d_inv @ d_q)
    assert assoc_a == assoc_b


def test_composition_rejects_mixed_bases():
    d_q, _ = q_derivative_ops(Q)
    d_other, _ = q_derivative_ops(F(1, 3))
    with pytest.raises(MixedBase):
        d_q @ d_other
    with pytest.raises(MixedBase):
        d_q + d_other


def test_poly_of_operator_is_evaluation_on_eigenvectors():
    # On x^n the scaling operator S: p -> p(qx) acts by q^n, so any
    # polynomial r evaluated at S acts by r(q^n).
    scaling = QDiffOperator(Q, {1: Laurent.one()})
    r = Poly((2, -1, F(1, 3)))
    op = poly_of_operator(r, scaling)
    for n in range(5):
        xn = Poly.monomial(n)
        assert op.apply(xn) == r(Q ** n) * xn


def _horner(p: Poly, d: QDiffOperator) -> QDiffOperator:
    """p(d) by Horner's rule in the algebra, one composition per degree."""
    acc = QDiffOperator.zero(d.q)
    for c in reversed(p.coeffs):
        acc = acc @ d + QDiffOperator(d.q, {0: Laurent.constant(c)})
    return acc


@settings(max_examples=60, deadline=None)
@given(st.builds(QDiffOperator, bases,
                 st.dictionaries(st.integers(-2, 2), small_laurents,
                                 max_size=3)),
       st.lists(st.lists(small_fracs, max_size=6).map(Poly), min_size=1,
                max_size=4))
def test_poly_of_operator_equals_horner(op, ps):
    # a fresh operator's table of powers grows as the drawn degrees come,
    # then is read at every degree again from the top down
    d = QDiffOperator(op.q, op.terms)
    for p in ps + [Poly.zero()] + sorted(ps, key=Poly.degree, reverse=True):
        assert poly_of_operator(p, d) == _horner(p, d)
    assert len(d.powers(3)) == 4


def test_json_round_trip_and_equality():
    d_q, d_inv = q_derivative_ops(Q)
    op = (d_q @ d_inv).mul_fn(Laurent(Poly((1, 0, 1)), -1)) + d_q
    payload = op.to_json()
    assert QDiffOperator.from_json(payload) == op
    assert hash(QDiffOperator.from_json(payload)) == hash(op)


def test_apply_reports_nonpolynomial_results():
    # 1/x as a multiplier on constants leaves the polynomial ring
    op = QDiffOperator(Q, {0: Laurent(Poly.one(), -1)})
    out = op.apply(Poly.x())
    assert out.is_polynomial() and out.as_poly() == Poly.one()
    assert not op.apply(Poly.one()).is_polynomial()


def test_from_json_rejects_a_denominator_that_is_not_a_power_of_x():
    d_q, _ = q_derivative_ops(Q)
    payload = d_q.to_json()
    payload["terms"][0]["den"] = ["1", "1"]  # x + 1
    with pytest.raises(ValueError):
        QDiffOperator.from_json(payload)
    payload["terms"][0]["den"] = ["0", "2"]  # 2x is not monic
    with pytest.raises(ValueError):
        QDiffOperator.from_json(payload)


@settings(max_examples=40, deadline=None)
@given(random_ops, random_ops, random_ops, small_laurents)
def test_random_operator_algebra_laws(a, b, c, f):
    assert (a @ b) @ c == a @ (b @ c)
    assert (a @ b).apply(f) == a.apply(b.apply(f))
    assert (a + b).apply(f) == a.apply(f) + b.apply(f)
    assert QDiffOperator.from_json(a.to_json()) == a


@settings(max_examples=60, deadline=None)
@given(random_ops, st.lists(operands, min_size=1, max_size=5))
def test_apply_equals_shift_and_multiply(op, ps):
    # rising, then falling exponents, then drawn order: the operator's
    # table of monomial images grows, is reused, and grows downwards
    rising = sorted(ps, key=_top_exponent)
    for p in rising + rising[::-1] + ps:
        published = op._images
        snapshot = dict(published)
        assert op.apply(p) == apply_by_shifts(op, p)
        assert published == snapshot  # a grown table is a new dict
    fresh = QDiffOperator(op.q, op.terms)
    assert fresh == op and hash(fresh) == hash(op)
    assert fresh.to_json() == op.to_json()


@settings(max_examples=80, deadline=None)
@given(based_ops, st.lists(wide_laurents, min_size=1, max_size=4))
def test_apply_kernel_equals_schoolbook(op, ps):
    # Laurent inputs with val < 0 read images at negative exponents, where
    # q^(je) has the numerator of q in its denominator
    for p in ps + [Laurent(p.poly, p.val - 3) for p in ps]:
        image = op.apply(p)
        assert {k: c for k, c in enumerate(image.poly.coeffs, image.val)
                if c} == _schoolbook_apply(op, p)


@settings(deadline=None)
@given(wide_laurents, wide_laurents,
       st.one_of(st.fractions(min_value=-5, max_value=-1, max_denominator=7),
                 st.builds(F, st.integers(1, 10 ** 9),
                           st.integers(10 ** 9, 10 ** 12))),
       based_ops)
def test_laurent_and_apply_results_are_stored_canonically(f, g, lam, op):
    # negative valuations, lam < 0 or with a large denominator, and the
    # images of apply at negative exponents
    f, g = Laurent(f.poly, f.val - 2), Laurent(g.poly, g.val - 1)
    total = {e: _terms(f).get(e, F(0)) + _terms(g).get(e, F(0))
             for e in _terms(f).keys() | _terms(g).keys()}
    scaled = {e: c * lam ** e for e, c in _terms(f).items()}
    for result, reference in (
            (f + g, {e: c for e, c in total.items() if c}),
            (f - f, {}),
            (laurent_scale_arg(f, lam), scaled),
            (op.apply(f), _schoolbook_apply(op, f)),
            (op.apply(f.num), _schoolbook_apply(op, Laurent(f.num)))):
        assert_normal_laurent(result)
        assert _terms(result) == reference


def test_apply_from_many_threads_on_one_operator():
    # threads that grow one operator's image table at the same time may
    # each replace it, but every table a thread reads is complete
    d_q, d_inv = q_derivative_ops(Q)
    op = (d_q @ d_inv).mul_fn(Laurent(Poly((1, 2)), -1)) + d_q
    polys = [Poly.monomial(k, F(k + 1, 3)) + Poly((1, -1)) for k in range(24)]
    expected = [apply_by_shifts(op, p) for p in polys]
    results: dict[tuple[int, int], Laurent] = {}

    def work(idx: int) -> None:
        order = range(24) if idx % 2 else range(23, -1, -1)
        for k in order:
            results[idx, k] = op.apply(polys[k])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {(i, k): expected[k] for i in range(6) for k in range(24)}


# The Laurent-term forms of the operator algebra: one Laurent operation
# per term, each reducing its own coefficient.  The integer table is
# checked against them term for term.

def _nonzero(terms: dict) -> dict[int, Laurent]:
    return {j: f for j, f in sorted(terms.items()) if not f.is_zero()}


def _terms_sum(*parts: tuple[F | int, dict]) -> dict[int, Laurent]:
    """sum_k c_k D_k on the terms of the D_k."""
    out: dict[int, Laurent] = {}
    for c, terms in parts:
        for j, f in terms.items():
            term = laurent_mul(f, c)
            out[j] = out[j] + term if j in out else term
    return _nonzero(out)


def _terms_compose(q: F, a: dict, b: dict) -> dict[int, Laurent]:
    """f_j1(x) g_j2(q^j1 x) at shift j1 + j2."""
    out: dict[int, Laurent] = {}
    for j1, f in a.items():
        for j2, g in b.items():
            term = laurent_mul(f, laurent_scale_arg(g, q ** j1))
            out[j1 + j2] = out[j1 + j2] + term if j1 + j2 in out else term
    return _nonzero(out)


def _terms_powers(q: F, d: dict, m: int) -> list[dict[int, Laurent]]:
    table = [{0: Laurent.one()}]
    while len(table) <= m:
        table.append(_terms_compose(q, table[-1], d))
    return table


def assert_stored_operator(op: QDiffOperator, terms: dict) -> None:
    """op is stored canonically and its terms, ==, hash and JSON are those
    of the operator with these Laurent terms."""
    assert type(op.den) is int and op.den > 0
    shifts = [j for j, _, _ in op.rows]
    assert shifts == sorted(set(shifts))
    for _, _, row in op.rows:
        assert row and row[0] and row[-1]
        assert all(type(c) is int for c in row)
    assert math.gcd(op.den, *(c for _, _, row in op.rows for c in row)) == 1
    for f in op.terms.values():
        assert_normal_laurent(f)
    assert dict(op.terms) == terms and list(op.terms) == sorted(terms)
    reference = QDiffOperator(op.q, terms)
    assert op == reference and hash(op) == hash(reference)
    assert hash(op) == hash((op.q, tuple(sorted(terms.items()))))
    assert op.to_json() == reference.to_json()
    assert QDiffOperator.from_json(op.to_json()) == op


# shifts -3..3 with wide coefficients at valuations -3..2, over bases
# below zero, above one and in between
table_ops = st.builds(
    QDiffOperator, bases,
    st.dictionaries(st.integers(-3, 3), wide_laurents, max_size=3))
scalars = st.one_of(st.just(F(0)), wide_fracs)


@settings(deadline=None)
@given(table_ops, st.dictionaries(st.integers(-3, 3), wide_laurents,
                                  max_size=3),
       scalars, wide_laurents, st.lists(small_fracs, max_size=4).map(Poly))
def test_operator_table_equals_laurent_terms(a, terms, c, f, p):
    q = a.q
    b = QDiffOperator(q, terms)
    ta, tb = dict(a.terms), dict(b.terms)
    assert_stored_operator(a, _nonzero(ta))
    assert_stored_operator(b, _nonzero(terms))
    assert_stored_operator(a + b, _terms_sum((1, ta), (1, tb)))
    assert_stored_operator(a - b, _terms_sum((1, ta), (-1, tb)))
    assert_stored_operator(-a, _terms_sum((-1, ta)))
    assert_stored_operator(a * c, _terms_sum((c, ta)))
    assert_stored_operator(c * a, _terms_sum((c, ta)))
    assert_stored_operator(a.mul_fn(f), _nonzero(
        {j: laurent_mul(f, g) for j, g in ta.items()}))
    assert_stored_operator(a.mul_fn(f.poly), _nonzero(
        {j: laurent_mul(g, f.poly) for j, g in ta.items()}))
    assert_stored_operator(a @ b, _terms_compose(q, ta, tb))
    assert_stored_operator(b.compose(a), _terms_compose(q, tb, ta))
    fresh = QDiffOperator(q, tb)
    for got, want in zip(fresh.powers(3), _terms_powers(q, tb, 3)):
        assert_stored_operator(got, want)
    assert_stored_operator(poly_of_operator(p, fresh), _terms_sum(
        *zip(p.coeffs, _terms_powers(q, tb, p.degree()))))


@pytest.mark.parametrize("op", [
    QDiffOperator.zero(Q), QDiffOperator.identity(F(-3, 2)),
    QDiffOperator(F(7), {-2: Laurent(Poly((0, 0, 4)), -1),
                         3: Poly((F(2, 3), 0, 0))})])
def test_operator_table_edge_cases(op):
    terms = dict(op.terms)
    assert_stored_operator(op, terms)
    assert_stored_operator(op - op, {})
    assert_stored_operator(op * 0, {})
    assert_stored_operator(op.mul_fn(Poly.zero()), {})
    assert_stored_operator(op @ QDiffOperator.zero(op.q), {})
    assert_stored_operator(QDiffOperator.zero(op.q) @ op, {})
    assert_stored_operator(poly_of_operator(Poly.zero(), op), {})
    assert_stored_operator(poly_of_operator(Poly.one(), op),
                           {0: Laurent.one()})


def _near_misses(image: Laurent, c: F) -> list[Poly | Laurent]:
    """c r = image for the first r, and not for the rest: r with one
    coefficient perturbed, or with a term beyond image's exponents on
    either side, or image itself shifted by one power of x."""
    r = laurent_mul(image, 1 / c) if c else image
    out = [r, r + Laurent.constant(1), Laurent(r.poly, r.val + 1)]
    if not r.is_zero():
        top = r.val + r.poly.degree()
        mid = (r.val + top) // 2
        out += [r + Laurent(Poly.constant(F(1, 3)), mid),
                r + Laurent(Poly.one(), top + 1),
                r + Laurent(Poly.constant(-2), r.val - 1)]
    out += [f.as_poly() for f in out if f.is_polynomial()]
    return out


@settings(deadline=None)
@given(st.one_of(based_ops, st.builds(QDiffOperator.zero, bases)),
       st.one_of(operands, st.just(Poly.zero())), scalars)
def test_residual_is_none_or_apply_minus_c_r(op, p, c):
    # operators with negative valuations give D(p) a pole at 0
    image = op.apply(p)
    for r in _near_misses(image, c) + [Poly.zero(), Laurent.zero()]:
        want = image - laurent_mul(r, c)
        assert op.residual(p, r, c) == (None if want.is_zero() else want)
    assert op.residual(p, image) is None
    assert op.residual(p, laurent_mul(image, 2), F(1, 2)) is None


def _misses(op: QDiffOperator, p: Poly, r: Poly | Laurent,
            c: F | int = 1) -> bool:
    """D(p) != c r, and residual reports exactly apply(p) - c r."""
    want = op.apply(p) - laurent_mul(r, c)
    return not want.is_zero() and op.residual(p, r, c) == want


def test_residual_on_zero_operator_zero_operand_and_zero_scalar():
    d_q, _ = q_derivative_ops(Q)
    zero = QDiffOperator.zero(Q)
    p = Poly((1, 2, 3))
    assert zero.residual(p, Poly.zero()) is None
    assert zero.residual(p, p, 0) is None
    assert _misses(zero, p, p) and _misses(zero, p, Laurent(p, -1), 5)
    assert d_q.residual(Poly.zero(), Poly.zero()) is None
    assert d_q.residual(Poly.zero(), p, 0) is None
    assert _misses(d_q, Poly.zero(), p, F(1, 7))
    assert d_q.residual(Poly.one(), p, 0) is None and _misses(d_q, p, p, 0)
    # D_q(x^3) = (1 + q + q^2) x^2 and nothing else
    x3 = Poly.monomial(3)
    assert d_q.residual(x3, Poly.monomial(2), 1 + Q + Q ** 2) is None
    assert _misses(d_q, x3, Poly.monomial(2), 1 + Q)
    assert _misses(d_q, x3, Poly((1, 0, 1 + Q + Q ** 2)))
    # D(1) = 2/x + 3 has a pole at 0: no polynomial matches it
    pole = QDiffOperator(Q, {0: Laurent(Poly((2, 3)), -1)})
    one = Poly.one()
    assert pole.residual(one, Laurent(Poly((2, 3)), -1)) is None
    assert pole.residual(one, Laurent(Poly((4, 6)), -1), F(1, 2)) is None
    assert _misses(pole, one, Poly((3,)))
    assert _misses(pole, one, Poly((2, 3)))
    assert _misses(pole, one, Laurent(Poly((2,)), -1))
