"""Exact nullspace search for minimal-order q-difference operators."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qkrall.search
from qkrall import (MEIXNER_I, GammaVanishes, LaguerreParams, MeixnerParams,
                    ParamDegeneracy, Poly, QDiffOperator, SearchProblem, build,
                    check_conjecture_a, check_conjecture_b1,
                    check_conjecture_b2, find_operator, hankel_orthogonal,
                    measure_catalog, minimal_even_order, theorem_catalog)
from conftest import B0, C0, Q0, T0

F = Fraction


def _catalog_eigenpolys(k: int, count: int) -> tuple[list[Poly], object]:
    td = theorem_catalog(MEIXNER_I, MeixnerParams(Q0, B0, C0), k)
    mu = td.measure
    gram = hankel_orthogonal(mu, count - 1)
    return gram.polys, td


def test_search_rediscovers_a_catalogued_operator():
    # the order-4 instance: polynomials orthogonal to the transformed
    # functional admit an operator at half-width 2 and none at 1
    h = 2
    d = 2 * h + 2
    polys, td = _catalog_eigenpolys(1, 2 * h + d + 7)
    found_order, result, attempts = minimal_even_order(polys, Q0, h_max=3)
    assert found_order == 4 == td.expected_order
    assert [a["order"] for a in attempts] == [2, 4]
    assert attempts[0]["found"] is False
    assert attempts[1]["found"] is True
    op = result.operator
    assert op.order() == 4
    for n, p in enumerate(polys[:10]):
        assert op.apply(p) == result.eigenvalues[n] * p


@settings(max_examples=4, deadline=None)
@given(st.sampled_from([F(2, 5), F(3, 7), F(7, 3)]),
       st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9),
       st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9))
def test_search_finds_a_planted_operator_at_its_order(q, b, c):
    # the q_n of a built meixner-i instance (k = 1) are eigenfunctions of
    # an order-4 operator and of none of order 2
    try:
        td = theorem_catalog(MEIXNER_I, MeixnerParams(q, b, c), 1)
        kc = build(td.family, td.spec, td.p2, 16)
    except (ParamDegeneracy, GammaVanishes):
        assume(False)
    polys = [kc.qpoly(n) for n in range(17)]
    found_order, result, _ = minimal_even_order(polys, q, h_max=2)
    assert found_order == kc.operator.order() == 4
    for n, p in enumerate(polys):
        assert result.operator.apply(p) == result.eigenvalues[n] * p


def test_search_eigenvalues_affinely_match_construction():
    # the search normalizes differently, so eigenvalue sequences agree up
    # to an affine map lambda -> A lambda + B with A != 0
    polys, td = _catalog_eigenpolys(1, 17)
    _, result, _ = minimal_even_order(polys, Q0, h_max=2)
    count = len(result.eigenvalues)
    kc = build(td.family, td.spec, td.p2, count - 1)
    built = [kc.lam(n) for n in range(count)]
    found = list(result.eigenvalues)
    denom = built[1] - built[0]
    assert denom != 0
    a_coef = (found[1] - found[0]) / denom
    b_coef = found[0] - a_coef * built[0]
    assert a_coef != 0
    for n in range(count):
        assert found[n] == a_coef * built[n] + b_coef


def test_not_found_when_window_too_small():
    polys, _ = _catalog_eigenpolys(2, 20)  # order-6 instance
    found_order, result, attempts = minimal_even_order(polys, Q0, h_max=2)
    assert found_order is None and result is None
    assert all(a["found"] is False for a in attempts)


def test_problem_validation():
    polys, _ = _catalog_eigenpolys(1, 8)
    with pytest.raises(ValueError):
        SearchProblem(tuple(polys), 0, 2, 2, Q0)
    with pytest.raises(ValueError):
        SearchProblem(tuple(polys[:4]), 1, 4, 2, Q0)
    with pytest.raises(ValueError):
        minimal_even_order(polys[:5], Q0, h_max=1)


def test_trivial_family_is_found_at_width_one():
    # monomials are eigenfunctions of p(x) -> p(qx)
    polys = [Poly.monomial(n) for n in range(13)]
    found_order, result, _ = minimal_even_order(polys, Q0, h_max=1)
    assert found_order == 2
    for n in range(len(result.eigenvalues)):
        assert result.operator.apply(polys[n]) == \
            result.eigenvalues[n] * polys[n]


def test_conjecture_a_single_factor():
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f1=[1])
    assert report["status"] == "found"
    assert report["conjectured_order"] == 4
    assert report["found_order"] == 4
    assert report["order_matches_conjecture"] is True
    orders = {a["order"]: a["found"] for a in report["attempts"]}
    assert orders[2] is False and orders[4] is True
    assert report["quasi_definite"] is True
    assert isinstance(report["operator"], dict)


def test_conjecture_a_rejects_bad_exponents():
    with pytest.raises(ParamDegeneracy):
        check_conjecture_a(MeixnerParams(Q0, B0, C0), f1=[0])
    with pytest.raises(ParamDegeneracy):
        check_conjecture_a(MeixnerParams(Q0, B0, C0), f3=[-2])


@pytest.mark.parametrize("h_max", [0, -2])
def test_empty_search_range_is_rejected(h_max):
    with pytest.raises(ParamDegeneracy, match="empty search range"):
        check_conjecture_a(MeixnerParams(Q0, B0, C0), f1=[1], h_max=h_max)
    with pytest.raises(ParamDegeneracy, match="empty search range"):
        check_conjecture_b1(LaguerreParams(Q0, T0), f_set=[1], h_max=h_max)
    with pytest.raises(ParamDegeneracy, match="empty search range"):
        check_conjecture_b2(LaguerreParams(Q0, Q0 ** 2), h_max=h_max)


def test_conjecture_b1_single_factor():
    report = check_conjecture_b1(LaguerreParams(Q0, T0), f_set=[1])
    assert report["status"] == "found"
    assert report["conjectured_order"] == 4
    assert report["found_order"] == 4


def test_conjecture_b2_requires_shape_information():
    with pytest.raises(ParamDegeneracy):
        # masses list shorter than derivative range
        check_conjecture_b2(LaguerreParams(Q0, Q0 ** 3), k_upper=1,
                            masses=(1,))
    with pytest.raises(ParamDegeneracy):
        # t not a q-power: no catalogued point-mass instance
        check_conjecture_b2(LaguerreParams(Q0, T0))
    with pytest.raises(ParamDegeneracy):
        # alpha = K+1 < K+2: continuous part would be degenerate
        check_conjecture_b2(LaguerreParams(Q0, Q0 ** 2), k_upper=1,
                            masses=(1, 1))
    with pytest.raises(ParamDegeneracy):
        # no conjectured order for F nonempty, so h_max is mandatory
        check_conjecture_b2(LaguerreParams(Q0, Q0 ** 3), f_set=[1])


def test_conjecture_b2_rejects_zero_mass_before_searching(monkeypatch):
    monkeypatch.setattr(qkrall.search, "_search_report", None)
    with pytest.raises(ParamDegeneracy, match="M != 0"):
        check_conjecture_b2(LaguerreParams(Q0, Q0 ** 2), masses=(0,))


def test_conjecture_b2_pure_mass_matches_construction():
    report = check_conjecture_b2(LaguerreParams(Q0, Q0 ** 2), masses=(1,))
    assert report["status"] == "found"
    assert report["conjectured_order"] == 6
    assert report["found_order"] == 6
    agreement = report["theorem_agreement"]
    assert agreement["expected_order"] == 6
    assert agreement["order_agrees"] is True
    assert agreement["eigenvalue_affine_match"] is True
