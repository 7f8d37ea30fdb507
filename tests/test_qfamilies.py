"""Classical families: series values, eigen equations, recurrences."""
from __future__ import annotations

import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkrall import (LaguerreParams, MeixnerParams, ParamDegeneracy, Poly,
                    PolynomialFamily, ThreeTermRecurrence, UnsupportedFamily,
                    alsalam_carlitz, derive_recurrence, family_operator,
                    family_recurrence, gram_matrix, laguerre,
                    laguerre_moments, laguerre_recurrence, meixner,
                    meixner_moments, meixner_recurrence,
                    polys_from_recurrence, q_power_exponent, qpochhammer)
from conftest import B0, C0, Q0, T0, assert_stored_form, wide_fracs
from series_families import series_family

F = Fraction


def test_meixner_eigen_equation():
    fam = meixner(Q0, B0, C0)
    op = family_operator(fam)
    for n in range(11):
        assert op.apply(fam.poly(n)) == Q0 ** n * fam.poly(n)
        assert fam.theta(n) == Q0 ** n
    # b = 0 puts a common factor x in the down and up coefficients; the
    # operator must keep them as they are
    fam = meixner(Q0, 0, C0)
    op = family_operator(fam)
    for n in range(6):
        assert op.apply(fam.poly(n)) == Q0 ** n * fam.poly(n)


def test_laguerre_eigen_equation():
    fam = laguerre(Q0, T0)
    op = family_operator(fam)
    for n in range(11):
        assert op.apply(fam.poly(n)) == T0 * Q0 ** n * fam.poly(n)
        assert fam.theta(n) == T0 * Q0 ** n


def test_meixner_special_value_at_one():
    # m_k with parameter pair (-c, 1/(b c)) collapses at x = 1 to
    # (-1)^k / (q;q)_k for any admissible b, c.
    for b, c in ((B0, C0), (F(2, 7), F(5, 3)), (F(1, 2), F(9, 4))):
        fam = meixner(Q0, -c, 1 / (b * c))
        for k in range(5):
            assert fam.poly(k)(F(1)) == F(-1) ** k / qpochhammer(Q0, Q0, k)


def test_alsalam_carlitz_first_polynomials():
    a = F(4, 3)
    fam = alsalam_carlitz(Q0, a)
    assert fam.poly(0) == Poly.one()
    # v_1 = 1 + (1 - x)/a
    assert fam.poly(1) == Poly((1 + 1 / a, -1 / a))
    with pytest.raises(UnsupportedFamily):
        fam.theta(0)
    with pytest.raises(UnsupportedFamily):
        family_operator(fam)


def test_kind_contradicting_its_params_is_rejected():
    with pytest.raises(UnsupportedFamily, match="q-meixner needs "
                       "MeixnerParams, got LaguerreParams"):
        PolynomialFamily("q-meixner", LaguerreParams(F(2, 5), F(3, 4)))
    with pytest.raises(UnsupportedFamily, match="q-laguerre needs"):
        PolynomialFamily("q-laguerre", MeixnerParams(Q0, B0, C0))
    with pytest.raises(UnsupportedFamily, match="unknown family kind"):
        PolynomialFamily("q-hermite", MeixnerParams(Q0, B0, C0))
    fam = PolynomialFamily("q-laguerre", LaguerreParams(Q0, T0))
    assert fam.poly(2) == laguerre(Q0, T0).poly(2)


def _series(fam):
    return series_family(fam.kind, fam.params)


def test_meixner_recurrence_regenerates_family():
    fam = meixner(Q0, B0, C0)
    rec = meixner_recurrence(fam.params)
    regen = polys_from_recurrence(rec, 10)
    for n in range(11):
        assert regen[n] == _series(fam).poly(n)


@pytest.mark.parametrize("fam", [
    meixner(Q0, B0, C0),
    meixner(Q0, 0, C0),                          # b = 0
    meixner(F(3, 2), B0, C0),                    # q > 1
    meixner(Q0, -C0, 1 / (B0 * C0)),             # meixner-i carrier
    meixner(1 / Q0, B0, C0),                     # meixner-ii carrier
    meixner(Q0, 1 / B0, B0 * C0),                # meixner-iii carrier
    laguerre(Q0, T0),
    laguerre(F(3, 2), F(5, 7)),                  # q > 1
    laguerre(Q0, Q0 ** 2),                       # t = q^alpha
    alsalam_carlitz(Q0, F(4, 3)),
    alsalam_carlitz(F(3, 2), F(-2, 7)),          # a < 0, q > 1
], ids=repr)
def test_recurrence_polys_equal_series(fam):
    for n in range(17):
        assert fam.poly(n) == _series(fam).poly(n), n


@pytest.mark.parametrize("q, t", [(Q0, T0), (F(3, 2), F(5, 7)), (Q0, Q0 ** 2)])
def test_laguerre_recurrence_polys_equal_series_to_degree_64(q, t):
    fam = laguerre(q, t)
    for n in range(65):
        assert fam.poly(n) == _series(fam).poly(n), n


def test_threads_share_one_cache():
    fam = meixner(Q0, B0, C0)
    got: dict[int, list] = {}
    start = threading.Barrier(6)

    def work(i: int) -> None:
        start.wait(timeout=10)
        got[i] = [fam.poly(n) for n in (3 * i + 9, i, 2 * i + 4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
        assert not th.is_alive()
    for i, polys in got.items():
        for n, p in zip((3 * i + 9, i, 2 * i + 4), polys):
            assert p is fam.poly(n) and p == _series(fam).poly(n)
    assert len(got) == 6


def test_derived_recurrence_matches_closed_form():
    fam = meixner(Q0, B0, C0)
    closed = meixner_recurrence(fam.params)
    derived = derive_recurrence(_series(fam), 8)
    for n in range(9):
        assert derived.a(n) == closed.a(n)
        assert derived.b(n) == closed.b(n)
        if n > 0:
            assert derived.c(n) == closed.c(n)


def _same_recurrence(closed, derived, n_top: int) -> None:
    for n in range(n_top + 1):
        assert closed.a(n) == derived.a(n), ("a", n)
        assert closed.b(n) == derived.b(n), ("b", n)
        assert closed.c(n) == derived.c(n), ("c", n)


@pytest.mark.parametrize("q, t", [
    (Q0, T0),                # q < 1
    (F(3, 2), F(5, 7)),      # q > 1
    (Q0, Q0 ** 2),           # t = q^alpha, the point-mass instances' case
])
def test_laguerre_closed_form_equals_derived_recurrence(q, t):
    fam = laguerre(q, t)
    _same_recurrence(laguerre_recurrence(fam.params),
                     derive_recurrence(_series(fam), 64), 64)


@pytest.mark.parametrize("fam", [
    meixner(Q0, B0, C0), laguerre(F(3, 2), F(9, 4)),
    alsalam_carlitz(Q0, F(4, 3)), alsalam_carlitz(F(3, 2), F(-2, 7)),
], ids=["meixner", "laguerre", "al-salam-carlitz", "al-salam-carlitz-q>1"])
def test_family_recurrence_equals_derived_recurrence(fam):
    _same_recurrence(family_recurrence(fam),
                     derive_recurrence(_series(fam), 16), 16)


def test_laguerre_recurrence_round_trip():
    fam = laguerre(Q0, T0)
    rec = derive_recurrence(_series(fam), 8)
    regen = polys_from_recurrence(rec, 8)
    for n in range(9):
        assert regen[n] == _series(fam).poly(n) == fam.poly(n)


def test_meixner_orthogonality_against_moments():
    fam = meixner(Q0, B0, C0)
    mu = meixner_moments(fam.params)
    polys = [fam.poly(n) for n in range(7)]
    gram = gram_matrix(mu, polys)
    for i in range(7):
        for j in range(7):
            if i == j:
                assert gram[i][j] != 0
            else:
                assert gram[i][j] == 0


def test_laguerre_orthogonality_against_moments():
    fam = laguerre(Q0, T0)
    mu = laguerre_moments(fam.params)
    polys = [fam.poly(n) for n in range(7)]
    gram = gram_matrix(mu, polys)
    for i in range(7):
        for j in range(7):
            if i == j:
                assert gram[i][j] != 0
            else:
                assert gram[i][j] == 0


def test_q_power_exponent():
    assert q_power_exponent(F(4, 25), Q0) == 2
    assert q_power_exponent(F(5, 2), Q0) == -1
    assert q_power_exponent(F(1), Q0) == 0
    assert q_power_exponent(F(3, 7), Q0) is None
    # q = +-1 keep their answers: 1 = q^0, and -1 = (-1)^1
    assert q_power_exponent(F(1), F(1)) == 0
    assert q_power_exponent(F(-1), F(-1)) == 1
    assert q_power_exponent(F(-1), F(1)) is None
    assert q_power_exponent(F(2), F(-1)) is None


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
           lambda v: v not in (0, 1, -1)),
       st.integers(-700, 700),
       st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_q_power_exponent_is_exact_with_no_scan_limit(q, e, other):
    assert q_power_exponent(q ** e, q) == e
    assert q_power_exponent(-(q ** e), q) is None
    found = q_power_exponent(other, q)
    assert found is None or q ** found == other


def test_power_of_q_beyond_any_scan_is_still_rejected():
    with pytest.raises(ParamDegeneracy):
        MeixnerParams(Q0, Q0 ** -600, C0)
    with pytest.raises(ParamDegeneracy):
        LaguerreParams(Q0, Q0 ** -700)


def test_parameter_degeneracies_raise():
    with pytest.raises(ParamDegeneracy):
        MeixnerParams(F(1), B0, C0)
    with pytest.raises(ParamDegeneracy):
        MeixnerParams(Q0, Q0 ** -2, C0)  # b on the forbidden q-power ladder
    with pytest.raises(ParamDegeneracy):
        MeixnerParams(Q0, B0, -Q0 ** 2)  # c on the forbidden ladder
    with pytest.raises(ParamDegeneracy):
        LaguerreParams(Q0, F(0))
    with pytest.raises(ParamDegeneracy):
        LaguerreParams(Q0, Q0 ** -3)
    with pytest.raises(ParamDegeneracy):
        alsalam_carlitz(Q0, 0)


def test_polynomials_are_cached_and_consistent():
    fam = meixner(Q0, B0, C0)
    first = fam.poly(6)
    second = fam.poly(6)
    assert first is second
    assert [p.degree() for p in fam.polys_up_to(6)] == list(range(7))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(wide_fracs.filter(bool), wide_fracs, wide_fracs),
                min_size=1, max_size=9))
def test_recurrence_step_equals_schoolbook(table):
    a, b, c = (list(col) for col in zip(*table))
    # the Fraction reference for the fused integer step; c_0 is never read
    ref = [[F(1)]]
    for n in range(len(table)):
        nxt = [F(0), *ref[n]]
        for k, x in enumerate(ref[n]):
            nxt[k] -= b[n] * x
        for k, x in enumerate(ref[n - 1] if n else []):
            nxt[k] -= c[n] * x
        ref.append([x / a[n] for x in nxt])
    rec = ThreeTermRecurrence.from_tables(a, b, c)
    polys = polys_from_recurrence(rec, len(a))
    assert [list(p.coeffs) for p in polys] == ref
    for p in polys:  # a_n < 0 divides by a negative denominator
        assert_stored_form(p)
