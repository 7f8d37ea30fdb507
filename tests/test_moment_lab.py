"""Moment functionals: transforms, Hankel orthogonality, degeneracy flags."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qkrall.moments
from qkrall import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                    MEIXNER_III, THEOREMS, CrossCheckFailed,
                    DenominatorVanishes, GramData,
                    LaguerreParams, MeixnerParams, MomentFunctional,
                    NotQuasiDefinite, ParamDegeneracy, Poly,
                    ThreeTermRecurrence, UnknownTheorem,
                    ZeroDilation, leading_principal_minors, solve_exact,
                    add, agree_up_to, christoffel, derive_recurrence, dilate,
                    favard_positivity, geronimus, gram_matrix,
                    hankel_orthogonal, laguerre, laguerre_moments,
                    laguerre_recurrence, combine_with_point_mass,
                    measure_catalog, meixner,
                    meixner_moments, meixner_recurrence,
                    moments_from_recurrence, point_mass, scale, shift,
                    theorem_catalog)
from qkrall.moments import CHECK_TO
from conftest import B0, C0, Q0, T0
from series_families import series_family

F = Fraction


def _from_list(values) -> MomentFunctional:
    vals = [F(v) for v in values]
    return MomentFunctional(lambda n, _prev: vals[n], max_n=len(vals) - 1)


def test_meixner_moments_mass_one_and_recurrence_consistency():
    mu = meixner_moments(MeixnerParams(Q0, B0, C0))
    assert mu.moment(0) == 1
    fam = meixner(Q0, B0, C0)
    rec = derive_recurrence(series_family(fam.kind, fam.params), 14)
    alt = moments_from_recurrence(rec, 12)
    assert agree_up_to(mu, alt, 12) is None


@pytest.mark.parametrize("length", [1, 2, 5])
def test_recurrence_tables_run_out_after_their_last_step(length):
    # mu_n takes one step with a_(n-1), b_(n-1) and c_(n-1), so tables of
    # `length` entries give mu_0..mu_length and then run out
    rec = meixner_recurrence(MeixnerParams(Q0, B0, C0))
    a, b, c = ([f(j) for j in range(length)] for f in (rec.a, rec.b, rec.c))
    walk = moments_from_recurrence(ThreeTermRecurrence.from_tables(a, b, c),
                                   12)
    assert walk.moments(length) == meixner_moments(
        MeixnerParams(Q0, B0, C0)).moments(length)
    for _ in range(2):  # a failed step leaves the walk as it was
        with pytest.raises(ValueError, match="recurrence depth exhausted "
                           f"while extending to moment {length + 1}$"):
            walk.moment(length + 1)


def test_laguerre_moments_match_family_orthogonality():
    lp = LaguerreParams(Q0, T0)
    mu = laguerre_moments(lp)
    assert mu.moment(0) == 1
    fam = laguerre(Q0, T0)
    gram = gram_matrix(mu, fam.polys_up_to(6))
    assert all(gram[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    assert all(gram[i][i] != 0 for i in range(7))


# The family moment recurrences are checked against the general path,
# moments_from_recurrence, through this depth.
ORACLE_DEPTH = 40

base_q = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
    lambda v: v not in (0, 1, -1))
family_value = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _accepted(kind, *values):
    """The parameter set, or a rejected example if kind refuses it."""
    try:
        return kind(*values)
    except ParamDegeneracy:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(base_q, family_value, family_value)
@example(Q0, F(0), C0)                 # b = 0
@example(F(3), F(1, 5), C0)            # q > 1
@example(F(-2, 5), B0, C0)             # q < 0
@example(Q0, B0, F(-3, 7))             # c < 0
def test_meixner_moment_recurrence_equals_the_walk(q, b, c):
    params = _accepted(MeixnerParams, q, b, c)
    walk = moments_from_recurrence(meixner_recurrence(params), ORACLE_DEPTH)
    mu = meixner_moments(params, ORACLE_DEPTH)
    assert agree_up_to(mu, walk, ORACLE_DEPTH) is None


@settings(max_examples=40, deadline=None)
@given(base_q, family_value)
@example(F(3), T0)                     # q > 1
@example(F(-2, 5), F(5))               # q < 0
@example(Q0, F(-3, 4))                 # t < 0
@example(Q0, Q0 ** 2)                  # t = q^alpha
def test_laguerre_moment_recurrence_equals_the_walk(q, t):
    params = _accepted(LaguerreParams, q, t)
    walk = moments_from_recurrence(laguerre_recurrence(params), ORACLE_DEPTH)
    mu = laguerre_moments(params, ORACLE_DEPTH)
    assert agree_up_to(mu, walk, ORACLE_DEPTH) is None


def test_christoffel_is_polynomial_multiplication():
    mu = meixner_moments(MeixnerParams(Q0, B0, C0))
    r = Poly((F(1, 2), -2, 1))
    nu = christoffel(mu, r)
    for p in (Poly.one(), Poly((0, 1)), Poly((3, 0, F(5, 7)))):
        assert nu.pair(p) == mu.pair(r * p)


def test_geronimus_satisfies_its_defining_relation():
    mu = meixner_moments(MeixnerParams(Q0, B0, C0))
    lam, c_scale, seed = F(1, 4), F(3), F(9, 2)
    nu = geronimus(mu, lam, c_scale, seed)
    assert nu.moment(0) == seed
    for n in range(12):
        # (x - lam) nu = c_scale * mu, read off moment-wise
        assert nu.moment(n + 1) - lam * nu.moment(n) == c_scale * mu.moment(n)


def test_geronimus_inverts_christoffel_with_matched_seed():
    mu = meixner_moments(MeixnerParams(Q0, B0, C0))
    lam = F(2, 7)
    forward = christoffel(mu, Poly((-lam, 1)))
    back = geronimus(forward, lam, F(1), mu.moment(0))
    assert agree_up_to(back, mu, 15) is None


def test_point_mass_moments():
    delta = point_mass(F(5, 3))
    for p in (Poly((1, 1)), Poly((0, 0, 2)), Poly((-1, 4, 0, 1))):
        assert delta.pair(p) == p(F(5, 3))
    # first-derivative mass at the origin sees only the linear coefficient
    d1 = point_mass(0, 1, F(7))
    assert [d1.moment(n) for n in range(4)] == [0, -7, 0, 0]
    d2 = point_mass(0, 2, F(1))
    assert [d2.moment(n) for n in range(4)] == [0, 0, 2, 0]
    with pytest.raises(ValueError):
        point_mass(0, -1)


def test_moment_algebra_transforms():
    mu = _from_list([1, 2, 3, 4, 5])
    nu = _from_list([1, 0, 1, 0, 1])
    total = add(scale(mu, F(2)), nu)
    assert [total.moment(n) for n in range(5)] == [3, 4, 7, 8, 11]
    dil = dilate(mu, F(1, 2))
    assert [dil.moment(n) for n in range(5)] == [1, 1, F(3, 4), F(1, 2),
                                                 F(5, 16)]
    with pytest.raises(ZeroDilation):
        dilate(mu, 0)
    # shifting the argument: <mu(x+lam), p> = <mu, p(x-lam)>
    sh = shift(mu, F(3))
    p = Poly((1, -1, 2))
    assert sh.pair(p) == mu.pair(p.shift_arg(-F(3)))


def test_hankel_orthogonal_reproduces_family():
    mp = MeixnerParams(Q0, B0, C0)
    mu = meixner_moments(mp)
    fam = meixner(Q0, B0, C0)
    gd = hankel_orthogonal(mu, 8)
    for n in range(9):
        monic = fam.poly(n) * (1 / fam.poly(n).leading())
        assert gd.polys[n] == monic
        assert gd.norms[n] == mu.pair(gd.polys[n] * gd.polys[n])


def _hankel_reference(mu: MomentFunctional, n_top: int) -> GramData:
    """The monic orthogonal polynomials by one Hankel solve per degree,
    with the determinants from elimination on the full Hankel matrix."""
    h = [[mu.moment(i + j) for j in range(n_top + 1)]
         for i in range(n_top + 1)]
    dets = [F(1)] + leading_principal_minors(h)
    for n in range(1, n_top + 2):
        if n < len(dets) and dets[n] == 0:
            raise NotQuasiDefinite(n)
    polys = [Poly.one()]
    for n in range(1, n_top + 1):
        mat = [[mu.moment(i + m) for m in range(n)] for i in range(n)]
        rhs = [-mu.moment(i + n) for i in range(n)]
        polys.append(Poly(solve_exact(mat, rhs) + [F(1)]))
    norms = [dets[n + 1] / dets[n] for n in range(n_top + 1)]
    return GramData(polys=polys, norms=norms)


def _hankel_outcome(solver, mu: MomentFunctional, n_top: int):
    try:
        return solver(mu, n_top)
    except NotQuasiDefinite as exc:
        return ("not quasi-definite", exc.n)


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
nonzero = small.filter(lambda v: v != 0)


@st.composite
def recurrence_functionals(draw):
    q = draw(st.sampled_from([F(2, 5), F(3, 7), F(3, 2), F(-1, 3)]))
    try:
        if draw(st.booleans()):
            return meixner_moments(MeixnerParams(q, draw(nonzero),
                                                 draw(nonzero)), 24)
        return laguerre_moments(LaguerreParams(q, draw(nonzero)), 24)
    except ParamDegeneracy:
        return meixner_moments(MeixnerParams(Q0, B0, C0), 24)


@st.composite
def christoffel_functionals(draw):
    r = Poly(draw(st.lists(small, min_size=1, max_size=3)) + [F(1)])
    return christoffel(draw(recurrence_functionals()), r)


@st.composite
def geronimus_functionals(draw):
    return geronimus(draw(recurrence_functionals()), draw(small),
                     draw(nonzero), draw(small))


@st.composite
def point_mass_functionals(draw):
    """A sum of point masses, some of them derivatives; degenerate once
    the degree passes the number of conditions they impose."""
    mu = point_mass(draw(small), draw(st.integers(0, 1)), draw(nonzero))
    for _ in range(draw(st.integers(0, 4))):
        mu = add(mu, point_mass(draw(small), draw(st.integers(0, 2)),
                                draw(nonzero)))
    return mu


@st.composite
def literal_functionals(draw):
    return _from_list(draw(st.lists(small, min_size=17, max_size=17)))


functionals = st.one_of(recurrence_functionals(), christoffel_functionals(),
                        geronimus_functionals(), point_mass_functionals(),
                        literal_functionals())


@settings(deadline=None)
@given(functionals, st.integers(0, 8))
def test_hankel_orthogonal_equals_hankel_solve_reference(mu, n_top):
    assert (_hankel_outcome(hankel_orthogonal, mu, n_top)
            == _hankel_outcome(_hankel_reference, mu, n_top))


@pytest.mark.parametrize("mu", [
    christoffel(meixner_moments(MeixnerParams(Q0, B0, C0), 35),
                Poly((B0 * C0 / Q0, 1))),
    christoffel(laguerre_moments(LaguerreParams(Q0, T0), 35),
                Poly((1, Q0)))], ids=["A f1={1}", "B1 f={1}"])
def test_hankel_orthogonal_at_the_search_depth(mu):
    # an order-4 search with h_max = 2 reads q_0..q_16 (n_top = 4 h_max + 8),
    # twice the degree the property above reaches
    assert hankel_orthogonal(mu, 16) == _hankel_reference(mu, 16)


@settings(deadline=None)
@given(st.one_of(recurrence_functionals(), christoffel_functionals(),
                 point_mass_functionals()),
       st.lists(st.lists(small, max_size=9).map(Poly), max_size=5))
def test_gram_matrix_equals_pairing_of_products(mu, polys):
    # unequal degrees, zero polynomials and the empty list all occur
    gram = gram_matrix(mu, polys)
    assert gram == [[mu.pair(a * b) for b in polys] for a in polys]
    # the Fraction reference for both integer kernels, gram_matrix and pair
    assert gram == [[sum((ca * cb * mu.moment(i + k)
                          for i, ca in enumerate(a.coeffs)
                          for k, cb in enumerate(b.coeffs)), F(0))
                     for b in polys] for a in polys]
    assert [mu.pair(p) for p in polys] == [
        sum((c * mu.moment(n) for n, c in enumerate(p.coeffs)), F(0))
        for p in polys]


def test_point_mass_sums_are_degenerate_at_the_reference_index():
    # j distinct point masses leave j orthogonal degrees: Delta_{j+1} = 0
    points = [F(0), F(1), F(-2, 3), F(5, 2), F(7)]
    mu = point_mass(points[0])
    for j in range(1, len(points) + 1):
        if j > 1:
            mu = add(mu, point_mass(points[j - 1], 0, F(j, 3)))
        gd = hankel_orthogonal(mu, j - 1)
        assert gd == _hankel_reference(mu, j - 1)
        for solver in (hankel_orthogonal, _hankel_reference):
            with pytest.raises(NotQuasiDefinite) as info:
                solver(mu, j)
            assert info.value.n == j + 1


def test_hankel_degeneracy_is_named_with_its_index():
    # delta_1 + delta_(-1) has moments 2,0,2,0,...; the 3x3 Hankel
    # determinant vanishes, so only two orthogonal degrees exist.
    mu = add(point_mass(1), point_mass(-1))
    gd = hankel_orthogonal(mu, 1)
    assert gd.polys[1] == Poly.x()
    with pytest.raises(NotQuasiDefinite) as info:
        hankel_orthogonal(mu, 2)
    assert info.value.n == 3


@pytest.mark.parametrize("entry", ["agree_up_to", "favard_positivity",
                                   "combine_with_point_mass"])
def test_negative_index_bound_is_refused(entry):
    # a negative bound leaves an empty index range, which is no pass
    mu = meixner_moments(MeixnerParams(Q0, B0, C0))
    calls = {
        "agree_up_to": lambda: agree_up_to(mu, mu, -1),
        "favard_positivity": lambda: favard_positivity(
            meixner_recurrence(MeixnerParams(Q0, B0, C0)), -1),
        "combine_with_point_mass": lambda: combine_with_point_mass(
            mu, 0, 1, [Poly.one()], -1),
    }
    with pytest.raises(ParamDegeneracy,
                       match="n must be nonnegative, got n = -1"):
        calls[entry]()


def test_favard_positivity_flags():
    positive = meixner_recurrence(MeixnerParams(Q0, B0, C0))
    assert all(favard_positivity(positive, 10))
    # b > 1/q makes a_0 < 0 while c_1 > 0: not a positive instance
    signed = meixner_recurrence(MeixnerParams(Q0, F(4), C0))
    assert not all(favard_positivity(signed, 10))


def test_point_mass_combination_matches_displayed_beta():
    alpha, mass = 2, F(7, 3)
    t = Q0 ** alpha
    td = theorem_catalog(LAGUERRE_II, LaguerreParams(Q0, t), alpha,
                         mass=mass)
    nu = laguerre_moments(LaguerreParams(Q0, t / Q0))
    p_polys = laguerre(Q0, t).polys_up_to(8)
    betas, q_polys = combine_with_point_mass(nu, 0, mass, p_polys, 8)
    for n in range(1, 9):
        assert betas[n] == td.displayed_beta(n), f"n = {n}"
    combined = add(nu, point_mass(0, 0, mass))
    gram = gram_matrix(combined, q_polys)
    assert all(gram[i][j] == 0 for i in range(9) for j in range(9) if i != j)


def test_combination_vanishing_denominator_is_reported():
    nu = point_mass(0, 0, F(1))
    with pytest.raises(DenominatorVanishes) as info:
        combine_with_point_mass(nu, 0, F(-1), [Poly.one(), Poly.x()], 1)
    assert info.value.n == 1


def test_measure_catalog_builds_all_five():
    mp = MeixnerParams(Q0, B0, C0)
    lp = LaguerreParams(Q0, T0)
    for name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        mu = measure_catalog(name, mp, 1)
        assert mu.moment(0) != 0
    mu = measure_catalog(LAGUERRE_I, lp, 1)
    assert mu.moment(0) != 0
    mu = measure_catalog(LAGUERRE_II, LaguerreParams(Q0, Q0 ** 2), 2,
                         mass=F(1))
    assert mu.moment(0) != 0
    with pytest.raises(UnknownTheorem):
        measure_catalog("nope", mp, 1)
    with pytest.raises(UnknownTheorem):
        measure_catalog(MEIXNER_I, lp, 1)


@pytest.mark.parametrize("at", [7, CHECK_TO, CHECK_TO + 1])
def test_catalog_cross_check_names_its_first_failing_moment(monkeypatch, at):
    # meixner-i's reference is the plain q-Meixner functional, scaled; off
    # by one at moment `at` alone, it fails the check there, and past the
    # compared moments 0..CHECK_TO it is not read
    params = MeixnerParams(Q0, B0, C0)
    real = qkrall.moments.meixner_moments

    def meixner_moments(p, n_depth=64):
        mu = real(p, n_depth)
        if p != params:
            return mu
        return MomentFunctional(lambda n, _: mu.moment(n) + (n == at),
                                max_n=mu.max_n)

    monkeypatch.setattr(qkrall.moments, "meixner_moments", meixner_moments)
    if at > CHECK_TO:
        assert measure_catalog(MEIXNER_I, params, 1).moment(at) is not None
        return
    with pytest.raises(CrossCheckFailed) as info:
        measure_catalog(MEIXNER_I, params, 1)
    assert str(info.value) == (
        f"meixner-i: cross-check fails first at moment {at}")


@pytest.mark.parametrize("name", THEOREMS)
@pytest.mark.parametrize("n_depth", [0, 15, 50])
def test_catalog_measure_reaches_any_requested_depth(name, n_depth):
    # the cross-check reads its own 20 moments however shallow the request
    if name == LAGUERRE_II:
        mu = measure_catalog(name, LaguerreParams(Q0, Q0 ** 2), 2, mass=1,
                             n_depth=n_depth)
    elif name == LAGUERRE_I:
        mu = measure_catalog(name, LaguerreParams(Q0, T0), 1,
                             n_depth=n_depth)
    else:
        mu = measure_catalog(name, MeixnerParams(Q0, B0, C0), 1,
                             n_depth=n_depth)
    assert mu.max_n >= n_depth
    assert mu.moment(n_depth) is not None


def test_moment_depth_is_bounded_honestly():
    mu = _from_list([1, 2, 3])
    assert mu.moment(2) == 3
    with pytest.raises(ValueError):
        mu.moment(3)
    with pytest.raises(ValueError):
        mu.moment(-1)
