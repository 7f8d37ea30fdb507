"""Exact nullspace search for minimal-order q-difference operators."""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qkrall.linalg
import qkrall.search
from qkrall import (LAGUERRE_I, MEIXNER_I, CrossCheckFailed, GammaVanishes,
                    LaguerreParams, MeixnerParams, NotQuasiDefinite,
                    ParamDegeneracy, Poly, QDiffOperator, SearchProblem,
                    build, check_conjecture_a, check_conjecture_b1,
                    check_conjecture_b2, christoffel, find_operator,
                    hankel_orthogonal, laguerre_moments, measure_catalog,
                    meixner_moments, minimal_even_order, nullspace,
                    theorem_catalog)
from qkrall.exact import _over_common
from qkrall.linalg import rref
from qkrall.search import _basis, _eigen_rows, _g_of_u, _window_size
from conftest import B0, C0, Q0, T0, reference_configs

F = Fraction


def _catalog_eigenpolys(k: int, count: int) -> tuple[list[Poly], object]:
    td = theorem_catalog(MEIXNER_I, MeixnerParams(Q0, B0, C0), k)
    mu = td.measure
    gram = hankel_orthogonal(mu, count - 1)
    return gram.polys, td


def test_search_rediscovers_a_catalogued_operator():
    # the order-4 instance: polynomials orthogonal to the transformed
    # functional admit an operator at half-width 2 and none at 1
    polys, td = _catalog_eigenpolys(1, _window_size(2))
    found_order, result, attempts = minimal_even_order(polys, Q0, h_max=3)
    assert found_order == 4 == td.expected_order
    assert [a["order"] for a in attempts] == [2, 4]
    assert attempts[0]["found"] is False
    assert attempts[1]["found"] is True
    op = result.operator
    assert op.order() == 4
    for n, p in enumerate(polys[:10]):
        assert op.apply(p) == result.eigenvalues[n] * p


def test_a_wrong_eigenvalue_fails_re_verification(monkeypatch):
    # every basis vector's lambda_2 off by one: the operator is found, and
    # its check D(q_n) == lambda_n q_n fails first at n = 2
    polys, _ = _catalog_eigenpolys(1, _window_size(2))
    problem = SearchProblem(tuple(polys), 2, Q0)
    real = _basis(problem)
    lam_2 = (2 * 2 + 1) ** 2 + 2
    monkeypatch.setattr(qkrall.search, "_basis", lambda _: [
        v[:lam_2] + [v[lam_2] + 1] + v[lam_2 + 1:] for v in real])
    with pytest.raises(CrossCheckFailed,
                       match="search solution fails re-verification at n=2"):
        find_operator(problem)


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
        SearchProblem(tuple(polys), 0, Q0)
    with pytest.raises(ValueError):
        SearchProblem(tuple(polys[:4]), 1, Q0)
    with pytest.raises(ValueError):
        minimal_even_order(polys[:5], Q0, h_max=1)


def test_problem_needs_every_degree_once():
    # the budgets rest on q_0..q_e spanning the polynomials of degree <= e
    polys = [Poly.monomial(n) for n in range(13)]
    SearchProblem(tuple(polys), 1, Q0)
    for bad in (polys[1:] + [Poly.monomial(13)],
                polys[:5] + [Poly.monomial(6)] + polys[6:],
                [Poly.zero()] + polys[1:]):
        with pytest.raises(ValueError, match="exactly 0, 1"):
            SearchProblem(tuple(bad), 1, Q0)


def test_trivial_family_is_found_at_width_one():
    # monomials are eigenfunctions of p(x) -> p(qx)
    polys = [Poly.monomial(n) for n in range(13)]
    found_order, result, _ = minimal_even_order(polys, Q0, h_max=1)
    assert found_order == 2
    for n in range(len(result.eigenvalues)):
        assert result.operator.apply(polys[n]) == \
            result.eigenvalues[n] * polys[n]


def _wide_assemble(eigenpolys, h: int, d: int, t: int, q: Fraction):
    """The search system with free budgets: the ansatz x^{-t} g_j S^j with
    deg g_j <= d, one column per eigenvalue after the g columns."""
    polys = [p.coeffs for p in eigenpolys]
    n_cols_g = (2 * h + 1) * (d + 1)
    n_cols = n_cols_g + len(polys)
    rows = []
    for n, poly in enumerate(polys):
        deg = len(poly) - 1
        for r in range(deg + max(d, t) + 1):
            row = [F(0)] * n_cols
            for j in range(-h, h + 1):
                base = (j + h) * (d + 1)
                for m in range(max(0, r - deg), min(d, r) + 1):
                    row[base + m] = poly[r - m] * q ** (j * (r - m))
            if 0 <= r - t <= deg:
                row[n_cols_g + n] = -poly[r - t]
            if any(row):
                rows.append(row)
    return rows


def _assemble(problem: SearchProblem):
    """The joint system in the g coefficients and the eigenvalues l_n, the
    reference for `_basis`: the wide system at the budgets d = t = 2h."""
    t = 2 * problem.h
    return _wide_assemble(problem.eigenpolys, problem.h, t, t, problem.q)


_QS = st.sampled_from([F(2, 5), F(3, 7), F(7, 3), F(-1, 2)])
_PARAMS = st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9)


def _planted(name, params, count):
    td = theorem_catalog(name, params, 1)
    kc = build(td.family, td.spec, td.p2, count - 1)
    return [kc.qpoly(n) for n in range(count)]


@st.composite
def _search_inputs(draw, h_max: int = 2):
    """(eigenpolys, h, q), h <= h_max: planted meixner-i and laguerre-i q_n,
    monic orthogonal polynomials of perturbed functionals, or random ones."""
    h = draw(st.integers(1, h_max))
    q = draw(_QS)
    count = _window_size(h)
    kind = draw(st.sampled_from(
        ["meixner-i", "laguerre-i", "perturbed", "random"]))
    try:
        if kind == "meixner-i":
            polys = _planted(MEIXNER_I, MeixnerParams(
                q, draw(_PARAMS), draw(_PARAMS)), count)
        elif kind == "laguerre-i":
            polys = _planted(LAGUERRE_I, LaguerreParams(
                q, draw(_PARAMS)), count)
        elif kind == "perturbed":
            base = (meixner_moments(MeixnerParams(q, B0, C0), 2 * count + 2)
                    if draw(st.booleans()) else
                    laguerre_moments(LaguerreParams(q, T0), 2 * count + 2))
            root = draw(st.fractions(min_value=-3, max_value=3,
                                     max_denominator=5))
            mu = christoffel(base, Poly((-root, F(1))))
            polys = hankel_orthogonal(mu, count - 1).polys
        else:
            polys = [_random_poly(draw, n) for n in range(count)]
    except (ParamDegeneracy, GammaVanishes, NotQuasiDefinite):
        assume(False)
    return polys, h, q


def _random_poly(draw, n: int) -> Poly:
    """A polynomial of degree exactly n with coefficients k/d, |k| <= 16
    and 1 <= d <= 4 (integers drawn: Hypothesis draws them far faster than
    `st.fractions`)."""
    nums = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    top = draw(st.integers(1, 16)) * draw(st.sampled_from([1, -1]))
    return Poly([F(k, draw(st.integers(1, 4))) for k in nums + [top]])


def _leading_rows(h: int) -> int:
    """The rows (E) of q_0..q_{2h+2}: what `nullspace` is given first."""
    return (2 * h + 2) * (2 * h + 3) // 2


def _g_rows(problem: SearchProblem, last: int) -> list[list[int]]:
    """The rows (P), then (E) for q_0..q_last, over the g_{j,i}, column
    (j + h)(2h + 1) + i, scaled to integers: (P) for e times (ab)^{he} and
    (E) for n times (ab)^{hn} (the `search` module docstring)."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    polys = [p.nums for p in problem.eigenpolys[:last + 1]]
    top = 2 * h * last
    a_pow = [a ** k for k in range(top + 1)]
    b_pow = [b ** k for k in range(top + 1)]
    n_cols = (2 * h + 1) * (t + 1)

    def s_row(e: int, scale: int) -> list[int]:
        """(ab)^scale q^{je} for j = -h..h: s_i(e)'s coefficients."""
        return [a_pow[scale + j * e] * b_pow[scale - j * e]
                for j in range(-h, h + 1)]

    rows = []
    for e in range(t):
        s_e = s_row(e, h * e)
        for k in range(e + 1, t + 1):
            row = [0] * n_cols
            row[t - k::t + 1] = s_e
            rows.append(row)
    for n, c in enumerate(polys):
        s_n = [s_row(e, h * n) for e in range(n + 1)]
        for r in range(n):
            row = [0] * n_cols
            for k in range(1, min(t, n - r) + 1):
                if c[r + k]:
                    row[t - k::t + 1] = [c[r + k] * x for x in s_n[r + k]]
            if c[r]:
                row[t::t + 1] = [c[r] * (x - y)
                                 for x, y in zip(s_n[r], s_n[n])]
            rows.append(row)
    return rows


def _whole_window_basis(problem: SearchProblem) -> list[list[F]]:
    """The oracle for `_basis`: the nullspace of every row (P) and (E) of
    the window, each vector extended by l_n = s_t(n) as one integer sum at
    the scale (ab)^{hN}, and the joint basis put in RREF: the system over
    the g_{j,i} with the rows (P), which `_basis` solves in closed form."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    top = h * (len(problem.eigenpolys) - 1)
    scale = (a * b) ** top
    joint = []
    for v in nullspace(_g_rows(problem, len(problem.eigenpolys) - 1)):
        w, _ = _over_common(v)
        g = w[t::t + 1]  # g_{j,t} for j = -h..h
        joint.append([sum(a ** (top + j * n) * b ** (top - j * n) * g_j
                          for j, g_j in enumerate(g, -h))
                      for n in reversed(range(len(problem.eigenpolys)))]
                     + [x * scale for x in reversed(w)])
    return [v[::-1] for v in reversed(rref(joint)[0])]


@st.composite
def _prefix_inputs(draw):
    """`_search_inputs`, or monomials, with every q_n from a drawn index
    past the leading rows' q_{2h+2} on replaced by a random polynomial: the
    eigenpolynomials of an operator through the leading rows that stop
    being ones after them, so that `_basis` extends its prefix."""
    if draw(st.booleans()):
        polys, h, q = draw(_search_inputs())
    else:
        h, q = draw(st.integers(1, 2)), draw(_QS)
        polys = [Poly.monomial(n) for n in range(_window_size(h))]
    cut = draw(st.integers(2 * h + 3, len(polys)))
    return (polys[:cut] + [_random_poly(draw, n)
                           for n in range(cut, len(polys))], h, q)


@settings(max_examples=16, deadline=None)
@given(_search_inputs())
def test_derived_budgets_keep_the_wide_solution_space(inputs):
    # the wider ansatz deg g_j <= 2h + 2 finds nothing that the derived one
    # (deg g_j <= 2h, denominator x^{2h}) misses: its extra columns are zero
    # in every solution, and dropping them leaves the same RREF basis
    polys, h, q = inputs
    d, t = 2 * h + 2, 2 * h
    wide = nullspace(_wide_assemble(polys, h, d, t, q))
    keep = [(j + h) * (d + 1) + m for j in range(-h, h + 1)
            for m in range(t + 1)]
    keep += range((2 * h + 1) * (d + 1), (2 * h + 1) * (d + 1) + len(polys))
    kept = set(keep)
    for v in wide:
        assert all(c == 0 for i, c in enumerate(v) if i not in kept)
    problem = SearchProblem(tuple(polys), h, q)
    assert nullspace(_assemble(problem)) == [[v[i] for i in keep]
                                             for v in wide]


@settings(max_examples=20, deadline=None)
@given(_search_inputs())
@example(([Poly.monomial(n) for n in range(13)], 1, Q0))  # a 3-dim basis
def test_reduced_system_gives_the_joint_basis(inputs):
    # the integer rows (E) over the u_{i,m} alone, whose basis is mapped
    # to the g_{j,i}, extended by l_n = s_t(n) and put in normal form, give
    # the joint system's RREF nullspace basis; the identity's column
    # u_{t,h} = g_{0,t} is zero in every row
    polys, h, q = inputs
    problem = SearchProblem(tuple(polys), h, q)
    rows = _eigen_rows(problem, len(polys) - 1)
    assert all(type(c) is int for row in rows for c in row)
    assert {len(row) for row in rows} == {(2 * h + 1) * (h + 1)}
    identity = (2 * h) * (2 * h + 1) // 2 + h
    assert not any(row[identity] for row in rows)
    assert _basis(problem) == nullspace(_assemble(problem))


@pytest.mark.parametrize("q", [F(2, 5), F(3, 7), F(7, 3), F(-1, 2)])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_every_closed_form_column_solves_the_rows_p(h, q):
    # each column of M (the unit u_{i,m} mapped to the g_{j,i}) satisfies
    # every row (P) exactly, and the (2h + 1)(h + 1) columns are
    # independent, so they span the whole nullspace of the rows (P)
    t = 2 * h
    problem = SearchProblem(tuple(Poly.monomial(n)
                                  for n in range(_window_size(h))), h, q)
    rows_p = _g_rows(problem, t)[:h * (t + 1)]
    n_u = (t + 1) * (h + 1)
    columns = [_g_of_u([int(k == m) for k in range(n_u)], q, t)
               for m in range(n_u)]
    for g in columns:
        assert not any(sum(map(mul, row, g)) for row in rows_p)
    assert len(rref(columns)[1]) == n_u == len(nullspace(rows_p))


@settings(deadline=None)
@given(_search_inputs(h_max=3))
@example(([Poly.monomial(n) for n in range(21)], 3, F(-1, 2)))
def test_closed_form_rows_give_the_g_systems_basis(inputs):
    # the nullspace of the rows (E) over the u_{i,m}, mapped through M,
    # spans the nullspace of the rows (P) and (E) over the g_{j,i}: their
    # row-reduced bases are equal, over the whole window, for h = 1..3
    polys, h, q = inputs
    problem = SearchProblem(tuple(polys), h, q)
    last = len(polys) - 1
    mapped = [_g_of_u(_over_common(v)[0], q, 2 * h)
              for v in nullspace(_eigen_rows(problem, last))]
    assert rref(mapped) == rref(nullspace(_g_rows(problem, last)))


@settings(deadline=None)
@given(_prefix_inputs())
@example(([Poly.monomial(n) for n in range(13)], 1, F(-1, 2)))
@example(([Poly.monomial(n) for n in range(8)]
          + [Poly((1,) + (0,) * n + (1,)) for n in range(7, 12)], 1, F(7, 3)))
def test_leading_rows_basis_equals_whole_window_basis(inputs):
    # the basis solved on the leading rows and certified on every later q_n
    # by one integer eigen-check (extending the prefix where one fails) is
    # the whole window's: planted, perturbed, random and monomial q_n, with
    # the ones past a drawn index replaced by random polynomials, at q < 0,
    # 0 < q < 1 and q > 1
    polys, h, q = inputs
    problem = SearchProblem(tuple(polys), h, q)
    assert _basis(problem) == _whole_window_basis(problem)


def _counting_nullspace(monkeypatch) -> list[int]:
    """Log the number of rows of each system `search` gives `nullspace`."""
    calls, real = [], qkrall.search.nullspace

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(qkrall.search, "nullspace", counted)
    return calls


@pytest.mark.parametrize("h, added, dim", [
    (1, {5: Poly.one(), 6: Poly.one()}, 1), (2, {7: Poly.one()}, 4),
    (2, {7: Poly.monomial(3), 8: Poly.monomial(2)}, 3)])
def test_failed_eigen_check_extends_the_leading_rows(monkeypatch, h, added,
                                                     dim):
    # monomials are eigenfunctions of every sum_j g_j S^j (g_{j,i} = 0 for
    # i < 2h), whose eigenvalue on x^e is s(X) = sum_j g_j X^j at X = q^e,
    # and the leading rows of monomials leave just these; x^n + x^r asks
    # s(q^r) = s(q^n), so each such q_n fails the check, extends the prefix
    # through it and is solved again.  Certifying only the first or only
    # the last vector would keep a failing one: at h = 1, x^5 + 1 leaves
    # the identity first and X - c X^-1, c = -q^5, after it, which fails
    # x^6 + 1; at h = 2, x^7 + x^3 leaves, last, X^2 - c X^-2 with c =
    # q^20, equal at X and Y when X^2 Y^2 = q^20: it passes x^8 + x^2,
    # where the vectors before it fail
    polys = [Poly.monomial(n) for n in range(_window_size(h))]
    for n, p in added.items():
        polys[n] = polys[n] + p
    problem = SearchProblem(tuple(polys), h, Q0)
    assert len(nullspace(_eigen_rows(problem, 2 * h + 2))) == 2 * h + 1
    calls = _counting_nullspace(monkeypatch)
    basis = _basis(problem)
    assert calls == [_leading_rows(h) + sum(range(2 * h + 3, n + 1))
                     for n in [2 * h + 2, *added]]
    assert len(basis) == dim
    assert basis == _whole_window_basis(problem) == nullspace(
        _assemble(problem))


def _digest(report: dict) -> str:
    """The whole report (operator, eigenvalues, nullspace dimensions)
    hashed, so a pin does not depend on how the search solves its system."""
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def _search_own_qpolys(name, params, k, mass, bump=0):
    """The construction and the search at h = expected_order / 2 on its
    own q_0..q_{4h+8}, with beta_{2h+3} raised by `bump`:
    q_{2h+3} + bump p_{2h+2}."""
    td = theorem_catalog(name, params, k, mass=mass)
    h = td.expected_order // 2
    kc = build(td.family, td.spec, td.p2, 4 * h + 8)
    polys = [kc.qpoly(n) for n in range(_window_size(h))]
    polys[2 * h + 3] += td.family.poly(2 * h + 2) * bump
    return td, kc, minimal_even_order(polys, params.q, h_max=h)


_REFERENCE = reference_configs()
_REFERENCE_IDS = [f"{name}-{k}" + (f"-M{mass}" if mass else "")
                  for name, _, k, mass in _REFERENCE]


@pytest.mark.parametrize("name, params, k, mass", _REFERENCE,
                         ids=_REFERENCE_IDS)
def test_search_finds_each_reference_operator(name, params, k, mass):
    # on each reference instance's own q_n the search finds exactly the
    # theorem's order, and its operator is A D + B I for the construction's
    # D (A from the eigenvalues, then the operators compared exactly)
    td, kc, (found_order, result, _) = _search_own_qpolys(name, params, k,
                                                         mass)
    assert found_order == td.expected_order == kc.operator.order()
    ells, lams = result.eigenvalues, [kc.lam(0), kc.lam(1)]
    a_coef = (ells[1] - ells[0]) / (lams[1] - lams[0])
    b_coef = ells[0] - a_coef * lams[0]
    assert a_coef != 0
    assert result.operator == (kc.operator * a_coef
                               + QDiffOperator.identity(params.q) * b_coef)


@pytest.mark.parametrize("name, params, k, mass", [
    pytest.param(*c, id=i) for c, i in zip(_REFERENCE, _REFERENCE_IDS)
    if c[2] == 1 and not c[3]])
def test_a_perturbed_beta_has_no_operator_at_the_theorems_order(name, params,
                                                                k, mass):
    # one beta_n off by one inside the window: no operator of order up to
    # the theorem's has these q_n as eigenfunctions
    _, _, (found_order, result, attempts) = _search_own_qpolys(
        name, params, k, mass, bump=1)
    assert found_order is None and result is None
    assert [a["found"] for a in attempts] == [False, False]


def test_conjecture_a_at_order_eight():
    # f3 = {1, 2, 3}: sum (2 sum f - n (n - 1)) + 2 = 2 * 6 - 3 * 2 + 2
    f3 = [1, 2, 3]
    expected = 2 * sum(f3) - len(f3) * (len(f3) - 1) + 2
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f3=f3)
    assert report["conjectured_order"] == expected == 8
    assert report["found_order"] == expected
    assert [a["found"] for a in report["attempts"]] == [False] * 3 + [True]
    assert _digest(report) == ("fe18553f402328d004f0ba0ea0119b99"
                               "4a511b9bae67fdfcd88b8bfab2df652c")


def test_conjecture_a_at_order_ten():
    # f3 = {1, 2, 3, 4}: 2 * 10 - 4 * 3 + 2
    f3 = [1, 2, 3, 4]
    expected = 2 * sum(f3) - len(f3) * (len(f3) - 1) + 2
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f3=f3)
    assert report["conjectured_order"] == expected == 10
    assert report["found_order"] == expected
    assert [a["found"] for a in report["attempts"]] == [False] * 4 + [True]
    assert _digest(report) == ("17d4003f0e0a4a88409eef515126dd85"
                               "d0b9ba4e1003fd87eb0ce7000b4d599a")


def test_conjecture_b2_one_mass_at_order_ten():
    # one mass at alpha = 4: order 2 alpha + 2, the catalogued instance's
    alpha = 4
    report = check_conjecture_b2(LaguerreParams(Q0, Q0 ** alpha),
                                 masses=(1,))
    assert report["conjectured_order"] == 2 * alpha + 2 == 10
    assert report["found_order"] == 10
    assert report["theorem_agreement"] == {
        "expected_order": 10, "order_agrees": True,
        "eigenvalue_affine_match": True}
    assert _digest(report) == ("a96fa6a04c8232e78885db1aa9b46033"
                               "0277bddd7b53948b9e5b433a8f6471f6")


def test_conjecture_a_at_order_twelve():
    # f3 = {1, ..., 5}: 2 * 15 - 5 * 4 + 2
    f3 = [1, 2, 3, 4, 5]
    expected = 2 * sum(f3) - len(f3) * (len(f3) - 1) + 2
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f3=f3)
    assert report["conjectured_order"] == expected == 12
    assert report["found_order"] == expected
    assert [a["found"] for a in report["attempts"]] == [False] * 5 + [True]
    assert _digest(report) == ("7183882f558c6a0e3614f77a7b156634"
                               "ca824f9202459ea130e926fe4a4f946c")


def test_conjecture_a_mixed_factors_at_order_ten():
    # f1 = {1, 2}, f3 = {1, 2}: 2 + (2 * 3 - 2 * 1) + (2 * 3 - 2 * 1)
    f1, f3 = [1, 2], [1, 2]
    expected = 2 + sum(2 * sum(f) - len(f) * (len(f) - 1) for f in (f1, f3))
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f1=f1, f3=f3)
    assert report["conjectured_order"] == expected == 10
    assert report["found_order"] == expected
    assert _digest(report) == ("82aae0a7fc7cc911f837e713a1ad6e99"
                               "22cbdf4a76412470b5d0233f4b093f1c")


def test_conjecture_b1_at_order_ten():
    # f = {1, 2, 3, 4} at t = 3/4: 2 * 10 - 4 * 3 + 2
    f = [1, 2, 3, 4]
    expected = 2 * sum(f) - len(f) * (len(f) - 1) + 2
    report = check_conjecture_b1(LaguerreParams(Q0, T0), f_set=f)
    assert report["conjectured_order"] == expected == 10
    assert report["found_order"] == expected
    assert _digest(report) == ("cdeadc4999d3e7ec5d8a713afbc92469"
                               "a8f205400c2d18f6e227548f447280bb")


def test_conjecture_b2_one_mass_at_order_twelve():
    # one mass at alpha = 5: order 2 alpha + 2, the catalogued instance's
    alpha = 5
    report = check_conjecture_b2(LaguerreParams(Q0, Q0 ** alpha),
                                 masses=(1,))
    assert report["conjectured_order"] == 2 * alpha + 2 == 12
    assert report["found_order"] == 12
    assert report["theorem_agreement"] == {
        "expected_order": 12, "order_agrees": True,
        "eigenvalue_affine_match": True}
    assert _digest(report) == ("db9cc9308d61c532be244b0dfddb211a"
                               "02434838c83d27b63162781fff7bd6ee")


def test_conjecture_a_at_order_fourteen():
    # f3 = {1, ..., 6}: 2 * 21 - 6 * 5 + 2
    f3 = [1, 2, 3, 4, 5, 6]
    expected = 2 * sum(f3) - len(f3) * (len(f3) - 1) + 2
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f3=f3)
    assert report["conjectured_order"] == expected == 14
    assert report["found_order"] == expected
    assert [a["found"] for a in report["attempts"]] == [False] * 6 + [True]
    assert _digest(report) == ("fb651f644dde05718fb64df9671f715b"
                               "a02768a04cc9cf9906daf0911e0c8f4c")


def _stages_per_attempt(monkeypatch) -> dict[int, dict]:
    """For each half-width's find_operator: each stop of every prime's
    elimination as (prime, rows given, columns that may hold a pivot, rows
    kept, the row index it stopped at), and the number of entries
    reconstructed."""
    stages, lifted = [], []
    scan, lift = qkrall.linalg._independent_mod_p, qkrall.linalg._lift
    find = qkrall.search.find_operator
    per_h: dict[int, dict] = {}

    def counted_scan(rows, cols, p):
        for kept, pivots, image, stop in scan(rows, cols, p):
            stages.append((p, len(rows), len(cols), kept, stop))
            yield kept, pivots, image, stop

    def counted_lift(image, m, pivots, ncols):
        lifted.append(len(image) * len(pivots))
        return lift(image, m, pivots, ncols)

    def counted_find(problem):
        start, lift_start = len(stages), len(lifted)
        result = find(problem)
        per_h[problem.h] = {"stages": stages[start:],
                            "entries": sum(lifted[lift_start:])}
        return result

    monkeypatch.setattr(qkrall.linalg, "_independent_mod_p", counted_scan)
    monkeypatch.setattr(qkrall.linalg, "_lift", counted_lift)
    monkeypatch.setattr(qkrall.search, "find_operator", counted_find)
    return per_h


# search-scan's three shapes (h_max = 2), the order-6 A f3={1,2} and the
# order-8 pins: (check, params, kwargs, primes of the found attempt, digest)
_PINNED = [
    (check_conjecture_a, MeixnerParams(Q0, B0, C0), {"f3": [1, 2]}, 1,
     "6cdab6c3c274c4aa2cdc3ab4f3ba81608372ba5cd86f4959c611d2f8e877f769"),
    (check_conjecture_a, MeixnerParams(Q0, B0, C0), {"f1": [1], "h_max": 2},
     1, "0a12937fcf1be470eb887d2c399268f91e07da874f67b400e20d5fbf422dfb2e"),
    (check_conjecture_a, MeixnerParams(Q0, B0, C0), {"f3": [1], "h_max": 2},
     1, "77d75a536f3538793f16809e3d6a78addb27e9e0bb7cd12db37d07faabcfe1d5"),
    (check_conjecture_b1, LaguerreParams(Q0, T0), {"f_set": [1], "h_max": 2},
     1, "418a193a3fbd06e484cbf271ef1160c603dac81155e5c3397f6aa5d2a24742e1"),
    (check_conjecture_a, MeixnerParams(Q0, B0, C0), {"f3": [1, 2, 3]}, 2,
     "fe18553f402328d004f0ba0ea0119b994a511b9bae67fdfcd88b8bfab2df652c"),
    (check_conjecture_a, MeixnerParams(Q0, B0, C0), {"f1": [1], "f3": [1, 2]},
     2, "44f0aeed3fa4718e33efc5c74793cdfcd73ac4418e3385519e8157e1ca1dbd07"),
    (check_conjecture_b1, LaguerreParams(Q0, T0), {"f_set": [1, 2, 3]}, 2,
     "04608fa91661543c56a74054a1efb247059b3570f6b1341549e9a2a5ce9d49c9"),
    (check_conjecture_b2, LaguerreParams(Q0, Q0 ** 3), {"masses": (1,)}, 1,
     "8f936240ca32eeb78302a9537ec0c05c70d1d041afd7d4075f13cdbd2ed81a7d")]
_PINNED_IDS = ["A-f3=1,2", "A-f1=1", "A-f3=1", "B1-f=1", "A-f3=1,2,3",
               "A-f1=1-f3=1,2", "B1-f=1,2,3", "B2-alpha=3"]


@pytest.mark.parametrize("check, params, kwargs, primes, digest", _PINNED,
                         ids=_PINNED_IDS)
def test_not_found_attempts_are_decided_without_a_solve(monkeypatch, check,
                                                        params, kwargs,
                                                        primes, digest):
    # `nullspace` is given only the leading rows; below the found order
    # only the identity solves them, and its column g_{0,2h} is zero in
    # every row, so the scan mod 2^61 - 1 ends by full rank on the other
    # columns, with no row found dependent and no entry to reconstruct; the
    # found attempt's scan keeps rows 0..rank-1 and stops at row rank, the
    # Z check decides every leading row after it with no resume, and the
    # found attempts of A f3={1,2,3}, A f1={1} f3={1,2} and B1 f={1,2,3}
    # add one prime that eliminates only the kept rows
    per_h = _stages_per_attempt(monkeypatch)
    report = check(params, **kwargs)
    *missed, hit = report["attempts"]
    for attempt in missed:
        assert attempt["found"] is False and attempt["nullspace_dim"] == 1
        [(p, rows, cols, kept, stop)] = per_h[attempt["half_width"]]["stages"]
        assert p == (1 << 61) - 1 and len(kept) == cols and stop == rows
        assert rows == _leading_rows(attempt["half_width"])
        assert per_h[attempt["half_width"]]["entries"] == 0
    assert hit["found"] is True
    (p, rows, _, kept, stop), *more = per_h[hit["half_width"]]["stages"]
    assert p == (1 << 61) - 1 and kept == list(range(stop))
    assert rows == _leading_rows(hit["half_width"])
    assert len(more) == primes - 1
    assert all(p_q != p and rows == len(kept_q) == stop_q == stop
               for p_q, rows, _, kept_q, stop_q in more)
    assert per_h[hit["half_width"]]["entries"] > 0
    assert _digest(report) == digest


@pytest.mark.parametrize("check, params, kwargs",
                         [case[:3] for case in _PINNED], ids=_PINNED_IDS)
def test_each_attempt_solves_its_leading_rows_once(monkeypatch, check,
                                                   params, kwargs):
    # every later q_n passes the integer eigen-check in these searches, so
    # each attempt calls `nullspace` once, on its leading rows alone
    calls = _counting_nullspace(monkeypatch)
    report = check(params, **kwargs)
    assert calls == [_leading_rows(attempt["half_width"])
                     for attempt in report["attempts"]]


def test_conjecture_a_mixed_factors_at_order_eight():
    # f1 = {1}, f3 = {1, 2}: 2 + (2 * 1 - 0) + (2 * 3 - 2 * 1) = 8
    f1, f3 = [1], [1, 2]
    expected = 2 + sum(2 * sum(f) - len(f) * (len(f) - 1) for f in (f1, f3))
    report = check_conjecture_a(MeixnerParams(Q0, B0, C0), f1=f1, f3=f3)
    assert report["conjectured_order"] == expected == 8
    assert report["found_order"] == expected


def test_conjecture_b1_at_order_eight():
    # f = {1, 2, 3}: 2 * 6 - 3 * 2 + 2
    f = [1, 2, 3]
    expected = 2 * sum(f) - len(f) * (len(f) - 1) + 2
    report = check_conjecture_b1(LaguerreParams(Q0, T0), f_set=f)
    assert report["conjectured_order"] == expected == 8
    assert report["found_order"] == expected


def test_conjecture_b2_one_mass_at_order_eight():
    # one mass at alpha = 3: order 2 alpha + 2, the catalogued instance's
    alpha = 3
    report = check_conjecture_b2(LaguerreParams(Q0, Q0 ** alpha),
                                 masses=(1,))
    assert report["conjectured_order"] == 2 * alpha + 2 == 8
    assert report["found_order"] == 8
    assert report["theorem_agreement"] == {
        "expected_order": 8, "order_agrees": True,
        "eigenvalue_affine_match": True}


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
