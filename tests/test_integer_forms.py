"""The q^n closed forms over integers, against the Fraction forms they replace.

Every scalar of the q-constructions is a rational function of q^n.  The
library evaluates each one as a single integer expression in u^n and v^n
at q = u/v and builds one Fraction from it.  The Fraction expressions
below are the forms those replaced; each property checks one against the
other over q < 0, 0 < q < 1 and q > 1, negative parameters and
numerators up to 10^12.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkrall import (LAGUERRE, LAGUERRE_I, LAGUERRE_II, MEIXNER, MEIXNER_I,
                    MEIXNER_II, MEIXNER_III, THEOREMS, AlSalamCarlitzParams,
                    CrossCheckFailed, DenominatorVanishes, DOperatorSpec,
                    GammaVanishes, LaguerreParams, Laurent, MeixnerParams,
                    MomentFunctional, ParamDegeneracy, Poly,
                    PolynomialFamily, QDiffOperator, add, alsalam_carlitz,
                    alsalam_carlitz_recurrence, build, christoffel,
                    combine_with_point_mass, dop_catalog, geronimus,
                    laguerre_moments, laguerre_recurrence, meixner,
                    meixner_moments, meixner_recurrence,
                    moments_from_recurrence, point_mass, rational,
                    rational_str, theorem_catalog)
from qkrall.exact import _eval, _scaled
from qkrall.moments import CHECK_TO, _cross_check
from conftest import assert_normal_laurent, assert_stored_form, wide_fracs

F = Fraction

bases = wide_fracs.filter(lambda q: q not in (0, 1, -1))
depths = st.integers(0, 16)
# one example below -1, in (-1, 0), in (0, 1), above 1, and one large
EXAMPLE_BASES = (F(-7, 3), F(-2, 5), F(2, 5), F(7, 3), F(10 ** 12 + 1, 3))


def _accepted(kind, *values):
    """The parameter set, or a rejected example if kind refuses it."""
    try:
        return kind(*values)
    except ParamDegeneracy:
        assume(False)


def _with_bases(*rest):
    """Each of EXAMPLE_BASES as an explicit example, with the arguments
    rest after it."""
    def add_examples(test):
        for q in EXAMPLE_BASES:
            test = example(q, *rest)(test)
        return test
    return add_examples


def _meixner_forms(p: MeixnerParams, n: int) -> tuple[F, F, F]:
    q, b, c = p.q, p.b, p.c
    a = c * (1 - q ** (n + 1)) * (1 - b * q ** (n + 1)) / q ** (2 * n + 1)
    b_n = 1 + c * (1 - b * q ** (n + 1)) / q ** (2 * n + 1)
    if n > 0:
        b_n += (1 - q ** n) * (c + q ** n) / q ** (2 * n)
    return a, b_n, (c + q ** n) / q ** (2 * n) if n else F(0)


def _laguerre_forms(p: LaguerreParams, n: int) -> tuple[F, F, F]:
    q, t = p.q, p.t
    a = (1 - t * q ** (n + 1)) * (1 - q ** (n + 1)) / (t * q ** (2 * n + 1))
    b_n = ((1 - q ** (n + 1)) + q * (1 - t * q ** n)) / (t * q ** (2 * n + 1))
    return a, b_n, 1 / (t * q ** (2 * n)) if n else F(0)


def _alsalam_carlitz_forms(p: AlSalamCarlitzParams, n: int) -> tuple[F, F, F]:
    q, a = p.q, p.a
    return -a / q ** n, (1 + a) / q ** n, (q ** n - 1) / q ** n if n else F(0)


def _coefficients(rec, n: int) -> tuple[F, F, F]:
    out = (rec.a(n), rec.b(n), rec.c(n))
    assert all(type(x) is F for x in out)
    return out


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, depths)
@_with_bases(F(-5, 3), F(-3, 7), 5)
def test_meixner_coefficients_equal_fraction_forms(q, b, c, n):
    p = _accepted(MeixnerParams, q, b, c)
    assert _coefficients(meixner_recurrence(p), n) == _meixner_forms(p, n)


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, depths)
@_with_bases(F(-5, 3), F(-3, 7), 5)
def test_laguerre_coefficients_equal_fraction_forms(q, t, _, n):
    p = _accepted(LaguerreParams, q, t)
    assert _coefficients(laguerre_recurrence(p), n) == _laguerre_forms(p, n)


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, depths)
@_with_bases(F(-5, 3), F(-3, 7), 5)
def test_alsalam_carlitz_coefficients_equal_fraction_forms(q, a, _, n):
    p = _accepted(AlSalamCarlitzParams, q, a)
    assert (_coefficients(alsalam_carlitz_recurrence(p), n)
            == _alsalam_carlitz_forms(p, n))


def _ladder_forms(family: PolynomialFamily) -> dict:
    """spec_id -> (eps as a Fraction form, v)."""
    q = family.q
    if family.kind == MEIXNER:
        b, c = family.params.b, family.params.c
        return {"q-meixner-1": (lambda n: F(1), 1 / (q * (q - 1))),
                "q-meixner-2": (lambda n: 1 / (1 - b * q ** n),
                                1 / (c * (1 - q))),
                "q-meixner-3": (lambda n: (c + q ** n) / (c * (1 - b * q ** n)),
                                1 / (q * (q - 1)))}
    t = family.params.t
    return {"q-laguerre-1": (lambda n: F(1), 1 / q),
            "q-laguerre-2": (lambda n: 1 / (1 - t * q ** n), 1 / q)}


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, st.integers(-4, 16), st.booleans())
@_with_bases(F(-5, 3), F(-3, 7), -3, True)
@_with_bases(F(-5, 3), F(-3, 7), 5, False)
def test_eigenvalues_and_ladder_values_equal_fraction_forms(q, b, c, n,
                                                            is_meixner):
    # theta_n = theta_0 q^n, sigma_n = v q^n (n < 0 too) and eps_n (n >= 1)
    if is_meixner:
        family = PolynomialFamily(MEIXNER, _accepted(MeixnerParams, q, b, c))
        theta = q ** n
    else:
        family = PolynomialFamily(LAGUERRE, _accepted(LaguerreParams, q, b))
        theta = b * q ** n
    assert family.theta(n) == theta and type(family.theta(n)) is F
    forms = _ladder_forms(family)
    specs = dop_catalog(family)
    assert [s.spec_id for s in specs] == list(forms)
    for spec in specs:
        eps, v = forms[spec.spec_id]
        assert spec.v == v
        assert spec.sigma(n) == v * q ** n
        if n >= 1:
            assert spec.eps(n) == eps(n)


# terms at shifts -3..3 with wide coefficients, valuations -3..2
wide_laurents = st.builds(
    Laurent, st.lists(wide_fracs, max_size=4).map(Poly), st.integers(-3, 2))
operators = st.builds(QDiffOperator, bases,
                      st.dictionaries(st.integers(-3, 3), wide_laurents,
                                      max_size=3))


def _terms(f: Laurent) -> dict[int, F]:
    return {e: c for e, c in enumerate(f.poly.coeffs, f.val) if c}


def _image(op: QDiffOperator, e: int) -> dict[int, F]:
    """g_e = sum_j q^(je) f_j, the image of x^e over x^e, in Fractions."""
    out: dict[int, F] = {}
    for j, f in op.terms.items():
        scale = op.q ** (j * e)
        for k, c in _terms(f).items():
            out[k] = out.get(k, F(0)) + scale * c
    return out


def _apply_form(op: QDiffOperator, p: Laurent) -> dict[int, F]:
    out: dict[int, F] = {}
    for e, c in _terms(p).items():
        for k, g in _image(op, e).items():
            out[e + k] = out.get(e + k, F(0)) + c * g
    return {k: c for k, c in out.items() if c}


# q < 0 with an odd negative je, where q^(je) has a negative denominator
NEGATIVE_BASE_OP = QDiffOperator(F(-2, 5), {1: Laurent(Poly((1, F(3, 7))), -1),
                                            -2: Laurent(Poly((F(5, 3),)))})


@settings(deadline=None)
@given(operators, st.lists(wide_laurents, min_size=1, max_size=3))
@example(NEGATIVE_BASE_OP, [Laurent(Poly((F(-5, 9), 2)), 0)])
def test_apply_images_equal_fraction_forms(op, ps):
    # each operand also at val - 3, so images at negative e are read
    for p in ps + [Laurent(p.poly, p.val - 3) for p in ps]:
        image = op.apply(p)
        assert_normal_laurent(image)
        assert _terms(image) == _apply_form(op, p)


def _compose_form(a: QDiffOperator, b: QDiffOperator) -> dict:
    """shift -> terms of sum f_j1(x) g_j2(q^j1 x) over j1 + j2 = shift."""
    out: dict[int, dict[int, F]] = {}
    for j1, f in a.terms.items():
        lam = a.q ** j1
        for j2, g in b.terms.items():
            row = out.setdefault(j1 + j2, {})
            for e1, c1 in _terms(f).items():
                for e2, c2 in _terms(g).items():
                    row[e1 + e2] = row.get(e1 + e2, F(0)) + c1 * c2 * lam ** e2
    rows = {j: {e: c for e, c in row.items() if c} for j, row in out.items()}
    return {j: row for j, row in rows.items() if row}


@settings(deadline=None)
@given(operators, st.dictionaries(st.integers(-3, 3), wide_laurents,
                                  max_size=3))
@example(NEGATIVE_BASE_OP, dict(NEGATIVE_BASE_OP.terms))
def test_compose_equals_fraction_form(a, terms):
    b = QDiffOperator(a.q, terms)
    got = a.compose(b)
    assert got.q is a.q
    for f in got.terms.values():
        assert_normal_laurent(f)
    assert {j: _terms(f) for j, f in got.terms.items()} == _compose_form(a, b)


nonzero_ints = st.one_of(st.integers(-9, 9),
                         st.integers(-10 ** 12, 10 ** 12)).filter(bool)


@settings(deadline=None)
@given(st.lists(wide_fracs, max_size=6).map(Poly), nonzero_ints,
       nonzero_ints)
@example(Poly((1, F(-3, 4), 2)), -3, 5)
def test_scaled_equals_fraction_form(p, u, v):
    # lam = u/v need not be in lowest terms, and v may be negative
    lam = F(u, v)
    got = _scaled(p, u, v)
    assert_stored_form(got)
    want = [c * lam ** i for i, c in enumerate(p.coeffs)]
    assert got == Poly(want)


@settings(deadline=None)
@given(st.lists(wide_fracs, max_size=6).map(Poly), nonzero_ints,
       nonzero_ints)
@example(Poly((1, F(-3, 4), 2)), 6, -4)
@example(Poly(()), 5, -3)
def test_eval_equals_fraction_form(p, u, v):
    # the point u/v need not be in lowest terms, and v may be negative
    num, den = _eval(p, u, v)
    assert F(num, den) == sum((c * F(u, v) ** i
                               for i, c in enumerate(p.coeffs)), F(0))

def _meixner_moment_forms(p: MeixnerParams, depth: int) -> list[F]:
    q, bc = p.q, p.b * p.c
    mu = [F(1), _meixner_forms(p, 0)[1]]
    for n in range(2, depth + 1):
        r = 1 / q ** (n - 1)
        mu.append((p.c * r / q + 1 - bc) * mu[n - 1] + bc * (1 - r) * mu[n - 2])
    return mu[:depth + 1]


def _laguerre_moment_forms(p: LaguerreParams, depth: int) -> list[F]:
    mu = [F(1)]
    for n in range(1, depth + 1):
        mu.append(mu[n - 1] * (1 / (p.t * p.q ** n) - 1))
    return mu


MOMENT_DEPTH = 12


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs)
@_with_bases(F(-5, 3), F(-3, 7))
def test_meixner_moment_steps_equal_fraction_forms(q, b, c):
    p = _accepted(MeixnerParams, q, b, c)
    got = meixner_moments(p, MOMENT_DEPTH).moments(MOMENT_DEPTH)
    assert got == _meixner_moment_forms(p, MOMENT_DEPTH)
    walk = moments_from_recurrence(meixner_recurrence(p), MOMENT_DEPTH)
    assert got == walk.moments(MOMENT_DEPTH)


@settings(deadline=None)
@given(bases, wide_fracs)
@example(F(-7, 3), F(-3, 7))
@example(F(10 ** 12 + 1, 3), F(5, 2))
def test_laguerre_moment_steps_equal_fraction_forms(q, t):
    p = _accepted(LaguerreParams, q, t)
    got = laguerre_moments(p, MOMENT_DEPTH).moments(MOMENT_DEPTH)
    assert got == _laguerre_moment_forms(p, MOMENT_DEPTH)
    walk = moments_from_recurrence(laguerre_recurrence(p), MOMENT_DEPTH)
    assert got == walk.moments(MOMENT_DEPTH)


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs,
       st.lists(wide_fracs, max_size=5).map(Poly),
       st.lists(st.tuples(wide_fracs, st.integers(0, 2), wide_fracs),
                max_size=2))
def test_christoffel_equals_fraction_form(q, b, c, r, masses):
    # r mu for a q-Meixner functional plus (derivatives of) point masses
    mu = meixner_moments(_accepted(MeixnerParams, q, b, c), 10)
    for lam, j, mass in masses:
        mu = add(mu, point_mass(lam, j, mass))
    nu = christoffel(mu, r)
    for n in range(10 - max(r.degree(), 0) + 1):
        want = sum((c * mu.moment(n + k) for k, c in enumerate(r.coeffs)),
                   F(0))
        assert nu.moment(n) == want


# The Krall construction and the catalog checks over integers, against
# the Fraction forms they replaced.

def _at(p: Poly, x: F) -> F:
    """p(x) by Horner over the Fraction coefficients."""
    out = F(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def _build_form(family: PolynomialFamily, spec: DOperatorSpec, p2: Poly,
                n_top: int):
    """(gammas, lambdas, betas, q_n, P1) of build as Fraction forms, or
    ("gamma", n) / ("lambda", n) where build raises GammaVanishes(n) or
    its check lambda_{n+1} + lambda_n = P1(theta_n) first fails."""
    q, u, v = family.q, family.theta(0), spec.v
    p1 = Poly((F(0), v * q / u)) * Poly(
        [c * (1 - F(2) / (1 - q ** (j + 1))) for j, c in enumerate(p2.coeffs)])
    thetas = [u * q ** n for n in range(n_top + 1)]
    gammas = [_at(p2, x) for x in thetas]
    if 0 in gammas:
        return "gamma", gammas.index(0) + 1
    lambdas = [(_at(p1, u) - v * spec.q * gammas[0]) / 2]
    for n in range(1, n_top + 1):
        lambdas.append(lambdas[n - 1] + v * spec.q ** n * gammas[n - 1])
    for n in range(n_top):
        if lambdas[n + 1] + lambdas[n] != _at(p1, thetas[n]):
            return "lambda", n
    betas = [spec.eps(n) * gammas[n] / gammas[n - 1]
             for n in range(1, n_top + 1)]
    qpolys = [family.poly(0)] + [family.poly(n) + beta * family.poly(n - 1)
                                 for n, beta in enumerate(betas, 1)]
    return gammas, lambdas, betas, qpolys, p1


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, st.booleans(), st.integers(0, 2),
       st.lists(wide_fracs, max_size=4).map(Poly), st.integers(0, 8),
       st.one_of(st.none(), bases))
@example(F(2, 5), F(1, 3), F(3, 2), True, 0, Poly((1, 2)), 4, F(3, 7))
@_with_bases(F(-5, 3), F(-3, 7), True, 2, Poly((F(-3, 4), 2)), 6, None)
@_with_bases(F(-5, 3), F(-3, 7), False, 1, Poly((F(-3, 4), 2)), 6, None)
def test_build_equals_fraction_form(q, b, c, is_meixner, which, p2, n_top,
                                    spec_q):
    if is_meixner:
        family = PolynomialFamily(MEIXNER, _accepted(MeixnerParams, q, b, c))
    else:
        family = PolynomialFamily(LAGUERRE, _accepted(LaguerreParams, q, b))
    specs = dop_catalog(family)
    spec = specs[which % len(specs)]
    if spec_q is not None:  # sigma_n over another base fails the lambda check
        spec = DOperatorSpec(spec.spec_id, spec.eps, spec.v, spec_q,
                             lambda: None)
    want = _build_form(family, spec, p2, n_top)
    try:
        kc = build(family, spec, p2, n_top)
    except GammaVanishes as exc:
        assert want == ("gamma", exc.n)
        return
    except CrossCheckFailed as exc:
        assert want[0] == "lambda"
        n = want[1]
        assert str(exc).startswith(
            f"lambda_{n + 1} + lambda_{n} != P1(theta_{n});")
        return
    gammas, lambdas, betas, qpolys, p1 = want
    got = ([kc.gamma(n) for n in range(1, n_top + 2)],
           [kc.lam(n) for n in range(n_top + 1)],
           [kc.beta(n) for n in range(1, n_top + 1)])
    assert got == (gammas, lambdas, betas)
    assert all(type(x) is F for xs in got for x in xs)
    assert kc.qpolys() == qpolys and kc.p1 == p1
    for p in (*qpolys, p1):
        assert_stored_form(p)


def _displayed_beta_form(name: str, params, k: int, mass, n: int) -> F:
    """beta_n as each instance displays it, in Fractions."""
    q = params.q
    if name == LAGUERRE_II:
        t = params.t

        def gam(i: int) -> F:   # 1 + M (q^(i+1); q)_k / (q; q)_k
            num = den = F(1)
            for j in range(1, k + 1):
                num *= 1 - q ** (i + j)
                den *= 1 - q ** j
            return 1 + mass * num / den
        return gam(n) / ((1 - t * q ** n) * gam(n - 1))
    if name == LAGUERRE_I:
        pk = alsalam_carlitz(q, 1 / params.t).poly(k)
        return _at(pk, q ** (n + 1)) / _at(pk, q ** n)
    b, c = params.b, params.c
    if name == MEIXNER_I:
        pk = meixner(q, -c, 1 / (b * c)).poly(k)
        return _at(pk, q ** (n + 1)) / _at(pk, q ** n)
    if name == MEIXNER_II:
        pk = meixner(1 / q, b, c).poly(k)
        return (_at(pk, b * q ** n)
                / ((1 - b * q ** n) * _at(pk, b * q ** (n - 1))))
    pk = meixner(q, 1 / b, b * c).poly(k)
    return ((c + q ** n) / (c * (1 - b * q ** n))
            * (_at(pk, q ** (n + 1)) / _at(pk, q ** n)))


def _outcome(f, *args):
    """f(*args), a Fraction, or ZeroDivisionError if it raises that."""
    try:
        value = f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError
    assert type(value) is F
    return value


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, st.sampled_from(THEOREMS),
       st.integers(0, 3), st.integers(1, 10))
@_with_bases(F(-5, 3), F(-3, 7), MEIXNER_II, 2, 3)
@_with_bases(F(-5, 3), F(-3, 7), MEIXNER_III, 2, 3)
@_with_bases(F(-5, 3), F(-3, 7), LAGUERRE_II, 2, 3)
def test_displayed_betas_equal_fraction_forms(q, b, c, name, k, n):
    # b and c are the Meixner b and c; b is the Laguerre t of laguerre-i,
    # and c the point mass M of laguerre-ii, whose t is q^alpha
    if name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        params, mass = _accepted(MeixnerParams, q, b, c), None
    elif name == LAGUERRE_I:
        params, mass = _accepted(LaguerreParams, q, b), None
    else:
        k = max(k, 1)
        params, mass = _accepted(LaguerreParams, q, q ** k), c
    td = _accepted(theorem_catalog, name, params, k, mass)
    assert (_outcome(td.displayed_beta, n)
            == _outcome(_displayed_beta_form, name, params, k, mass, n))


def _spike(m: int, delta: F) -> MomentFunctional:
    """The functional whose one nonzero moment is delta at m."""
    return MomentFunctional(lambda n, _prev: delta if n == m else F(0))


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, wide_fracs, wide_fracs, wide_fracs,
       st.one_of(st.none(), st.tuples(st.integers(0, CHECK_TO + 2),
                                      wide_fracs.filter(bool))),
       st.one_of(st.none(), st.lists(wide_fracs, max_size=3).map(Poly)))
@_with_bases(F(-5, 3), F(-3, 7), F(2, 3), F(-7, 4), F(1, 9), None, None)
@_with_bases(F(-5, 3), F(-3, 7), F(2, 3), F(-7, 4), F(1, 9), (7, F(1)),
             None)
@_with_bases(F(-5, 3), F(-3, 7), F(2, 3), F(-7, 4), F(1, 9),
             (CHECK_TO + 1, F(-2, 3)), None)
def test_catalog_cross_check_equals_fraction_form(q, b, c, lam, s, seed0,
                                                  spike, divisor):
    # (x - lam) built = s base holds for the Geronimus functional, until a
    # spike in its moments breaks it
    base = meixner_moments(_accepted(MeixnerParams, q, b, c), CHECK_TO + 4)
    built = geronimus(base, lam, s, seed0)
    if spike is not None:
        built = add(built, _spike(*spike))
    divisor = Poly((-lam, 1)) if divisor is None else divisor
    want = next((n for n in range(CHECK_TO + 1)
                 if sum((d * built.moment(n + i)
                         for i, d in enumerate(divisor.coeffs)), F(0))
                 != s * base.moment(n)), None)
    try:
        _cross_check(built, divisor, base, s, "label")
    except CrossCheckFailed as exc:
        assert str(exc) == f"label: cross-check fails first at moment {want}"
    else:
        assert want is None


def _combine_form(nu: MomentFunctional, lam: F, mass: F, p_polys: list,
                  n_top: int):
    """(betas, q_polys) of combine_with_point_mass as Fraction forms, or
    the n at which it raises DenominatorVanishes(n)."""
    terms = [sum((c * nu.moment(i) for i, c in enumerate(p.coeffs)), F(0))
             + mass * _at(p, lam) for p in p_polys]
    betas, q_polys = [F(0)], [Poly.one()]
    for n in range(1, n_top + 1):
        if terms[n - 1] == 0:
            return n
        betas.append(-terms[n] / terms[n - 1])
        q_polys.append(p_polys[n] + betas[n] * p_polys[n - 1])
    return betas, q_polys


@settings(deadline=None)
@given(bases, wide_fracs, wide_fracs, wide_fracs, wide_fracs,
       st.lists(st.lists(wide_fracs, max_size=5).map(Poly), min_size=1,
                max_size=6), st.integers(0, 5))
@_with_bases(F(-5, 3), F(-3, 7), F(0), F(7, 3),
             [Poly((1,)), Poly((F(-1, 2), 1)), Poly((1, 0, 3))], 2)
@_with_bases(F(-5, 3), F(-3, 7), F(2), F(-1), [Poly(()), Poly((1, 2)),
                                               Poly((0, 1))], 2)
def test_combine_with_point_mass_equals_fraction_form(q, b, c, lam, mass,
                                                      p_polys, n_top):
    nu = meixner_moments(_accepted(MeixnerParams, q, b, c), 5)
    n_top = min(n_top, len(p_polys) - 1)
    want = _combine_form(nu, lam, mass, p_polys, n_top)
    try:
        betas, q_polys = combine_with_point_mass(nu, lam, mass, p_polys,
                                                 n_top)
    except DenominatorVanishes as exc:
        assert want == exc.n
        return
    assert (betas, q_polys) == want
    assert all(type(x) is F for x in betas)
    for p in q_polys:
        assert_stored_form(p)


@settings(deadline=None)
@given(wide_fracs, st.integers(0, 3), wide_fracs)
@example(F(0), 0, F(3, 2))
@example(F(-7, 3), 3, F(-2, 5))
def test_point_mass_moments_equal_fraction_form(lam, j, mass):
    mu = point_mass(lam, j, mass)
    for n in range(12):
        falling = F(1)
        for i in range(j):
            falling *= n - i
        want = mass * F(-1) ** j * falling * lam ** (n - j) if n >= j else 0
        assert mu.moment(n) == want and type(mu.moment(n)) is F


def test_rational_keeps_what_it_is_given():
    x = F(-7, 3)
    assert rational(x) is x
    assert rational(4) == 4 and type(rational(4)) is F
    assert [rational_str(v) for v in (x, 4, -4, F(8, 2), True)] == [
        "-7/3", "4", "-4", "4", "1"]


def test_catalog_composes_a_closed_form_when_first_read():
    # parameters no other test names, so this family starts with no ladder
    q, b, c = F(3, 11), F(5, 13), F(17, 7)
    td = theorem_catalog(MEIXNER_I, MeixnerParams(q, b, c), 1, n_depth=4)
    specs = dop_catalog(td.family)
    assert td.spec is specs[0]
    assert ["closed_form" in vars(s) for s in specs] == [False] * 3
    first = td.spec.closed_form
    assert td.spec.closed_form is first and first.q == q
    assert ["closed_form" in vars(s) for s in specs] == [True, False, False]
