"""Perturbed orthogonal families with higher-order q-difference operators.

Given a classical family p_n with eigenvalues theta_n, a ladder spec, and a
polynomial P2, the construction produces

    gamma_{n+1} = P2(theta_n),
    beta_n      = eps_n * gamma_{n+1} / gamma_n,
    q_n         = p_n + beta_n p_{n-1},

together with a companion polynomial P1 of degree deg(P2) + 1 and the
operator

    D = (1/2) P1(D_fam) + L o P2(D_fam),

where D_fam is the family's second-order operator and L the ladder closed
form.  Every q_n is an eigenfunction of D; the eigenvalues lambda_n follow
lambda_n - lambda_{n-1} = sigma_n gamma_n, and lambda_{n+1} + lambda_n =
P1(theta_n) is re-checked during the build rather than assumed.  Each
scalar is one integer expression at the integer pair theta_0 q^n, put into
one Fraction.

theorem_catalog bundles the five ready-made instances: for each one the
carrier polynomial P2 and the displayed beta sequence (a ratio of two
integer polynomial evaluations times a factor, in one Fraction) are
returned, and the matching moment functional (with its product-identity
cross-check) is built when it is first read.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import CrossCheckFailed, GammaVanishes, ParamDegeneracy
from .exact import (Poly, Record, _add, _eval, _power, check_base,
                    check_depth, qpochhammer, rational)
from .families import (LaguerreParams, MeixnerParams, PolynomialFamily,
                       _derived, alsalam_carlitz, family_operator, laguerre,
                       meixner)
from .dops import DOperatorSpec, dop_catalog
from .moments import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                      MEIXNER_III, MomentFunctional, _product,
                      check_instance, measure_catalog)
from .operators import QDiffOperator, poly_of_operator

__all__ = ["KrallConstruction", "TheoremData", "build", "build_P1",
           "theorem_catalog", "verify_eigen"]


def build_P1(p2: Poly, u: Fraction, v: Fraction, q: Fraction) -> Poly:
    """First-degree-up companion of p2 for theta_n = u q^n, sigma_n = v q^n.

    P1(x) = (v q x / u) * (p2(x) - 2 * sum_j w_j x^j / (1 - q^{j+1})) for
    p2 = sum_j w_j x^j; its degree is deg(p2) + 1.
    """
    check_base(q)
    # coefficient j >= 1 is -(v q / u) w_(j-1) (1 + q^j) / (1 - q^j), one
    # integer fraction c w_(j-1) (B + A) / (d (B - A)) at q^j = A/B
    a, b = q.numerator, q.denominator
    c = -v.numerator * a * u.denominator
    d = v.denominator * b * u.numerator * p2.den
    return Poly((0, *(Fraction(c * w * (b ** j + a ** j),
                               d * (b ** j - a ** j))
                      for j, w in enumerate(p2.nums, 1))))


class KrallConstruction(Record, eq=False):
    """The full output of one build: sequences, polynomials, operator."""

    family: PolynomialFamily
    spec: DOperatorSpec
    p2: Poly
    p1: Poly
    n_top: int
    _gammas: tuple[Fraction, ...]   # gamma_1 .. gamma_{n_top+1}
    _lambdas: tuple[Fraction, ...]  # lambda_0 .. lambda_{n_top}
    _betas: tuple[Fraction, ...]    # beta_1 .. beta_{n_top}
    _qpolys: tuple[Poly, ...]       # q_0 .. q_{n_top}

    @cached_property
    def operator(self) -> QDiffOperator:
        """(1/2) P1(D_fam) + L o P2(D_fam); it does not depend on n_top
        and is composed on first read, so a caller that only reads the
        sequences never pays for it."""
        d_fam = family_operator(self.family)
        return (poly_of_operator(self.p1, d_fam) * Fraction(1, 2)
                + self.spec.closed_form @ poly_of_operator(self.p2, d_fam))

    def _at(self, label: str, table: tuple, first: int, n: int):
        """table[n - first], for n in first..first + len(table) - 1."""
        if not first <= n < first + len(table):
            raise IndexError(f"{label} index {n} outside "
                             f"{first}..{first + len(table) - 1}")
        return table[n - first]

    def gamma(self, n: int) -> Fraction:
        return self._at("gamma", self._gammas, 1, n)

    def lam(self, n: int) -> Fraction:
        return self._at("lambda", self._lambdas, 0, n)

    def beta(self, n: int) -> Fraction:
        return self._at("beta", self._betas, 1, n)

    def qpoly(self, n: int) -> Poly:
        return self._at("q-poly", self._qpolys, 0, n)

    def qpolys(self) -> list[Poly]:
        return list(self._qpolys)


def build(family: PolynomialFamily, spec: DOperatorSpec, p2: Poly,
          n_top: int,
          beta_override: dict[int, Fraction] | None = None) -> KrallConstruction:
    """Run the construction up to index n_top.

    beta_override substitutes chosen beta_n values after the consistency
    checks; it exists for fault-injection in tests and demos and is never
    used by the catalogued instances.
    """
    check_depth(n_top)
    theta0, q = family.theta(0), family.q
    thetas = [(theta0.numerator * s, theta0.denominator * w)
              for s, w in (_power(q, n) for n in range(n_top + 1))]
    gammas = [Fraction(*_eval(p2, *x)) for x in thetas]
    if 0 in gammas:
        raise GammaVanishes(gammas.index(0) + 1)

    p1 = build_P1(p2, theta0, spec.v, q)

    lambdas = [(Fraction(*_eval(p1, *thetas[0])) - spec.sigma(1) * gammas[0])
               / 2]
    for n in range(n_top):
        # lambda_{n+1} = lambda_n + sigma_{n+1} gamma_{n+1} is the pair
        # (num, lo.den d); the P1 check reads that pair, then it is reduced
        lo, s, g = lambdas[n], spec.sigma(n + 1), gammas[n]
        d = s.denominator * g.denominator
        num = lo.numerator * d + lo.denominator * s.numerator * g.numerator
        pn, pd = _eval(p1, *thetas[n])
        if (num + lo.numerator * d) * pd != pn * lo.denominator * d:
            raise CrossCheckFailed(
                f"lambda_{n + 1} + lambda_{n} != P1(theta_{n}); the ladder "
                "sequences are inconsistent with P1")
        lambdas.append(Fraction(num, lo.denominator * d))

    betas = [Fraction(e.numerator * hi.numerator * lo.denominator,
                      e.denominator * hi.denominator * lo.numerator)
             for e, hi, lo in zip(map(spec.eps, range(1, n_top + 1)),
                                  gammas[1:], gammas)]
    if beta_override:
        for idx, value in beta_override.items():
            if not 1 <= idx <= n_top:
                raise ParamDegeneracy(
                    f"beta override index {idx} outside 1..{n_top}")
            betas[idx - 1] = rational(value)

    qpolys = [family.poly(0)] + [
        _add(family.poly(n), family.poly(n - 1), 0, beta.numerator,
             beta.denominator) for n, beta in enumerate(betas, 1)]

    return KrallConstruction(
        family=family, spec=spec, p2=p2, p1=p1, n_top=n_top,
        _gammas=tuple(gammas), _lambdas=tuple(lambdas), _betas=tuple(betas),
        _qpolys=tuple(qpolys))


def verify_eigen(kc: KrallConstruction) -> list[dict]:
    """Check operator(q_n) = lambda_n q_n exactly for n = 0..kc.n_top."""
    op = kc.operator
    return [{"n": n, "passed": (res := op.residual(p, p, lam)) is None,
             "residual": res}
            for n, (p, lam) in enumerate(zip(kc._qpolys, kc._lambdas))]


class TheoremData(Record, eq=False):
    """One catalogued instance: everything needed to build and verify it.

    ``measure`` is built by ``measure_catalog`` (moment depth ``n_depth``)
    on first read, together with its product-identity cross-check, so a
    caller that only builds or eigen-verifies never pays for it; later
    reads return the same functional.
    """

    name: str
    family: PolynomialFamily
    spec: DOperatorSpec
    p2: Poly
    displayed_beta: Callable[[int], Fraction]
    expected_order: int
    k_or_alpha: int
    mass: Fraction | None
    n_depth: int

    @cached_property
    def measure(self) -> MomentFunctional:
        return measure_catalog(self.name, self.family.params, self.k_or_alpha,
                               mass=self.mass, n_depth=self.n_depth)


# The ladder spec of each instance, as an index into dop_catalog(family).
_LADDER = {MEIXNER_I: 0, MEIXNER_II: 1, MEIXNER_III: 2, LAGUERRE_I: 0,
           LAGUERRE_II: 1}


def theorem_catalog(name: str, params: MeixnerParams | LaguerreParams,
                    k_or_alpha: int, mass: Fraction | int | str | None = None,
                    n_depth: int = 40) -> TheoremData:
    """Assemble the carrier data for one of the five catalogued instances.

    k_or_alpha is the degree parameter k for the product-measure instances
    and the positive integer alpha for the point-mass one (whose t must be
    q^alpha); mass is only used by the latter.  The inputs are decided by
    moments.check_instance.  n_depth is the moment depth of the measure,
    which is built when ``.measure`` is first read.
    """
    mass = check_instance(name, params, k_or_alpha, mass)
    k, q = k_or_alpha, params.q

    if isinstance(params, MeixnerParams):
        b, c = params.b, params.c
        bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator
        fam = meixner(q, b, c)
    else:
        t = params.t
        tn, td = t.numerator, t.denominator
        fam = laguerre(q, t)

    def ratio(pk: Poly, x: Fraction = Fraction(1), factor=lambda s, w: (1, 1)):
        # n -> f pk(x q^(n+1)) / pk(x q^n) in one Fraction, with
        # f = factor(s, w) at q^n = s/w
        xn, xd = x.numerator, x.denominator

        def displayed_beta(n: int) -> Fraction:
            (s, w), (hs, hw) = _power(q, n), _power(q, n + 1)
            (fn, fd), (hn, hd) = factor(s, w), _eval(pk, xn * hs, xd * hw)
            ln, ld = _eval(pk, xn * s, xd * w)
            return Fraction(fn * hn * ld, fd * hd * ln)
        return displayed_beta

    if name == MEIXNER_I:
        carrier = _derived(name, meixner, q, -c, 1 / (b * c)).poly(k)
        p2, displayed_beta = carrier.scale_arg(q), ratio(carrier)
    elif name == MEIXNER_II:
        # p_k(b q^n) / ((1 - b q^n) p_k(b q^(n-1)))
        carrier = _derived(name, meixner, 1 / q, b, c).poly(k)
        p2 = carrier.scale_arg(b)
        displayed_beta = ratio(carrier, b / q,
                               lambda s, w: (bd * w, bd * w - bn * s))
    elif name == MEIXNER_III:
        # (c + q^n) / (c (1 - b q^n)) times the carrier ratio
        carrier = _derived(name, meixner, q, 1 / b, b * c).poly(k)
        p2 = carrier.scale_arg(q)
        displayed_beta = ratio(carrier, factor=lambda s, w: (
            bd * (cn * w + cd * s), cn * (bd * w - bn * s)))
    elif name == LAGUERRE_I:
        carrier = _derived(name, alsalam_carlitz, q, 1 / t).poly(k)
        p2, displayed_beta = carrier.scale_arg(q / t), ratio(carrier)
    else:  # the point-mass instance: k = alpha with t = q^alpha
        r = mass / qpochhammer(q, q, k)
        p2 = Poly.one() + r * _product(
            Poly((Fraction(1), -(q ** i) / q ** (k - 1))) for i in range(k))
        # gam(i) = 1 + M (tq; q)_i / (q; q)_i = G(q^i) at t = q^k, with
        # G(X) = 1 + r (qX; q)_k; beta_n = gam(n) / ((1 - t q^n) gam(n - 1))
        gam = Poly.one() + r * _product(Poly((1, -q ** j))
                                        for j in range(1, k + 1))
        displayed_beta = ratio(gam, 1 / q,
                               lambda s, w: (td * w, td * w - tn * s))
    return TheoremData(name=name, family=fam,
                       spec=dop_catalog(fam)[_LADDER[name]], p2=p2,
                       displayed_beta=displayed_beta,
                       expected_order=2 * k + 2, k_or_alpha=k, mass=mass,
                       n_depth=n_depth)
