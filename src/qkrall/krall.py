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
form.  Every q_n is an eigenfunction of D; the eigenvalues lambda_n satisfy
lambda_n - lambda_{n-1} = sigma_n gamma_n and lambda_{n+1} + lambda_n =
P1(theta_n), and both identities are re-checked during the build rather
than assumed.

theorem_catalog bundles the five ready-made instances: for each one the
carrier polynomial P2 and the displayed beta sequence are returned, and the
matching moment functional (with its product-identity cross-check) is
built when it is first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import (CrossCheckFailed, DegenerateBase, GammaVanishes,
                     NoGeometricForm, ParamDegeneracy, UnknownTheorem)
from .exact import Poly, qpochhammer, rational
from .families import (LaguerreParams, MeixnerParams, PolynomialFamily,
                       alsalam_carlitz, family_operator, laguerre, meixner,
                       q_power_exponent)
from .dops import DOperatorSpec, dop_catalog
from .moments import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                      MEIXNER_III, MomentFunctional, _check_b_nonzero,
                      _check_point_mass, measure_catalog)
from .operators import QDiffOperator, poly_of_operator

__all__ = ["KrallConstruction", "TheoremData", "build", "build_P1",
           "theorem_catalog", "verify_eigen"]


def build_P1(p2: Poly, u: Fraction, v: Fraction, q: Fraction) -> Poly:
    """First-degree-up companion of p2 for geometric data (u, v).

    P1(x) = (v q x / u) * (p2(x) - 2 * sum_j w_j x^j / (1 - q^{j+1})) for
    p2 = sum_j w_j x^j; its degree is deg(p2) + 1.
    """
    coeffs = []
    for j in range(p2.degree() + 1):
        den = 1 - q ** (j + 1)
        if den == 0:
            raise DegenerateBase(f"1 - q^{j + 1} vanishes")
        coeffs.append(p2.coeff(j) * (1 - Fraction(2) / den))
    inner = Poly(tuple(coeffs))
    return Poly((Fraction(0), v * q / u)) * inner


@dataclass(frozen=True, eq=False)
class KrallConstruction:
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

    def gamma(self, n: int) -> Fraction:
        if not 1 <= n <= self.n_top + 1:
            raise IndexError(f"gamma index {n} outside 1..{self.n_top + 1}")
        return self._gammas[n - 1]

    def lam(self, n: int) -> Fraction:
        if not 0 <= n <= self.n_top:
            raise IndexError(f"lambda index {n} outside 0..{self.n_top}")
        return self._lambdas[n]

    def beta(self, n: int) -> Fraction:
        if not 1 <= n <= self.n_top:
            raise IndexError(f"beta index {n} outside 1..{self.n_top}")
        return self._betas[n - 1]

    def qpoly(self, n: int) -> Poly:
        if not 0 <= n <= self.n_top:
            raise IndexError(f"q-poly index {n} outside 0..{self.n_top}")
        return self._qpolys[n]

    @property
    def expected_order(self) -> int:
        return 2 * self.p2.degree() + 2

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
    if spec.geometric is None:
        raise NoGeometricForm(
            f"{spec.spec_id} has no geometric (u, v) data; a companion "
            "P1 cannot be attached")
    u, v = spec.geometric
    q = family.q

    gammas = []
    for n in range(1, n_top + 2):
        value = p2(family.theta(n - 1))
        if value == 0:
            raise GammaVanishes(n)
        gammas.append(value)

    p1 = build_P1(p2, u, v, q)

    lambdas = [(p1(family.theta(0)) - spec.sigma(1) * p2(family.theta(0)))
               / 2]
    for n in range(1, n_top + 1):
        lambdas.append(lambdas[n - 1] + spec.sigma(n) * gammas[n - 1])
    for n in range(n_top):
        if lambdas[n + 1] + lambdas[n] != p1(family.theta(n)):
            raise CrossCheckFailed(
                f"lambda_{n + 1} + lambda_{n} != P1(theta_{n}); the ladder "
                "sequences are inconsistent with the geometric data")

    betas = [spec.eps(n) * gammas[n] / gammas[n - 1]
             for n in range(1, n_top + 1)]
    if beta_override:
        for idx, value in beta_override.items():
            if not 1 <= idx <= n_top:
                raise ParamDegeneracy(
                    f"beta override index {idx} outside 1..{n_top}")
            betas[idx - 1] = rational(value)

    qpolys = [family.poly(0)]
    for n in range(1, n_top + 1):
        qpolys.append(family.poly(n) + betas[n - 1] * family.poly(n - 1))

    return KrallConstruction(
        family=family, spec=spec, p2=p2, p1=p1, n_top=n_top,
        _gammas=tuple(gammas), _lambdas=tuple(lambdas), _betas=tuple(betas),
        _qpolys=tuple(qpolys))


def verify_eigen(kc: KrallConstruction, n_top: int | None = None) -> list[dict]:
    """Check operator(q_n) = lambda_n q_n exactly for n = 0..n_top."""
    top = kc.n_top if n_top is None else min(n_top, kc.n_top)
    report = []
    for n in range(top + 1):
        residual = (kc.operator.apply(kc.qpoly(n))
                    - kc.lam(n) * kc.qpoly(n))
        report.append({
            "n": n,
            "passed": residual.is_zero(),
            "residual": None if residual.is_zero() else residual,
        })
    return report


@dataclass(frozen=True, eq=False)
class TheoremData:
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


def theorem_catalog(name: str, params: MeixnerParams | LaguerreParams,
                    k_or_alpha: int, mass: Fraction | int | str | None = None,
                    n_depth: int = 40) -> TheoremData:
    """Assemble the carrier data for one of the five catalogued instances.

    k_or_alpha is the degree parameter k for the product-measure instances
    and the positive integer alpha for the point-mass one (whose t must be
    q^alpha); mass is only used by the latter.  n_depth is the moment
    depth of the measure, which is built when ``.measure`` is first read.
    """
    k = k_or_alpha
    if k < 0:
        raise ParamDegeneracy("the degree parameter must be nonnegative")
    if name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        if not isinstance(params, MeixnerParams):
            raise UnknownTheorem(f"{name} needs Meixner parameters")
        q, b, c = params.q, params.b, params.c
        _check_b_nonzero(name, b)
        fam = meixner(q, b, c)
        specs = dop_catalog(fam)
        if name == MEIXNER_I:
            carrier = meixner(q, -c, 1 / (b * c))
            p2 = carrier.poly(k).scale_arg(q)

            def displayed_beta(n: int, _c=carrier, _k=k, _q=q) -> Fraction:
                return _c.poly(_k)(_q ** (n + 1)) / _c.poly(_k)(_q ** n)

            spec = specs[0]
        elif name == MEIXNER_II:
            carrier = meixner(1 / q, b, c)
            p2 = carrier.poly(k).scale_arg(b)

            def displayed_beta(n: int, _c=carrier, _k=k, _q=q, _b=b) -> Fraction:
                return (_c.poly(_k)(_b * _q ** n)
                        / ((1 - _b * _q ** n) * _c.poly(_k)(_b * _q ** (n - 1))))

            spec = specs[1]
        else:
            carrier = meixner(q, 1 / b, b * c)
            p2 = carrier.poly(k).scale_arg(q)

            def displayed_beta(n: int, _c=carrier, _k=k, _q=q, _b=b,
                               _cc=c) -> Fraction:
                return ((_cc + _q ** n) / (_cc * (1 - _b * _q ** n))
                        * _c.poly(_k)(_q ** (n + 1)) / _c.poly(_k)(_q ** n))

            spec = specs[2]
        return TheoremData(name=name, family=fam, spec=spec, p2=p2,
                           displayed_beta=displayed_beta,
                           expected_order=2 * k + 2, k_or_alpha=k, mass=None,
                           n_depth=n_depth)
    if name == LAGUERRE_I:
        if not isinstance(params, LaguerreParams):
            raise UnknownTheorem(f"{name} needs Laguerre parameters")
        q, t = params.q, params.t
        fam = laguerre(q, t)
        vfam = alsalam_carlitz(q, 1 / t)
        p2 = vfam.poly(k).scale_arg(q / t)

        def displayed_beta(n: int, _v=vfam, _k=k, _q=q) -> Fraction:
            return _v.poly(_k)(_q ** (n + 1)) / _v.poly(_k)(_q ** n)

        return TheoremData(name=name, family=fam, spec=dop_catalog(fam)[0],
                           p2=p2, displayed_beta=displayed_beta,
                           expected_order=2 * k + 2, k_or_alpha=k, mass=None,
                           n_depth=n_depth)
    if name == LAGUERRE_II:
        if not isinstance(params, LaguerreParams):
            raise UnknownTheorem(f"{name} needs Laguerre parameters")
        if mass is None:
            raise UnknownTheorem(f"{name} needs the point mass M")
        m_val = rational(mass)
        _check_point_mass(m_val)
        q, t = params.q, params.t
        alpha = q_power_exponent(t, q)
        if alpha is None or alpha < 1:
            raise ParamDegeneracy(
                "the point-mass instance needs t = q^alpha with alpha a "
                "positive integer")
        if k != alpha:
            raise ParamDegeneracy(
                f"degree parameter {k} disagrees with alpha = {alpha} "
                "implied by t")
        fam = laguerre(q, t)
        factors = Poly.one()
        for i in range(alpha):
            factors = factors * Poly((Fraction(1), -(q ** i) / q ** (alpha - 1)))
        p2 = Poly.one() + (m_val / qpochhammer(q, q, alpha)) * factors

        def displayed_beta(n: int, _q=q, _t=t, _m=m_val) -> Fraction:
            def gam(i: int) -> Fraction:
                return 1 + _m * qpochhammer(_t * _q, _q, i) / qpochhammer(
                    _q, _q, i)
            return gam(n) / ((1 - _t * _q ** n) * gam(n - 1))

        return TheoremData(name=name, family=fam, spec=dop_catalog(fam)[1],
                           p2=p2, displayed_beta=displayed_beta,
                           expected_order=2 * alpha + 2, k_or_alpha=alpha,
                           mass=m_val, n_depth=n_depth)
    raise UnknownTheorem(f"unknown instance {name!r}")
