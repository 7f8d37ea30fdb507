"""Spectral ladder operators for classical q-families.

A ladder operator here is determined by two scalar sequences (eps_n) and
(sigma_n), where sigma_n = v q^n is geometric in the family's base q: its
action on the n-th family polynomial is the finite lower-triangular
combination

    -(1/2) sigma_{n+1} p_n
        + sum_{j=1}^{n} (-1)^{j+1} sigma_{n+1-j} (prod_{i=1}^{j} eps_{n-i+1}) p_{n-j}.

Its sum T_n is 0 at n = 0 and eps_n (sigma_n p_{n-1} - T_{n-1}) after, so
the actions on p_0..p_N take one pass, each step one integer pass.  Each
catalogued spec also carries a closed form: an explicit q-difference
operator, composed when it is first read from the family operator and
(D_q, D_{1/q}), each built once per family, whose action on p_n reproduces
that combination exactly.  The two realizations are kept side by side so
they can be checked against each other at any depth: ``verify_dop`` reads
each residual closed_form(p_n) - action(n), or None, off one application
of the closed form (``QDiffOperator.residual``).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .errors import UnsupportedFamily
from .exact import Poly, _add, _poly, _power, check_depth
from .families import (LAGUERRE, MEIXNER, PolynomialFamily, family_operator,
                       per_family)
from .operators import QDiffOperator, q_derivative_ops

__all__ = ["DOperatorSpec", "dop_action", "dop_catalog", "verify_dop"]


class DOperatorSpec:
    """One ladder operator: its sequence eps_n, the scale v of
    sigma_n = v q^n, the base q, and its closed form, which ``compose``
    builds over q when ``closed_form`` is first read.

    sigma_n = v q^n and the family's theta_n = theta_0 q^n are what allow
    a companion polynomial P1 of degree deg(P2) + 1 to be attached to a
    polynomial P2 of any degree downstream (krall.build_P1).  A caller
    that reads one ladder of a family composes only that one.
    """

    def __init__(self, spec_id: str, eps: Callable[[int], Fraction],
                 v: Fraction, q: Fraction,
                 compose: Callable[[], QDiffOperator]):
        self.spec_id, self.eps, self.v, self.q = spec_id, eps, v, q
        self._compose = compose

    @cached_property
    def closed_form(self) -> QDiffOperator:
        return self._compose()

    def sigma(self, n: int) -> Fraction:
        s, t = _power(self.q, n)
        return Fraction(self.v.numerator * s, self.v.denominator * t)


def _actions(spec: DOperatorSpec, family: PolynomialFamily,
             n_top: int) -> Iterator[Poly]:
    """The defining actions on p_0..p_{n_top}, by the running sum T_n.

    Each step is one integer pass at sigma_n = s/d = v u^n / w^n, q = u/w:
    T_n = eps_n (sigma_n p_{n-1} - T_{n-1}) over the product of the
    denominators, and the action T_n - (s / 2d) p_n (`_add`), each reduced
    once.
    """
    u, w = spec.q.numerator, spec.q.denominator
    s, d = spec.v.numerator, spec.v.denominator  # sigma_0
    tail = prev = Poly.zero()
    for n in range(n_top + 1):
        if n:
            e = spec.eps(n)
            x, y = e.numerator * s * tail.den, e.numerator * d * prev.den
            out = [x * c for c in prev.nums]
            for k, c in enumerate(tail.nums):
                out[k] -= y * c
            tail = _poly(out, e.denominator * d * prev.den * tail.den)
        prev, s, d = family.poly(n), s * u, d * w
        yield _add(tail, prev, 0, -s, 2 * d)


def dop_action(spec: DOperatorSpec, family: PolynomialFamily, n: int) -> Poly:
    """The defining lower-triangular action of a ladder on family member n."""
    check_depth(n)
    *_, action = _actions(spec, family, n)
    return action


_ONE = Fraction(1)


def _inverse_gap(x: Fraction, q: Fraction) -> Callable[[int], Fraction]:
    """n -> 1 / (1 - x q^n), one integer fraction in the powers of q."""
    def eps(n: int) -> Fraction:
        s, t = _power(q, n)
        return Fraction(x.denominator * t, x.denominator * t - x.numerator * s)
    return eps


@per_family
def _derivatives(family: PolynomialFamily) -> tuple[QDiffOperator,
                                                    QDiffOperator]:
    """(D_q, D_{1/q}) at the family's base, built once per family."""
    return q_derivative_ops(family.q)


def _meixner_specs(family: PolynomialFamily) -> tuple[DOperatorSpec, ...]:
    q, b, c = family.params.q, family.params.b, family.params.c
    bn, bd, cn, cd = b.numerator, b.denominator, c.numerator, c.denominator

    def eps3(n: int) -> Fraction:         # (c + q^n) / (c (1 - b q^n))
        s, t = _power(q, n)
        return Fraction(bd * (cn * t + cd * s), cn * (bd * t - bn * s))

    def ladder(edge: Poly) -> QDiffOperator:
        # edge D_q + (D_fam - 2) / (2 (q - 1))
        ident = QDiffOperator.identity(q)
        return (_derivatives(family)[0].mul_fn(edge)
                + (family_operator(family) - 2 * ident)
                * (Fraction(1, 2) / (q - 1)))

    return (
        DOperatorSpec("q-meixner-1", lambda n: _ONE, 1 / (q * (q - 1)), q,
                      lambda: ladder(Poly((1, -1)))),
        DOperatorSpec(
            "q-meixner-2", _inverse_gap(b, q), 1 / (c * (1 - q)), q,
            lambda: (_derivatives(family)[1] + family_operator(family)
                     * (q / (2 * c * (q - 1))))),
        DOperatorSpec("q-meixner-3", eps3, 1 / (q * (q - 1)), q,
                      lambda: ladder(Poly((-b * c, -1)))),
    )


def _laguerre_specs(family: PolynomialFamily) -> tuple[DOperatorSpec, ...]:
    q, t = family.params.q, family.params.t

    def ladder(edge: Poly, scale: Fraction) -> QDiffOperator:
        # (scale edge D_q + D_{1/q} (1 - q) / (t q) - 1) / 2
        d_q, d_qinv = _derivatives(family)
        return (d_q.mul_fn(edge) * scale + d_qinv * ((1 - q) / (t * q))
                - QDiffOperator.identity(q)) * Fraction(1, 2)

    return (
        DOperatorSpec("q-laguerre-1", lambda n: _ONE, 1 / q, q,
                      lambda: ladder(Poly((1, -1)), q - 1)),
        DOperatorSpec("q-laguerre-2", _inverse_gap(t, q), 1 / q, q,
                      lambda: ladder(Poly((1, 1)), 1 - q)),
    )


@per_family
def dop_catalog(family: PolynomialFamily) -> tuple[DOperatorSpec, ...]:
    """All catalogued ladder operators for the given family."""
    if family.kind == MEIXNER:
        return _meixner_specs(family)
    if family.kind == LAGUERRE:
        return _laguerre_specs(family)
    raise UnsupportedFamily(
        f"no ladder operators catalogued for {family.kind!r}")


def verify_dop(spec: DOperatorSpec, family: PolynomialFamily,
               n_top: int) -> list[dict]:
    """Check closed form against defining action for n = 0..n_top.

    Each entry reports the residual closed_form(p_n) - action(n); an exact
    match leaves residual None and passed True.
    """
    check_depth(n_top)
    op = spec.closed_form
    return [{"spec_id": spec.spec_id, "n": n,
             "passed": (res := op.residual(family.poly(n), action)) is None,
             "residual": res}
            for n, action in enumerate(_actions(spec, family, n_top))]
