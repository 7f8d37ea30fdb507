"""Spectral ladder operators for classical q-families.

A ladder operator here is determined by two scalar sequences (eps_n) and
(sigma_n), where sigma_n = v q^n is geometric in the family's base q: its
action on the n-th family polynomial is the finite lower-triangular
combination

    -(1/2) sigma_{n+1} p_n
        + sum_{j=1}^{n} (-1)^{j+1} sigma_{n+1-j} (prod_{i=1}^{j} eps_{n-i+1}) p_{n-j}.

Its sum T_n is 0 at n = 0 and eps_n (sigma_n p_{n-1} - T_{n-1}) after, so
the actions on p_0..p_N take one pass of O(N) polynomial operations.  Each
catalogued spec also carries a closed form: an explicit q-difference
operator whose action on p_n reproduces that combination exactly.  The two
realizations are kept side by side so they can be checked against each other
at any depth.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import UnsupportedFamily
from .exact import Poly, check_depth
from .families import (LAGUERRE, MEIXNER, PolynomialFamily, family_operator,
                       per_family)
from .operators import QDiffOperator, q_derivative_ops

__all__ = ["DOperatorSpec", "dop_action", "dop_catalog", "verify_dop"]


@dataclass(frozen=True, eq=False)
class DOperatorSpec:
    """One ladder operator: its sequence eps_n, the scale v of
    sigma_n = v q^n, and its closed form, whose base is q.

    sigma_n = v q^n and the family's theta_n = theta_0 q^n are what allow
    a companion polynomial P1 of degree deg(P2) + 1 to be attached to a
    polynomial P2 of any degree downstream (krall.build_P1).
    """

    spec_id: str
    eps: Callable[[int], Fraction]
    v: Fraction
    closed_form: QDiffOperator

    def sigma(self, n: int) -> Fraction:
        return self.v * self.closed_form.q ** n


def _actions(spec: DOperatorSpec, family: PolynomialFamily,
             n_top: int) -> Iterator[Poly]:
    """The defining actions on p_0..p_{n_top}, by the running sum T_n."""
    tail = Poly.zero()
    for n in range(n_top + 1):
        if n:
            tail = spec.eps(n) * (spec.sigma(n) * family.poly(n - 1) - tail)
        yield Fraction(-1, 2) * spec.sigma(n + 1) * family.poly(n) + tail


def dop_action(spec: DOperatorSpec, family: PolynomialFamily, n: int) -> Poly:
    """The defining lower-triangular action of a ladder on family member n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    *_, action = _actions(spec, family, n)
    return action


def _meixner_specs(family: PolynomialFamily) -> tuple[DOperatorSpec, ...]:
    params = family.params
    q, b, c = params.q, params.b, params.c
    second_order = family_operator(family)
    d_q, d_qinv = q_derivative_ops(q)
    ident = QDiffOperator.identity(q)

    one_minus_x = Poly((Fraction(1), Fraction(-1)))
    spec1 = DOperatorSpec(
        spec_id="q-meixner-1",
        eps=lambda n: Fraction(1),
        v=1 / (q * (q - 1)),
        closed_form=(d_q.mul_fn(one_minus_x)
                     + (second_order - 2 * ident) * (Fraction(1, 2) / (q - 1))),
    )
    spec2 = DOperatorSpec(
        spec_id="q-meixner-2",
        eps=lambda n: Fraction(1) / (1 - b * q ** n),
        v=1 / (c * (1 - q)),
        closed_form=d_qinv + second_order * (q / (2 * c * (q - 1))),
    )
    minus_x_minus_bc = Poly((-b * c, Fraction(-1)))
    spec3 = DOperatorSpec(
        spec_id="q-meixner-3",
        eps=lambda n: (c + q ** n) / (c * (1 - b * q ** n)),
        v=1 / (q * (q - 1)),
        closed_form=(d_q.mul_fn(minus_x_minus_bc)
                     + (second_order - 2 * ident) * (Fraction(1, 2) / (q - 1))),
    )
    return (spec1, spec2, spec3)


def _laguerre_specs(family: PolynomialFamily) -> tuple[DOperatorSpec, ...]:
    params = family.params
    q, t = params.q, params.t
    d_q, d_qinv = q_derivative_ops(q)
    ident = QDiffOperator.identity(q)

    one_minus_x = Poly((Fraction(1), Fraction(-1)))
    one_plus_x = Poly((Fraction(1), Fraction(1)))
    spec1 = DOperatorSpec(
        spec_id="q-laguerre-1",
        eps=lambda n: Fraction(1),
        v=1 / q,
        closed_form=(d_q.mul_fn(one_minus_x) * (q - 1)
                     + d_qinv * ((1 - q) / (t * q)) - ident) * Fraction(1, 2),
    )
    spec2 = DOperatorSpec(
        spec_id="q-laguerre-2",
        eps=lambda n: Fraction(1) / (1 - t * q ** n),
        v=1 / q,
        closed_form=(d_q.mul_fn(one_plus_x) * (1 - q)
                     + d_qinv * ((1 - q) / (t * q)) - ident) * Fraction(1, 2),
    )
    return (spec1, spec2)


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
    report = []
    for n, action in enumerate(_actions(spec, family, n_top)):
        residual = spec.closed_form.apply(family.poly(n)) - action
        report.append({
            "spec_id": spec.spec_id,
            "n": n,
            "passed": residual.is_zero(),
            "residual": None if residual.is_zero() else residual,
        })
    return report
