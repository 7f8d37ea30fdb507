"""Shared fixtures: the reference parameter set and theorem configurations."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qkrall import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                    MEIXNER_III, LaguerreParams, Laurent, MeixnerParams, Poly,
                    QDiffOperator)

Q0 = Fraction(2, 5)
B0 = Fraction(1, 3)
C0 = Fraction(3, 2)
T0 = Fraction(3, 4)

# Rationals for the integer kernels' properties: small ones, whose
# denominators overlap, and large ones, whose denominators are unrelated.
wide_fracs = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.integers(1, 10 ** 12)))

# `--hypothesis-profile=deep` runs every property that does not pin its own
# max_examples (the exact layer's stored-form properties, its product,
# evaluation and _over_common kernels, the operator table against its
# Laurent-term forms and QDiffOperator.residual against apply, the
# Hankel and Gram properties of the moments layer, the integer q^n closed
# forms against their Fraction forms, among them the Krall construction's
# (build, the five displayed betas, _eval, the catalog's product-identity
# cross-check, combine_with_point_mass and point_mass), the nullspace of
# matrices with zero columns, of large-entry matrices and of matrices with
# rows copied in front of them (the scan stops at a dependent row and
# resumes) against the RREF, the rank scan against the RREF mod p, and the
# fraction-free `rref` against Gauss-Jordan elimination over `Fraction`s)
# on 2000 examples instead of 100.
settings.register_profile("deep", max_examples=2000)


def assert_stored_form(p: Poly) -> None:
    """p is stored canonically: integer numerators with no trailing zero
    over a positive denominator, coprime to them, and coeffs is their view."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)
    # coeff and leading read one entry each, 0 outside the stored range
    assert ([p.coeff(k) for k in range(-1, len(p.nums) + 1)]
            == [0, *p.coeffs, 0])
    assert not p.nums or p.leading() == p.coeffs[-1]


def assert_normal_laurent(f: Laurent) -> None:
    """f's poly is stored canonically and f is in normal form."""
    assert_stored_form(f.poly)
    assert f.poly.nums[0] != 0 if f.poly.nums else f.val == 0


# Laurent products, evaluation and argument scaling, which the library does
# not need: the oracle that the operator algebra and the verifiers'
# residuals are checked against.

def _laurent(f: Laurent | Poly) -> Laurent:
    return f if isinstance(f, Laurent) else Laurent(f)


def laurent_mul(f: Laurent | Poly,
                g: Laurent | Poly | Fraction | int) -> Laurent:
    """f * g: the product of the polynomial parts at the sum of the
    valuations (a Poly or a scalar has valuation 0)."""
    f = _laurent(f)
    if isinstance(g, Laurent):
        return Laurent(f.poly * g.poly, f.val + g.val)
    return Laurent(f.poly * g, f.val)


def laurent_at(f: Laurent, x0: Fraction | int) -> Fraction:
    """f(x0) = x0^val poly(x0), for x0 != 0 when f has a pole."""
    return f.poly(x0) * Fraction(x0) ** f.val


def laurent_scale_arg(f: Laurent | Poly, lam: Fraction) -> Laurent:
    """f(lam x) = lam^val x^val poly(lam x)."""
    f = _laurent(f)
    return Laurent(f.poly.scale_arg(lam) * lam ** f.val, f.val)


def apply_by_shifts(op, p: Poly | Laurent) -> Laurent:
    """The definition D(p) = sum_j f_j * p(q^j x), one product per shift:
    the reference for QDiffOperator.apply and for the residuals that the
    verifiers report."""
    out = Laurent.zero()
    for j, f in op.terms.items():
        out = out + laurent_mul(f, laurent_scale_arg(p, op.q ** j))
    return out


def count_image_sums(monkeypatch) -> list:
    """Log each operand that QDiffOperator._image_sum, the one integer pass
    behind apply and residual, is run on; the log is returned."""
    log, real = [], QDiffOperator._image_sum

    def counted(self, p):
        log.append(p)
        return real(self, p)

    monkeypatch.setattr(QDiffOperator, "_image_sum", counted)
    return log


@pytest.fixture(scope="session")
def mparams() -> MeixnerParams:
    return MeixnerParams(Q0, B0, C0)


@pytest.fixture(scope="session")
def lparams() -> LaguerreParams:
    return LaguerreParams(Q0, T0)


def reference_configs() -> list[tuple[str, object, int, Fraction | None]]:
    """Every (theorem, params, k_or_alpha, mass) pair of the reference set."""
    mp = MeixnerParams(Q0, B0, C0)
    lp = LaguerreParams(Q0, T0)
    configs: list[tuple[str, object, int, Fraction | None]] = []
    for name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        for k in (1, 2, 3):
            configs.append((name, mp, k, None))
    for k in (1, 2, 3):
        configs.append((LAGUERRE_I, lp, k, None))
    for alpha in (1, 2, 3):
        for mass in (Fraction(1), Fraction(7, 3)):
            configs.append((LAGUERRE_II, LaguerreParams(Q0, Q0 ** alpha),
                            alpha, mass))
    return configs
