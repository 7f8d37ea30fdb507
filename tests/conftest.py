"""Shared fixtures: the reference parameter set and theorem configurations."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qkrall import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                    MEIXNER_III, LaguerreParams, Laurent, MeixnerParams, Poly)

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
# max_examples (the exact layer's stored-form properties and its product,
# evaluation and _over_common kernels) on 2000 examples instead of 100.
settings.register_profile("deep", max_examples=2000)


def assert_stored_form(p: Poly) -> None:
    """p is stored canonically: integer numerators with no trailing zero
    over a positive denominator, coprime to them, and coeffs is their view."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)


def assert_normal_laurent(f: Laurent) -> None:
    """f's poly is stored canonically and f is in normal form."""
    assert_stored_form(f.poly)
    assert f.poly.nums[0] != 0 if f.poly.nums else f.val == 0


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
