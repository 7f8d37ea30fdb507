"""Shared fixtures: the reference parameter set and theorem configurations."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from qkrall import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                    MEIXNER_III, LaguerreParams, MeixnerParams)

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
