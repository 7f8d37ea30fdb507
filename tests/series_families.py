"""Reference families summed from their explicit basic hypergeometric series.

qkrall builds every p_n from the closed-form three-term recurrence; these
series are the independent definition the tests compare it with, and the
input on which ``derive_recurrence`` recovers the recurrence without
reading it.  ``series_family`` hands out one memoized instance per
parameter set, so tests that share parameters sum each series once.

Each p_n is pref_n * sum_j w_(n,j) (s x; q)_j with s = -1 (q-Meixner,
Al-Salam-Carlitz) or s = +1 (q-Laguerre); the (s x; q)_j do not depend
on n, so a family forms each of them once.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from qkrall import (AL_SALAM_CARLITZ, LAGUERRE, MEIXNER, AlSalamCarlitzParams,
                    LaguerreParams, MeixnerParams, Poly)


def _meixner_terms(p: MeixnerParams, n: int) -> tuple[list[Fraction], Fraction]:
    """m_n(x; b, c) = 2phi1(q^-n, x; b q; q, -q^(n+1)/c), scaled by
    (-1)^n / (q; q)_n."""
    q, b, c = p.q, p.b, p.c
    q_inv_n = q ** (-n)
    ratio = -q ** (n + 1) / c
    weights = [Fraction(1)]
    for j in range(1, n + 1):
        qj = q ** (j - 1)
        weights.append(weights[-1] * (1 - q_inv_n * qj) * ratio
                       / ((1 - b * q * qj) * (1 - q * qj)))
    pref = Fraction(1)
    for i in range(n):
        pref *= 1 - q ** (i + 1)
    return weights, Fraction(-1) ** n / pref


def _laguerre_terms(p: LaguerreParams, n: int) -> tuple[list[Fraction], Fraction]:
    """L_n(x; t) = 2phi1(q^-n, -x; 0; q, t q^(n+1)), scaled by
    (-1)^n / ((t q; q)_n (q; q)_n)."""
    q, t = p.q, p.t
    q_inv_n = q ** (-n)
    step = t * q ** (n + 1)
    weights = [Fraction(1)]
    for j in range(1, n + 1):
        qj = q ** (j - 1)
        weights.append(weights[-1] * (1 - q_inv_n * qj) * step / (1 - q * qj))
    pref = Fraction(1)
    for i in range(n):
        pref *= (1 - t * q ** (i + 1)) * (1 - q ** (i + 1))
    return weights, Fraction(-1) ** n / pref


def _alsalam_carlitz_terms(p: AlSalamCarlitzParams,
                           n: int) -> tuple[list[Fraction], Fraction]:
    """v_n(x; a) = 2phi0(q^-n, x; -; q, q^n / a)."""
    q, a = p.q, p.a
    q_inv_n = q ** (-n)
    weights = [Fraction(1)]
    for j in range(1, n + 1):
        qj = q ** (j - 1)
        # exponent -C(j,2) + jn advances by n - (j - 1) at step j
        weights.append(-weights[-1] * (1 - q_inv_n * qj) * q ** (n - (j - 1))
                       / (a * (1 - q * qj)))
    return weights, Fraction(1)


_SERIES = {MEIXNER: (_meixner_terms, -1), LAGUERRE: (_laguerre_terms, 1),
           AL_SALAM_CARLITZ: (_alsalam_carlitz_terms, -1)}


class SeriesFamily:
    """The ``kind``/``params``/``poly`` face of a ``PolynomialFamily``,
    with p_n summed from the series."""

    def __init__(self, kind: str, params):
        self.kind = kind
        self.params = params
        self._polys: dict[int, Poly] = {}
        self._pochhammers = [Poly.one()]  # (s x; q)_j for j = 0, 1, ...

    def poly(self, n: int) -> Poly:
        if n not in self._polys:
            terms, sign = _SERIES[self.kind]
            weights, pref = terms(self.params, n)
            pochs = self._pochhammers
            while len(pochs) <= n:
                qj = self.params.q ** (len(pochs) - 1)
                pochs.append(pochs[-1] * Poly((1, sign * qj)))
            acc = Poly.zero()
            for w, poch in zip(weights, pochs):
                if w:
                    acc = acc + poch * w
            self._polys[n] = acc * pref
        return self._polys[n]


@cache
def series_family(kind: str, params) -> SeriesFamily:
    return SeriesFamily(kind, params)
