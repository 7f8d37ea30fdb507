"""Algebra of q-difference operators.

An operator is a finite sum  D(p) = sum_j f_j(x) * p(q^j x)  with Laurent
polynomial coefficients f_j (a polynomial over a power of x) and integer
shifts j, so action and composition are shift-and-add on coefficients.
On a monomial D(x^e) = x^e g_e with g_e = sum_j q^(j e) f_j, so an operator
acts through a table of the g_e that it fills as it is applied.  The
table holds each g_e as integers over one denominator, so an application
is an integer accumulation into the result's stored numerators.  A
second table holds the powers D^0..D^m, each composed once.  Operators
over different bases q never mix.  The order of a nonzero operator is
max shift minus min shift after dropping zero coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import MixedBase
from .exact import (Laurent, Poly, _poly, _power, _scaled, check_base,
                    poly_from_json, poly_to_json, rational, rational_str)


class QDiffOperator:
    """Finite q-shift operator with Laurent polynomial coefficients.

    ``_images`` maps e to g_e (see the module docstring) as a dense row
    of integers from x^lo on, lo the least valuation of the f_j, and its
    positive denominator.  It only caches what ``terms`` determine, so it
    takes no part in ==, hash or to_json, nor does ``_powers``.  Neither
    table is mutated: a grown one is a new dict or tuple, published by
    one attribute store, so a thread that reads it sees a complete one.
    The operators that one builds from others (sums, products, compositions)
    take its q as checked (``_over``).
    """

    __slots__ = ("q", "terms", "_images", "_powers")

    def __init__(self, q: Fraction | int | str,
                 terms: Mapping[int, Laurent | Poly]):
        q = rational(q)
        check_base(q)
        self._fill(q, terms)

    def _fill(self, q: Fraction, terms: Mapping[int, Laurent | Poly]) -> None:
        canon: dict[int, Laurent] = {}
        for j in sorted(terms):
            f = terms[j]
            if isinstance(f, Poly):
                f = Laurent(f)
            if not f.is_zero():
                canon[int(j)] = f
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", MappingProxyType(canon))
        object.__setattr__(self, "_images", {})
        object.__setattr__(self, "_powers", ())

    def _over(self, terms: Mapping[int, Laurent | Poly]) -> QDiffOperator:
        """The operator with these terms over self's q, already checked."""
        op = object.__new__(QDiffOperator)
        op._fill(self.q, terms)
        return op

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QDiffOperator is immutable")

    @classmethod
    def identity(cls, q: Fraction | int | str) -> QDiffOperator:
        return cls(q, {0: Laurent.one()})

    @classmethod
    def zero(cls, q: Fraction | int | str) -> QDiffOperator:
        return cls(q, {})

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int | None:
        """max shift - min shift, or None for the zero operator."""
        if not self.terms:
            return None
        shifts = list(self.terms)
        return max(shifts) - min(shifts)

    def min_shift(self) -> int | None:
        return min(self.terms) if self.terms else None

    def max_shift(self) -> int | None:
        return max(self.terms) if self.terms else None

    def apply(self, p: Poly | Laurent) -> Laurent:
        """D(p) as a Laurent polynomial (a polynomial iff its val >= 0).

        With p = sum_e c_e x^e, D(p) = sum_e c_e x^e g_e: one accumulation
        over the table of monomial images, no product of polynomials.  It
        runs over integers, on the lcm of the denominators of the images
        it reads and the common denominator of the c_e.
        """
        if isinstance(p, Poly):
            p = Laurent(p)
        cs, cden, val = p.poly.nums, p.poly.den, p.val
        if not self.terms or not cs:
            return Laurent.zero()
        lo = min(f.val for f in self.terms.values())
        width = max(f.val + len(f.poly.nums) for f in self.terms.values()) - lo
        images = self._images
        missing = [e for e in range(val, val + len(cs)) if e not in images]
        if missing:
            images = dict(images)
            rows = {j: (f.val - lo, f.poly.nums, f.poly.den)
                    for j, f in self.terms.items()}
            for e in missing:
                # q^(je) / d = s / (t d) for each term, over one denominator
                scales = [(*_power(self.q, j * e), d)
                          for j, (_, _, d) in rows.items()]
                den = math.lcm(*(t * d for _, t, d in scales))
                g = [0] * width
                for (s, t, d), (offset, row, _) in zip(scales, rows.values()):
                    s *= den // (t * d)
                    for i, c in enumerate(row, offset):
                        g[i] += s * c
                d = math.gcd(den, *g)
                images[e] = (tuple(c // d for c in g), den // d)
            object.__setattr__(self, "_images", images)
        used = [(i, c, *images[val + i]) for i, c in enumerate(cs) if c]
        lcm = math.lcm(*(d for *_, d in used))
        out = [0] * (len(cs) + width - 1)
        for i, c, g, d in used:
            c *= lcm // d
            for k, gk in enumerate(g, i):
                out[k] += c * gk
        return Laurent(_poly(out, cden * lcm), val + lo)

    def _require_same_base(self, other: QDiffOperator) -> None:
        if self.q != other.q:
            raise MixedBase(
                f"cannot combine operators over q = {self.q} and q = {other.q}")

    def __add__(self, other: QDiffOperator) -> QDiffOperator:
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        self._require_same_base(other)
        terms = dict(self.terms)
        for j, f in other.terms.items():
            terms[j] = terms[j] + f if j in terms else f
        return self._over(terms)

    def __sub__(self, other: QDiffOperator) -> QDiffOperator:
        return self + (-other)

    def __neg__(self) -> QDiffOperator:
        return self._over({j: -f for j, f in self.terms.items()})

    def __mul__(self, scalar: Fraction | int) -> QDiffOperator:
        if not isinstance(scalar, (Fraction, int)):
            return NotImplemented
        return self._over({j: f * scalar for j, f in self.terms.items()})

    def __rmul__(self, scalar: Fraction | int) -> QDiffOperator:
        return self.__mul__(scalar)

    def mul_fn(self, f: Laurent | Poly) -> QDiffOperator:
        """Left-multiply by a coefficient function: (f*D)(p) = f * D(p)."""
        return self._over({j: f * g for j, g in self.terms.items()})

    def compose(self, other: QDiffOperator) -> QDiffOperator:
        """(self o other)(p) = self(other(p))."""
        self._require_same_base(other)
        terms: dict[int, Laurent] = {}
        for j1, f in self.terms.items():
            u, v = _power(self.q, j1)
            for j2, g in other.terms.items():
                j = j1 + j2
                contrib = f * Laurent(_scaled(g.poly, u, v, g.val), g.val)
                terms[j] = terms[j] + contrib if j in terms else contrib
        return self._over(terms)

    def powers(self, m: int) -> tuple[QDiffOperator, ...]:
        """(d^0, ..., d^m) for d = self; each power is composed once."""
        table = self._powers
        if len(table) <= m:
            grown = list(table) or [self._over({0: Laurent.one()}), self]
            while len(grown) <= m:
                grown.append(grown[-1].compose(self))
            table = tuple(grown)
            object.__setattr__(self, "_powers", table)
        return table[:m + 1]

    def __matmul__(self, other: QDiffOperator) -> QDiffOperator:
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        return self.q == other.q and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash((self.q, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {f.pretty()}" for j, f in self.terms.items())
        return f"QDiffOperator(q={self.q}, {{{body}}})"

    def to_json(self) -> dict:
        return {
            "q": rational_str(self.q),
            "terms": [
                {"shift": j,
                 "num": poly_to_json(f.num),
                 "den": poly_to_json(f.den)}
                for j, f in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> QDiffOperator:
        """Inverse of to_json; every den must be a monic power of x."""
        terms = {}
        for t in data["terms"]:
            den = poly_from_json(t["den"])
            k = den.degree()
            if k < 0 or den != Poly.monomial(k):
                raise ValueError(
                    f"coefficient denominator {den.pretty()} is not a power of x")
            terms[int(t["shift"])] = Laurent(poly_from_json(t["num"]), -k)
        return cls(rational(data["q"]), terms)


def q_derivative_ops(q: Fraction | int | str) -> tuple[QDiffOperator, QDiffOperator]:
    """The pair (D_q, D_{1/q}) acting by divided q-differences.

    D_q(p)     = (p(qx) - p(x)) / (x (q - 1))
    D_{1/q}(p) = (p(x/q) - p(x)) / (x (1/q - 1))
    Both live in the same algebra over base q (shifts +1 / -1).
    """
    q = rational(q)
    check_base(q)
    fwd = Laurent(Poly.constant(1 / (q - 1)), -1)
    d_q = QDiffOperator(q, {1: fwd, 0: -fwd})
    bwd = Laurent(Poly.constant(q / (1 - q)), -1)
    d_inv = QDiffOperator(q, {-1: bwd, 0: -bwd})
    return d_q, d_inv


def poly_of_operator(p: Poly, d: QDiffOperator) -> QDiffOperator:
    """p(d) = sum_j c_j d^j, read off the table of powers of d."""
    terms: dict[int, Laurent] = {}
    for c, power in zip(p.coeffs, d.powers(p.degree())):
        if c:
            for j, f in power.terms.items():
                terms[j] = terms[j] + f * c if j in terms else f * c
    return d._over(terms)
