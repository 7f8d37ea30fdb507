"""Algebra of q-difference operators.

An operator D(p) = sum_j f_j(x) * p(q^j x) has Laurent polynomial
coefficients f_j and integer shifts j.  Like a ``Poly`` it is stored as
integers over one positive denominator ``den``: per shift j, a row of
numerators from the valuation of f_j on, trimmed at both ends, gcd 1 over
all rows, so the stored form is canonical; ``terms``, the f_j as
``Laurent``s, is a view built when first read.  Sums, multiples, products
and compositions are integer loops over the rows ending in one gcd each.
D(x^e) = x^e g_e with g_e = sum_j q^(je) f_j: at q = u/v and h = max |j|
an operator fills, as it is applied, a table of the integer rows
(uv)^(h|e|) den g_e, as (uv)^(h|e|) q^(je) = u^(h|e|+je) v^(h|e|-je).
``apply`` sums over that table, and ``residual`` decides D(p) == c r on
the same sum, forming D(p) - c r from it only when that is not zero.
Operators over different bases q never mix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import MixedBase
from .exact import (Laurent, Poly, _convolve_into, _poly, check_base,
                    poly_from_json, poly_to_json, rational, rational_str)

_set = object.__setattr__


def _parts(p: Poly | Laurent) -> tuple[tuple[int, ...], int, int]:
    """p as (integer numerators, den, valuation of the first numerator)."""
    if isinstance(p, Poly):
        return p.nums, p.den, 0
    return p.poly.nums, p.poly.den, p.val


def _span(rows) -> tuple[int, int]:
    """The least valuation and one past the top exponent of the rows."""
    return (min((v for _, v, _ in rows), default=0),
            max((v + len(r) for _, v, r in rows), default=0))


def _table(q: Fraction, rows: Mapping[int, tuple[int, list[int]]],
           den: int) -> QDiffOperator:
    """sum_j x^val_j (sum_i nums_j[i] x^i) / den S^j over an already checked
    q, for rows {j: (val_j, nums_j)} and any den != 0, in its stored form."""
    kept = []
    for j, (val, nums) in sorted(rows.items()):
        nz = [i for i, c in enumerate(nums) if c]
        if nz:
            kept.append((j, val + nz[0], nums[nz[0]:nz[-1] + 1]))
    g = math.gcd(den, *(c for _, _, row in kept for c in row))
    g = -g if den < 0 else g
    stored = tuple((j, val, tuple(c // g for c in r)) for j, val, r in kept)
    op = object.__new__(QDiffOperator)
    for slot, value in zip(QDiffOperator.__slots__,  # q, den, rows, caches
                           (q, den // g, stored, None, {}, ())):
        _set(op, slot, value)
    return op


class QDiffOperator:
    """Finite q-shift operator with Laurent polynomial coefficients.

    ``rows`` holds (shift, valuation, numerators) per nonzero f_j by rising
    shift, over ``den``; ``_images`` maps e to (uv)^(h|e|) den g_e from x^lo
    on, lo the least valuation; ``_powers`` holds D^0..D^m, each composed
    once.  No cache takes part in ==, hash or to_json; a grown one is a new
    object published by one store, so a thread reads only complete ones.
    """

    __slots__ = ("q", "den", "rows", "_terms", "_images", "_powers")

    def __new__(cls, q: Fraction | int | str,
                terms: Mapping[int, Laurent | Poly]) -> QDiffOperator:
        q = rational(q)
        check_base(q)
        parts = {int(j): _parts(f) for j, f in terms.items()}
        den = math.lcm(*(d for _, d, _ in parts.values()))
        return _table(q, {j: (val, [c * (den // d) for c in nums])
                          for j, (nums, d, val) in parts.items()}, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QDiffOperator is immutable")

    @property
    def terms(self) -> Mapping[int, Laurent]:
        """Shift j -> f_j, the nonzero coefficients by rising shift."""
        if self._terms is None:
            _set(self, "_terms", MappingProxyType(
                {j: Laurent(_poly(list(row), self.den), val)
                 for j, val, row in self.rows}))
        return self._terms

    @classmethod
    def identity(cls, q: Fraction | int | str) -> QDiffOperator:
        return cls(q, {0: Laurent.one()})

    @classmethod
    def zero(cls, q: Fraction | int | str) -> QDiffOperator:
        return cls(q, {})

    def is_zero(self) -> bool:
        return not self.rows

    def order(self) -> int | None:
        """max shift - min shift, or None for the zero operator."""
        return self.rows[-1][0] - self.rows[0][0] if self.rows else None

    def min_shift(self) -> int | None:
        return self.rows[0][0] if self.rows else None

    def max_shift(self) -> int | None:
        return self.rows[-1][0] if self.rows else None

    def _image_sum(self, p: Poly | Laurent) -> tuple[list[int], int, int]:
        """D(p) as (integer numerators, den != 0, valuation of the first):
        with p = sum_e c_e x^e, D(p) = sum_e c_e x^e g_e, each image read
        from the table and scaled to the common (uv)^(hE), E = max |e|."""
        cs, cden, val = _parts(p)
        lo, hi = _span(self.rows)
        h = max((abs(j) for j, _, _ in self.rows), default=0)
        u, w = self.q.numerator, self.q.denominator
        images = self._images
        missing = [e for e in range(val, val + len(cs)) if e not in images]
        if missing:
            images = dict(images)
            for e in missing:
                images[e] = g = [0] * (hi - lo)
                for j, v, row in self.rows:
                    s = u ** (h * abs(e) + j * e) * w ** (h * abs(e) - j * e)
                    for i, c in enumerate(row, v - lo):
                        g[i] += s * c
            _set(self, "_images", images)
        top, step = max(-val, val + len(cs) - 1), (u * w) ** h
        out = [0] * (len(cs) + hi - lo - 1)
        for i, c in enumerate(cs):
            if c:
                c *= step ** (top - abs(val + i))
                for k, gk in enumerate(images[val + i], i):
                    out[k] += c * gk
        return out, cden * self.den * step ** top, val + lo

    def apply(self, p: Poly | Laurent) -> Laurent:
        """D(p) as a Laurent polynomial (a polynomial iff its val >= 0)."""
        out, den, val = self._image_sum(p)
        return Laurent(_poly(out, den), val)

    def residual(self, p: Poly | Laurent, r: Poly | Laurent,
                 c: Fraction | int = 1) -> Laurent | None:
        """None if D(p) == c r, else D(p) - c r: D(p)'s integer sum and r's
        numerators, each scaled by the other's denominator, subtracted."""
        out, den, val = self._image_sum(p)
        rs, rden, rval = _parts(r)
        a, b = c.denominator * rden, c.numerator * den
        lo = min(val, rval)
        acc = [0] * (max(val + len(out), rval + len(rs)) - lo)
        for i, x in enumerate(out, val - lo):
            acc[i] = x * a
        for i, y in enumerate(rs, rval - lo):
            acc[i] -= y * b
        return Laurent(_poly(acc, den * a), lo) if any(acc) else None

    def _require_same_base(self, other: QDiffOperator) -> None:
        if self.q != other.q:
            raise MixedBase(
                f"cannot combine operators over q = {self.q} and q = {other.q}")

    def _combination(self, parts) -> QDiffOperator:
        """sum_k c_k D_k for [(c_k, D_k)], rational c_k, over self's q."""
        parts = [(c, d) for c, d in parts if c]
        den = math.lcm(*(c.denominator * d.den for c, d in parts))
        lo, hi = _span([row for _, d in parts for row in d.rows])
        acc: dict[int, list[int]] = {}
        for c, d in parts:
            s = c.numerator * (den // (c.denominator * d.den))
            for j, v, row in d.rows:
                out = acc.setdefault(j, [0] * (hi - lo))
                for i, x in enumerate(row, v - lo):
                    out[i] += s * x
        return _table(self.q, {j: (lo, out) for j, out in acc.items()}, den)

    def __add__(self, other: QDiffOperator) -> QDiffOperator:
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        self._require_same_base(other)
        return self._combination([(1, self), (1, other)])

    def __sub__(self, other: QDiffOperator) -> QDiffOperator:
        return self + (-other)

    def __neg__(self) -> QDiffOperator:
        return self._combination([(-1, self)])

    def __mul__(self, scalar: Fraction | int) -> QDiffOperator:
        if not isinstance(scalar, (Fraction, int)):
            return NotImplemented
        return self._combination([(scalar, self)])

    __rmul__ = __mul__

    def mul_fn(self, f: Laurent | Poly) -> QDiffOperator:
        """Left-multiply by a coefficient function: (f*D)(p) = f * D(p)."""
        fs, fden, fval = _parts(f)
        rows = {}
        for j, v, row in self.rows:
            rows[j] = (v + fval, [0] * (len(row) + len(fs) - 1))
            _convolve_into(rows[j][1], 0, row, fs)
        return _table(self.q, rows, self.den * fden)

    def compose(self, other: QDiffOperator) -> QDiffOperator:
        """(self o other)(p) = self(other(p)): f_j1(x) g_j2(q^j1 x) at shift
        j1 + j2, with q^s = u^(s-s0) v^(s1-s) / (u^-s0 v^s1) for each
        s = j1 e that occurs, s0 <= min(s, 0) and s1 >= max(s, 0)."""
        self._require_same_base(other)
        u, w = self.q.numerator, self.q.denominator
        (f_lo, f_hi), (e_lo, e_hi) = _span(self.rows), _span(other.rows)
        ends = [0] + [j * e for j, _, _ in self.rows for e in (e_lo, e_hi - 1)]
        s0, s1 = min(ends), max(ends)
        out: dict[int, list[int]] = {}
        for j1, v1, row1 in self.rows:
            scale = [u ** (j1 * e - s0) * w ** (s1 - j1 * e)
                     for e in range(e_lo, e_hi)]
            for j2, v2, row2 in other.rows:
                _convolve_into(
                    out.setdefault(j1 + j2, [0] * (f_hi + e_hi - f_lo - e_lo)),
                    v1 + v2 - f_lo - e_lo, row1,
                    [c * scale[e - e_lo] for e, c in enumerate(row2, v2)])
        return _table(self.q, {j: (f_lo + e_lo, r) for j, r in out.items()},
                      self.den * other.den * u ** -s0 * w ** s1)

    def powers(self, m: int) -> tuple[QDiffOperator, ...]:
        """(d^0, ..., d^m) for d = self; each power is composed once."""
        table = self._powers
        if len(table) <= m:
            grown = list(table) or [_table(self.q, {0: (0, [1])}, 1), self]
            while len(grown) <= m:
                grown.append(grown[-1].compose(self))
            table = tuple(grown)
            _set(self, "_powers", table)
        return table[:m + 1]

    def __matmul__(self, other: QDiffOperator) -> QDiffOperator:
        return self.compose(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDiffOperator):
            return NotImplemented
        return (self.q == other.q and self.den == other.den
                and self.rows == other.rows)

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
    return d._combination(zip(p.coeffs, d.powers(p.degree())))
