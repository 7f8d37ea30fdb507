"""Exact arithmetic over Q: scalars, polynomials, Laurent polynomials.

Everything in the package funnels through this module, and nothing here
ever touches a float.  Scalars are ``fractions.Fraction``; polynomials
store coefficients lowest degree first; Laurent polynomials x^val * p
(the coefficients of q-difference operators) are kept in a normal form
(p(0) != 0) so that syntactic equality is mathematical equality.

The quadratic loops (products, evaluation, and the kernels of the other
layers that import ``_over_common``) run over integer numerators on one
common denominator and build a ``Fraction`` only for each result, so they
pay one gcd per output coefficient instead of one per multiply-add.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParamDegeneracy, ZeroDenominator


def rational(value: Fraction | int | str) -> Fraction:
    """Parse an exact rational from an int, Fraction or 'num/den' string."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


def rational_str(value: Fraction) -> str:
    """Serialize exactly: '7/3', '-2/5' or '4'.  Never a decimal."""
    return str(Fraction(value))


def check_base(q: Fraction) -> None:
    """The premise of every q-construction here: q avoids 0, 1 and -1.

    For a rational q, q^j = 1 with j > 0 only at q = +-1, so past this
    check the nodes q^j are distinct and no 1 - q^j vanishes.
    """
    if q in (0, 1, -1):
        raise ParamDegeneracy(f"q != +-1 and q != 0 required, got q = {q}")


def check_depth(n: int) -> None:
    """The premise of every check up to an index bound n: n >= 0, since a
    negative bound leaves an empty range, which may not count as a pass."""
    if n < 0:
        raise ParamDegeneracy(f"n must be nonnegative, got n = {n}")


def _over_common(coeffs) -> tuple[list[int], int]:
    """The rationals `coeffs` (ints or Fractions) as integer numerators
    over their one positive common denominator, the lcm of theirs.

    A loop over these pays no gcd per step.  The lcm can be far larger
    than any one denominator when they are unrelated: a product of two
    degree-30 polynomials with random 300-bit denominators takes 2.4x as
    long this way (77 ms against 32 ms on a shared 2-CPU host, Python
    3.11).  The data here shares its denominators: in every call over one
    pass of each benchmark workload the lcm has at most 1.9x the bits of
    the largest denominator, and in two calls of three exactly as many.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def qpochhammer(a: Fraction | int | str, q: Fraction | int | str, j: int) -> Fraction:
    """q-shifted factorial (a; q)_j = (1 - a)(1 - aq)...(1 - aq^(j-1))."""
    if j < 0:
        raise ValueError("qpochhammer needs j >= 0")
    a = rational(a)
    q = rational(q)
    out = Fraction(1)
    term = a
    for _ in range(j):
        out *= 1 - term
        term *= q
    return out


class Poly:
    """Univariate polynomial over Q.

    Coefficients run lowest degree first and trailing zeros are trimmed,
    so the zero polynomial is the empty tuple and degree() returns -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: object = ()):
        cs = [c if type(c) is Fraction else Fraction(c)  # type: ignore[union-attr]
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Fraction | int | str) -> Poly:
        return cls((rational(c),))

    @classmethod
    def monomial(cls, k: int, c: Fraction | int | str = 1) -> Poly:
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * k + (rational(c),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly | Fraction | int) -> Poly:
        if isinstance(other, (Fraction, int)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        a, da = _over_common(self.coeffs)
        b, db = _over_common(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    out[k] += ca * cb
        den = da * db
        return Poly([Fraction(c, den) for c in out])

    def __rmul__(self, other: Fraction | int) -> Poly:
        return self.__mul__(other)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x0: Fraction | int | str) -> Fraction:
        """Horner over Z: at x0 = u/v, sum_k c_k u^k v^(d-k) over v^d."""
        x0 = rational(x0)
        if not self.coeffs:
            return Fraction(0)
        nums, den = _over_common(self.coeffs)
        u, v = x0.numerator, x0.denominator
        acc, vk = 0, 1
        for c in reversed(nums):
            acc = acc * u + c * vk
            vk *= v
        return Fraction(acc, den * (vk // v))

    def scale_arg(self, lam: Fraction | int | str) -> Poly:
        """Substitute x -> lam * x."""
        lam = rational(lam)
        out = []
        power = Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power *= lam
        return Poly(out)

    def shift_arg(self, lam: Fraction | int | str) -> Poly:
        """Substitute x -> x + lam."""
        lam = rational(lam)
        shifted_x = Poly((lam, 1))
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * shifted_x + Poly.constant(c)
        return acc

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "x" if k == 1 else f"x^{k}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact polynomial division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise ZeroDenominator("polynomial division by zero")
    rem = list(a.coeffs)
    db, lb = b.degree(), b.leading()
    if a.degree() < db:
        return Poly.zero(), a
    quo = [Fraction(0)] * (a.degree() - db + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db] / lb
        quo[k] = c
        if c:
            for i, cb in enumerate(b.coeffs):
                rem[k + i] -= c * cb
    return Poly(quo), Poly(rem[:db])


def _integer_rows(a: list[list[Fraction | int]]) -> list[list[int]]:
    """Each nonzero row scaled to a primitive integer row; zero rows go.
    A row of `int`s skips the common denominator."""
    out = []
    for row in a:
        if not all(isinstance(c, int) for c in row):
            row, _ = _over_common(row)
        g = math.gcd(*row)
        if g:
            out.append([c // g for c in row])
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a primitive pseudo-remainder sequence over Z."""
    if a.is_zero() and b.is_zero():
        return Poly.zero()
    if a.is_zero() or b.is_zero():
        src = b if a.is_zero() else a
        return src * (1 / src.leading())
    fa, fb = _integer_rows([a.coeffs, b.coeffs])
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        # pseudo-remainder: lc(fb)^(deg fa - deg fb + 1) * fa  mod  fb
        rem = list(fa)
        lb = fb[-1]
        steps = len(fa) - len(fb) + 1
        for k in range(steps - 1, -1, -1):
            lead = rem[k + len(fb) - 1]
            if lead:
                for i in range(len(rem)):
                    rem[i] *= lb
                for i, cb in enumerate(fb):
                    rem[k + i] -= lead * cb
        while rem and rem[-1] == 0:
            rem.pop()
        g = math.gcd(*rem)
        if g > 1:
            rem = [c // g for c in rem]
        fa, fb = fb, rem
    monic = Poly(fa)
    return monic * (1 / monic.leading())


class Laurent:
    """Laurent polynomial x^val * poly over Q.

    The normal form has poly(0) != 0, or poly zero with val = 0, so == on
    the pair decides mathematical equality.  Sums and products are
    shift-and-add on coefficients and never need a gcd.  As a quotient
    num / den it reads num = x^max(val, 0) * poly and den = x^max(-val, 0):
    coprime, with a monic denominator.
    """

    __slots__ = ("poly", "val")

    def __init__(self, poly: Poly, val: int = 0):
        cs = poly.coeffs
        low = 0
        while low < len(cs) and cs[low] == 0:
            low += 1
        if low == len(cs):
            poly, val = Poly.zero(), 0
        elif low:
            poly, val = Poly(cs[low:]), val + low
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Laurent is immutable")

    @classmethod
    def zero(cls) -> Laurent:
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> Laurent:
        return cls(Poly.one())

    @classmethod
    def constant(cls, c: Fraction | int | str) -> Laurent:
        return cls(Poly.constant(c))

    @property
    def num(self) -> Poly:
        if self.val <= 0:
            return self.poly
        return Poly((0,) * self.val + self.poly.coeffs)

    @property
    def den(self) -> Poly:
        return Poly.monomial(max(-self.val, 0))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_polynomial(self) -> bool:
        return self.val >= 0

    def as_poly(self) -> Poly:
        if self.val < 0:
            raise ValueError("Laurent polynomial has a pole at 0")
        return self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            other = Laurent(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.val == other.val and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self.poly, self.val))

    def __add__(self, other: Laurent | Poly) -> Laurent:
        if isinstance(other, Poly):
            other = Laurent(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lo, hi = (self, other) if self.val <= other.val else (other, self)
        offset = hi.val - lo.val
        out = list(lo.poly.coeffs)
        top = offset + len(hi.poly.coeffs)
        if len(out) < top:
            out.extend([Fraction(0)] * (top - len(out)))
        for i, c in enumerate(hi.poly.coeffs, offset):
            out[i] += c
        return Laurent(Poly(out), lo.val)

    def __sub__(self, other: Laurent | Poly) -> Laurent:
        return self + (-other)

    def __neg__(self) -> Laurent:
        return Laurent(-self.poly, self.val)

    def __mul__(self, other: Laurent | Poly | Fraction | int) -> Laurent:
        if isinstance(other, Laurent):
            return Laurent(self.poly * other.poly, self.val + other.val)
        if isinstance(other, (Poly, Fraction, int)):
            return Laurent(self.poly * other, self.val)
        return NotImplemented

    def __rmul__(self, other: Poly | Fraction | int) -> Laurent:
        return self.__mul__(other)

    def __call__(self, x0: Fraction | int | str) -> Fraction:
        x0 = rational(x0)
        if x0 == 0 and self.val < 0:
            raise ZeroDenominator("Laurent polynomial has a pole at x = 0")
        return self.poly(x0) * x0 ** self.val

    def scale_arg(self, lam: Fraction | int | str) -> Laurent:
        """Substitute x -> lam * x."""
        lam = rational(lam)
        out = []
        power = lam ** self.val
        for c in self.poly.coeffs:
            out.append(c * power)
            power *= lam
        return Laurent(Poly(out), self.val)

    def __repr__(self) -> str:
        return f"Laurent({self.poly!r}, {self.val})"

    def pretty(self) -> str:
        if self.is_polynomial():
            return self.num.pretty()
        return f"({self.num.pretty()}) / ({self.den.pretty()})"


def poly_to_json(p: Poly) -> list[str]:
    """Lowest-degree-first list of exact rational strings."""
    return [rational_str(c) for c in p.coeffs]


def poly_from_json(data: list[str]) -> Poly:
    return Poly([rational(c) for c in data])
