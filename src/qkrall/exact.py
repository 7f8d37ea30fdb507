"""Exact arithmetic over Q: scalars, polynomials, Laurent polynomials.

Everything in the package funnels through this module, and nothing here
ever touches a float.  Scalars are ``fractions.Fraction``.  A polynomial is
stored as integer numerators, lowest degree first, over one positive
denominator coprime to them; Laurent polynomials x^val * p (the
coefficients of q-difference operators) are kept in a normal form
(p(0) != 0), so that in both syntactic equality is mathematical equality.

Every operation on them, and the kernels of the other layers that read
``nums`` and ``den``, is a loop over integers that ends in one gcd
reduction of its result; a ``Fraction`` is built only for a coefficient
that is read through ``coeffs`` or returned as a scalar.
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
    3.11), and ``Poly`` + pays the same lcm of its two denominators.  The
    data here shares its denominators.  Over one pass of each benchmark
    workload at seed 1, the lcm has at most 1.8x the bits of the largest
    denominator in the calls here (exactly as many in 41-80% of them) and
    at most 1.9x in the sums (exactly as many in 63-100%).
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
    """Univariate polynomial over Q, stored as integer numerators over one
    denominator.

    ``nums`` runs lowest degree first with no trailing zero, ``den > 0`` and
    gcd(den, *nums) == 1, so the zero polynomial is ((), 1), degree()
    returns -1 and == compares the two fields.  ``coeffs``, the
    ``Fraction``s nums[k]/den, is a view built the first time it is read.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __new__(cls, coeffs: object = ()) -> Poly:
        return _poly(*_over_common(
            [c if type(c) in (Fraction, int) else rational(c)
             for c in coeffs]))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            _set(self, "_coeffs",
                 tuple(Fraction(c, self.den) for c in self.nums))
        return self._coeffs

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
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: Poly) -> Poly:
        return _add(self, other, 0)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return _poly([-c for c in self.nums], self.den)

    def __mul__(self, other: Poly | Fraction | int) -> Poly:
        if isinstance(other, (Fraction, int)):
            return _poly([c * other.numerator for c in self.nums],
                         self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, ca in enumerate(self.nums):
            if ca:
                for k, cb in enumerate(other.nums, i):
                    out[k] += ca * cb
        return _poly(out, self.den * other.den)

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
        """Horner over Z: sum_k nums_k u^k v^(d-k) over den v^d at u/v."""
        x0 = rational(x0)
        u, v = x0.numerator, x0.denominator
        acc, vk = 0, 1
        for c in reversed(self.nums):
            acc = acc * u + c * vk
            vk *= v
        return Fraction(acc * v, self.den * vk)

    def scale_arg(self, lam: Fraction | int | str) -> Poly:
        """Substitute x -> lam * x."""
        return _scaled(self, rational(lam), 0)

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


_set = object.__setattr__


def _poly(nums: list[int], den: int) -> Poly:
    """The Poly nums/den, for any den != 0, in its stored form: trailing
    zeros trimmed, then the gcd of den and nums divided out with den's sign."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    p = object.__new__(Poly)
    _set(p, "nums", tuple([c // g for c in nums] if g != 1 else nums))
    _set(p, "den", den // g)
    _set(p, "_coeffs", None)
    return p


def _add(a: Poly, b: Poly, offset: int) -> Poly:
    """a + x^offset b, over the lcm of the two denominators."""
    den = math.lcm(a.den, b.den)
    out = [c * (den // a.den) for c in a.nums]
    out.extend([0] * (offset + len(b.nums) - len(out)))
    s = den // b.den
    for i, c in enumerate(b.nums, offset):
        out[i] += c * s
    return _poly(out, den)


def _scaled(p: Poly, lam: Fraction, val: int) -> Poly:
    """lam^val p(lam x) in one integer pass: at lam = u/v and d = deg p,
    coefficient i is nums_i u^i v^(d-i) over den v^d, times lam^val."""
    u, v = lam.numerator, lam.denominator
    d = len(p.nums) - 1
    power = lam ** val
    top = power.numerator
    return _poly([c * top * u ** i * v ** (d - i)
                  for i, c in enumerate(p.nums)],
                 p.den * power.denominator * v ** max(d, 0))


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
    fa, fb = _integer_rows([a.nums, b.nums])
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
    shift-and-add on coefficients and never need a polynomial gcd.  As a
    quotient num / den it reads num = x^max(val, 0) * poly and
    den = x^max(-val, 0): coprime, with a monic denominator.
    """

    __slots__ = ("poly", "val")

    def __init__(self, poly: Poly, val: int = 0):
        nums = poly.nums
        low = 0
        while low < len(nums) and not nums[low]:
            low += 1
        if low == len(nums):
            poly, val = Poly.zero(), 0
        elif low:
            poly, val = _poly(list(nums[low:]), poly.den), val + low
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
        return _poly([0] * self.val + list(self.poly.nums), self.poly.den)

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
        # equal to its Poly's hash when it is one, as == holds there
        return hash(self.num) if self.val >= 0 else hash((self.poly, self.val))

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
        return Laurent(_add(lo.poly, hi.poly, hi.val - lo.val), lo.val)

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
        return Laurent(_scaled(self.poly, rational(lam), self.val), self.val)

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
