"""Classical q-polynomial families built from their three-term recurrences.

Three kinds are implemented, all with exact rational data:

* ``q-meixner``        m_n(x; b, c)   eigenfunctions of a second order
  q-difference operator with eigenvalue q^n,
* ``q-laguerre``       L_n(x; t)      where the parameter t plays the role
  of q^alpha and the eigenvalue is t q^n,
* ``al-salam-carlitz`` v_n(x; a)      used as a coefficient carrier; it has
  no attached operator here.

Each family's p_n follow from p_0 = 1 by its closed-form three-term
recurrence (Koekoek, Lesky and Swarttouw 2010, sections 14.13, 14.21 and
14.25).
``meixner``, ``laguerre`` and ``alsalam_carlitz`` return the one family of
their parameters from a process-wide least-recently-used table, and each
family builds its polynomials, operator and ladders once, under its lock.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import Callable

from .errors import ParamDegeneracy, SingularSystem, UnsupportedFamily
from .exact import (Laurent, Poly, Record, _over_common, _poly, _power,
                    check_base, check_depth, rational, rational_str)
from .linalg import solve_exact
from .operators import QDiffOperator

MEIXNER = "q-meixner"
LAGUERRE = "q-laguerre"
AL_SALAM_CARLITZ = "al-salam-carlitz"


def q_power_exponent(value: Fraction, q: Fraction) -> int | None:
    """Return e with q**e == value, or None; exact, with no bound on e.

    For q = a/b in lowest terms, q**e is +-(a/b)**e in lowest terms, so
    |num(value)| * den(value) must be (|a| * b)**|e|.  Integer division
    gives the candidate |e| and one exact comparison settles the sign.
    For q = +-1 the powers are 1 (e = 0) and, for q = -1, -1 (e = 1).
    """
    value, q = Fraction(value), Fraction(q)
    if value == 0 or q == 0:
        return None
    if q in (1, -1):
        if value == 1:
            return 0
        return 1 if value == q else None
    base = abs(q.numerator) * q.denominator
    size = abs(value.numerator) * value.denominator
    m = 0
    while size % base == 0:
        size //= base
        m += 1
    if size != 1:
        return None
    if q ** m == value:
        return m
    if q ** -m == value:
        return -m
    return None


def _coerce(params: Record) -> None:
    """Store every field of a params record as an exact rational."""
    for name in params._fields:
        object.__setattr__(params, name, rational(getattr(params, name)))


class MeixnerParams(Record):
    q: Fraction
    b: Fraction
    c: Fraction

    def _validate(self):
        _coerce(self)
        q, b, c = self.q, self.b, self.c
        check_base(q)
        e = q_power_exponent(b, q)
        if e is not None and e <= 0:
            raise ParamDegeneracy(f"b = q^{e} is excluded for the Meixner family")
        if c == 0:
            raise ParamDegeneracy("c = 0 is excluded for the Meixner family")
        e = q_power_exponent(-c, q)
        if e is not None and e >= 0:
            raise ParamDegeneracy(f"c = -q^{e} is excluded for the Meixner family")


class LaguerreParams(Record):
    """q-Laguerre data; t stands for q^alpha and may be any allowed rational."""

    q: Fraction
    t: Fraction

    def _validate(self):
        _coerce(self)
        q, t = self.q, self.t
        check_base(q)
        if t == 0:
            raise ParamDegeneracy("t = 0 is excluded for the Laguerre family")
        e = q_power_exponent(t, q)
        if e is not None and e < 0:
            raise ParamDegeneracy(f"t = q^{e} is excluded for the Laguerre family")


class AlSalamCarlitzParams(Record):
    q: Fraction
    a: Fraction

    def _validate(self):
        _coerce(self)
        check_base(self.q)
        if self.a == 0:
            raise ParamDegeneracy("a = 0 is excluded for the Al-Salam-Carlitz family")


FamilyParams = MeixnerParams | LaguerreParams | AlSalamCarlitzParams
_PARAMS = {MEIXNER: MeixnerParams, LAGUERRE: LaguerreParams,
           AL_SALAM_CARLITZ: AlSalamCarlitzParams}


class PolynomialFamily:
    """Memoized generator for one parametrized family."""

    def __init__(self, kind: str, params: FamilyParams):
        expected = _PARAMS.get(kind)
        if expected is None:
            raise UnsupportedFamily(f"unknown family kind {kind!r}")
        if not isinstance(params, expected):
            raise UnsupportedFamily(
                f"{kind} needs {expected.__name__}, got "
                f"{type(params).__name__}")
        self.kind = kind
        self.params = params
        self._cache: dict[int, Poly] = {0: Poly.one()}
        self._kept: dict[Callable, object] = {}
        self._lock = threading.RLock()

    @property
    def q(self) -> Fraction:
        return self.params.q

    def poly(self, n: int) -> Poly:
        """p_n; the cache holds p_0..p_m and grows by the recurrence."""
        if n < 0:
            raise ValueError("polynomial index must be >= 0")
        with self._lock:
            cache = self._cache
            if n not in cache:
                rec = family_recurrence(self)
                for m in range(len(cache) - 1, n):
                    cache[m + 1] = _recurrence_step(rec, m, cache[m],
                                                    cache.get(m - 1))
            return cache[n]

    def polys_up_to(self, n: int) -> list[Poly]:
        check_depth(n)
        return [self.poly(k) for k in range(n + 1)]

    def theta(self, n: int) -> Fraction:
        """Eigenvalue of the family operator on the degree-n polynomial:
        q^n (q-Meixner) or t q^n (q-Laguerre)."""
        if self.kind == AL_SALAM_CARLITZ:
            raise UnsupportedFamily("no eigenvalue data for Al-Salam-Carlitz")
        t = self.params.t if self.kind == LAGUERRE else 1
        s, w = _power(self.q, n)
        return Fraction(t.numerator * s, t.denominator * w)

    def __repr__(self) -> str:
        return f"PolynomialFamily({self.kind!r}, {self.params!r})"


# The last 128 families named (a benchmark cli-mix pass names 61).  Two
# threads naming new parameters at once may get two equal families.
@functools.lru_cache(maxsize=128)
def _family(kind: str, params: FamilyParams) -> PolynomialFamily:
    return PolynomialFamily(kind, params)


def per_family(make: Callable) -> Callable:
    """make(family), built once per family and kept in its ``_kept``."""
    @functools.wraps(make)
    def kept(family: PolynomialFamily):
        with family._lock:
            if make not in family._kept:
                family._kept[make] = make(family)
            return family._kept[make]
    return kept


def meixner(q, b, c) -> PolynomialFamily:
    return _family(MEIXNER, MeixnerParams(q, b, c))


def laguerre(q, t) -> PolynomialFamily:
    return _family(LAGUERRE, LaguerreParams(q, t))


def alsalam_carlitz(q, a) -> PolynomialFamily:
    return _family(AL_SALAM_CARLITZ, AlSalamCarlitzParams(q, a))


def _derived(label: str, make: Callable, *values):
    """make(*values) for a parameter set that `label` derives from its
    input; a set that the family excludes raises ParamDegeneracy naming
    that set, not the input."""
    try:
        return make(*values)
    except ParamDegeneracy as exc:
        shown = ", ".join(rational_str(x) for x in values)
        raise ParamDegeneracy(f"{label} derives {make.__name__}({shown}) "
                              f"from its input, and there {exc}") from exc


@per_family
def family_operator(family: PolynomialFamily) -> QDiffOperator:
    """Second order q-difference operator with the family as eigenfunctions.

    q-Meixner:   D(m_n) = q^n m_n
    q-Laguerre:  D(L_n) = t q^n L_n
    """
    q = family.q
    if family.kind == MEIXNER:
        b, c = family.params.b, family.params.c
        down = Poly((-b * q * c, c))
        up = Poly((-1, 1)) * Poly((b * c, 1))
        mid = Poly.monomial(2) - down - up
        return QDiffOperator(q, {-1: Laurent(down, -2), 0: Laurent(mid, -2),
                                 1: Laurent(up, -2)})
    if family.kind == LAGUERRE:
        t = family.params.t
        return QDiffOperator(q, {-1: Laurent(Poly.one(), -1),
                                 0: Laurent(Poly.constant(-(1 + t)), -1),
                                 1: Laurent(Poly((t, t)), -1)})
    raise UnsupportedFamily("no canonical operator for Al-Salam-Carlitz")


class ThreeTermRecurrence(Record):
    """Coefficients of  x p_n = a_n p_{n+1} + b_n p_n + c_n p_{n-1}."""

    a: Callable[[int], Fraction]
    b: Callable[[int], Fraction]
    c: Callable[[int], Fraction]

    @classmethod
    def from_tables(cls, a: list[Fraction], b: list[Fraction],
                    c: list[Fraction]) -> ThreeTermRecurrence:
        a_t, b_t, c_t = list(a), list(b), list(c)
        return cls(lambda n: a_t[n], lambda n: b_t[n], lambda n: c_t[n])


def meixner_recurrence(params: MeixnerParams) -> ThreeTermRecurrence:
    """Closed-form recurrence for the q-Meixner family, normalized so the
    underlying functional has total mass 1.  c(0) is returned as 0 since it
    multiplies the absent p_{-1}.

    a_n = c (1 - q^(n+1)) (1 - b q^(n+1)) / q^(2n+1),
    b_n = 1 + c (1 - b q^(n+1)) / q^(2n+1) + (1 - q^n) (c + q^n) / q^(2n),
    c_n = (c + q^n) / q^(2n); each is evaluated as one integer fraction in
    U = u^n and V = v^n at q = u/v, b = bn/bd and c = cn/cd.
    """
    u, v = params.q.numerator, params.q.denominator
    bn, bd = params.b.numerator, params.b.denominator
    cn, cd = params.c.numerator, params.c.denominator

    def a_fn(n: int) -> Fraction:
        U, V = u ** (n + 1), v ** (n + 1)
        return Fraction(cn * (V - U) * (bd * V - bn * U),
                        cd * bd * v * u ** (2 * n + 1))

    def c_fn(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        U, V = u ** n, v ** n
        return Fraction((cn * V + cd * U) * V, cd * U * U)

    def b_fn(n: int) -> Fraction:
        # the last term vanishes at n = 0, where U = V = 1
        U, V = u ** n, v ** n
        den = cd * bd * u * U * U
        return Fraction(den + cn * (bd * v * V - bn * u * U) * V
                        + bd * u * (V - U) * (cn * V + cd * U), den)

    return ThreeTermRecurrence(a_fn, b_fn, c_fn)


def laguerre_recurrence(params: LaguerreParams) -> ThreeTermRecurrence:
    """Closed-form recurrence for the q-Laguerre family (t = q^alpha),
    normalized so the underlying functional has total mass 1.  c(0) is
    returned as 0 since it multiplies the absent p_{-1}.

    a_n = (1 - t q^(n+1)) (1 - q^(n+1)) / (t q^(2n+1)),
    b_n = ((1 - q^(n+1)) + q (1 - t q^n)) / (t q^(2n+1)),
    c_n = 1 / (t q^(2n)); each is evaluated as one integer fraction in
    U = u^n and V = v^n at q = u/v and t = tn/td.
    """
    u, v = params.q.numerator, params.q.denominator
    tn, td = params.t.numerator, params.t.denominator

    def a_fn(n: int) -> Fraction:
        U, V = u ** (n + 1), v ** (n + 1)
        return Fraction((td * V - tn * U) * (V - U), tn * v * u ** (2 * n + 1))

    def b_fn(n: int) -> Fraction:
        U, V = u ** n, v ** n
        return Fraction((td * (v * V - u * U) + u * (td * V - tn * U)) * V,
                        tn * u * U * U)

    def c_fn(n: int) -> Fraction:
        if n == 0:
            return Fraction(0)
        U, V = u ** n, v ** n
        return Fraction(td * V * V, tn * U * U)

    return ThreeTermRecurrence(a_fn, b_fn, c_fn)


def alsalam_carlitz_recurrence(
        params: AlSalamCarlitzParams) -> ThreeTermRecurrence:
    """Closed-form recurrence for the Al-Salam-Carlitz family v_n(x; a):
    a_n = -a / q^n, b_n = (1 + a) / q^n and c_n = (q^n - 1) / q^n, which
    is 0 at n = 0, where it multiplies the absent p_{-1}."""
    u, v = params.q.numerator, params.q.denominator
    an, ad = params.a.numerator, params.a.denominator
    return ThreeTermRecurrence(
        lambda n: Fraction(-an * v ** n, ad * u ** n),
        lambda n: Fraction((ad + an) * v ** n, ad * u ** n),
        lambda n: Fraction(u ** n - v ** n, u ** n))


def family_recurrence(family: PolynomialFamily) -> ThreeTermRecurrence:
    """The closed-form recurrence of any of the three families."""
    if family.kind == MEIXNER:
        return meixner_recurrence(family.params)
    if family.kind == LAGUERRE:
        return laguerre_recurrence(family.params)
    return alsalam_carlitz_recurrence(family.params)


def derive_recurrence(family: PolynomialFamily, n_top: int) -> ThreeTermRecurrence:
    """Recover a_n, b_n, c_n for n <= n_top by exact coefficient matching.

    x p_n must equal a_n p_{n+1} + b_n p_n + c_n p_{n-1} in every
    coefficient; if the full linear system has no unique solution the
    family is not a genuine orthogonal sequence and SingularSystem is
    raised.  It builds every polynomial up to degree n_top + 1 and solves
    one system per degree, so it serves as the slow reference that the
    closed forms above are tested against.
    """
    a_t: list[Fraction] = []
    b_t: list[Fraction] = []
    c_t: list[Fraction] = []
    for n in range(n_top + 1):
        lhs = Poly.x() * family.poly(n)
        cols = [family.poly(n + 1), family.poly(n)]
        if n > 0:
            cols.append(family.poly(n - 1))
        rows = lhs.degree() + 1
        mat = [[col.coeff(i) for col in cols] for i in range(rows)]
        rhs = [lhs.coeff(i) for i in range(rows)]
        try:
            sol = solve_exact(mat, rhs)
        except SingularSystem as exc:
            raise SingularSystem(
                f"no three-term recurrence at n = {n}: {exc}") from exc
        a_t.append(sol[0])
        b_t.append(sol[1])
        c_t.append(sol[2] if n > 0 else Fraction(0))
    return ThreeTermRecurrence.from_tables(a_t, b_t, c_t)


def _recurrence_step(rec: ThreeTermRecurrence, n: int, p_n: Poly,
                     p_prev: Poly | None) -> Poly:
    """p_{n+1} = ((x - b_n) p_n - c_n p_{n-1}) / a_n; p_prev is unused at
    n = 0, where c_0 multiplies the absent p_{-1}."""
    a_n = rec.a(n)
    if a_n == 0:
        raise SingularSystem(f"a_{n} = 0, cannot advance the recurrence")
    # one integer pass: p_n and p_{n-1} over the lcm of their denominators,
    # b_n and c_n over theirs, the division by a_n folded into the result
    prev = p_prev if n > 0 else Poly.zero()
    den = math.lcm(p_n.den, prev.den)
    (b, c), bc_den = _over_common((rec.b(n), rec.c(n) if n > 0 else 0))
    s = a_n.denominator * den // p_n.den
    b, c = b * s, c * a_n.denominator * den // prev.den
    out = [0, *(bc_den * s * x for x in p_n.nums)]
    for k, x in enumerate(p_n.nums):
        out[k] -= b * x
    for k, x in enumerate(prev.nums):
        out[k] -= c * x
    return _poly(out, den * bc_den * a_n.numerator)


def polys_from_recurrence(rec: ThreeTermRecurrence, n_top: int) -> list[Poly]:
    """Regenerate p_0..p_{n_top} from the recurrence with p_0 = 1."""
    out = [Poly.one()]
    for n in range(n_top):
        out.append(_recurrence_step(rec, n, out[n], out[n - 1] if n else None))
    return out
