"""Exact moment functionals and their transform algebra.

A moment functional is the list of its moments mu_n = <mu, x^n>, produced
lazily by a provider: a family's moment recurrence, a three-term
recurrence, a Christoffel or Geronimus transform, a (derivative of a)
point mass, a shift, a dilation, a scalar multiple, or a sum.  Moments are
exact rationals throughout; no representing measure is ever constructed.

The q-Meixner and q-Laguerre moment sequences are kept per family: each
parameter set's one unbounded sequence is built with its family
(``families.per_family``), and ``meixner_moments`` and ``laguerre_moments``
return views of it, each bounded at its own depth, that share its moment
list, provider and lock.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (CrossCheckFailed, DenominatorVanishes, NotQuasiDefinite,
                     ParamDegeneracy, UnknownTheorem, ZeroDilation)
from .exact import (Poly, Record, _add, _eval, _over_common, _power,
                    check_depth, qpochhammer, rational)
from .families import (LAGUERRE, MEIXNER, LaguerreParams, MeixnerParams,
                       PolynomialFamily, ThreeTermRecurrence, _derived,
                       _family, _recurrence_step, family_recurrence, meixner,
                       per_family, q_power_exponent)

Provider = Callable[[int, list[Fraction]], Fraction]


def _pairing(nums: Iterable[int], ms: list[int], l: int = 0) -> int:
    """<mu, x^l p> * den * mden, for p = nums/den and moments ms/mden."""
    return sum(c * ms[i] for i, c in enumerate(nums, l) if c)


class MomentFunctional:
    """Lazily extended moment list.

    ``max_n`` bounds the available depth (None means unbounded); asking
    past it raises ValueError rather than inventing numbers.  Extension is
    append-only under a lock so functionals can be shared across threads.
    """

    def __init__(self, provider: Provider, max_n: int | None = None):
        self._provider = provider
        self.max_n = max_n
        self._cache: list[Fraction] = []
        self._lock = threading.Lock()

    def moment(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("moment index must be >= 0")
        if self.max_n is not None and n > self.max_n:
            raise ValueError(
                f"moment {n} beyond available depth {self.max_n}")
        with self._lock:
            while len(self._cache) <= n:
                self._cache.append(self._provider(len(self._cache), self._cache))
            return self._cache[n]

    def moments(self, n_top: int) -> list[Fraction]:
        return [self.moment(n) for n in range(n_top + 1)]

    def _view(self, max_n: int | None) -> MomentFunctional:
        """This functional bounded at max_n: its moment list, provider and
        lock, shared."""
        view = MomentFunctional(self._provider, max_n)
        view._cache, view._lock = self._cache, self._lock
        return view

    def pair(self, p: Poly) -> Fraction:
        """<mu, p> = sum of coeff_n * mu_n, summed over integers."""
        ms, mden = _over_common(self.moments(len(p.nums) - 1))
        return Fraction(_pairing(p.nums, ms), p.den * mden)

    def __repr__(self) -> str:
        return f"MomentFunctional(max_n={self.max_n})"


def agree_up_to(mu_a: MomentFunctional, mu_b: MomentFunctional,
                n_top: int) -> int | None:
    """First index <= n_top where the moments differ, or None if they agree."""
    check_depth(n_top)
    for n in range(n_top + 1):
        if mu_a.moment(n) != mu_b.moment(n):
            return n
    return None


def moments_from_recurrence(rec: ThreeTermRecurrence,
                            n_depth: int) -> MomentFunctional:
    """Moments of the functional, of total mass 1, that makes the
    recurrence family orthogonal.

    Writes x^n in the p-basis by iterated tridiagonal multiplication
    (x p_j = a_j p_{j+1} + b_j p_j + c_j p_{j-1}); mu_n is the
    p_0-coordinate.  Exact at every step.  This is the general path, at
    O(n) operations per moment; meixner_moments and laguerre_moments use
    their families' shorter moment recurrences and are tested against it.
    """
    # a_j, b_j, c_j are evaluated once each, since every step reads them
    # all; MomentFunctional asks for mu_0, mu_1, ... in order, so the call
    # for mu_n steps w from x^(n-1)'s p-coordinates to x^n's
    a_t: list[Fraction] = []
    b_t: list[Fraction] = []
    c_t: list[Fraction] = []
    w = [Fraction(1)]

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        nonlocal w
        if n:
            m = n - 1
            try:
                a_m, b_m = rec.a(m), rec.b(m)
                c_m = rec.c(m) if m else Fraction(0)
            except IndexError as exc:
                raise ValueError(
                    f"recurrence depth exhausted while extending to moment {n}"
                ) from exc
            a_t.append(a_m)
            b_t.append(b_m)
            c_t.append(c_m)
            w = [(a_t[i - 1] * w[i - 1] if i else 0)
                 + (b_t[i] * w[i] if i <= m else 0)
                 + (c_t[i + 1] * w[i + 1] if i < m else 0)
                 for i in range(m + 2)]
        return w[0]

    return MomentFunctional(provider, max_n=n_depth)


def christoffel(mu: MomentFunctional, r: Poly) -> MomentFunctional:
    """The functional r*mu: <r mu, p> = <mu, r p>, each moment one integer
    sum over the lcm of the denominators of the moments it reads."""
    nums, den = r.nums, r.den

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        ms, mden = _over_common([mu.moment(n + k) for k in range(len(nums))])
        return Fraction(_pairing(nums, ms), den * mden)

    max_n = None if mu.max_n is None else mu.max_n - max(r.degree(), 0)
    return MomentFunctional(provider, max_n=max_n)


def geronimus(mu: MomentFunctional, lam: Fraction | int | str,
              c_scale: Fraction | int | str,
              seed0: Fraction | int | str) -> MomentFunctional:
    """The functional nu with (x - lam) nu = c_scale * mu and nu_0 = seed0."""
    lam = rational(lam)
    c_scale = rational(c_scale)
    seed0 = rational(seed0)

    def provider(n: int, prev: list[Fraction]) -> Fraction:
        if n == 0:
            return seed0
        return lam * prev[n - 1] + c_scale * mu.moment(n - 1)

    max_n = None if mu.max_n is None else mu.max_n + 1
    return MomentFunctional(provider, max_n=max_n)


def point_mass(lam: Fraction | int | str, j: int = 0,
               mass: Fraction | int | str = 1) -> MomentFunctional:
    """mass * delta_lam^(j) with <delta_lam^(j), x^n> = (-1)^j (x^n)^(j)(lam)."""
    if j < 0:
        raise ValueError("derivative order must be >= 0")
    lam, mass = rational(lam), rational(mass)

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        if n < j:
            return Fraction(0)
        s, w = _power(lam, n - j)
        return Fraction((-1) ** j * math.prod(range(n - j + 1, n + 1))
                        * mass.numerator * s, mass.denominator * w)

    return MomentFunctional(provider)


def add(mu_a: MomentFunctional, mu_b: MomentFunctional) -> MomentFunctional:
    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        return mu_a.moment(n) + mu_b.moment(n)

    if mu_a.max_n is None:
        max_n = mu_b.max_n
    elif mu_b.max_n is None:
        max_n = mu_a.max_n
    else:
        max_n = min(mu_a.max_n, mu_b.max_n)
    return MomentFunctional(provider, max_n=max_n)


def scale(mu: MomentFunctional, s: Fraction | int | str) -> MomentFunctional:
    s = rational(s)

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        return s * mu.moment(n)

    return MomentFunctional(provider, max_n=mu.max_n)


def shift(mu: MomentFunctional, lam: Fraction | int | str) -> MomentFunctional:
    """The functional mu(x + lam): <mu(x+lam), p> = <mu, p(x - lam)>."""
    lam = rational(lam)

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        shifted = Poly.monomial(n).shift_arg(-lam)
        return mu.pair(shifted)

    return MomentFunctional(provider, max_n=mu.max_n)


def dilate(mu: MomentFunctional, lam: Fraction | int | str) -> MomentFunctional:
    """Support scaling x -> lam x: moments mu_n -> lam^n mu_n."""
    lam = rational(lam)
    if lam == 0:
        raise ZeroDilation("dilation scale must be nonzero")

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        return lam ** n * mu.moment(n)

    return MomentFunctional(provider, max_n=mu.max_n)


class GramData(Record):
    """Monic orthogonal polynomials of a functional with their norms
    norms[n] = <mu, pi_n^2> = Delta_{n+1}/Delta_n, Delta_n the n x n leading
    Hankel determinant.
    """

    polys: list[Poly]
    norms: list[Fraction]


def hankel_orthogonal(mu: MomentFunctional, n_top: int) -> GramData:
    """Monic orthogonal polynomials pi_0..pi_{n_top} from the moments
    m_0..m_{2 n_top}, each pi_k paired with the functional directly.

    The norm h_k = <mu, x^k pi_k> is Delta_{k+1}/Delta_k, and with
    s_k = <mu, x^(k+1) pi_k> the recurrence
    pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1} has
    alpha_k = s_k/h_k - s_{k-1}/h_{k-1} and beta_k = h_k/h_{k-1}; h_k and
    s_k are Chebyshev's modified moments sigma_{k,k} and sigma_{k,k+1}.
    Raises NotQuasiDefinite(n) at the first vanishing Hankel determinant
    Delta_n with n <= n_top + 1 (norms through degree n_top need them all).
    """
    check_depth(n_top)
    ms, mden = _over_common(mu.moments(2 * n_top))
    alphas: list[Fraction] = []
    norms: list[Fraction] = []
    rec = ThreeTermRecurrence(lambda k: 1, alphas.__getitem__,
                              lambda k: norms[k] / norms[k - 1])
    polys = [Poly.one()]
    prev_ratio = Fraction(0)                 # s_{k-1}/h_{k-1}
    for k in range(n_top + 1):
        pi_k = polys[k]
        h_k = _pairing(pi_k.nums, ms, k)     # times pi_k.den * mden
        if h_k == 0:
            raise NotQuasiDefinite(k + 1)
        norms.append(Fraction(h_k, pi_k.den * mden))
        if k == n_top:
            break
        ratio = Fraction(_pairing(pi_k.nums, ms, k + 1), h_k)
        alphas.append(ratio - prev_ratio)
        # at k = 0 the step reads no pi_{k-1}, so polys[-1] is harmless
        polys.append(_recurrence_step(rec, k, pi_k, polys[k - 1]))
        prev_ratio = ratio
    return GramData(polys=polys, norms=norms)


def favard_positivity(rec: ThreeTermRecurrence, n_top: int) -> list[bool]:
    """Entry i reports a_{n-1} c_n > 0 at n = i + 1, for n <= n_top."""
    check_depth(n_top)
    return [rec.a(n - 1) * rec.c(n) > 0 for n in range(1, n_top + 1)]


def combine_with_point_mass(nu: MomentFunctional, lam: Fraction | int | str,
                    mass: Fraction | int | str, p_polys: list[Poly],
                    n_top: int) -> tuple[list[Fraction], list[Poly]]:
    """Orthogonal combination q_n = p_n + beta_n p_{n-1} for nu + M delta_lam.

    The p_n must be orthogonal with respect to (x - lam) nu; with
    alpha_n = <nu, p_n>, beta_n = -(alpha_n + M p_n(lam)) /
    (alpha_{n-1} + M p_{n-1}(lam)).  Returns (betas, q_polys) with
    betas[0] unused (0) and q_0 = 1.
    """
    check_depth(n_top)
    lam, mass = rational(lam), rational(mass)
    mn, md = mass.numerator, mass.denominator
    # alpha_n + M p_n(lam) as integer pairs, nu's moments over one denominator
    ms, mden = _over_common(
        nu.moments(max((p.degree() for p in p_polys), default=-1)))
    terms = []
    for p in p_polys:
        en, ed = _eval(p, lam.numerator, lam.denominator)
        terms.append((_pairing(p.nums, ms) * md * ed + mn * en * p.den * mden,
                      p.den * mden * md * ed))
    betas: list[Fraction] = [Fraction(0)]
    q_polys: list[Poly] = [Poly.one()]
    for n in range(1, n_top + 1):
        (hn, hd), (ln, ld) = terms[n], terms[n - 1]
        if ln == 0:
            raise DenominatorVanishes(n)
        beta = Fraction(-hn * ld, hd * ln)
        betas.append(beta)
        q_polys.append(_add(p_polys[n], p_polys[n - 1], 0, beta.numerator,
                            beta.denominator))
    return betas, q_polys


def gram_matrix(mu: MomentFunctional, polys: list[Poly]) -> list[list[Fraction]]:
    """G[n][m] = <mu, p_n p_m>, read from the moments m_0..m_{2d}.

    With v_n[k] = <mu, x^k p_n> = sum_i c_{n,i} m_{i+k}, the entry is
    G[n][m] = sum_k c_{m,k} v_n[k]; it is formed for m >= n and mirrored.
    The moments and each p_n go over one denominator apiece, so v_n and
    the entries are integer sums, each entry one Fraction at the end.
    """
    top = max((p.degree() for p in polys), default=-1)
    moms, mden = _over_common(mu.moments(2 * top) if top >= 0 else [])
    rows = [(p.nums, p.den) for p in polys]
    gram = [[Fraction(0)] * len(polys) for _ in polys]
    for n, (pn, dn) in enumerate(rows):
        v = [_pairing(pn, moms, k) for k in range(top + 1)]
        for m in range(n, len(polys)):
            pm, dm = rows[m]
            gram[n][m] = gram[m][n] = Fraction(_pairing(pm, v), dn * dm * mden)
    return gram


MEIXNER_I = "meixner-i"
MEIXNER_II = "meixner-ii"
MEIXNER_III = "meixner-iii"
LAGUERRE_I = "laguerre-i"
LAGUERRE_II = "laguerre-ii"

THEOREMS = (MEIXNER_I, MEIXNER_II, MEIXNER_III, LAGUERRE_I, LAGUERRE_II)


def meixner_moments(params: MeixnerParams, n_depth: int = 64) -> MomentFunctional:
    """Moments of the q-Meixner functional, normalized to total mass 1,
    from its moment recurrence: O(1) exact operations per moment.

    For 0 < q < 1, 0 <= bq < 1 and c > 0 the functional is the discrete
    measure with masses w(q^-x) = (bq; q)_x c^x q^C(x,2) /
    ((q; q)_x (-bcq; q)_x) at the points q^-x, x = 0, 1, ... (Koekoek,
    Lesky and Swarttouw 2010, section 14.13).  The ratio of neighbouring
    masses is the q-Pearson equation

        q (y - 1)(y + bc) w(y) = c (y - b) w(qy),   y = q^-x, x >= 1,

    and at y = 1 both sides vanish, q being outside the support.  Summing
    y^n times both sides over the support, and writing y = q^-x on the
    right, gives
    q <mu, x^n (x - 1)(x + bc)> = c <mu, (x/q)^n (x/q - b)>, that is

        q^n mu_{n+2} = (c/q^2 - (bc - 1) q^n) mu_{n+1} - bc (1/q - q^n) mu_n.

    It needs mu_0 = 1 and mu_1 = b_0 of meixner_recurrence, since
    x p_0 = a_0 p_1 + b_0 p_0 and <mu, p_1> = 0.  (Pairing with 1/x, the
    case n = -1, gives the same value: the coefficient of mu_{-1} is 0.)
    Both sides are rational in q, b and c, and so are the moments of the
    normalized functional (moments_from_recurrence), so the recurrence
    holds for every admissible parameter set.  The sequence is kept with
    the family of params; the result is a view of it bounded at n_depth.
    """
    return _family_moments(_family(MEIXNER, params))._view(n_depth)


def _meixner_provider(family: PolynomialFamily) -> Provider:
    params = family.params
    u, v = params.q.numerator, params.q.denominator
    cn, cd = params.c.numerator, params.c.denominator
    bc = params.b * params.c
    en, ed = bc.numerator, bc.denominator
    mu_1 = family_recurrence(family).b(0)

    def provider(n: int, prev: list[Fraction]) -> Fraction:
        if n < 2:
            return Fraction(1) if n == 0 else mu_1
        # the recurrence above at n - 2, divided through by q^(n-2):
        # mu_n = (c/q^n + 1 - bc) mu_{n-1} + bc (1 - 1/q^(n-1)) mu_{n-2},
        # that is (a mu_{n-1} + b mu_{n-2}) / (cd ed u U) at U = u^(n-1)
        # and V = v^(n-1), as one integer fraction
        U, V = u ** (n - 1), v ** (n - 1)
        a = ed * cn * v * V + cd * u * U * (ed - en)
        b = en * (U - V) * cd * u
        p1, p2 = prev[n - 1], prev[n - 2]
        return Fraction(a * p1.numerator * p2.denominator
                        + b * p2.numerator * p1.denominator,
                        cd * ed * u * U * p1.denominator * p2.denominator)

    return provider


def laguerre_moments(params: LaguerreParams,
                     n_depth: int = 64) -> MomentFunctional:
    """Moments of the q-Laguerre functional, normalized to total mass 1,
    from its moment recurrence: O(1) exact operations per moment.

    For 0 < q < 1 and t = q^alpha > 0 the functional has the weight
    w(x) = x^alpha / (-x; q)_oo on (0, oo) (Koekoek, Lesky and Swarttouw
    2010, section 14.21).  Since (-x; q)_oo = (1 + x)(-qx; q)_oo, it
    satisfies the q-Pearson equation w(qx) = t (1 + x) w(x).  Integrating
    x^(n-1) against both sides, with x -> x/q on the left, gives
    q^-n mu_{n-1} = t (mu_{n-1} + mu_n), that is

        mu_0 = 1,   mu_n = mu_{n-1} (1 - t q^n) / (t q^n),

    so mu_n = (tq; q)_n / (t^n q^(n(n+1)/2)).  Both sides are rational in
    q and t, and so are the moments of the normalized functional
    (moments_from_recurrence), so the recurrence holds for every
    admissible (q, t).  The sequence is kept with the family of params;
    the result is a view of it bounded at n_depth.
    """
    return _family_moments(_family(LAGUERRE, params))._view(n_depth)


def _laguerre_provider(family: PolynomialFamily) -> Provider:
    u, v = family.params.q.numerator, family.params.q.denominator
    tn, td = family.params.t.numerator, family.params.t.denominator

    def provider(n: int, prev: list[Fraction]) -> Fraction:
        if n == 0:
            return Fraction(1)
        # mu_{n-1} (td V - tn U) / (tn U) at U = u^n, V = v^n
        U, V = u ** n, v ** n
        p = prev[n - 1]
        return Fraction(p.numerator * (td * V - tn * U), p.denominator * tn * U)

    return provider


@per_family
def _family_moments(family: PolynomialFamily) -> MomentFunctional:
    """The unbounded moment sequence of a q-Meixner or q-Laguerre family."""
    make = _meixner_provider if family.kind == MEIXNER else _laguerre_provider
    return MomentFunctional(make(family))


def _product(factors: Iterable[Poly]) -> Poly:
    out = Poly.one()
    for f in factors:
        out = out * f
    return out


def _cross_check(built: MomentFunctional, divisor: Poly,
                 base: MomentFunctional, s: Fraction, label: str) -> None:
    """<built, x^n divisor> = s base_n for n = 0..CHECK_TO, each compared
    by cross-multiplication over one common denominator of built's moments."""
    ms, mden = _over_common(built.moments(CHECK_TO + divisor.degree()))
    for n in range(CHECK_TO + 1):
        m = base.moment(n)
        if (_pairing(divisor.nums, ms, n) * s.denominator * m.denominator
                != s.numerator * m.numerator * divisor.den * mden):
            raise CrossCheckFailed(
                f"{label}: cross-check fails first at moment {n}")


# The parameter kind each catalogued instance is built from.
_INSTANCE_PARAMS = {MEIXNER_I: MeixnerParams, MEIXNER_II: MeixnerParams,
                    MEIXNER_III: MeixnerParams, LAGUERRE_I: LaguerreParams,
                    LAGUERRE_II: LaguerreParams}

# How many moments of its product identity a catalog measure is checked on.
CHECK_TO = 20


def check_instance(name: str, params: MeixnerParams | LaguerreParams,
                   k_or_alpha: int,
                   mass: Fraction | int | str | None = None) -> Fraction | None:
    """The one check of a catalogued instance's inputs; returns the point
    mass M as an exact rational (None for the other four instances).

    UnknownTheorem: an unknown name, params of the wrong kind, or no M.
    ParamDegeneracy: k_or_alpha < 0; b = 0 for a q-Meixner instance (the
    carriers divide by b); for the point-mass instance M = 0 (the plain
    q-Laguerre functional is left, with an order-2 operator), t != q^alpha
    for an integer alpha >= 1, or k_or_alpha != alpha.
    """
    kind = _INSTANCE_PARAMS.get(name)
    if kind is None:
        raise UnknownTheorem(f"unknown instance {name!r}")
    if not isinstance(params, kind):
        raise UnknownTheorem(
            f"{name} needs {kind.__name__.removesuffix('Params')} parameters")
    if k_or_alpha < 0:
        raise ParamDegeneracy("the degree parameter must be nonnegative")
    if kind is MeixnerParams and params.b == 0:
        raise ParamDegeneracy(f"{name} needs b != 0")
    if name != LAGUERRE_II:
        return None
    if mass is None:
        raise UnknownTheorem(f"{name} needs the point mass M")
    mass = rational(mass)
    if mass == 0:
        raise ParamDegeneracy(f"{name} needs a point mass M != 0")
    alpha = q_power_exponent(params.t, params.q)
    if alpha is None or alpha < 1:
        raise ParamDegeneracy(
            "the point-mass instance needs t = q^alpha with alpha a "
            "positive integer")
    if k_or_alpha != alpha:
        raise ParamDegeneracy(
            f"degree parameter {k_or_alpha} disagrees with alpha = {alpha} "
            "implied by t")
    return mass


def measure_catalog(name: str, params: MeixnerParams | LaguerreParams,
                    k_or_alpha: int, mass: Fraction | int | str | None = None,
                    n_depth: int = 40) -> MomentFunctional:
    """The five theorem measures, each built by transform algebra and then
    validated against its displayed product identity before being returned.

    The inputs are decided by check_instance.  n_depth bounds the usable
    moment range of the result from below; the first CHECK_TO moments of
    the identity are compared (CrossCheckFailed on any mismatch).
    """
    mass = check_instance(name, params, k_or_alpha, mass)
    k = k_or_alpha
    # sources deep enough for both the result and the cross-check
    top = max(n_depth, CHECK_TO) + 4
    if name in (MEIXNER_I, MEIXNER_II, MEIXNER_III):
        q, b, c = params.q, params.b, params.c
        base = meixner_moments(params, top + 2 * k)
        if name == MEIXNER_I:
            shifted = meixner_moments(
                _derived(name, MeixnerParams, q, b, q ** (k + 1) * c),
                top + 2 * k)
            r = _product(Poly((b * c * q ** i, 1)) for i in range(1, k + 1))
            built = christoffel(shifted, r)
            _cross_check(built, Poly((b * c * q ** (k + 1), 1)), base,
                         qpochhammer(-c, q, k + 1), name)
            return built
        if name == MEIXNER_II:
            shifted = meixner_moments(
                _derived(name, MeixnerParams, q, b / q ** (k + 1),
                         q ** (k + 1) * c),
                top + 2 * k)
            r = _product(Poly((-b / q ** i, 1)) for i in range(k))
            built = christoffel(shifted, r)
            _cross_check(built, Poly((-b / q ** k, 1)), base,
                         qpochhammer(b / q ** k, q, k + 1)
                         * qpochhammer(-c, q, k + 1), name)
            return built
        # Meixner III: Geronimus from the displayed relation
        # (x - q^{k+1}) rho~ = c^{k+1} q^C(k+1,2) (b/q^k; q)_{k+1} rho,
        # seeded by the displayed pairing value at n = 0.
        c_scale = (c ** (k + 1) * q ** (k * (k + 1) // 2)
                   * qpochhammer(b / q ** k, q, k + 1))
        carrier = _derived(name, meixner, q, 1 / b, b * c)
        seed0 = (Fraction(-1) ** k * qpochhammer(q, q, k)
                 * qpochhammer(b / q ** k, q, k) * c ** k
                 * q ** ((k + 1) * k // 2) * carrier.poly(k)(q))
        built = geronimus(base, q ** (k + 1), c_scale, seed0)
        _cross_check(built, Poly((-q ** (k + 1), 1)), base, c_scale, name)
        return built
    q, t = params.q, params.t
    if name == LAGUERRE_I:
        base = laguerre_moments(params, top + 2 * k)
        r = _product(Poly((1, Fraction(1) / q ** i)) for i in range(1, k + 1))
        # Density-substitution reading of the dilated base: replacing x by
        # x/lambda in a weight multiplies moment n by lambda^(n+1), the extra
        # lambda coming from the volume element.  The mass-preserving reading
        # (lambda^n alone) fails the product identity below by exactly that
        # factor, so the identity pins this choice.
        lam = q ** (k + 1)
        built = christoffel(scale(dilate(base, lam), lam), r)
        _cross_check(built, Poly((1, Fraction(1) / q ** (k + 1))), base,
                     1 / t ** (k + 1), name)
        return built
    lower = laguerre_moments(LaguerreParams(q, t / q), top)
    built = add(point_mass(0, 0, mass), lower)
    # x kills the delta mass, so x * rho~ must be proportional to the
    # alpha-level functional; the constant is the first moment of
    # rho_{alpha-1} since <rho_alpha, 1> = 1.
    upper = laguerre_moments(params, top)
    _cross_check(built, Poly.x(), upper, lower.moment(1), name)
    return built
