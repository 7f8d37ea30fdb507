"""Exact moment functionals and their transform algebra.

A moment functional is the list of its moments mu_n = <mu, x^n>, produced
lazily by a provider: a family's moment recurrence, a three-term
recurrence, a Christoffel or Geronimus transform, a (derivative of a)
point mass, a shift, a dilation, a scalar multiple, or a sum.  Moments are
exact rationals throughout; no representing measure is ever constructed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import (CrossCheckFailed, DenominatorVanishes, NotQuasiDefinite,
                     ParamDegeneracy, UnknownTheorem, ZeroDilation)
from .exact import (Poly, _over_common, _poly, check_depth, qpochhammer,
                    rational)
from .families import (LaguerreParams, MeixnerParams, ThreeTermRecurrence,
                       meixner, meixner_recurrence, q_power_exponent)

Provider = Callable[[int, list[Fraction]], Fraction]


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

    def pair(self, p: Poly) -> Fraction:
        """<mu, p> = sum of coeff_n * mu_n, summed over integers."""
        ms, mden = _over_common(self.moments(len(p.nums) - 1))
        return Fraction(sum(c * m for c, m in zip(p.nums, ms) if c),
                        p.den * mden)

    def __repr__(self) -> str:
        return f"MomentFunctional(max_n={self.max_n})"


def agree_up_to(mu_a: MomentFunctional, mu_b: MomentFunctional,
                n_top: int) -> int | None:
    """First index <= n_top where the moments differ, or None if they agree."""
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
    # a_j, b_j, c_j are evaluated once each, since every step reads them all
    a_t: list[Fraction] = []
    b_t: list[Fraction] = []
    c_t: list[Fraction] = []
    state: dict = {"n": 0, "w": [Fraction(1)]}

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        while state["n"] < n:
            w = state["w"]
            m = state["n"]
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
            nxt = [Fraction(0)] * (m + 2)
            for i in range(m + 2):
                if i >= 1:
                    nxt[i] += a_t[i - 1] * w[i - 1]
                if i < len(w):
                    nxt[i] += b_t[i] * w[i]
                if i + 1 < len(w):
                    nxt[i] += c_t[i + 1] * w[i + 1]
            state["w"] = nxt
            state["n"] = m + 1
        return state["w"][0]

    return MomentFunctional(provider, max_n=n_depth)


def christoffel(mu: MomentFunctional, r: Poly) -> MomentFunctional:
    """The functional r*mu: <r mu, p> = <mu, r p>."""
    coeffs = list(r.coeffs)

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        return sum((c * mu.moment(n + k) for k, c in enumerate(coeffs) if c),
                   Fraction(0))

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
    lam = rational(lam)
    mass = rational(mass)

    def provider(n: int, _prev: list[Fraction]) -> Fraction:
        if n < j:
            return Fraction(0)
        falling = Fraction(1)
        for i in range(j):
            falling *= n - i
        return mass * Fraction(-1) ** j * falling * lam ** (n - j)

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


@dataclass(frozen=True)
class GramData:
    """Monic orthogonal polynomials of a functional with their norms
    norms[n] = <mu, pi_n^2> = Delta_{n+1}/Delta_n, Delta_n the n x n leading
    Hankel determinant.
    """

    polys: list[Poly]
    norms: list[Fraction]


def hankel_orthogonal(mu: MomentFunctional, n_top: int) -> GramData:
    """Monic orthogonal polynomials pi_0..pi_{n_top} by the Chebyshev
    algorithm on the moments m_0..m_{2 n_top}.

    With sigma_{k,l} = <mu, pi_k x^l>, the norm h_k = sigma_{k,k} is
    Delta_{k+1}/Delta_k, and the recurrence
    pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1} has
    alpha_k = sigma_{k,k+1}/h_k - sigma_{k-1,k}/h_{k-1} and
    beta_k = h_k/h_{k-1}; the sigma rows advance by the same recurrence.
    Raises NotQuasiDefinite(n) at the first vanishing Hankel determinant
    Delta_n with n <= n_top + 1 (norms through degree n_top need them all).
    """
    check_depth(n_top)
    top = 2 * n_top
    sigma = mu.moments(top)          # sigma_{k,l} at index l, l = k..top-k
    prev_sigma = [Fraction(0)] * (top + 1)
    norms: list[Fraction] = []
    polys = [Poly.one()]
    prev_poly = Poly.zero()
    prev_ratio = Fraction(0)         # sigma_{k-1,k}/h_{k-1}
    for k in range(n_top + 1):
        h_k = sigma[k]
        if h_k == 0:
            raise NotQuasiDefinite(k + 1)
        norms.append(h_k)
        if k == n_top:
            break
        ratio = sigma[k + 1] / h_k
        alpha = ratio - prev_ratio
        beta = h_k / norms[k - 1] if k else Fraction(0)
        nxt = [Fraction(0)] * (top + 1)
        for l in range(k + 1, top - k):
            nxt[l] = sigma[l + 1] - alpha * sigma[l] - beta * prev_sigma[l]
        prev_sigma, sigma = sigma, nxt
        pi_k = polys[k]
        polys.append(_poly([0, *pi_k.nums], pi_k.den) - alpha * pi_k
                     - beta * prev_poly)
        prev_poly, prev_ratio = pi_k, ratio
    return GramData(polys=polys, norms=norms)


def favard_positivity(rec: ThreeTermRecurrence, n_top: int) -> list[bool]:
    """Entry i reports a_{n-1} c_n > 0 at n = i + 1, for n <= n_top."""
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
    lam = rational(lam)
    mass = rational(mass)
    denom_terms = [nu.pair(p) + mass * p(lam) for p in p_polys]
    betas: list[Fraction] = [Fraction(0)]
    q_polys: list[Poly] = [Poly.one()]
    for n in range(1, n_top + 1):
        if denom_terms[n - 1] == 0:
            raise DenominatorVanishes(n)
        beta = -denom_terms[n] / denom_terms[n - 1]
        betas.append(beta)
        q_polys.append(p_polys[n] + beta * p_polys[n - 1])
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
        v = [sum(c * moms[i + k] for i, c in enumerate(pn) if c)
             for k in range(top + 1)]
        for m in range(n, len(polys)):
            pm, dm = rows[m]
            gram[n][m] = gram[m][n] = Fraction(
                sum(c * v[k] for k, c in enumerate(pm) if c), dn * dm * mden)
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
    holds for every admissible parameter set.
    """
    q, b, c = params.q, params.b, params.c
    mu_1 = meixner_recurrence(params).b(0)
    bc = b * c

    def provider(n: int, prev: list[Fraction]) -> Fraction:
        if n < 2:
            return Fraction(1) if n == 0 else mu_1
        # the recurrence above at n - 2, divided through by q^(n-2)
        r = 1 / q ** (n - 1)
        return (c * r / q + 1 - bc) * prev[n - 1] + bc * (1 - r) * prev[n - 2]

    return MomentFunctional(provider, max_n=n_depth)


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
    admissible (q, t).
    """
    q, t = params.q, params.t

    def provider(n: int, prev: list[Fraction]) -> Fraction:
        if n == 0:
            return Fraction(1)
        return prev[n - 1] * (1 / (t * q ** n) - 1)

    return MomentFunctional(provider, max_n=n_depth)


def _product(factors: Iterable[Poly]) -> Poly:
    out = Poly.one()
    for f in factors:
        out = out * f
    return out


def _cross_check(built: MomentFunctional, divisor: Poly,
                 reference: MomentFunctional, label: str) -> None:
    lhs = christoffel(built, divisor)
    bad = agree_up_to(lhs, reference, CHECK_TO)
    if bad is not None:
        raise CrossCheckFailed(
            f"{label}: cross-check fails first at moment {bad}")


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
            shifted = meixner_moments(MeixnerParams(q, b, q ** (k + 1) * c),
                                      top + 2 * k)
            r = _product(Poly((b * c * q ** i, 1)) for i in range(1, k + 1))
            built = christoffel(shifted, r)
            _cross_check(built, Poly((b * c * q ** (k + 1), 1)),
                         scale(base, qpochhammer(-c, q, k + 1)), name)
            return built
        if name == MEIXNER_II:
            shifted = meixner_moments(
                MeixnerParams(q, b / q ** (k + 1), q ** (k + 1) * c),
                top + 2 * k)
            r = _product(Poly((-b / q ** i, 1)) for i in range(k))
            built = christoffel(shifted, r)
            _cross_check(built, Poly((-b / q ** k, 1)),
                         scale(base, qpochhammer(b / q ** k, q, k + 1)
                               * qpochhammer(-c, q, k + 1)), name)
            return built
        # Meixner III: Geronimus from the displayed relation
        # (x - q^{k+1}) rho~ = c^{k+1} q^C(k+1,2) (b/q^k; q)_{k+1} rho,
        # seeded by the displayed pairing value at n = 0.
        c_scale = (c ** (k + 1) * q ** (k * (k + 1) // 2)
                   * qpochhammer(b / q ** k, q, k + 1))
        carrier = meixner(q, 1 / b, b * c)
        seed0 = (Fraction(-1) ** k * qpochhammer(q, q, k)
                 * qpochhammer(b / q ** k, q, k) * c ** k
                 * q ** ((k + 1) * k // 2) * carrier.poly(k)(q))
        built = geronimus(base, q ** (k + 1), c_scale, seed0)
        _cross_check(built, Poly((-q ** (k + 1), 1)), scale(base, c_scale),
                     name)
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
        _cross_check(built, Poly((1, Fraction(1) / q ** (k + 1))),
                     scale(base, Fraction(1) / t ** (k + 1)), name)
        return built
    lower = laguerre_moments(LaguerreParams(q, t / q), top)
    built = add(point_mass(0, 0, mass), lower)
    # x kills the delta mass, so x * rho~ must be proportional to the
    # alpha-level functional; the constant is the first moment of
    # rho_{alpha-1} since <rho_alpha, 1> = 1.
    upper = laguerre_moments(params, top)
    _cross_check(built, Poly.x(), scale(upper, lower.moment(1)), name)
    return built
