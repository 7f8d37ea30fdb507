"""Exact search for q-difference operators with prescribed eigenfunctions.

The ansatz at half-width h: sum_{j=-h..h} x^{-2h} g_j(x) S^j, where
S p(x) = p(qx) and deg g_j <= 2h.  These budgets lose nothing.  Say D =
sum_j a_j S^j, with rational a_j, has eigenpolynomials q_0..q_N, deg q_n = n,
N >= 2h.  Then D keeps the polynomials of degree <= e, which q_0..q_e span,
so D(x^e) = A_e x^e with A_e = sum_j q^{je} a_j has exponents in -e..0.  For
q outside {0, 1, -1} the nodes q^{-h}..q^h are distinct, so the Vandermonde
system for e = 0..2h gives each a_j from A_0..A_{2h}: exponents in -2h..0.

The system.  With t = 2h, g_j = sum_i g_{j,i} x^i, s_i(e) = sum_j q^{je}
g_{j,i} and q_n = sum_r c_{n,r} x^r: D(x^e) = sum_{k=0..t} s_{t-k}(e) x^{e-k},
so D(q_n) = l_n q_n for all n exactly when (P) s_{t-k}(e) = 0 for e < k <= t
(the preservation above) and, reading the x^n and x^r coefficients, l_n =
s_t(n) and (E) sum_{k=1..min(t,n-r)} c_{n,r+k} s_{t-k}(r+k) + c_{n,r}
(s_t(r) - s_t(n)) = 0 for r < n.

(P) in closed form.  s_i(e) = q^{-he} X^h S_i(X) at X = q^e, for X^h S_i =
sum_j g_{j,i} X^{j+h} of degree <= t, so (P) says that X^h S_i vanishes at
q^0..q^{t-i-1}.  These nodes are distinct (q is outside {0, 1, -1}), so with
q = a/b that holds exactly when X^h S_i = V_i U_i, V_i = prod_{e<t-i} (b^e X
- a^e), deg U_i <= i.  The unknowns are the (2h + 1)(h + 1) coefficients
u_{i,m} of the U_i; g_{.,i} = M_i u_i, the convolution with V_i, is
injective, so no solution of (P) is lost or added.  V_i(q^e) = b^{-(t-i)e}
N_{i,e}, N_{i,e} = prod_{e'<t-i} (a^e b^{e'} - a^{e'} b^e), so with q_n
scaled to integer c_{n,r}, (E) for n times (ab)^{hn} is an integer row with
no product by M: u_{i,m} enters (ab)^{hn} s_i(e) as (ab)^{h(n-e)} a^{me}
b^{(i-m)e} N_{i,e}, e <= n.  The identity's column u_{t,h} = g_{0,t} is
zero in every row.

The leading rows and the certificate.  `nullspace` gets the rows (E) of
q_0..q_m only, m = 2h + 2 the least index with more rows than the
(2h + 1)(h + 1) unknowns (m(m + 1)/2 > (2h + 1)(h + 1)); in every system
measured its scan keeps their first `rank` rows and stops at row `rank`.
Each basis vector, mapped through M to the g_{j,i} as numerators w, is then
certified on each later q_n by D(q_n) = s_t(n) q_n over Z, with no row
formed: for s[i][e] = (ab)^{hN} s_i(e) = sum_j a^{hN+je} b^{hN-je} w_{j,i},
N the last index, the x^r coefficient of D(q_n) - s_t(n) q_n is c_{n,r}
(s[t][r] - s[t][n]) + sum_{k=1..min(t,n-r)} c_{n,r+k} s[t-k][r+k],
(ab)^{h(N-n)} times the row (E) of (n, r) over the g's times w.  This is
exact, so vectors passing every n solve the window, whose nullspace lies in
the prefix's: the two, and their RREF bases, are equal.  A failure at n
extends the prefix through q_n, solved again and certified on the q_n
after it.

The solution is read off the RREF nullspace basis of the system in the
g_{j,i} and l_n jointly, where each vector's last nonzero entry is a 1 at
its free column and the others are 0 there.  It depends only on the
solution space, so `_basis` appends l_n = s_t(n), the table's s[t][n], to
each mapped nullspace vector and row-reduces the few vectors, as integer
rows, with their columns reversed.  A solution only counts when g_{-h} and
g_h are both nonzero (otherwise its order is lower than the window) and
scalar multiples of the identity are excluded automatically by that same
requirement.

The conjecture checkers build a perturbed moment functional, extract its
monic orthogonal polynomials from its moments (``moments.hankel_orthogonal``,
which pairs each one with the functional), and scan half-widths
upward to locate the minimal even order admitting an eigenoperator,
reporting every attempt.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add as int_add, mul
from typing import Callable, Iterable, Sequence

from .errors import CrossCheckFailed, NotQuasiDefinite, ParamDegeneracy
from .exact import (Laurent, Poly, Record, _over_common, check_base,
                    rational, rational_str)
from .families import (LaguerreParams, MeixnerParams, q_power_exponent)
from .krall import build, theorem_catalog
from .linalg import nullspace, rref
from .moments import (LAGUERRE_II, MomentFunctional, _product, add,
                      check_instance, christoffel, hankel_orthogonal,
                      laguerre_moments, meixner_moments, point_mass)
from .operators import QDiffOperator

__all__ = ["SearchProblem", "SearchResult", "find_operator",
           "minimal_even_order", "check_conjecture_a", "check_conjecture_b1",
           "check_conjecture_b2"]


def _window_size(h: int) -> int:
    """Eigenpolynomials q_0..q_{4h+8} that a window of half-width h reads;
    each found operator reports one eigenvalue per polynomial."""
    return 4 * h + 9


class SearchProblem(Record):
    """Eigenpolynomials q_0..q_N, deg q_n = n, for half-width h at base q."""

    eigenpolys: tuple[Poly, ...]
    h: int
    q: Fraction

    def _validate(self):
        if self.h < 1:
            raise ValueError("window half-width must be positive")
        need = _window_size(self.h)
        if len(self.eigenpolys) < need:
            raise ValueError(f"h={self.h} needs {need} eigenpolynomials, "
                             f"got {len(self.eigenpolys)}")
        if any(p.degree() != n for n, p in enumerate(self.eigenpolys)):
            raise ValueError(
                "eigenpolynomial degrees must be exactly 0, 1, ..., N")
        check_base(self.q)


class SearchResult(Record):
    found: bool
    operator: object | None
    eigenvalues: tuple[Fraction, ...] | None
    nullspace_dim: int


def _eigen_rows(problem: SearchProblem, last: int) -> list[list[int]]:
    """The rows (E) of q_0..q_last over the u_{i,m}, column i(i + 1)/2 + m,
    scaled to integers (module docstring)."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    ab = [(a * b) ** (h * d) for d in range(last + 1)]
    blocks = []  # blocks[e][i][m] = a^{me} b^{(i-m)e} N_{i,e}
    for e in range(last + 1):
        x, y, norm, block = a ** e, b ** e, 1, []
        for i in range(t, -1, -1):
            block.insert(0, [x ** m * y ** (i - m) * norm
                             for m in range(i + 1)])
            norm *= x * b ** (t - i) - a ** (t - i) * y
        blocks.append(block)
    rows = []
    for n, c in enumerate(p.nums for p in problem.eigenpolys[:last + 1]):
        for r in range(n):
            row = []
            for i in range(t):  # the term k = t - i, at e = r + k
                e = r + t - i
                f = c[e] * ab[n - e] if e <= n else 0
                row += [f * x for x in blocks[e][i]] if f else [0] * (i + 1)
            rows.append(row + [c[r] * (ab[n - r] * x - y) for x, y in
                               zip(blocks[r][t], blocks[n][t])])
    return rows


def _g_of_u(u: Sequence[int], q: Fraction, t: int) -> list[int]:
    """The g_{j,i}, column (j + h)(t + 1) + i, of the u_{i,m}: g_{.,i} is
    the convolution of u_i with V_i (module docstring)."""
    a, b = q.numerator, q.denominator
    g, v = [0] * (t + 1) ** 2, [1]  # v = V_i, lowest degree first
    for i in range(t, -1, -1):
        for m, x in enumerate(u[i * (i + 1) // 2:][:i + 1]):
            for d, y in enumerate(v, m):
                g[d * (t + 1) + i] += x * y
        e = t - i  # V_{i-1} = V_i (b^e X - a^e)
        v = [b ** e * x - a ** e * y for x, y in zip([0] + v, v + [0])]
    return g


def _basis(problem: SearchProblem) -> list[list[Fraction]]:
    """The RREF nullspace basis of the joint system in the g_{j,i} and the
    l_n, solved over the u's on the rows of q_0..q_last, mapped through M
    and certified on each later q_n by each vector's table s (module
    docstring); a failure at n moves `last` to n.  `rref` reads each
    vector as its numerators w times (ab)^{hN}, then each l_n = s[t][n]."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    polys = [p.nums for p in problem.eigenpolys]
    top = h * (len(polys) - 1)
    powers = [[a ** (top + j * e) * b ** (top - j * e)
               for j in range(-h, h + 1)] for e in range(len(polys))]
    zero = [0] * len(polys)  # the row s[i] of every g_{j,i} = 0, skipped

    def eigen(n: int, s: list[list[int]]) -> bool:
        """Every x^r coefficient of D(q_n) - s_t(n) q_n is 0."""
        c, lam = polys[n], s[t][n]
        out = [x * (y - lam) for x, y in zip(c, s[t])]
        for k in range(1, min(t, n) + 1):
            if s[t - k] is not zero:
                out[:n + 1 - k] = map(int_add, out,
                                      map(mul, c[k:], s[t - k][k:]))
        return not any(out)

    last = t + 2  # last(last + 1)/2 > (2h + 1)(h + 1) first here
    while last is not None:
        vecs = [_g_of_u(_over_common(v)[0], q, t)
                for v in nullspace(_eigen_rows(problem, last))]
        tables = [[[sum(map(mul, p_e, g)) for p_e in powers] if any(g)
                   else zero for g in (w[i::t + 1] for i in range(t + 1))]
                  for w in vecs]
        last = next((n for n in range(last + 1, len(polys))
                     if not all(eigen(n, s) for s in tables)), None)
    scale = (a * b) ** top
    joint = [s[t][::-1] + [x * scale for x in reversed(w)]
             for w, s in zip(vecs, tables)]
    return [v[::-1] for v in reversed(rref(joint)[0])]


def _g_block(vec: Sequence[Fraction], j: int, h: int) -> tuple:
    width = 2 * h + 1  # the coefficients of x^0..x^{2h}
    base = (j + h) * width
    return tuple(vec[base: base + width])


def find_operator(problem: SearchProblem) -> SearchResult:
    """Solve the ansatz system and return a genuine order-2h solution.

    If every solution has g_{-h} = 0 or g_h = 0 the window is too wide and
    the result is not-found; when two defective solutions cover the two
    sides separately their sum is genuine, so only the span matters.
    """
    h, q = problem.h, problem.q
    basis = _basis(problem)
    dim = len(basis)
    u = next((v for v in basis if any(_g_block(v, -h, h))), None)
    w = next((v for v in basis if any(_g_block(v, h, h))), None)
    if u is None or w is None:
        return SearchResult(False, None, None, dim)
    if any(_g_block(u, h, h)):
        cand = u
    elif any(_g_block(w, -h, h)):
        cand = w
    else:
        cand = [a + b for a, b in zip(u, w)]

    operator = QDiffOperator(q, {j: Laurent(Poly(_g_block(cand, j, h)), -2 * h)
                                 for j in range(-h, h + 1)})
    n_cols_g = (2 * h + 1) ** 2
    eigenvalues = tuple(cand[n_cols_g + n]
                        for n in range(len(problem.eigenpolys)))

    if operator.order() != 2 * h:
        raise CrossCheckFailed("search produced a wrong-order operator")
    for n, p in enumerate(problem.eigenpolys):
        if operator.residual(p, p, eigenvalues[n]) is not None:
            raise CrossCheckFailed(
                f"search solution fails re-verification at n={n}")
    return SearchResult(True, operator, eigenvalues, dim)


def minimal_even_order(eigenpolys: Sequence[Poly], q: Fraction, h_max: int,
                       ) -> tuple[int | None, SearchResult | None, list[dict]]:
    """Scan h = 1..h_max, each window on its first `_window_size(h)`
    eigenpolynomials; return (found order, result, attempt log)."""
    attempts: list[dict] = []
    for h in range(1, h_max + 1):
        problem = SearchProblem(tuple(eigenpolys[:_window_size(h)]), h, q)
        result = find_operator(problem)
        attempts.append({
            "half_width": h,
            "order": 2 * h,
            "found": result.found,
            "nullspace_dim": result.nullspace_dim,
        })
        if result.found:
            return 2 * h, result, attempts
    return None, None, attempts


def _search_report(conjecture: str, inputs: dict, conjectured_order: int | None,
                   base: Callable[[int], MomentFunctional], r: Poly,
                   masses: Sequence[Fraction], q: Fraction,
                   h_max: int) -> dict:
    """Search the functional r * base + sum_j masses[j] delta_0^(j), with
    base(depth) read to the moment depth the widest window needs."""
    report: dict = {
        "conjecture": conjecture,
        "inputs": inputs,
        "conjectured_order": conjectured_order,
        "half_width_max": h_max,
    }
    n_top = _window_size(h_max) - 1  # the widest window reads q_0..q_n_top
    mu = christoffel(base(2 * n_top + r.degree() + 2), r)
    for j, m_j in enumerate(masses):
        mu = add(mu, point_mass(Fraction(0), j, m_j))
    try:
        gram = hankel_orthogonal(mu, n_top)
    except NotQuasiDefinite as exc:
        report.update({
            "quasi_definite": False,
            "degenerate_index": exc.n,
            "status": "not-quasi-definite",
            "found_order": None,
        })
        return report
    report["quasi_definite"] = True
    found_order, result, attempts = minimal_even_order(gram.polys, q, h_max)
    report["attempts"] = attempts
    report["found_order"] = found_order
    if found_order is None:
        report["status"] = "not-found-within-ansatz"
        return report
    report["status"] = "found"
    report["order_matches_conjecture"] = (
        None if conjectured_order is None else found_order == conjectured_order)
    report["operator"] = result.operator.to_json()
    report["eigenvalues"] = [rational_str(v) for v in result.eigenvalues]
    return report


def _exponents(f_set: Iterable[int]) -> list[int]:
    """A factor set as sorted distinct exponents, each of them positive."""
    fs = sorted(set(f_set))
    if any(f < 1 for f in fs):
        raise ParamDegeneracy("factor exponents must be positive")
    return fs


def _half_width_max(h_max: int | None, conjectured: int | None) -> int:
    """The scan's top half-width: h_max, or one past the conjectured
    order's; an empty range h = 1..h_max would decide nothing."""
    if h_max is None:
        if conjectured is None:
            raise ParamDegeneracy("no conjectured order for this shape; "
                                  "give h_max (--order-max in the CLI)")
        h_max = conjectured // 2 + 1
    if h_max < 1:
        raise ParamDegeneracy(
            f"empty search range: h_max = {h_max}, need h_max >= 1 "
            "(an order bound of at least 2)")
    return h_max


def check_conjecture_a(params: MeixnerParams,
                       f1: Iterable[int] = (), f2: Iterable[int] = (),
                       f3: Iterable[int] = (),
                       h_max: int | None = None) -> dict:
    """Product perturbations of the q-Meixner functional.

    The three factor families are (x + bc/q^f), (x - b q^{f+1}) and
    (x - 1/q^f); the conjectured order is
    sum_i (2 sum_{f in F_i} f - n_i (n_i - 1)) + 2.
    """
    s1, s2, s3 = _exponents(f1), _exponents(f2), _exponents(f3)
    q, b, c = params.q, params.b, params.c
    conjectured = 2 + sum(
        2 * sum(s) - len(s) * (len(s) - 1) for s in (s1, s2, s3))
    h_max = _half_width_max(h_max, conjectured)
    r = _product(
        [Poly((b * c / q ** f, Fraction(1))) for f in s1]
        + [Poly((-b * q ** (f + 1), Fraction(1))) for f in s2]
        + [Poly((Fraction(-1) / q ** f, Fraction(1))) for f in s3])
    inputs = {"q": rational_str(q), "b": rational_str(b),
              "c": rational_str(c), "f1": s1, "f2": s2, "f3": s3}
    return _search_report("A", inputs, conjectured,
                          partial(meixner_moments, params), r, (), q, h_max)


def check_conjecture_b1(params: LaguerreParams, f_set: Iterable[int] = (),
                        h_max: int | None = None) -> dict:
    """Product perturbations of the q-Laguerre functional by (1 + x q^f)."""
    fs = _exponents(f_set)
    q = params.q
    conjectured = 2 * sum(fs) - len(fs) * (len(fs) - 1) + 2
    h_max = _half_width_max(h_max, conjectured)
    r = _product([Poly((Fraction(1), q ** f)) for f in fs])
    inputs = {"q": rational_str(q), "t": rational_str(params.t), "f": fs}
    return _search_report("B1", inputs, conjectured,
                          partial(laguerre_moments, params), r, (), q, h_max)


def check_conjecture_b2(params: LaguerreParams, f_set: Iterable[int] = (),
                        k_upper: int = 0,
                        masses: Sequence[Fraction | int | str] = (1,),
                        h_max: int | None = None) -> dict:
    """Point-mass-and-product perturbations at the origin.

    params carries t = q^alpha for the alpha of the catalogued point-mass
    instance; the continuous part is the level below it, so the functional
    is prod_{f in F} (1 + x q^f) rho_(alpha-1) + sum_{j<=K} M_j delta_0^(j),
    which requires alpha >= K + 2.  A conjectured order (2 alpha + 2) exists
    only for the pure one-mass case F = {}, K = 0; other shapes must supply
    h_max explicitly.
    """
    fs = _exponents(f_set)
    mass_vals = [rational(m) for m in masses]
    if len(mass_vals) != k_upper + 1:
        raise ParamDegeneracy(
            f"need {k_upper + 1} masses for derivative orders 0..{k_upper}")
    q, t = params.q, params.t
    alpha = q_power_exponent(t, q)
    if alpha is None or alpha < k_upper + 2:
        raise ParamDegeneracy(
            "t must be q^alpha with alpha an integer >= K + 2")
    one_mass = not fs and k_upper == 0
    if one_mass:  # the catalogued point-mass instance
        check_instance(LAGUERRE_II, params, alpha, mass_vals[0])
    conjectured = 2 * alpha + 2 if one_mass else None
    h_max = _half_width_max(h_max, conjectured)
    r = _product([Poly((Fraction(1), q ** f)) for f in fs])
    lower = partial(laguerre_moments, LaguerreParams(q, t / q))
    inputs = {"q": rational_str(q), "alpha": alpha, "f": fs,
              "k_upper": k_upper,
              "masses": [rational_str(m) for m in mass_vals]}
    report = _search_report("B2", inputs, conjectured, lower, r, mass_vals,
                            q, h_max)
    if one_mass and report.get("status") == "found":
        td = theorem_catalog(LAGUERRE_II, params, alpha, mass=mass_vals[0])
        kc = build(td.family, td.spec, td.p2, 12)
        lams = [kc.lam(n) for n in range(13)]
        ells = [rational(v) for v in report["eigenvalues"][:13]]
        affine = None
        if lams[1] != lams[0]:
            a_c = (ells[1] - ells[0]) / (lams[1] - lams[0])
            b_c = ells[0] - a_c * lams[0]
            affine = all(ells[n] == a_c * lams[n] + b_c
                         for n in range(len(ells)))
        report["theorem_agreement"] = {
            "expected_order": td.expected_order,
            "order_agrees": report["found_order"] == td.expected_order,
            "eigenvalue_affine_match": affine,
        }
    return report
