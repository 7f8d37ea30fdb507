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
(s_t(r) - s_t(n)) = 0 for r < n.  The unknowns are the g_{j,i} alone.  With
q = a/b and each q_n scaled to integer c_{n,r}, (E) for n times (ab)^{hn}
and (P) for e times (ab)^{he} are integer rows, since e <= n gives |je| <=
hn in q^{je} (ab)^{hn} = a^{hn+je} b^{hn-je}.  The rows (P) come first,
then the rows (E) by rising n, so in every system measured the rows that
`nullspace` keeps come first, and its scan stops at row `rank`.

The solution is read off the RREF nullspace basis of the system in the
g_{j,i} and l_n jointly, where each vector's last nonzero entry is a 1 at
its free column and the others are 0 there.  It depends only on the
solution space, so `_basis` appends l_n = s_t(n) to each reduced nullspace
vector and row-reduces the few vectors, as integer rows, with their columns
reversed.  A
solution only counts when g_{-h} and g_h are both nonzero (otherwise its
order is lower than the window) and scalar multiples of the identity are
excluded automatically by that same requirement.

The conjecture checkers build a perturbed moment functional, extract its
monic orthogonal polynomials from its moments (``moments.hankel_orthogonal``,
which pairs each one with the functional), and scan half-widths
upward to locate the minimal even order admitting an eigenoperator,
reporting every attempt.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import CrossCheckFailed, NotQuasiDefinite, ParamDegeneracy
from .exact import (Laurent, Poly, Record, _integer_rows, _over_common,
                    check_base, rational, rational_str)
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


def _reduced_rows(problem: SearchProblem) -> list[list[int]]:
    """The rows (P) and (E) over the g_{j,i}, column (j + h)(2h + 1) + i,
    scaled to integers (module docstring)."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    polys = _integer_rows([p.nums for p in problem.eigenpolys])
    top = 2 * h * (len(polys) - 1)
    a_pow = [a ** k for k in range(top + 1)]
    b_pow = [b ** k for k in range(top + 1)]
    n_cols = (2 * h + 1) * (t + 1)

    def s_row(e: int, scale: int) -> list[int]:
        """(ab)^scale q^{je} for j = -h..h: s_i(e)'s coefficients."""
        return [a_pow[scale + j * e] * b_pow[scale - j * e]
                for j in range(-h, h + 1)]

    rows = []
    for e in range(t):
        s_e = s_row(e, h * e)
        for k in range(e + 1, t + 1):
            row = [0] * n_cols
            row[t - k::t + 1] = s_e
            rows.append(row)
    for n, c in enumerate(polys):
        s_n = [s_row(e, h * n) for e in range(n + 1)]
        for r in range(n):
            row = [0] * n_cols
            for k in range(1, min(t, n - r) + 1):
                if c[r + k]:
                    row[t - k::t + 1] = [c[r + k] * x for x in s_n[r + k]]
            if c[r]:
                row[t::t + 1] = [c[r] * (x - y)
                                 for x, y in zip(s_n[r], s_n[n])]
            rows.append(row)
    return rows


def _basis(problem: SearchProblem) -> list[list[Fraction]]:
    """The RREF nullspace basis of the joint system in the g_{j,i} and the
    l_n, found from the reduced one (module docstring).  `rref` reads each
    vector as integers: its numerators over its denominator, then each
    l_n = s_t(n) as one sum, sum_j a^{hN+jn} b^{hN-jn} g_{j,t}, all times
    (ab)^{hN} for N the last index n (|jn| <= hN keeps the powers whole)."""
    h, q = problem.h, problem.q
    t = 2 * h
    a, b = q.numerator, q.denominator
    top = h * (len(problem.eigenpolys) - 1)
    scale = (a * b) ** top
    joint = []
    for v in nullspace(_reduced_rows(problem)):
        w, _ = _over_common(v)
        g = w[t::t + 1]  # g_{j,t} for j = -h..h
        joint.append([sum(a ** (top + j * n) * b ** (top - j * n) * g_j
                          for j, g_j in enumerate(g, -h))
                      for n in reversed(range(len(problem.eigenpolys)))]
                     + [x * scale for x in reversed(w)])
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
            raise ParamDegeneracy(
                "no conjectured order for this shape; give h_max")
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
