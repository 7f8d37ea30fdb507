"""Exact linear algebra over Q: elimination, solves, nullspaces.

Pivoting is deterministic (first nonzero column, then smallest row index)
so that every run of the package produces identical output.

`nullspace` is certified rather than computed by `rref` directly.  It reads
each row over Z (a `Fraction` row over its common denominator) and keeps
the rows independent, modulo the prime 2^61 - 1, of the rows kept before
them; rows independent mod p are independent over Q.  If the r kept rows
and the z columns that are zero in every row make r + z = ncols, the
nullspace is spanned by the zero columns' unit vectors, with no solve or
check: they lie in it, and its dimension ncols - rank(A) <= ncols - r = z.
Every nonzero column is then a pivot, so they are the RREF basis.
Otherwise only the kept rows R are made primitive (a row that vanishes mod
p only because p divides its content is made primitive before it is
reduced, so R is the choice the primitive rows give), fraction-free
(Bareiss) elimination brings R to echelon form, and back-substitution over
Z gives the RREF basis of nullspace(R), which contains nullspace(A).  Every
basis vector is checked over Z against every row of A; when all checks
pass the two nullspaces are equal, and since the RREF basis depends only
on the nullspace, the result is the one `rref` gives.  When a check fails
(a prime that drops a row of full rank over Q), the first failing row
joins R: a row that some vector of nullspace(R) does not kill lies outside
the row space of R, so R keeps full rank, and the solve repeats at most
ncols times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul

from .errors import SingularSystem
from .exact import _integer_rows, _over_common

Matrix = list[list[Fraction]]

_PRIME = (1 << 61) - 1


def _copy(rows: Matrix) -> Matrix:
    return [list(map(Fraction, r)) for r in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (matrix, pivot column indices)."""
    m = _copy(rows)
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= len(m):
            break
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [c * inv for c in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def solve_exact(a: Matrix, b: list[Fraction]) -> list[Fraction]:
    """Solve a x = b exactly, any shape.

    Raises SingularSystem when the system is inconsistent or the solution
    is not unique.
    """
    if len(a) != len(b):
        raise ValueError("matrix/vector size mismatch")
    if not a:
        raise SingularSystem("empty system")
    ncols = len(a[0])
    aug = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        raise SingularSystem("inconsistent system")
    if len(pivots) < ncols:
        raise SingularSystem("underdetermined system")
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = red[r][ncols]
    return x


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right nullspace of a, one vector per free column.

    Entries may be `int` or `Fraction`.  The basis is the standard one read
    off the RREF: free column j gives the vector with 1 in slot j, so output
    order is deterministic.  It is the zero columns' unit vectors when the
    rank mod p reaches the number of nonzero columns; otherwise it is
    solved from the rows chosen mod p, made primitive, and certified over Z
    against every row (see the module docstring).
    """
    if not a:
        return []
    ncols = len(a[0])
    rows = [row if all(map(isinstance, row, repeat(int)))
            else _over_common(row)[0] for row in a]
    zero = [j for j, col in enumerate(zip(*rows)) if not any(col)]
    kept = _independent_mod_p(rows, sorted(set(range(ncols)) - set(zero)))
    if len(kept) + len(zero) == ncols:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in zero]
    kept = _integer_rows([rows[i] for i in kept])
    while True:
        basis = _integer_nullspace(kept, ncols)
        missed = next((row for row in rows for w, _ in basis
                       if sum(map(mul, row, w))), None)
        if missed is None:
            return [[Fraction(c, w[f]) for c in w] for w, f in basis]
        kept += _integer_rows([missed])


def _independent_mod_p(rows: list[list[int]], cols: list[int]) -> list[int]:
    """Indices of the rows independent, mod p, of the rows before them;
    only the columns `cols` may hold a nonzero entry.

    A row is reduced as given, or made primitive first if that leaves it
    zero.  The kept rows are held in reduced echelon form mod p, stored by
    column: free column j holds, for each pivot in order, that pivot row's
    entry in column j (pivot columns are unit vectors and need no storage),
    so a row's residual is nonzero only in free columns, and the scan stops
    once every column of `cols` is a pivot.
    """
    p = _PRIME
    pivots: list[int] = []
    free: dict[int, list[int]] = {j: [] for j in cols}
    kept = []
    for i, row in enumerate(rows):
        if not free:
            break
        r = [c % p for c in row]
        if not any(r):  # p divides the content, or the row is zero
            r = [c % p for prim in _integer_rows([row]) for c in prim]
            if not r:
                continue
        at_pivots = [r[c] for c in pivots]
        residual = {j: (r[j] - sum(map(mul, at_pivots, col))) % p
                    for j, col in free.items()}
        new = next((j for j, v in residual.items() if v), None)
        if new is None:
            continue
        kept.append(i)
        inv = pow(residual[new], -1, p)
        col_new = free.pop(new)
        for j, col in free.items():
            n_j = residual[j] * inv % p
            free[j] = [(x - y * n_j) % p for x, y in zip(col, col_new)]
            free[j].append(n_j)
        pivots.append(new)
    return kept


def _integer_nullspace(rows: list[list[int]],
                       ncols: int) -> list[tuple[list[int], int]]:
    """Nullspace of integer rows of full row rank, as (vector, free column).

    Fraction-free (Bareiss) elimination with the `rref` pivot rule gives an
    echelon form whose last pivot d is, up to sign, the determinant of the
    pivot columns; by Cramer's rule d times the RREF basis vector of free
    column f is integral, so back-substitution divides exactly.  Each
    vector is returned primitive; dividing by its entry at f gives the RREF
    vector.
    """
    m = list(rows)
    pivots: list[int] = []
    prev = 1
    k = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(k, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[k], m[pivot_row] = m[pivot_row], m[k]
        top = m[k]
        a = top[col]
        tail = top[col + 1:]
        for i in range(k + 1, len(m)):
            row = m[i]
            b = row[col]
            m[i] = [0] * (col + 1) + [
                (a * x - b * y) // prev for x, y in zip(row[col + 1:], tail)]
        prev = a
        pivots.append(col)
        k += 1
    d = prev
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        w = [0] * ncols
        w[f] = d
        for i in range(len(pivots) - 1, -1, -1):
            row = m[i]
            s = sum(row[pivots[j]] * w[pivots[j]]
                    for j in range(i + 1, len(pivots)))
            w[pivots[i]] = -(d * row[f] + s) // row[pivots[i]]
        g = math.gcd(*w)
        basis.append(([c // g for c in w], f))
    return basis


def leading_principal_minors(h: Matrix) -> list[Fraction]:
    """Determinants of the leading principal blocks of a square matrix.

    Uses elimination without pivoting; the k-th pivot is the ratio of
    consecutive minors, valid while the previous minors are nonzero.  If a
    pivot vanishes the corresponding minor is 0 and the list stops there,
    which is all the quasi-definiteness check needs.
    """
    n = len(h)
    m = _copy(h)
    minors: list[Fraction] = []
    prod = Fraction(1)
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            minors.append(Fraction(0))
            return minors
        prod *= pivot
        minors.append(prod)
        for i in range(k + 1, n):
            if m[i][k] != 0:
                factor = m[i][k] / pivot
                row_i, row_k = m[i], m[k]
                for j in range(k, n):
                    row_i[j] -= factor * row_k[j]
    return minors
