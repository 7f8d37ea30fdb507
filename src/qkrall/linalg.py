"""Exact linear algebra over Q: elimination, solves, nullspaces.

Pivoting is deterministic (first nonzero column, then smallest row index)
so that every run of the package produces identical output.

`rref` is fraction-free (E. H. Bareiss, Math. Comp. 22 (1968)): with the
rows scaled to integers, each pivot p replaces every other row r by
(p r - f t) / p', for t the pivot row, f the entry of r in its column and
p' the pivot before.  After k steps an entry is a k x k or (k + 1) x
(k + 1) minor of the integer rows (of a pivot row, by Cramer's rule, the
pivots' minor with that row's pivot column swapped for the entry's), so
the division is exact, and every pivot row holds the last pivot d at its
pivot: the RREF is the matrix over d.

`nullspace` is certified rather than computed by `rref` directly.  It reads
each row over Z and scans the rows mod p = 2^61 - 1, keeping the r rows R
independent mod p (so over Q) of those kept before them; it stops at the
first nonzero row dependent mod p on R, or once every nonzero column is a
pivot.  The scan holds R in reduced echelon form mod p, and a kept row
stays zero at every free column left of its pivot: a new pivot is the
leftmost nonzero of a residual, and an update only subtracts a row zero
there.  So the scan's pivots and stored free columns (with a unit vector
for each zero column) are the RREF of R mod p and its nullspace basis, each
vector zero at the pivots right of its free column.  Further primes
eliminate R alone.  Rank mod a prime is at most rank over Q, on every
leading block of columns too, so no prime's pivot list is lexicographically
earlier than the one over Q: a prime leaving R rank-deficient or giving a
later list than one seen is dropped, and an earlier list replaces those
kept.  The kept primes are combined by CRT and each entry reconstructed by
Wang's method (|num|, den <= sqrt(M/2) for M the product of the primes).
The vectors are checked over Z.  One failing a row of R shows the
reconstruction premature (or the pivots wrong): a prime is added.  Once all
kill R, they are ncols - r independent vectors of nullspace(R), a basis of
it, and with their zeros they give a reduced echelon form with that
nullspace, the RREF of R; the RREF basis is unique, so they are it.  A
vector failing another row proves that row outside the row space of R.  A
row past the stop resumes the scan, once, over every row left (dependent
ones passed over); any other joins R, eliminated afresh mod the first prime
keeping all its rows.  When all rows pass, nullspace(A) = nullspace(R), and
the vectors are the basis `rref` gives, whichever rows the scan read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul, sub

from .errors import SingularSystem
from .exact import _integer_rows, _over_common

Matrix = list[list[Fraction]]

_PRIME = (1 << 61) - 1


def _copy(rows: Matrix) -> Matrix:
    return [list(map(Fraction, r)) for r in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (matrix, pivot column indices).

    Entries may be `int` or `Fraction`.  The rows are scaled to integers
    and eliminated fraction-free (module docstring); each entry of the
    result is made a `Fraction` once, at the end.
    """
    m = [list(row) if all(map(isinstance, row, repeat(int)))
         else _over_common(row)[0] for row in rows]
    pivots: list[int] = []
    prev = 1  # the last pivot, which divides every entry of the next step
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        if row == len(m):
            break
        pivot_row = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        top = m[row]
        p = top[col]
        for r, other in enumerate(m):
            if r != row:
                f = other[col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(other, top)]
        pivots.append(col)
        prev = p
    return [[Fraction(x, prev) for x in row] for row in m], pivots


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
    off the RREF (free column j gives the vector with 1 in slot j), found
    mod primes and certified over Z (module docstring).
    """
    if not a:
        return []
    ncols = len(a[0])
    rows = [row if all(map(isinstance, row, repeat(int)))
            else _over_common(row)[0] for row in a]
    zero = [j for j, col in enumerate(zip(*rows)) if not any(col)]
    cols = sorted(set(range(ncols)) - set(zero))
    scan = _independent_mod_p(rows, cols, _PRIME)
    kept, pivots, image, stop = next(scan)
    modulus, primes = _PRIME, _primes()
    while True:
        basis = _lift(image, modulus, pivots, ncols)
        if basis is not None and not any(sum(map(mul, rows[i], w))
                                         for _, w, _ in basis for i in kept):
            done = set(kept)
            missed = next((i for _, w, _ in basis for i, row in enumerate(rows)
                           if i not in done and sum(map(mul, row, w))), None)
            if missed is None:
                basis += [(j, [int(i == j) for i in range(ncols)], 1)
                          for j in zero]
                return [[Fraction(c, d) for c in w] for _, w, d in sorted(basis)]
            if missed > stop:  # a row the scan never reached
                (kept, pivots, image, stop), modulus = next(scan), _PRIME
                continue
            kept, pivots = [*kept, missed], None
        for q in primes:
            got, piv, res, _ = next(
                _independent_mod_p([rows[i] for i in kept], cols, q))
            if len(got) == len(kept) and (pivots is None or piv <= pivots):
                break
        if piv == pivots:
            inv = pow(modulus, -1, q)
            image = {f: [x + modulus * ((y - x) * inv % q)
                         for x, y in zip(image[f], res[f])] for f in image}
            modulus *= q
        else:
            pivots, image, modulus = piv, res, q


def _primes():
    """The primes below 2^62, largest first: Miller-Rabin to the twelve
    prime bases 2..37 is exact below 3.3 * 10^24."""
    for n in range((1 << 62) - 1, 2, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
        if all(pow(b, (n - 1) >> s, n) == 1
               or any(pow(b, (n - 1) >> i, n) == n - 1 for i in range(1, s + 1))
               for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            yield n


def _lift(image: dict, m: int, pivots: list[int], ncols: int) -> list | None:
    """Each free column f's vector (1 at f, at the pivots the rationals of
    its residues mod m by Wang) as (f, numerators, denominator), or None."""
    bound = math.isqrt(m // 2)
    basis = []
    for f, residues in image.items():
        v = [int(i == f) for i in range(ncols)]
        for c, u in zip(pivots, residues):
            r0, r1, t0, t1 = m, u, 0, 1
            while r1 > bound:
                k = r0 // r1
                r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
            if abs(t1) > bound or math.gcd(r1, t1) != 1:
                return None
            v[c] = Fraction(r1, t1)
        basis.append((f, *_over_common(v)))
    return basis


def _independent_mod_p(rows: list[list[int]], cols: list[int], p: int):
    """The rows independent, mod p, of the rows before them, as (their
    indices, the sorted pivot columns, each free column's RREF nullspace
    vector mod p at those pivots, the row index it stopped at); only `cols`
    may hold a nonzero entry.  Yielded at the first nonzero row dependent
    mod p on the kept ones and, if resumed, once more after every row.

    A row is reduced as given, or made primitive first if that leaves it
    zero.  The kept rows are held in reduced echelon form mod p, stored by
    column: free column j holds, for each pivot in order, that pivot row's
    entry in column j (pivot columns are unit vectors and need no storage),
    so a row's residual is nonzero only in free columns, and the scan ends
    once every column of `cols` is a pivot.
    """
    pivots: list[int] = []
    free: dict[int, list[int]] = {j: [] for j in cols}
    kept = []

    def echelon(stop):
        order = sorted(range(len(pivots)), key=pivots.__getitem__)
        return kept[:], sorted(pivots), {j: [-col[k] % p for k in order]
                                         for j, col in free.items()}, stop

    stopped = False
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
            if not stopped:
                stopped = True
                yield echelon(i)
            continue
        kept.append(i)
        inv = pow(residual[new], -1, p)
        col_new = [y % p for y in free.pop(new)]
        for j, col in free.items():
            # no % p per entry: the entries stay congruent mod p and below
            # rank * p^2 + p in size, and are reduced where they are read
            n_j = residual[j] * inv % p
            free[j] = list(map(sub, col, map(mul, col_new, repeat(n_j))))
            free[j].append(n_j)
        pivots.append(new)
    yield echelon(len(rows))


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
