"""The certified nullspace against the basis read off `rref`."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkrall import linalg
from qkrall.linalg import nullspace, rref

F = Fraction
P = (1 << 61) - 1  # the prime the rows are chosen modulo


def _first_primes(count: int) -> list[int]:
    """The primes `nullspace` adds after 2^61 - 1, in order."""
    primes = linalg._primes()
    return [next(primes) for _ in range(count)]


Q1, Q2, Q3, Q4 = _first_primes(4)


def test_primes_are_those_just_below_2_62():
    # the published table of the primes just less than 2^62
    assert [(1 << 62) - q for q in _first_primes(10)] == [
        57, 87, 117, 143, 153, 167, 171, 195, 203, 273]


def reference(a):
    """The nullspace basis read off `rref` of all rows."""
    ncols = len(a[0])
    red, pivots = rref(a)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, col in enumerate(pivots):
            v[col] = -red[r][f]
        basis.append(v)
    return basis

# Small fractions, plus integers near multiples of the prime so that rows
# which are independent over Q sometimes collide mod p.
entries = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.sampled_from([F(0), F(0), F(P), F(-P), F(2 * P), F(P + 1), F(P * P)]),
)


def _matrix(rows: int, cols: int, values=entries):
    return st.lists(st.lists(values, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


shapes = st.tuples(st.integers(1, 7), st.integers(1, 7))


@st.composite
def random_matrices(draw):
    rows, cols = draw(shapes)
    return draw(_matrix(rows, cols))


@st.composite
def low_rank_products(draw, values=entries):
    """L R with inner size k below both sides, so the rank is at most k."""
    rows, cols = draw(st.tuples(st.integers(2, 8), st.integers(2, 8)))
    k = draw(st.integers(1, min(rows, cols) - 1))
    left = draw(_matrix(rows, k, values))
    right = draw(_matrix(k, cols, values))
    return [[sum((left[i][s] * right[s][j] for s in range(k)), F(0))
             for j in range(cols)] for i in range(rows)]


@st.composite
def with_zero_rows(draw):
    a = draw(random_matrices())
    cols = len(a[0])
    for i in sorted(draw(st.lists(st.integers(0, len(a)), max_size=3))):
        a.insert(i, [F(0)] * cols)
    return a


thin = st.one_of(
    st.integers(1, 9).flatmap(lambda c: _matrix(1, c)),  # one row, wide
    st.integers(1, 9).flatmap(lambda r: _matrix(r, 1)),  # one column, tall
    shapes.map(lambda s: [[F(0)] * s[1] for _ in range(s[0])]),  # zero
)

# Entries of up to 64 bits, and fractions with up to 40-bit numerators and
# denominators: the RREF entries run far past Wang's 2^30 bound for one
# prime, so the basis is combined by CRT from several.
large_entries = st.one_of(
    st.integers(-2 ** 64, 2 ** 64).map(F),
    st.builds(F, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 40)),
    st.sampled_from([F(0), F(P), F(Q1), F(P * Q1)]))


@st.composite
def large_entry_matrices(draw):
    """Wide matrices, low-rank products and either with zero columns, all
    of large entries."""
    rows = draw(st.integers(1, 4))
    wide = _matrix(rows, draw(st.integers(rows + 1, 7)), large_entries)
    a = draw(st.one_of(wide, low_rank_products(large_entries)))
    for j in draw(st.lists(st.integers(0, len(a[0])), max_size=2)):
        for row in a:
            row.insert(j, F(0))
    return a


matrices = st.one_of(random_matrices(), low_rank_products(), with_zero_rows(),
                     thin, large_entry_matrices())


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_nullspace_equals_rref_basis(a):
    assert nullspace(a) == reference(a)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_every_vector_kills_every_row(a):
    for v in nullspace(a):
        for row in a:
            assert sum((x * y for x, y in zip(row, v)), F(0)) == 0


def test_edge_shapes():
    assert nullspace([]) == []
    assert nullspace([[F(0), F(0)]]) == [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace([[F(2)], [F(-3)]]) == []
    assert nullspace([[1, 2, 3]]) == [[F(-2), F(1), F(0)],
                                      [F(-3), F(0), F(1)]]


def _counting_rref(monkeypatch) -> list:
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def test_fast_path_needs_no_rref(monkeypatch):
    a = [[F(1, 2), F(1), F(3, 2)], [F(2), F(4), F(6)], [F(0), F(1), F(-1)]]
    want = reference(a)
    calls = _counting_rref(monkeypatch)
    assert nullspace(a) == want == [[F(-5), F(1), F(1)]]
    assert calls == []


def _counting_stages(monkeypatch) -> dict:
    """Per `nullspace` call: each stop of each prime's elimination as
    (prime, the row index it stopped at), and the modulus and number of
    entries of each reconstruction."""
    seen = {"stages": [], "lifts": []}
    scan, lift = linalg._independent_mod_p, linalg._lift

    def counted_scan(rows, cols, p):
        for kept, pivots, image, stop in scan(rows, cols, p):
            seen["stages"].append((p, stop))
            yield kept, pivots, image, stop

    def counted_lift(image, m, pivots, ncols):
        seen["lifts"].append((m, len(image) * len(pivots)))
        return lift(image, m, pivots, ncols)

    monkeypatch.setattr(linalg, "_independent_mod_p", counted_scan)
    monkeypatch.setattr(linalg, "_lift", counted_lift)
    return seen


def _at_most_primes(monkeypatch, count: int) -> None:
    """Fail, instead of running on, a call that asks for more primes."""
    primes = _first_primes(count)

    def limited():
        yield from primes
        raise AssertionError(f"more than {count} primes after 2^61 - 1")

    monkeypatch.setattr(linalg, "_primes", limited)


def test_rows_dependent_mod_p_join_the_kept_rows(monkeypatch):
    # [1, 0] and [1, p] are independent over Q but equal mod p, so the scan
    # keeps only the first row and stops at the second; (0, 1) kills the
    # first but fails the second, which joins the kept rows with no rescan,
    # and the next prime, which keeps both, has every column a pivot
    calls = _counting_rref(monkeypatch)
    seen = _counting_stages(monkeypatch)
    assert nullspace([[F(1), F(0)], [F(1), F(P)]]) == []
    assert calls == []
    assert seen["stages"] == [(P, 1), (Q1, 2)]


def test_stop_row_joins_and_the_rows_after_it_are_checked_over_z(monkeypatch):
    # the scan stops at [1, p, 0], dependent mod p but not over Q; it fails
    # the scan's (0, 1, 0) and joins the kept rows, and the rows after it,
    # which the scan never reached, pass the Z check: the scan is not
    # resumed, though [0, p, 0] made primitive would be a new pivot mod p
    a = [[1, 0, 0], [1, P, 0], [2, 0, 0], [0, P, 0]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 1)
    assert nullspace(a) == reference(a) == [[0, 0, 1]]
    assert seen["stages"] == [(P, 1), (Q1, 2)]


def test_rows_past_the_stop_resume_the_scan_once(monkeypatch):
    # [2, 0, 0] stops the scan at row 1, and the scan's (0, 1, 0) fails
    # row 2, which it never reached: the scan resumes from row 2 and reads
    # every row left, with no row joined and no prime added
    a = [[1, 0, 0], [2, 0, 0], [0, 1, 0]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 0)
    assert nullspace(a) == reference(a) == [[0, 0, 1]]
    assert seen["stages"] == [(P, 1), (P, 3)]
    # past the stop, independent rows come after dependent ones: the one
    # resume passes over row 3 and keeps rows 2 and 4
    a = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0]]
    seen["stages"].clear()
    assert nullspace(a) == reference(a) == [[0, 0, 0, 1]]
    assert seen["stages"] == [(P, 1), (P, 5)]


def test_row_missed_mod_p_leaves_a_smaller_basis(monkeypatch):
    # the second row equals the first mod p and stops the scan; the
    # scan's (-1, 1, 0) kills the kept first row but fails the second,
    # which joins it, and the next prime's basis of both is the RREF basis,
    # which the third row, never scanned, passes over Z
    a = [[F(1), F(1), F(0)], [F(1), F(1 + P), F(P)], [F(2), F(2), F(0)]]
    want = reference(a)
    calls = _counting_rref(monkeypatch)
    seen = _counting_stages(monkeypatch)
    assert nullspace(a) == want == [[F(1), F(-1), F(1)]]
    assert calls == []
    assert seen["stages"] == [(P, 1), (Q1, 2)]
    assert [m for m, _ in seen["lifts"]] == [P, Q1]


def test_row_divisible_by_p_is_made_primitive_first(monkeypatch):
    # [p, 0] is zero mod p as given, but scaling it to a primitive row
    # makes it [1, 0], so the modular choice keeps it; with both columns
    # pivots mod p the nullspace is decided by the scan alone
    calls = _counting_rref(monkeypatch)
    seen = _counting_stages(monkeypatch)
    assert nullspace([[F(P), F(0)], [F(0), F(1)]]) == []
    assert calls == []
    assert seen == {"stages": [(P, 2)], "lifts": [(P, 0)]}


def test_row_divisible_by_p_joins_a_single_solve(monkeypatch):
    # as above, with a free column: [p, 0, p] is kept as [1, 0, 1], and
    # the scan's prime alone gives the basis of both kept rows
    calls = _counting_rref(monkeypatch)
    seen = _counting_stages(monkeypatch)
    assert nullspace([[F(P), F(0), F(P)], [F(0), F(1), F(1)]]) == [
        [F(-1), F(-1), F(1)]]
    assert calls == []
    assert seen == {"stages": [(P, 2)], "lifts": [(P, 2)]}


def test_large_basis_entries_need_crt(monkeypatch):
    # the basis entries -X/3 and -Y/7 have 100-bit numerators, beyond
    # Wang's bound sqrt(M/2) until the product M of the primes exceeds
    # 2^201: the scan's prime and three more, combined by CRT
    x, y = 2 ** 100 + 1, -(2 ** 99) + 5
    a = [[3, 0, x], [0, 7, y]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 3)
    assert nullspace(a) == reference(a) == [[F(-x, 3), F(-y, 7), F(1)]]
    assert seen["stages"] == [(P, 2), (Q1, 2), (Q2, 2), (Q3, 2)]
    assert [m for m, _ in seen["lifts"]] == [P, P * Q1, P * Q1 * Q2,
                                             P * Q1 * Q2 * Q3]


def test_wrong_reconstruction_adds_a_prime_not_a_row(monkeypatch):
    # 2^40 = 2^-21 mod 2^61 - 1, so Wang's method reconstructs the scan's
    # residue as 1/2^21: the vector fails the kept row over Z, and a prime
    # is added.  Taking the kept row's dependent twin for a missed row
    # would ask for a prime that keeps both, and there is none.
    assert linalg._lift({1: [2 ** 40]}, P, [0], 2) == [
        (1, [1, 2 ** 21], 2 ** 21)]
    a = [[1, -2 ** 40], [2, -2 ** 41]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 1)
    assert nullspace(a) == reference(a) == [[F(2 ** 40), F(1)]]
    assert seen["stages"] == [(P, 1), (Q1, 1)]
    assert [m for m, _ in seen["lifts"]] == [P, P * Q1]


def test_prime_with_a_later_pivot_list_is_discarded(monkeypatch):
    # the next prime after 2^61 - 1 divides the pivot entry Q1, so mod Q1
    # the pivot moves from column 0 to column 1 and that prime is dropped;
    # the 62-bit denominator Q1 needs three primes within Wang's bound
    a = [[Q1, 1, 5]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 3)
    assert nullspace(a) == reference(a) == [[F(-1, Q1), F(1), F(0)],
                                            [F(-5, Q1), F(0), F(1)]]
    assert seen["stages"] == [(P, 1), (Q1, 1), (Q2, 1), (Q3, 1)]
    assert [m for m, _ in seen["lifts"]] == [P, P * Q2, P * Q2 * Q3]


def test_prime_leaving_a_kept_row_dependent_stops_at_it(monkeypatch):
    # the rows differ by Q1 [0, 1, 3], so mod Q1 the second is dependent
    # on the first: that prime's elimination stops at it and the prime is
    # dropped; the 101-bit entry -x needs three more primes within Wang's
    # bound
    x = 2 ** 100 + 1
    a = [[1, 0, x], [1, Q1, x + 3 * Q1]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 4)
    assert nullspace(a) == reference(a) == [[-x, -3, 1]]
    assert seen["stages"] == [(P, 2), (Q1, 1), (Q2, 2), (Q3, 2), (Q4, 2)]
    assert [m for m, _ in seen["lifts"]] == [P, P * Q2, P * Q2 * Q3,
                                             P * Q2 * Q3 * Q4]


def test_scan_prime_with_a_later_pivot_list_is_replaced(monkeypatch):
    # mod 2^61 - 1 the row [p, 1] has its pivot in column 1, so the scan's
    # basis (1, 0) fails the row over Z; the next prime's pivot list [0]
    # is earlier and replaces the scan's
    a = [[P, 1]]
    seen = _counting_stages(monkeypatch)
    _at_most_primes(monkeypatch, 2)
    assert nullspace(a) == reference(a) == [[F(-1, P), F(1)]]
    assert seen["stages"] == [(P, 1), (Q1, 1), (Q2, 1)]
    assert [m for m, _ in seen["lifts"]] == [P, Q1, Q1 * Q2]


# Integer entries, again with multiples of the prime; each row is then
# scaled by a common factor that the primitive-row step must take out.
int_entries = st.one_of(st.integers(-6, 6),
                        st.sampled_from([0, P, -P, 2 * P, P + 1, P * P]))


@st.composite
def integer_matrices(draw):
    rows, cols = draw(shapes)
    a = draw(st.lists(st.lists(int_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    scales = draw(st.lists(st.sampled_from([1, 6, P]), min_size=rows,
                           max_size=rows))
    return [[k * c for c in row] for k, row in zip(scales, a)]


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_integer_rows_give_their_fraction_twins_basis(a):
    twin = [[F(c) for c in row] for row in a]
    assert nullspace(a) == nullspace(twin) == reference(twin)


@st.composite
def full_column_rank(draw):
    """A triangular block with a nonzero diagonal and more rows below, in a
    drawn row order, sometimes every row times p: full rank on every
    column."""
    cols = draw(st.integers(1, 6))
    rows = [[F(0)] * j + [draw(entries.filter(bool))]
            + draw(_matrix(1, cols - j - 1))[0] for j in range(cols)]
    rows = draw(st.permutations(rows + draw(_matrix(draw(st.integers(0, 3)),
                                                     cols))))
    scale = draw(st.sampled_from([1, P]))
    return [[scale * c for c in row] for row in rows]


@st.composite
def with_zero_columns(draw):
    """Random, low-rank, integer (p-multiple rows among them) and full
    column rank matrices with zero columns inserted."""
    a = draw(st.one_of(random_matrices(), low_rank_products(),
                       integer_matrices(), full_column_rank()))
    for j in draw(st.lists(st.integers(0, len(a[0])), min_size=1,
                           max_size=3)):
        for row in a:
            row.insert(j, type(row[0])(0))
    return a


@settings(deadline=None)
@given(with_zero_columns())
def test_nullspace_with_zero_columns_equals_rref_basis(a):
    assert nullspace(a) == reference(a)


def test_full_rank_on_the_nonzero_columns_needs_no_solve(monkeypatch):
    # columns 0 and 3 are zero and the others are independent mod p (the
    # first row once made primitive), so the basis is the unit vectors of
    # columns 0 and 3, with no entry to reconstruct
    a = [[0, P, 2 * P, 0], [0, 3, 4, 0], [0, 5, 6, 0]]
    want = reference(a)
    seen = _counting_stages(monkeypatch)
    assert nullspace(a) == want == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert seen == {"stages": [(P, 3)], "lifts": [(P, 0)]}


def test_no_row_is_made_primitive_unless_zero_mod_p(monkeypatch):
    # the kept rows [1, 2, 3] and [0, 1, 1] are eliminated as given, and
    # the scan's prime alone gives the basis: [2, 4, 6] stops the scan,
    # whose basis fails [0, 1, 1], so it resumes once and keeps that row
    a = [[1, 2, 3], [2, 4, 6], [3, 6, 9], [0, 1, 1]]
    made = []
    primitive = linalg._integer_rows

    def counted(rows):
        made.extend(rows)
        return primitive(rows)

    monkeypatch.setattr(linalg, "_integer_rows", counted)
    seen = _counting_stages(monkeypatch)
    assert nullspace(a) == reference(a) == [[-1, -1, 1]]
    assert made == []
    assert seen == {"stages": [(P, 1), (P, 4)], "lifts": [(P, 2), (P, 2)]}


@settings(deadline=None)
@given(large_entry_matrices())
def test_large_entry_nullspace_equals_rref_basis(a):
    assert nullspace(a) == reference(a)


@st.composite
def full_row_rank(draw):
    """Integer matrices of full row rank with entries in -6..6, so every
    minor is below 2^28 in size (Hadamard's bound) and none is a multiple
    of p: staircases in a drawn row order, whose pivots the scan meets out
    of column order, and random rows."""
    cols = draw(st.integers(1, 7))
    small = st.integers(-6, 6)
    if draw(st.booleans()):
        starts = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=1)))
        return draw(st.permutations([
            [0] * j + [draw(small.filter(bool))]
            + draw(st.lists(small, min_size=cols - j - 1,
                            max_size=cols - j - 1)) for j in starts]))
    a = draw(st.lists(st.lists(small, min_size=cols, max_size=cols),
                      min_size=1, max_size=cols))
    assume(len(rref(a)[1]) == len(a))
    return a


@settings(deadline=None)
@given(full_row_rank())
@example([[0, 1, 2], [1, 0, 3]])  # pivots met as 1, then 0
def test_scan_is_the_rref_mod_p(a):
    # the scan keeps every row with no stop before the end, and its pivots
    # and free columns are those of the RREF over Q, reduced mod p
    red, pivots = rref(a)
    cols = [j for j, col in enumerate(zip(*a)) if any(col)]
    [(kept, scan_pivots, image, stop)] = linalg._independent_mod_p(a, cols, P)
    assert kept == list(range(len(a))) == list(range(stop))
    assert scan_pivots == pivots
    assert image == {
        f: [-red[k][f].numerator * pow(red[k][f].denominator, -1, P) % P
            for k in range(len(pivots))]
        for f in cols if f not in pivots}


@st.composite
def dependent_rows_first(draw):
    """A matrix with a drawn number of its rows, each scaled, copied in
    front of it: the scan can meet a dependent row before independent ones,
    and the rows after its stop are left to the Z check or a resume."""
    a = draw(st.one_of(random_matrices(), low_rank_products(),
                       integer_matrices(), large_entry_matrices()))
    front = [[c * x for x in a[i]] for i, c in draw(st.lists(
        st.tuples(st.integers(0, len(a) - 1), entries.filter(bool)),
        min_size=1, max_size=4))]
    return front + a


@settings(deadline=None)
@given(dependent_rows_first())
@example([[1, 0], [2, 0], [1, 0], [0, 1]])
def test_dependent_rows_first_give_the_rref_basis(a):
    assert nullspace(a) == reference(a)
