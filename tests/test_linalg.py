"""The certified nullspace against the basis read off `rref`."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qkrall import linalg
from qkrall.linalg import nullspace, rref

F = Fraction
P = (1 << 61) - 1  # the prime the rows are chosen modulo


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
def low_rank_products(draw):
    """L R with inner size k below both sides, so the rank is at most k."""
    rows, cols = draw(st.tuples(st.integers(2, 8), st.integers(2, 8)))
    k = draw(st.integers(1, min(rows, cols) - 1))
    left, right = draw(_matrix(rows, k)), draw(_matrix(k, cols))
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

matrices = st.one_of(random_matrices(), low_rank_products(), with_zero_rows(),
                     thin)


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


def _counting_solves(monkeypatch) -> list:
    calls = []
    solve = linalg._integer_nullspace

    def counted(rows, ncols):
        calls.append(len(rows))
        return solve(rows, ncols)

    monkeypatch.setattr(linalg, "_integer_nullspace", counted)
    return calls


def test_rows_dependent_mod_p_join_the_kept_rows(monkeypatch):
    # [1, 0] and [1, p] are independent over Q but equal mod p, so only the
    # first row is kept; (0, 1) fails the check against the second row,
    # which joins the kept rows for a second solve.
    calls = _counting_rref(monkeypatch)
    solves = _counting_solves(monkeypatch)
    assert nullspace([[F(1), F(0)], [F(1), F(P)]]) == []
    assert calls == []
    assert solves == [1, 2]


def test_row_missed_mod_p_leaves_a_smaller_basis(monkeypatch):
    # the second row equals the first mod p; the first solve's (-1, 1, 0)
    # fails against it, and the second solve gives the RREF basis
    a = [[F(1), F(1), F(0)], [F(1), F(1 + P), F(P)], [F(2), F(2), F(0)]]
    want = reference(a)
    calls = _counting_rref(monkeypatch)
    solves = _counting_solves(monkeypatch)
    assert nullspace(a) == want == [[F(1), F(-1), F(1)]]
    assert calls == []
    assert solves == [1, 2]


def test_row_divisible_by_p_is_made_primitive_first(monkeypatch):
    # [p, 0] is zero mod p as given, but scaling it to a primitive row
    # makes it [1, 0], so the modular choice keeps it; with both columns
    # pivots mod p the nullspace is decided with no solve.
    calls = _counting_rref(monkeypatch)
    solves = _counting_solves(monkeypatch)
    assert nullspace([[F(P), F(0)], [F(0), F(1)]]) == []
    assert calls == []
    assert solves == []


def test_row_divisible_by_p_joins_a_single_solve(monkeypatch):
    # as above, with a free column: [p, 0, p] is kept as [1, 0, 1], and
    # one solve over both kept rows gives the basis
    calls = _counting_rref(monkeypatch)
    solves = _counting_solves(monkeypatch)
    assert nullspace([[F(P), F(0), F(P)], [F(0), F(1), F(1)]]) == [
        [F(-1), F(-1), F(1)]]
    assert calls == []
    assert solves == [2]


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
    # columns 0 and 3
    a = [[0, P, 2 * P, 0], [0, 3, 4, 0], [0, 5, 6, 0]]
    want = reference(a)
    solves = _counting_solves(monkeypatch)
    assert nullspace(a) == want == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert solves == []


def test_only_kept_rows_are_made_primitive(monkeypatch):
    a = [[1, 2, 3], [2, 4, 6], [3, 6, 9], [0, 1, 1]]
    made = []
    primitive = linalg._integer_rows

    def counted(rows):
        made.extend(rows)
        return primitive(rows)

    monkeypatch.setattr(linalg, "_integer_rows", counted)
    assert nullspace(a) == reference(a) == [[-1, -1, 1]]
    assert made == [[1, 2, 3], [0, 1, 1]]
