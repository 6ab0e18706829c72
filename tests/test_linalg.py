"""Exact linear algebra kernel: examples and algebraic properties."""

import random
from fractions import Fraction as Q
from math import gcd, lcm
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from liemult.core import format_rational
from liemult import linalg
from liemult.linalg import (
    _ZERO, Matrix, _back_substitute, _forward_echelon, extend_integer_echelon, kernel_basis,
    rref_basis, rref_product, span_rref)

from linalg_helpers import (
    mul_vec, nullspace_basis, rowwise_forward_echelon, sparse_nullspace_basis, transpose)


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_rank_zero():
    assert Matrix.zero(2, 2).rank() == 0


def test_rank_dependent_rows():
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_identity_empty():
    assert nullspace_basis(Matrix.identity(2)) == []


def test_nullspace_difference():
    (v,) = nullspace_basis(Matrix([[1, -1]]))
    assert v[0] == v[1] != 0


def test_nullspace_dependent():
    m = Matrix([[1, 2], [2, 4]])
    (v,) = nullspace_basis(m)
    assert mul_vec(m, v) == (0, 0)
    # spans (2, -1)
    assert v[0] * (-1) == v[1] * 2


def test_rref_identity():
    assert Matrix.identity(4).rref() == Matrix.identity(4)


def test_rref_scaling():
    assert Matrix([[2, 4]]).rref() == Matrix([[1, 2]])


def test_rref_elimination():
    assert Matrix([[1, 1], [1, 2]]).rref() == Matrix.identity(2)


def test_rejects_floats():
    with pytest.raises(TypeError):
        Matrix([[0.5]])


def test_product_and_transpose():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert transpose(transpose(a)) == a


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (2, 0)])
def test_transpose_empty_shapes(rows, cols):
    m = Matrix([[]] * rows, cols=0) if cols == 0 else Matrix([], cols=cols)
    t = transpose(m)
    assert (t.rows, t.cols) == (cols, rows)
    assert t.data == ((),) * cols
    assert transpose(t) == m


def test_is_zero():
    assert Matrix.zero(2, 3).is_zero()
    assert Matrix([], cols=4).is_zero() and Matrix([[], []], cols=0).is_zero()
    assert Matrix([[0, Q(0, 7)], [Q(-0), 0]]).is_zero()
    assert not Matrix([[0, 0], [0, Q(-1, 10**40)]]).is_zero()


def test_span_rref_drops_zero_rows():
    m = span_rref([[0, 0], [1, 1], [2, 2]], 2)
    assert m.rows == 1 and m.data[0] == (1, 1)


@pytest.mark.parametrize("vectors", [[[1, 2, 3]], [[1, 0], [0]], [[0, 0, 0]]])
def test_span_rref_rejects_wrong_length(vectors):
    with pytest.raises(ValueError):
        span_rref(vectors, 2)


def test_format_rational():
    assert format_rational(Q(3)) == "3"
    assert format_rational(Q(-2, 6)) == "-1/3"


fractions = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
matrices = st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(fractions, min_size=c, max_size=c), min_size=1, max_size=4)
).map(Matrix)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    assert m.rank() + len(nullspace_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_transpose(m):
    assert m.rank() == transpose(m).rank()


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate(m):
    for v in nullspace_basis(m):
        assert all(x == 0 for x in mul_vec(m, v))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_idempotent(m):
    r = m.rref()
    assert r.rref() == r
    assert r.rank() == m.rank()


# -- the elimination kernel against a dense Fraction reference ---------------

def reference_rref(rows, cols):
    """Dense Fraction Gauss-Jordan, first nonzero row as pivot, columns left
    to right: the plain kernel the sparse integer one must agree with."""
    rows = [[Q(x) for x in r] for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(r) for r in rows), tuple(pivots)


def reference_nullspace(red, pivots, cols):
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Q(0)] * cols
        v[free] = Q(1)
        for prow, pcol in enumerate(pivots):
            v[pcol] = -red[prow][free]
        basis.append(tuple(v))
    return basis


big = st.integers(10**30, 10**40) | st.integers(-(10**40), -(10**30))
entries = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Q, big, st.integers(1, 10**6)),
    st.builds(Q, st.integers(-9, 9), big.map(abs)),
)
shaped = st.tuples(st.integers(0, 5), st.integers(0, 6)).flatmap(
    lambda rc: st.tuples(
        st.lists(
            st.one_of(
                st.lists(entries, min_size=rc[1], max_size=rc[1]),
                st.just([Q(0)] * rc[1]),
            ),
            min_size=rc[0],
            max_size=rc[0],
        ),
        st.just(rc[1]),
    )
)


def sparse_twin(rows, cols):
    """`Matrix.from_sparse` of dense rows with their zero values left out, as
    its precondition asks; an all-zero row becomes an empty dict."""
    return Matrix.from_sparse([{j: Q(x) for j, x in enumerate(r) if x} for r in rows], cols)


@settings(max_examples=200, deadline=None)
@given(shaped)
@example(([], 0))
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[-2, 4, Q(-1, 3)], [10**31, -(10**32), 7], [1, -2, Q(1, 6)]], 3))
def test_kernel_matches_dense_reference(case):
    rows, cols = case
    red, pivots = reference_rref(rows, cols)
    null_ref = reference_nullspace(red, pivots, cols)
    m = Matrix(rows, cols=cols)
    twin = sparse_twin(rows, cols)
    # arithmetic, equality and hashing never build a dense view of the
    # matrix or its rref: `Matrix.data` hands its own sparse rows to
    # `linalg._dense_rows`
    with mock.patch.object(linalg, "_dense_rows", wraps=linalg._dense_rows) as densify:
        assert twin.rref().pivot_columns() == pivots and nullspace_basis(twin) == null_ref
        # the sparse kernel vectors are the dense ones with their zeros left out
        assert sparse_nullspace_basis(twin) == [{j: x for j, x in enumerate(v) if x}
                                                 for v in null_ref]
        assert twin.is_zero() == (not pivots)
        assert twin == m and hash(twin) == hash(m)
        assert transpose(twin) == transpose(m)
    densified = [c.args[0] for c in densify.call_args_list]
    assert not any(r is a.sparse_rows for r in densified for a in (twin, twin.rref(), m))
    for a in (m, twin):
        assert a.data == m.data == tuple(tuple(Q(x) for x in r) for r in rows)
        assert a == m and hash(a) == hash(m)
        t = transpose(a)
        assert (t.rows, t.cols) == (cols, len(rows)) and transpose(t) == m
        # entries must be exact Fractions, in a lazily built dense view too
        assert all(type(x) is Q for r in a.data + a.rref().data + t.data for x in r)
        assert a.rref().data == red
        assert a.rref().rows == len(rows) and a.rref().cols == cols
        assert a.pivot_columns() == pivots
        assert a.rank() == len(pivots)
        assert a.is_zero() == (not pivots)
        null = nullspace_basis(a)
        assert null == null_ref
        for v in null:
            assert all(x == 0 for x in mul_vec(a, v))
    # span_rref: the reference rref without its zero rows, already its own rref
    span = span_rref(rows, cols)
    assert span.data == red[: len(pivots)] and span.cols == cols
    assert span.pivot_columns() == pivots
    assert span.rref() is span
    assert all(type(x) is Q for r in span.data for x in r)


huge = st.integers(10**60, 10**70) | st.integers(-(10**70), -(10**60))
int_entries = st.one_of(
    st.just(0), st.integers(-6, 6), st.sampled_from([2, -3, 6, 12, -30]), huge)
# rows of c columns, then rows that are integer combinations a*r_i + b*r_j
# of those, which lie in their span and cancel over several steps
int_row_cases = st.integers(1, 7).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(int_entries, min_size=c, max_size=c), max_size=9),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                           st.sampled_from([1, -1, 2, 3, -4, 10**61]),
                           st.sampled_from([1, -2, 5, -(10**62)])), max_size=4),
    )
)


@settings(max_examples=300, deadline=None)
@given(int_row_cases)
@example(([[6, 4, 10**61], [4, 6, 0], [3, 0, -9]], [(0, 1, 3, -2)]))
@example(([[2, 3], [3, 2], [0, 5]], [(0, 1, 2, 5)]))
def test_forward_step_keeps_its_input_and_stores_primitive_rows(case):
    """`extend_integer_echelon` never changes a row handed in and stores
    every new pivot row primitive, led by its key.  Each return value says
    whether the row raised the rank of the rows before it, and the pivot
    keys, in order, are `rowwise_forward_echelon`'s; sorted they are the
    pivots of a dense Fraction rref of all the rows (`reference_rref`),
    and the stored rows span what the rows do."""
    base, combos = case
    cols = len(base[0]) if base else 0
    rows = [{j: x for j, x in enumerate(r) if x} for r in base]
    for i, j, a, b in combos:
        if base and rows[i % len(rows)]:
            combo = {}
            for r, f in ((rows[i % len(rows)], a), (rows[j % len(rows)], b)):
                for k, x in r.items():
                    combo[k] = combo.get(k, 0) + f * x
            rows.append({k: x for k, x in combo.items() if x})

    def dense(sparse):
        return [[r.get(j, 0) for j in range(cols)] for r in sparse]

    echelon: dict[int, dict[int, int]] = {}
    rank = 0
    for n, row in enumerate(rows, 1):
        before = list(row.items())
        grew = extend_integer_echelon(echelon, row)
        assert list(row.items()) == before
        prefix_rank = len(reference_rref(dense(rows[:n]), cols)[1])
        assert grew == (prefix_rank > rank) and len(echelon) == prefix_rank
        rank = prefix_rank
    assert list(echelon) == list(rowwise_forward_echelon(rows))
    red, pivots = reference_rref(dense(rows), cols)
    assert tuple(sorted(echelon)) == pivots
    assert reference_rref(dense(echelon.values()), cols)[0][: len(pivots)] == red[: len(pivots)]
    for c, r in echelon.items():
        assert min(r) == c and gcd(*r.values()) == 1
        assert all(type(x) is int for x in r.values())


# (columns, Fraction rows?, rows): each row a unit ("unit", column, value,
# denominator) or a longer row ("row", entries, denominator); a Fraction
# matrix divides each value by its row's denominator, an int one ignores it
unit_row_cases = st.integers(1, 6).flatmap(
    lambda c: st.tuples(
        st.just(c),
        st.booleans(),
        st.lists(st.one_of(
            st.tuples(st.just("unit"), st.integers(0, c - 1),
                      st.sampled_from([1, -1, 2, -3, 7, 10**40]), st.sampled_from([1, 2, 5])),
            st.tuples(st.just("row"),
                      st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -5, 3]), min_size=c, max_size=c),
                      st.sampled_from([1, 3, 4]))),
            max_size=10),
    )
)


@settings(max_examples=400, deadline=None)
@given(unit_row_cases)
@example((3, False, [("row", [1, 1, 0], 1), ("unit", 0, 1, 1)]))
@example((3, False, [("row", [1, 2, 0], 1), ("unit", 0, -3, 1), ("unit", 0, 1, 1)]))
@example((2, False, [("row", [2, 3], 1), ("unit", 0, 2, 1), ("unit", 1, -1, 1)]))
@example((3, True, [("unit", 1, 3, 2), ("row", [1, 1, 1], 3), ("unit", 1, -1, 5)]))
@example((2, False, [("unit", 1, -7, 1), ("row", [0, 1], 1), ("row", [1, 1], 1)]))
def test_unit_rows_first_match_the_row_by_row_step(case):
    """`_forward_echelon`, which takes the single-entry rows first and strips
    their columns from the longer rows, has the pivots of handing every row
    in turn to `extend_integer_echelon` (`rowwise_forward_echelon`), and
    back substituted, the same reduced rows up to the sign of each: int
    and Fraction units of +-1 and +-k, repeated units, a unit row after a
    longer row that holds its column, and rows stripped to empty.  Every
    stored row is a primitive int row, and no row handed in is changed."""
    cols, fractions, drawn = case
    rows = []
    for kind, *spec in drawn:
        if kind == "unit":
            c, x, d = spec
            rows.append({c: Q(x, d) if fractions else x})
        else:
            entries, d = spec
            rows.append({j: Q(x, d) if fractions else x for j, x in enumerate(entries) if x})
    before = [list(r.items()) for r in rows]
    got, want = _forward_echelon(rows), rowwise_forward_echelon(rows)
    assert [list(r.items()) for r in rows] == before
    keys = sorted(want)
    assert sorted(got) == keys
    assert all(type(x) is int for r in got.values() for x in r.values())
    assert all(gcd(*r.values()) == 1 for r in got.values())
    for r, s in zip(_back_substitute(got, keys), _back_substitute(want, keys)):
        assert r == s or r == {j: -x for j, x in s.items()}
    for c, r in got.items():
        assert min(r) == c


def divided_by_pivots(pivots, reduced):
    """Reduced integer rows divided by their values at their pivots."""
    return [{j: Q(x, row[c]) for j, x in row.items()} for c, row in zip(pivots, reduced)]


@settings(max_examples=200, deadline=None)
@given(shaped)
@example(([[-2, 4], [0, 0]], 2))
@example(([[0, -3, 6, 1], [5, 1, 0, -2], [5, -2, 6, -1]], 4))
@example(([[-2, 4, Q(-1, 3)], [10**31, -(10**32), 7], [1, -2, Q(1, 6)]], 3))
def test_elimination_builds_only_what_is_read(case):
    """Rank and pivots come from the forward integer echelon with no
    reduction and no Fraction rref; the nullspace reads the reduced integer
    rows and still builds no rref; those rows, divided by their pivot
    values (which may be negative), are the rref rows."""
    rows, cols = case
    red, pivots = reference_rref(rows, cols)
    m = sparse_twin(rows, cols)
    assert m.rank() == len(pivots) and m.pivot_columns() == pivots
    assert m._reduced is None and m._rref is None
    assert nullspace_basis(m) == reference_nullspace(red, pivots, cols)
    assert m._rref is None
    reduced = m.integer_rref_rows()
    assert len(reduced) == len(pivots)
    assert all(type(x) is int for row in reduced for x in row.values())
    assert all(gcd(*row.values()) == 1 and min(row) == c for c, row in zip(pivots, reduced))
    assert Matrix.from_sparse(divided_by_pivots(pivots, reduced), cols).data == red[: len(pivots)]
    assert m.rref().data == red
    assert nullspace_basis(m) == reference_nullspace(red, pivots, cols)
    # the integer kernel vectors are the Fraction ones scaled by their entry
    # at their free column
    free = [c for c in range(cols) if c not in pivots]
    kernel = m.integer_nullspace()
    assert [c for c, _ in kernel] == free
    assert all(w[c] > 0 and all(type(x) is int and x for x in w.values()) for c, w in kernel)
    assert [{j: Q(x, w[c]) for j, x in w.items()} for c, w in kernel] == sparse_nullspace_basis(m)


@settings(max_examples=200, deadline=None)
@given(shaped, st.data())
@example(([[0, -3, 6, 1], [5, 1, 0, -2], [5, -2, 6, -1]], 4), None)
def test_integer_nullspace_skip_filters_the_full_nullspace(case, data):
    """`integer_nullspace(skip=...)` is the full integer nullspace without
    the vectors of the skipped free columns; a skipped pivot column, or one
    out of range, changes nothing."""
    rows, cols = case
    full = sparse_twin(rows, cols).integer_nullspace()
    skip = {3} if data is None else data.draw(st.sets(st.integers(-1, cols)))
    assert sparse_twin(rows, cols).integer_nullspace(skip=skip) == [
        (c, w) for c, w in full if c not in skip]


@settings(max_examples=200, deadline=None)
@given(shaped)
@example(([], 0))
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[0, -3, 6, 1], [5, 1, 0, -2], [5, -2, 6, -1]], 4))
@example(([[1, 0, 2, 0, 5], [0, 1, 3, 0, 0]], 5))
def test_kernel_basis_is_the_rref_of_the_nullspace(case):
    """`kernel_basis` eliminates once, with the largest column leading, and
    returns what the two-elimination route returns, `rref_basis` of the
    nullspace basis: Fraction rows, each in column order, its own rref with
    the same pivots.  The rows scaled to ints, which keeps the kernel, give
    the same basis."""
    rows, cols = case
    m = sparse_twin(rows, cols)
    reference = rref_basis(Matrix.from_sparse(sparse_nullspace_basis(m), cols))
    kernel = kernel_basis(m.sparse_rows, cols)
    assert (kernel.rows, kernel.cols) == (reference.rows, cols)
    assert kernel.sparse_rows == reference.sparse_rows
    assert kernel.rref() is kernel and kernel.pivot_columns() == reference.pivot_columns()
    assert all(type(x) is Q for r in kernel.sparse_rows for x in r.values())
    assert all(list(r) == sorted(r) for r in kernel.sparse_rows)
    scaled = []
    for r in m.sparse_rows:
        den = lcm(1, *[x.denominator for x in r.values()])
        scaled.append({j: int(x * den) for j, x in r.items()})
    assert kernel_basis(scaled, cols).sparse_rows == reference.sparse_rows


@settings(max_examples=100, deadline=None)
@given(shaped)
@example(([[0, -3, 6, 1], [5, 1, 0, -2], [5, -2, 6, -1]], 4))
def test_reduction_leaves_the_forward_echelon_to_other_readers(case):
    """A matrix may be shared between threads: back substitution changes
    no row of the forward echelon another reader may hold, and a reader who
    finds the echelon already reduced and dropped returns the published
    rows."""
    rows, cols = case
    m = sparse_twin(rows, cols)
    m.pivot_columns()
    forward = m._echelon
    before = {c: dict(row) for c, row in forward.items()}
    reduced = m.integer_rref_rows()
    assert forward == before and m._echelon is None

    late = sparse_twin(rows, cols)
    pivot_columns = Matrix.pivot_columns
    first = {}

    def other_reader_finishes_first(self):
        if "started" not in first:
            first["started"] = True
            first["rows"] = Matrix.integer_rref_rows(self)
        return pivot_columns(self)

    with mock.patch.object(Matrix, "pivot_columns", other_reader_finishes_first):
        assert late.integer_rref_rows() == first["rows"] == reduced


@settings(max_examples=100, deadline=None)
@given(shaped)
@example(([[1, 0, 2, 0], [0, 1, 0, 0]], 4))
def test_own_rref_matrices_are_never_eliminated(case):
    """`span_rref` outputs and identities are their own rref and have no
    integer echelon: their nullspace and integer rows read their rows."""
    rows, cols = case
    red, pivots = reference_rref(rows, cols)
    span = span_rref(rows, cols)
    identity = Matrix.identity(cols)
    with mock.patch.object(Matrix, "_eliminate", side_effect=AssertionError("eliminated")):
        assert nullspace_basis(span) == reference_nullspace(red, pivots, cols)
        assert nullspace_basis(identity) == []
        assert divided_by_pivots(pivots, span.integer_rref_rows()) == list(span.sparse_rows)
        assert identity.integer_rref_rows() == tuple({c: 1} for c in range(cols))
        assert span.rank() == len(pivots) and span.rref() is span


def test_rref_product_is_the_rref_of_the_product():
    """An rref coefficient matrix C, from `kernel_basis` or `span_rref`,
    times an rref basis B is already the rref basis of C * B's row space,
    with B's pivots at C's pivot indices: `rref_product` equals
    `rref_basis` of the same product, row for row, and eliminates nothing.
    On seeded pairs with integer and fractional entries."""
    rng = random.Random(37)
    value = lambda: rng.choice((0, 0, 0, 1, -1, 2, Q(1, 2), Q(-3, 4), 7))
    checked = 0
    for _ in range(300):
        rank, cols = rng.randint(0, 6), rng.randint(0, 8)
        basis = span_rref([[value() for _ in range(cols)] for _ in range(rank)], cols)
        m = basis.rows
        rows = [[value() for _ in range(m)] for _ in range(rng.randint(0, m + 1))]
        dense = Matrix(rows, cols=m)
        for coeffs in (kernel_basis(dense.sparse_rows, m), span_rref(rows, m)):
            want = rref_basis(coeffs * basis)
            with mock.patch.object(Matrix, "_eliminate", side_effect=AssertionError("eliminated")):
                got = rref_product(coeffs, basis)
                assert got.rref() is got
                assert got.pivot_columns() == tuple(basis.pivot_columns()[i]
                                                    for i in coeffs.pivot_columns())
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got.sparse_rows == want.sparse_rows
            assert got.pivot_columns() == want.pivot_columns()
            assert all(type(x) is Q for r in got.sparse_rows for x in r.values())
            checked += got.rows > 1 and any(len(r) > 1 for r in got.sparse_rows)
    assert checked > 50


@settings(max_examples=100, deadline=None)
@given(shaped)
@example(([[1, 0, 2, 0], [0, 1, 0, 0]], 4))
def test_nullspace_zeros_are_the_shared_zero(case):
    rows, cols = case
    m = Matrix(rows, cols=cols)
    null = nullspace_basis(m)
    assert null == reference_nullspace(*reference_rref(rows, cols), cols)
    assert all(x is _ZERO for v in null for x in v if not x)


# -- the sparse product against a naive triple loop ----------------------------

def naive_product(a, b, inner, cols):
    return tuple(
        tuple(sum((r[k] * b[k][j] for k in range(inner)), Q(0)) for j in range(cols)) for r in a
    )


# zeros that are not the kernel's shared zero object, next to the other entries
product_entries = entries | st.integers(1, 9).map(lambda d: Q(0, d))


def dense_rows(nrows, ncols):
    return st.lists(st.lists(product_entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


product_cases = st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(dense_rows(s[0], s[1]), dense_rows(s[1], s[2]), st.just(s))
)


@settings(max_examples=200, deadline=None)
@given(product_cases)
@example(([], [], (0, 0, 0)))
@example(([], [[1, 2]], (0, 1, 2)))
@example(([[], []], [], (2, 0, 3)))
@example(([[1, 2]], [[], []], (1, 2, 0)))
@example(([[Q(0, 3), -(10**35)], [1, Q(-1, 2)]], [[Q(2, 7), 0], [10**31, Q(0, 5)]], (2, 2, 2)))
@example(([[1, 1], [2, Q(1, 2)]], [[1, 3], [-1, -12]], (2, 2, 2)))
def test_product_matches_naive_reference(case):
    a_rows, b_rows, (nrows, inner, ncols) = case
    want = naive_product(a_rows, b_rows, inner, ncols)
    for a in (Matrix(a_rows, cols=inner), sparse_twin(a_rows, inner)):
        for b in (Matrix(b_rows, cols=ncols), sparse_twin(b_rows, ncols)):
            p = a * b
            assert (p.rows, p.cols) == (nrows, ncols)
            assert p.is_zero() == (not any(any(r) for r in want))
            assert p.data == want
            assert all(type(x) is Q for r in p.data for x in r)
            # a product's rows hold no zero values, as `from_sparse` asks
            assert all(all(r.values()) for r in p.sparse_rows)


# -- the one sparse accumulate against a dense sum -----------------------------

# values that cancel often: few columns and small numerators
small_fraction = st.builds(Q, st.integers(-3, 3), st.integers(1, 2))
fraction_row = st.dictionaries(st.integers(0, 5), small_fraction.filter(bool), max_size=6)
int_row = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=6)
accumulate_cases = st.one_of(
    st.tuples(fraction_row, small_fraction, fraction_row),
    st.tuples(int_row, st.integers(-3, 3), int_row),
)


@settings(max_examples=300, deadline=None)
@given(accumulate_cases)
@example(({0: Q(1), 2: Q(-1, 2)}, Q(1, 2), {0: Q(-2), 2: Q(1), 3: Q(5)}))
@example(({1: 4}, 0, {1: -4}))
@example(({1: 4}, 2, {1: -2}))
def test_add_scaled_matches_a_dense_sum(case):
    row, a, terms = case
    before, dense = dict(row), [0] * 6
    for j, x in row.items():
        dense[j] += x
    for j, y in terms.items():
        dense[j] += a * y
    linalg.add_scaled(row, a, terms)
    assert row == {j: x for j, x in enumerate(dense) if x}
    assert all(row.values())
    if not a:
        assert row == before
    # the scalar type of the row is kept
    assert all(type(x) is type(a) for x in row.values())
