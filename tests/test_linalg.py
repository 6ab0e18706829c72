"""Exact linear algebra kernel: examples and algebraic properties."""

from fractions import Fraction as Q
from math import gcd
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from liemult.core import format_rational
from liemult import linalg
from liemult.linalg import _ZERO, Matrix, span_rref

from linalg_helpers import mul_vec, nullspace_basis, transpose


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
        assert twin.sparse_nullspace_basis() == [{j: x for j, x in enumerate(v) if x}
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
        # the kernel reads Fraction's slots directly, so entries must be exact
        # Fractions, in a lazily built dense view too
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
    assert [{j: Q(x, w[c]) for j, x in w.items()} for c, w in kernel] == m.sparse_nullspace_basis()


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
