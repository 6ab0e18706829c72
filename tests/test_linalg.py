"""Exact linear algebra kernel: examples and algebraic properties."""

from fractions import Fraction as Q

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from liemult.core import format_rational
from liemult.linalg import _ZERO, Matrix, span_rref


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_rank_zero():
    assert Matrix.zero(2, 2).rank() == 0


def test_rank_dependent_rows():
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_identity_empty():
    assert Matrix.identity(2).nullspace_basis() == []


def test_nullspace_difference():
    (v,) = Matrix([[1, -1]]).nullspace_basis()
    assert v[0] == v[1] != 0


def test_nullspace_dependent():
    m = Matrix([[1, 2], [2, 4]])
    (v,) = m.nullspace_basis()
    assert m.mul_vec(v) == (0, 0)
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
    assert a.transpose().transpose() == a


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (2, 0)])
def test_transpose_empty_shapes(rows, cols):
    m = Matrix([[]] * rows, cols=0) if cols == 0 else Matrix([], cols=cols)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.data == ((),) * cols
    assert t.transpose() == m


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
    assert m.rank() + len(m.nullspace_basis()) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_transpose(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate(m):
    for v in m.nullspace_basis():
        assert all(x == 0 for x in m.mul_vec(v))


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
    """`Matrix.from_sparse` of dense rows, with explicit zero values (Q(0, 3))
    at the odd zero columns and the even all-zero rows as empty dicts."""
    sparse = []
    for i, r in enumerate(rows):
        if i % 2 == 0 and not any(r):
            sparse.append({})
        else:
            sparse.append({j: Q(x) if x else Q(0, 3) for j, x in enumerate(r) if x or j % 2})
    return Matrix.from_sparse(sparse, cols)


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
    # arithmetic on the sparse form never builds its dense view
    assert twin.rref().pivot_columns() == pivots and twin.nullspace_basis() == null_ref
    # the sparse kernel vectors are the dense ones with their zeros left out
    assert twin.sparse_nullspace_basis() == [{j: x for j, x in enumerate(v) if x}
                                             for v in null_ref]
    assert twin.is_zero() == (not pivots) and twin._data is None
    for a in (m, twin):
        assert a.data == m.data == tuple(tuple(Q(x) for x in r) for r in rows)
        assert a == m and hash(a) == hash(m)
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, len(rows)) and t.transpose() == m
        # the kernel reads Fraction's slots directly, so entries must be exact
        # Fractions, in a lazily built dense view too
        assert all(type(x) is Q for r in a.data + a.rref().data + t.data for x in r)
        assert a.rref().data == red
        assert a.rref().rows == len(rows) and a.rref().cols == cols
        assert a.pivot_columns() == pivots
        assert a.rank() == len(pivots)
        assert a.is_zero() == (not pivots)
        null = a.nullspace_basis()
        assert null == null_ref
        for v in null:
            assert all(x == 0 for x in a.mul_vec(v))
    # span_rref: the reference rref without its zero rows, already its own rref
    span = span_rref(rows, cols)
    assert span.data == red[: len(pivots)] and span.cols == cols
    assert span.pivot_columns() == pivots
    assert span.rref() is span
    assert all(type(x) is Q for r in span.data for x in r)


@settings(max_examples=100, deadline=None)
@given(shaped)
@example(([[1, 0, 2, 0], [0, 1, 0, 0]], 4))
def test_nullspace_zeros_are_the_shared_zero(case):
    rows, cols = case
    m = Matrix(rows, cols=cols)
    null = m.nullspace_basis()
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
