"""Dense views and products of `liemult.linalg.Matrix` that only the tests use.

The package reads matrices through their sparse rows; these helpers give
the tests dense vectors and columns, transposes and kernels to check the
package against.
"""

from fractions import Fraction

from liemult.linalg import _ONE, _ZERO, Matrix, Vector, extend_integer_echelon, sparse_integer_row


def rowwise_forward_echelon(rows) -> dict[int, dict[int, int]]:
    """Each nonzero row, cleared of denominators if it is a Fraction row,
    handed to `linalg.extend_integer_echelon` in turn, unit rows and all:
    the reference `linalg._forward_echelon`, which takes unit rows first,
    is held to."""
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        if row:
            for x in row.values():
                break
            extend_integer_echelon(echelon, row if type(x) is int else sparse_integer_row(row))
    return echelon


def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def column(m: Matrix, j: int) -> Vector:
    return tuple(r.get(j, _ZERO) for r in m.sparse_rows)


def transpose(m: Matrix) -> Matrix:
    columns: list[dict[int, Fraction]] = [{} for _ in range(m.cols)]
    for i, r in enumerate(m.sparse_rows):
        for j, x in r.items():
            columns[j][i] = x
    return Matrix.from_sparse(columns, m.rows)


def mul_vec(m: Matrix, v) -> Vector:
    """m @ v over the nonzero entries of v and of each row."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch in matrix-vector product")
    nonzero = [(j, b) for j, b in enumerate(v) if b]
    return tuple(sum((r[j] * b for j, b in nonzero if j in r), _ZERO) for r in m.sparse_rows)


def sparse_nullspace_basis(m: Matrix) -> list[dict[int, Fraction]]:
    """Basis of {v : m @ v = 0}, one {column: Fraction} vector with no zero
    values per free column, in column order: `m.integer_nullspace()`
    divided by each vector's entry at its free column.  This is the rref
    basis of the kernel, the reference `linalg.kernel_basis` is checked
    against."""
    return [{j: Fraction(v, w[c]) for j, v in w.items()} for c, w in m.integer_nullspace()]


def nullspace_basis(m: Matrix) -> list[Vector]:
    """`sparse_nullspace_basis(m)` as dense vectors, in the same order."""
    return [tuple(v.get(j, _ZERO) for j in range(m.cols)) for v in sparse_nullspace_basis(m)]


def value_type(m: Matrix):
    """The one value type of m's rows, int or Fraction, or None when m has no
    nonzero entry: every value is nonzero and exact, and all of one type, as
    `Matrix.from_sparse` asks."""
    values = [x for r in m.sparse_rows for x in r.values()]
    assert all(values), m
    types = {type(x) for x in values}
    assert types <= {int, Fraction} and len(types) <= 1, types
    return types.pop() if types else None
