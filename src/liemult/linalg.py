"""Exact rational matrices, held as sparse rows: rank, rref, nullspace.

Scalars are `fractions.Fraction`, so every result is exact; there is no
rounding anywhere in the package.  A `Matrix` keeps one {column: Fraction}
dict per row, zeros dropped (`Matrix.sparse_rows`), and every arithmetic
method reads only those: elimination, products, `is_zero` and
`nullspace_basis`.  The dense rows (`Matrix.data`) are a view for callers
that index positions (subspaces, `transpose`, `column`, `mul_vec`, `==`
and `hash`): a matrix built from sparse rows densifies on the first read
of `data` and caches the result, and a matrix built from dense rows
derives its sparse rows once, on first use.

Elimination is fraction-free (after Bareiss): each row is cleared of
denominators into a {column: int} dict, reduced with integer combinations,
and only the final division by the pivots creates Fractions.  The reduced
row echelon form of a matrix is unique, so `rref`, `pivot_columns`, `rank`
and `nullspace_basis` (and everything derived from them, e.g. canonical
subspace bases) are canonical, whatever order the kernel eliminates in.
`extend_echelon` exposes the same reduction step for growing a span one
vector at a time, and `extend_integer_echelon` takes rows that are already
{column: int}.

`Matrix(...)` is the entry point for outside values: it coerces every entry
through `qf` and rejects floats.  Code here that already holds Fractions
builds matrices through the trusted `Matrix.from_sparse` ({column: Fraction}
rows) and `Matrix._of` (dense rows) instead, and products touch only the
nonzero entries of both factors, so sparse matrices cost in proportion to
their nonzeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Q = Fraction
_ZERO = Q(0)
_ONE = Q(1)

Vector = tuple[Fraction, ...]


def qf(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction, rejecting floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point input is not allowed in exact arithmetic")
    return Fraction(x)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)

def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row as {column: int}, scaled by the
    lcm of their denominators."""
    # Fraction keeps its lowest-terms value in the _numerator and _denominator
    # slots; reading them directly skips a Python-level call per entry, which
    # is most of the cost of scanning a dense row.  This needs every entry to
    # be an exact fractions.Fraction: Matrix.__init__ coerces through qf, and
    # the trusted constructors are only given Fractions, so both row forms of
    # every Matrix hold only Fractions (tests/test_linalg.py checks this).
    return _integer_terms([(j, x) for j, x in enumerate(row) if x._numerator])


def sparse_integer_row(terms: Mapping[int, Fraction]) -> dict[int, int]:
    """`_integer_row` of a sparse {column: Fraction} row; zero values are
    dropped."""
    return _integer_terms([(j, x) for j, x in terms.items() if x._numerator])


def _integer_terms(nonzero: list[tuple[int, Fraction]]) -> dict[int, int]:
    den = lcm(*[x._denominator for _, x in nonzero])
    return {j: x._numerator * (den // x._denominator) for j, x in nonzero}


def _primitive(w: dict[int, int]) -> dict[int, int]:
    g = gcd(*w.values())
    if g > 1:
        return {j: v // g for j, v in w.items()}
    return w


def extend_echelon(echelon: dict[int, dict[int, int]], row: Sequence[Fraction]) -> bool:
    """Reduce a rational row against `echelon`, primitive integer rows keyed by
    leading column.  If a nonzero remainder is left, add it as a new pivot row
    and return True; return False when the row lies in their span."""
    return extend_integer_echelon(echelon, _integer_row(row))


def extend_integer_echelon(echelon: dict[int, dict[int, int]], w: dict[int, int]) -> bool:
    """`extend_echelon` for a row already in {column: int} form."""
    w = _primitive(w)
    while w:
        c = min(w)
        p = echelon.get(c)
        if p is None:
            echelon[c] = w
            return True
        w = _cancel(w, p, c)
    return False


def _cancel(w: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """The primitive integer row a*w - b*p whose entry in column c is 0."""
    g = gcd(w[c], p[c])
    a, b = p[c] // g, w[c] // g
    out = dict(w) if a == 1 else {j: a * v for j, v in w.items()}
    for j, v in p.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _dense_rows(rows: Iterable[Mapping[int, Fraction]], cols: int) -> tuple[Vector, ...]:
    """{column: Fraction} rows as `cols`-long tuples; zeros are the shared
    _ZERO."""
    dense = []
    for r in rows:
        row = [_ZERO] * cols
        for j, x in r.items():
            row[j] = x
        dense.append(tuple(row))
    return tuple(dense)


class Matrix:
    """Immutable matrix over the rationals, held as sparse rows.

    The source of truth for arithmetic is one {column: Fraction} dict per
    row, zeros dropped (`sparse_rows`).  Elimination, products, `is_zero`
    and `nullspace_basis` read only those rows.  The dense rows (`data`, a
    tuple of `cols`-long tuples) are a view for callers that index
    positions; a matrix built from sparse rows builds it on first read and
    caches it, and a matrix built from dense rows derives its sparse rows
    once, on first use.
    """

    __slots__ = ("rows", "cols", "_data", "_sparse", "_rref", "_pivots")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(qf(x) for x in row) for row in data)
        if rows:
            cols_found = len(rows[0])
            if any(len(r) != cols_found for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != cols_found:
                raise ValueError("cols mismatch")
            cols = cols_found
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self._data = rows
        self._sparse: tuple[dict[int, Fraction], ...] | None = None
        self._rref: Matrix | None = None
        self._pivots: tuple[int, ...] | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _of(cls, data: tuple[Vector, ...], cols: int) -> "Matrix":
        """Trusted constructor: `data` is a tuple of `cols`-long tuples of
        Fractions, taken as is."""
        m = cls.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m._data = data
        m._sparse = None
        m._rref = None
        m._pivots = None
        return m

    @classmethod
    def from_sparse(cls, rows: Iterable[Mapping[int, Fraction]], cols: int) -> "Matrix":
        """Trusted constructor from {column: Fraction} rows; the values must
        be Fractions.  Zero values are dropped from nonempty rows, an empty
        row is taken as a fresh {}, and the dense view is not built."""
        m = cls.__new__(cls)
        m._sparse = tuple({j: x for j, x in r.items() if x._numerator} if r else {}
                          for r in rows)
        m.rows = len(m._sparse)
        m.cols = cols
        m._data = None
        m._rref = None
        m._pivots = None
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_sparse(({},) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(unit_vector(n, i) for i in range(n)), n)._own_rref(tuple(range(n)))

    def _own_rref(self, pivots: tuple[int, ...]) -> "Matrix":
        """Mark this matrix, known to be in rref with these pivots, as its own
        rref, so that it is never eliminated."""
        self._rref = self
        self._pivots = pivots
        return self

    # -- the two row forms ------------------------------------------------------

    @property
    def data(self) -> tuple[Vector, ...]:
        """The dense rows, built from the sparse ones on first read."""
        if self._data is None:
            self._data = _dense_rows(self._sparse, self.cols)
        return self._data

    @property
    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """The rows as {column: Fraction} with no zero values; shared with
        the matrix, so callers must not mutate them."""
        if self._sparse is None:
            self._sparse = tuple({j: x for j, x in enumerate(r) if x._numerator}
                                 for r in self._data)
        return self._sparse

    # -- basics ---------------------------------------------------------------

    def row(self, i: int) -> Vector:
        return self.data[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        # zip(*()) is empty, so a 0 x c matrix needs its c empty rows spelled out
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._of(data, self.rows)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Product over the nonzero entries of both factors."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        right = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            acc: dict[int, Fraction] = {}
            for k, a in r.items():
                for j, b in right[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(acc)
        return Matrix.from_sparse(out, other.cols)

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        """Product over the nonzero entries of v: rows x nnz(v) work."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        nonzero = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for r in self.data:
            acc = _ZERO
            for j, b in nonzero:
                a = r[j]
                if a:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    # -- elimination ----------------------------------------------------------

    def _eliminate(self) -> None:
        """Gauss-Jordan on primitive integer rows, keyed by leading column."""
        echelon: dict[int, dict[int, int]] = {}
        for row in self.sparse_rows:
            if row:
                extend_integer_echelon(echelon, sparse_integer_row(row))
        pivots = sorted(echelon)
        # Back substitution, last pivot first: each pivot row is already free
        # of every later pivot column when it is used.
        for k in range(len(pivots) - 1, 0, -1):
            c = pivots[k]
            p = echelon[c]
            for lead in pivots[:k]:
                w = echelon[lead]
                if c in w:
                    echelon[lead] = _cancel(w, p, c)
        reduced = []
        for c in pivots:
            p = echelon[c]
            pv = p[c]
            reduced.append({j: Q(v, pv) for j, v in p.items()})
        reduced.extend({} for _ in range(self.rows - len(pivots)))
        self._pivots = tuple(pivots)
        self._rref = Matrix.from_sparse(reduced, self.cols)._own_rref(self._pivots)

    def rref(self) -> "Matrix":
        if self._rref is None:
            self._eliminate()
        return self._rref

    def pivot_columns(self) -> tuple[int, ...]:
        if self._pivots is None:
            self._eliminate()
        return self._pivots

    def rank(self) -> int:
        return len(self.pivot_columns())

    def nullspace_basis(self) -> list[Vector]:
        """Basis of {v : self @ v = 0}, one vector per free column."""
        return list(_dense_rows(self.sparse_nullspace_basis(), self.cols))

    def sparse_nullspace_basis(self) -> list[dict[int, Fraction]]:
        """`nullspace_basis` as {column: Fraction} vectors with no zero
        values, in the same order."""
        pivots = self.pivot_columns()
        # a free column's vector is 1 there and -x at the pivot column of each
        # rref row with x in that free column; an rref row is zero at every
        # other pivot column, so its off-pivot entries all sit in free columns
        vectors = {c: {c: _ONE} for c in range(self.cols)}
        for pcol, row in zip(pivots, self.rref().sparse_rows):
            del vectors[pcol]
            for j, x in row.items():
                if j != pcol:
                    vectors[j][pcol] = -x
        return list(vectors.values())


def span_rref(vectors: Iterable[Sequence], cols: int) -> Matrix:
    """Canonical (rref, no zero rows) basis matrix for a span of vectors.

    The result is its own rref, so it is never eliminated again.  It is
    built dense: its callers, the subspaces, read their basis by position."""
    rows = []
    for v in vectors:
        row = tuple(qf(x) for x in v)
        if len(row) != cols:
            raise ValueError(f"vector of length {len(row)} in a span of width {cols}")
        rows.append(row)
    m = Matrix._of(tuple(rows), cols)
    pivots = m.pivot_columns()
    return Matrix._of(_dense_rows(m.rref().sparse_rows[: len(pivots)], cols), cols)._own_rref(pivots)
