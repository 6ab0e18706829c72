"""Exact rational dense matrices: rank, reduced row echelon form, nullspace.

Scalars are `fractions.Fraction`, so every result is exact; there is no
rounding anywhere in the package.  Elimination is sparse and fraction-free
(after Bareiss): each row is cleared of denominators into a {column: int}
dict, reduced with integer combinations, and only the final division by
the pivots creates Fractions.  The reduced row echelon form of a matrix is
unique, so `rref`, `pivot_columns`, `rank` and `nullspace_basis` (and
everything derived from them, e.g. canonical subspace bases) are canonical,
whatever order the kernel eliminates in.  `extend_echelon` exposes the same
reduction step for growing a span one vector at a time, and
`extend_integer_echelon` takes rows that are already {column: int}.

`Matrix(...)` is the entry point for outside values: it coerces every entry
through `qf` and rejects floats.  Code here that already holds Fractions
builds matrices through the trusted `Matrix._of` and `Matrix.from_sparse`
({column: Fraction} rows) instead, and products skip zero entries of both
factors, so sparse matrices cost in proportion to their nonzeros.
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
    # the trusted constructors are only given Fractions, so every Matrix.data
    # holds only Fractions (tests/test_linalg.py checks this).
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


class Matrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data", "_rref", "_pivots")

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
        self.data = rows
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
        m.data = data
        m._rref = None
        m._pivots = None
        return m

    @classmethod
    def from_sparse(cls, rows: Iterable[dict[int, Fraction]], cols: int) -> "Matrix":
        """Densify {column: Fraction} rows; the values must be Fractions."""
        data = []
        for r in rows:
            row = [_ZERO] * cols
            for j, x in r.items():
                row[j] = x
            data.append(tuple(row))
        return cls._of(tuple(data), cols)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(((_ZERO,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(unit_vector(n, i) for i in range(n)), n)._own_rref(tuple(range(n)))

    def _own_rref(self, pivots: tuple[int, ...]) -> "Matrix":
        """Mark this matrix, known to be in rref with these pivots, as its own
        rref, so that it is never eliminated."""
        self._rref = self
        self._pivots = pivots
        return self

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
        return (
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
        cols = other.cols
        right = [[(j, b) for j, b in enumerate(r) if b._numerator] for r in other.data]
        out = []
        for r in self.data:
            acc: dict[int, Fraction] = {}
            for k, a in enumerate(r):
                if a._numerator:
                    for j, b in right[k]:
                        acc[j] = acc.get(j, _ZERO) + a * b
            out.append(acc)
        return Matrix.from_sparse(out, cols)

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
        return not any(x._numerator for r in self.data for x in r)

    # -- elimination ----------------------------------------------------------

    def _eliminate(self) -> None:
        """Gauss-Jordan on primitive integer rows, keyed by leading column."""
        echelon: dict[int, dict[int, int]] = {}
        for row in self.data:
            extend_echelon(echelon, row)
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
        ncols = self.cols
        data = []
        for c in pivots:
            p = echelon[c]
            pv = p[c]
            row = [_ZERO] * ncols
            for j, v in p.items():
                row[j] = Q(v, pv)
            data.append(tuple(row))
        data.extend([(_ZERO,) * ncols] * (self.rows - len(pivots)))
        self._pivots = tuple(pivots)
        self._rref = Matrix._of(tuple(data), ncols)._own_rref(self._pivots)

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
        red = self.rref()
        pivots = self.pivot_columns()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [_ZERO] * self.cols
            v[free] = _ONE
            for prow, pcol in enumerate(pivots):
                x = red.data[prow][free]
                if x._numerator:  # zeros stay the shared _ZERO
                    v[pcol] = -x
            basis.append(tuple(v))
        return basis


def span_rref(vectors: Iterable[Sequence], cols: int) -> Matrix:
    """Canonical (rref, no zero rows) basis matrix for a span of vectors.

    The result is its own rref, so it is never eliminated again."""
    rows = []
    for v in vectors:
        row = tuple(qf(x) for x in v)
        if len(row) != cols:
            raise ValueError(f"vector of length {len(row)} in a span of width {cols}")
        rows.append(row)
    m = Matrix._of(tuple(rows), cols)
    pivots = m.pivot_columns()
    return Matrix._of(m.rref().data[: len(pivots)], cols)._own_rref(pivots)
