"""Exact rational matrices, held as sparse rows: rank, rref, nullspace.

Scalars are exact, Python ints or `fractions.Fraction`s, so every result
is exact; there is no rounding anywhere in the package.  A `Matrix` holds
one row form: one {column: value} dict per row, zeros dropped
(`Matrix.sparse_rows`), and one value type: all of a matrix is int or all
of it is Fraction.  The cochain matrices of an algebra whose structure
constants are all integral are int matrices; subspace bases, rrefs and
kernels are Fraction ones.  Equal values compare and hash equal across
the two types (Fraction(3) == 3), so `==` and `hash` do not see the type.
Every method reads only those rows: elimination, products, `is_zero`,
`sparse_nullspace_basis`, `==` and `hash`.
`Matrix.data`, the dense rows, is built from them on each read for
callers that index positions, and is not kept.

Every sparse {column: value} row the package builds holds no zero values
from where it is made: sums of rows go through one accumulate, `add_scaled`,
which deletes an entry that cancels.  So no row is filtered afterwards, and
`Matrix.from_sparse` keeps the rows it is handed without a copy.
The tuples built on every elimination (and by `core` on every algebra's
key and series) are made from lists, not from generators:
`tuple(generator)` grows and then shrinks its tuple, and CPython's tuple
free lists keep such a tuple, once freed, until the next full garbage
collection.

Elimination is fraction-free (after Bareiss): each row is reduced as a
{column: int} dict with integer combinations, an int row as it is and a
Fraction row once cleared of its denominators (`sparse_integer_row`).
Its products are built lazily, each from the one before and only when
something reads it:

* the forward echelon, primitive integer rows keyed by leading column,
  gives `pivot_columns` and `rank`, with no back substitution and no
  Fraction;
* the reduced integer echelon (`integer_rref_rows`), one primitive row per
  pivot and zero at every other pivot column, is back substituted from it
  and gives the nullspace in integers (`integer_nullspace`), each kernel
  vector scaled by the lcm of the pivot values it meets, built only for the
  free columns its caller does not skip; divided by its entry at its free
  column it is a `sparse_nullspace_basis` vector;
* the Fraction `rref`, each reduced row divided by its pivot value, is
  built from that for the callers that read it, such as subspace bases.

A matrix that is its own rref (`Matrix.identity`, `rref_basis` outputs)
has no echelon: its products read its rows.  The reduced row echelon form
of a matrix is unique, so `rref`, `pivot_columns`, `rank` and
`sparse_nullspace_basis` (and everything derived from them, e.g.
canonical subspace bases) are canonical, whatever order the kernel
eliminates in; the reduced integer rows are the rref rows up to a nonzero
integer factor each.  `extend_integer_echelon` exposes the forward
reduction step for growing a span one {column: int} row at a time.

`rref_basis` turns a matrix into the canonical basis of its row space,
held as sparse rows: its rref without the zero rows.  Subspaces are built
by it; `span_rref` is `rref_basis` of `Matrix(vectors, cols)`, the one
path for dense vectors from outside.

`Matrix(...)` is the entry point for outside values: it coerces every entry
through `qf` to a Fraction, rejects floats and ragged rows, and keeps the
nonzero entries.  Code here that already holds exact values builds
matrices through the trusted `Matrix.from_sparse` ({column: value} rows of
one type) instead, and products touch only the nonzero entries of both
factors, so sparse matrices cost in proportion to their nonzeros; the
product of two int matrices is an int matrix, any other a Fraction one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Container, Iterable, Mapping, Sequence

Q = Fraction
_ZERO = Q(0)
_ONE = Q(1)

Vector = tuple[Fraction, ...]
# The value type of a matrix built by `Matrix.from_sparse`: all of one matrix
# is int or all of it is Fraction.
Scalar = Fraction | int

# `Matrix._rref` of a matrix that is its own rref.  A reference to the
# matrix itself would make it a reference cycle, freed only by the cyclic
# garbage collector instead of when its last user lets it go.
_OWN = object()


def qf(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction, rejecting floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floating point input is not allowed in exact arithmetic")
    return Fraction(x)


def add_scaled(row: dict, a, terms: Mapping) -> None:
    """row += a * terms, in place, deleting every entry that cancels: the one
    sparse accumulate of the package, for Fraction and int rows alike.

    terms must hold no zero values; then a row with no zero values keeps
    none.  A zero a leaves row as it is."""
    if a:
        for j, y in terms.items():
            x = row[j] + a * y if j in row else a * y
            if x:
                row[j] = x
            else:
                del row[j]


def sparse_integer_row(terms: Mapping[int, Scalar]) -> dict[int, int]:
    """A row with no zero values as {column: int}: an int row as it is, a
    Fraction row scaled by the lcm of its denominators."""
    # A matrix holds one value type (see `Matrix.from_sparse`), so the first
    # value tells the row's.  Fraction keeps its lowest-terms value in the
    # _numerator and _denominator slots; reading them directly skips a
    # Python-level call per entry.  A row that mixes the two types fails
    # here or in the elimination (gcd takes ints only), never silently;
    # tests/test_verify.py checks the contract on every row the package builds.
    for x in terms.values():
        if type(x) is int:
            return terms
        break
    den = lcm(*[x._denominator for x in terms.values()])
    return {j: x._numerator * (den // x._denominator) for j, x in terms.items()}


def _primitive(w: dict[int, int]) -> dict[int, int]:
    g = gcd(*w.values())
    if g > 1:
        return {j: v // g for j, v in w.items()}
    return w


def extend_integer_echelon(echelon: dict[int, dict[int, int]], w: dict[int, int]) -> bool:
    """Reduce a {column: int} row against `echelon`, primitive integer rows
    keyed by leading column.  If a nonzero remainder is left, add it as a new
    pivot row and return True; return False when the row lies in their
    span."""
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
    add_scaled(out, -b, p)
    return _primitive(out)


def _dense_rows(rows: Iterable[Mapping[int, Scalar]], cols: int) -> tuple[Vector, ...]:
    """{column: value} rows as `cols`-long tuples; zeros are the shared
    Fraction _ZERO."""
    dense = []
    for r in rows:
        row = [_ZERO] * cols
        for j, x in r.items():
            row[j] = x
        dense.append(tuple(row))
    return tuple(dense)


class Matrix:
    """Immutable matrix over the rationals, held as sparse rows.

    `sparse_rows` holds one {column: value} dict per row, zeros dropped,
    every value of one type, int or Fraction, and is the only row form:
    every method reads it.  `data`, a tuple of
    `cols`-long tuples, is built from it on each read for callers that
    index positions.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_pivots", "_echelon", "_reduced", "_rref")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = [[qf(x) for x in row] for row in data]
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
        self.sparse_rows: tuple[dict[int, Scalar], ...] = tuple(
            {j: x for j, x in enumerate(r) if x._numerator} for r in rows)
        self._pivots: tuple[int, ...] | None = None
        self._echelon: dict[int, dict[int, int]] | None = None
        self._reduced: tuple[dict[int, int], ...] | None = None
        self._rref: Matrix | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_sparse(cls, rows: Iterable[Mapping[int, Scalar]], cols: int) -> "Matrix":
        """Trusted constructor from {column: value} rows with no zero values,
        all of one type: every value an int, or every value a Fraction.
        The rows are kept as given, not copied, so the caller hands them
        over and never changes them again."""
        m = cls.__new__(cls)
        m.sparse_rows = tuple(rows)
        m.rows = len(m.sparse_rows)
        m.cols = cols
        m._pivots = None
        m._echelon = None
        m._reduced = None
        m._rref = None
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_sparse(({},) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_sparse([{i: _ONE} for i in range(n)], n)._own_rref(tuple(range(n)))

    def _own_rref(self, pivots: tuple[int, ...]) -> "Matrix":
        """Mark this matrix, known to be in rref with these pivots, as its own
        rref, so that it is never eliminated."""
        self._rref = _OWN
        self._pivots = pivots
        return self

    # -- basics ---------------------------------------------------------------

    @property
    def data(self) -> tuple[Vector, ...]:
        """The dense rows, built from the sparse ones on each read."""
        return _dense_rows(self.sparse_rows, self.cols)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self) -> int:
        # a row's hash must not depend on its dict's insertion order
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

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
            acc: dict[int, Scalar] = {}
            for k, a in r.items():
                add_scaled(acc, a, right[k])
            out.append(acc)
        return Matrix.from_sparse(out, other.cols)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    # -- elimination ----------------------------------------------------------

    def _eliminate(self) -> None:
        """Forward elimination: primitive integer rows keyed by leading
        column, not yet reduced above their pivots."""
        echelon: dict[int, dict[int, int]] = {}
        for row in self.sparse_rows:
            if row:
                extend_integer_echelon(echelon, sparse_integer_row(row))
        self._echelon = echelon
        self._pivots = tuple(sorted(echelon))

    def pivot_columns(self) -> tuple[int, ...]:
        if self._pivots is None:
            self._eliminate()
        return self._pivots

    def rank(self) -> int:
        return len(self.pivot_columns())

    def integer_rref_rows(self) -> tuple[dict[int, int], ...]:
        """The reduced integer echelon: one primitive {column: int} row per
        pivot, in pivot order, zero at every other pivot column.  Divided by
        its value at its pivot, which may be negative, a row is the rref
        row.

        Threads may share a matrix: each back substitutes into its own copy
        of the forward echelon, and the forward echelon is dropped only
        after the reduced rows are published."""
        reduced = self._reduced
        if reduced is None:
            pivots = self.pivot_columns()
            if self._rref is _OWN:
                # its own rref, never eliminated: no forward echelon
                reduced = tuple([sparse_integer_row(r) for r in self.sparse_rows[: len(pivots)]])
            else:
                forward = self._echelon
                if forward is None:
                    # another thread has reduced it since the check above
                    return self._reduced
                echelon = dict(forward)
                # Back substitution, last pivot row first: each row cancels
                # the later pivot columns it holds (the echelon's keys),
                # largest first, with rows already reduced.  A reduced row
                # is zero at every other pivot column, so a cancellation
                # brings in none, and only the row's own entries are
                # scanned, not every later pivot.
                for k in range(len(pivots) - 2, -1, -1):
                    lead = pivots[k]
                    w = echelon[lead]
                    later = [c for c in w if c in echelon]
                    if len(later) > 1:
                        later.sort(reverse=True)
                        later.pop()  # lead, the row's smallest column
                        for c in later:
                            w = _cancel(w, echelon[c], c)
                        echelon[lead] = w
                reduced = tuple([echelon[c] for c in pivots])
            self._reduced = reduced
            self._echelon = None
        return reduced

    def rref(self) -> "Matrix":
        if self._rref is None:
            pivots = self.pivot_columns()
            reduced = []
            for c, p in zip(pivots, self.integer_rref_rows()):
                pv = p[c]
                reduced.append({j: Q(v, pv) for j, v in p.items()})
            reduced.extend({} for _ in range(self.rows - len(pivots)))
            self._rref = Matrix.from_sparse(reduced, self.cols)._own_rref(pivots)
        return self if self._rref is _OWN else self._rref

    def integer_nullspace(self, skip: Container[int] = ()) -> list[tuple[int, dict[int, int]]]:
        """The nullspace in integers: per free column c not in `skip`, in
        column order, (c, w), w the kernel vector of c as a {column: int} row
        with no zero values and w[c] > 0.  Divided by w[c], w is the rref
        kernel vector: 1 at c and -x/pv at the pivot column of each reduced
        row with x at c and pv at its pivot; w[c] is the lcm of those pv.
        A skipped column's vector is not built."""
        pivots = self.pivot_columns()
        # (pivot column, x, pv) of each reduced row meeting a free column not
        # skipped; a reduced row is zero at every other pivot column, so its
        # off-pivot entries all sit in free columns
        meets: dict[int, list[tuple[int, int, int]]] = {
            c: [] for c in range(self.cols) if c not in skip}
        for pcol in pivots:
            meets.pop(pcol, None)
        for pcol, row in zip(pivots, self.integer_rref_rows()):
            pv = row[pcol]
            for j, x in row.items():
                entries = meets.get(j)
                if entries is not None:
                    entries.append((pcol, x, pv))
        kernel = []
        for c, entries in meets.items():
            den = lcm(1, *[pv for _, _, pv in entries])
            w = {c: den}
            for pcol, x, pv in entries:
                w[pcol] = -x * (den // pv)
            kernel.append((c, w))
        return kernel

    def sparse_nullspace_basis(self) -> list[dict[int, Fraction]]:
        """Basis of {v : self @ v = 0}, one {column: Fraction} vector with no
        zero values per free column, in column order: `integer_nullspace`
        divided by each vector's entry at its free column."""
        return [{j: Q(v, w[c]) for j, v in w.items()} for c, w in self.integer_nullspace()]


def rref_basis(m: Matrix) -> Matrix:
    """Canonical (rref, no zero rows) basis matrix of m's row space, held as
    sparse rows; one elimination of m.

    The result is its own rref, so it is never eliminated again.  When m's
    rows are independent, m's rref is that basis already and is returned as
    is."""
    pivots = m.pivot_columns()
    rref = m.rref()
    if rref.rows == len(pivots):
        return rref
    return Matrix.from_sparse(rref.sparse_rows[: len(pivots)], m.cols)._own_rref(pivots)


def span_rref(vectors: Iterable[Sequence], cols: int) -> Matrix:
    """`rref_basis` of a span of dense vectors from outside: `Matrix`
    coerces each entry through `qf` and rejects a vector whose length is
    not `cols` (ValueError)."""
    return rref_basis(Matrix(vectors, cols))
