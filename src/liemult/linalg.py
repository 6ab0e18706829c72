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
the nullspace, `==` and `hash`.
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
Fraction row once cleared of its denominators (`sparse_integer_row`), the
type of each read inline off its first value.  Every elimination enters
through one forward pass, `_forward_echelon`, which takes the
single-entry (unit) rows first, as structured sparse elimination does:
each is the pivot {c: +-1} with no elimination step, a repeated one is
dropped, and the longer rows, stripped of the unit columns, go one by one
to the forward step (`extend_integer_echelon`), which makes a row
primitive and cancels it against the pivot row at its leading column
with `_cancel`, the one integer cancellation, which back substitution
uses too.  Most rows of d2 have one entry, so most of its pivots cost no
step.  The products are built lazily, each from the one before and only
when something reads it:

* the forward echelon, primitive integer rows keyed by leading column,
  gives `pivot_columns` and `rank`, with no back substitution and no
  Fraction;
* the reduced integer echelon (`integer_rref_rows`), one primitive row per
  pivot and zero at every other pivot column, is back substituted from it
  and gives the nullspace in integers (`integer_nullspace`), each kernel
  vector scaled by the lcm of the pivot values it meets (a free column no
  reduced row meets gets {c: 1}), built only for the free columns its
  caller does not skip; divided by its entry at its free column it is a
  vector of the rref kernel basis;
* the Fraction `rref`, each reduced row divided by its pivot value, is
  built from that for the callers that read it, such as subspace bases.

A kernel's canonical basis, as the centre and the central series read
it, comes from `kernel_basis`: one elimination of a stack of rows with
the largest column leading, whose kernel vectors are already the rref
rows of the kernel, so no second elimination runs.  Combining an rref
basis by such kernel rows gives an rref matrix again (`rref_product`), so
an intersection or an image read that way is not eliminated either.

A matrix that is its own rref (`Matrix.identity`, the outputs of
`rref_basis`, `kernel_basis` and `rref_product`) has no echelon: its
products read its rows.  The reduced row echelon form
of a matrix is unique, so `rref`, `pivot_columns`, `rank`, `kernel_basis`
and the rref kernel vectors (and everything derived from them, e.g.
canonical subspace bases) are canonical, whatever order the kernel
eliminates in (units first or not); the reduced integer rows are the rref
rows up to a nonzero integer factor each, primitive, so fixed up to sign.
`extend_integer_echelon` exposes the forward reduction step for growing a
span one {column: int} row at a time.

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
    # A row holds one value type (see `Matrix.from_sparse`), so its first
    # value tells its type.  A row that mixes the two types fails here or
    # in the elimination (gcd takes ints only), or cancels exactly: never a
    # wrong result.  tests/test_verify.py checks the contract on every row
    # the package builds.
    for x in terms.values():
        if type(x) is int:
            return terms
        break
    den = lcm(*[x.denominator for x in terms.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in terms.items()}


def _primitive(w: dict[int, int]) -> dict[int, int]:
    g = gcd(*w.values())
    if g > 1:
        return {j: v // g for j, v in w.items()}
    return w


def _cancel(w: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """The primitive integer row a*w - b*p whose entry in column c is 0."""
    g = gcd(w[c], p[c])
    a, b = p[c] // g, w[c] // g
    out = dict(w) if a == 1 else {j: a * v for j, v in w.items()}
    add_scaled(out, -b, p)
    return _primitive(out)


def extend_integer_echelon(echelon: dict[int, dict[int, int]], w: dict[int, int]) -> bool:
    """Reduce a {column: int} row against `echelon`, primitive integer rows
    keyed by leading column.  If a nonzero remainder is left, add it as a
    new pivot row and return True; return False when the row lies in their
    span.  The row is made primitive, then cancelled (`_cancel`, a new row
    each step) against the pivot row at its leading column until it leads
    a column with no pivot or vanishes; `w` is not changed."""
    w = _primitive(w)
    while w:
        c = min(w)
        p = echelon.get(c)
        if p is None:
            echelon[c] = w
            return True
        w = _cancel(w, p, c)
    return False


def _forward_echelon(rows: Iterable[Mapping[int, Scalar]]) -> dict[int, dict[int, int]]:
    """The forward echelon of {column: value} rows, each with no zero values
    and all of one type: primitive integer rows keyed by leading column,
    unit rows first.

    A row with one entry at c puts e_c in the span, so it becomes the pivot
    {c: +-1}: the row itself when it is an int +-1 row, else a new one of
    its sign.  A later unit row at c is dependent and dropped.  Every other
    row, stripped of the unit columns (a copy only when it meets one), is
    cleared of denominators when it is a Fraction row and handed to
    `extend_integer_echelon`; a stripped row meets no unit pivot, so the
    longer rows are eliminated among themselves.  The pivots are those of
    eliminating the rows one by one; each row of the reduced echelon is the
    same up to its sign."""
    units: dict[int, dict[int, int]] = {}
    longer = []
    for row in rows:
        if row:
            if len(row) == 1:
                [(c, x)] = row.items()
                if c not in units:
                    unit = type(x) is int and (x == 1 or x == -1)
                    units[c] = row if unit else {c: 1 if x > 0 else -1}
            else:
                longer.append(row)
    echelon: dict[int, dict[int, int]] = {}
    unit_columns = units.keys()
    for row in longer:
        if not unit_columns.isdisjoint(row):
            row = {j: x for j, x in row.items() if j not in units}
            if not row:
                continue
        for x in row.values():
            break
        extend_integer_echelon(echelon, row if type(x) is int else sparse_integer_row(row))
    units.update(echelon)
    return units


def _back_substitute(forward: dict[int, dict[int, int]], keys: Sequence[int]) -> tuple[dict[int, int], ...]:
    """The reduced integer echelon of a forward echelon whose keys, sorted,
    are `keys`: one primitive row per key, in key order, zero at every other
    key.  `forward` is not changed.

    Last pivot row first, each row cancels the later keys it holds, largest
    first, with rows already reduced.  A reduced row is zero at every other
    key, so a cancellation brings in none, and only the row's own entries
    are scanned, not every later key."""
    echelon = dict(forward)
    for k in range(len(keys) - 2, -1, -1):
        lead = keys[k]
        w = echelon[lead]
        later = [c for c in w if c in echelon]
        if len(later) > 1:
            later.sort(reverse=True)
            later.pop()  # lead, the row's smallest key
            for c in later:
                w = _cancel(w, echelon[c], c)
            echelon[lead] = w
    return tuple([echelon[c] for c in keys])


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
            {j: x for j, x in enumerate(r) if x} for r in rows)
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
        echelon = _forward_echelon(self.sparse_rows)
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
                reduced = _back_substitute(forward, pivots)
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
            if entries:
                den = lcm(*[pv for _, _, pv in entries])
                w = {c: den}
                for pcol, x, pv in entries:
                    w[pcol] = -x * (den // pv)
            else:
                w = {c: 1}
            kernel.append((c, w))
        return kernel


def kernel_basis(rows: Iterable[Mapping[int, Scalar]], cols: int) -> Matrix:
    """The canonical (rref) basis of {v : r . v = 0 for every row r}, the
    kernel of the matrix of the {column: value} rows (no zero values, all of
    one type) in `cols` columns, read off one elimination with no Fraction
    until the basis is built.

    The rows are eliminated with the largest column leading (negated column
    keys, as `_forward_echelon` leads with the smallest, unit rows first)
    and back substituted.  A reduced row is then zero at every column
    greater than its pivot and at every other pivot, so the kernel vector
    v_c of a free column c is 1 at c, 0 at the other free columns, and
    nonzero only at pivots greater than c: v_c is already the rref row of
    the kernel with pivot c, and no second elimination is needed.  The result is its own
    rref, with those free columns as its pivots."""
    echelon = _forward_echelon({-j: x for j, x in row.items()} for row in rows)
    keys = sorted(echelon)
    reduced = _back_substitute(echelon, keys)
    # each free column's v_c, its entries in column order: c, then the
    # pivots from the smallest
    free: dict[int, dict[int, Fraction]] = {c: {c: _ONE} for c in range(cols)}
    for key in keys:
        del free[-key]
    for key, row in zip(reversed(keys), reversed(reduced)):
        pv = row[key]
        for j, x in row.items():
            if j != key:
                free[-j][-key] = Q(-x, pv)
    return Matrix.from_sparse(free.values(), cols)._own_rref(tuple(free))


def rref_product(coeffs: Matrix, basis: Matrix) -> Matrix:
    """coeffs * basis, marked as its own rref, with no elimination: the
    canonical basis of the span of those combinations of `basis`'s rows.

    The lemma: if C is an rref matrix with no zero rows (as `kernel_basis`
    returns it) and B is an rref basis, then C * B is in rref, and its
    pivots are B's pivots at C's pivot indices.  Row i of C is 1 at its
    pivot p_i, 0 before it and at every other pivot of C, so row i of
    C * B is b_{p_i} plus multiples of rows b_k with k > p_i that are no
    pivot of C.  Each b_k leads at a column past b_{p_i}'s pivot q_{p_i},
    and every row of B is zero at the other rows' pivots, so row i leads at
    q_{p_i} with a 1 and reads C[i, p_j] = 0 at q_{p_j} for j != i."""
    pivots = basis.pivot_columns()
    return (coeffs * basis)._own_rref(tuple([pivots[i] for i in coeffs.pivot_columns()]))


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
