"""Nilpotent Lie algebras over Q given by sparse structure constants.

An algebra is a dimension n plus a table of basis brackets
[x_i, x_j] = sum_k c_{ij}^k x_k for i < j (0-based internally; the JSON
presentation format and all human-facing output are 1-based).  Outside
input is validated: a table given to `LieAlgebra` (a presentation, a
catalog table) is checked for the Jacobi identity on every basis triple and
for nilpotency of the lower central series, once per distinct table (a
fact in the memo below; a failing table raises each time).  Non-nilpotent
input is an error, not a supported case.  Algebras derived from validated ones are built trusted,
by theorem: a direct sum of nilpotent Lie algebras is one, and L/I is a
nilpotent Lie algebra whenever I is an ideal of a nilpotent L, with a
projection that is a homomorphism of full rank, so only `is_ideal` is
checked.  `quotient` returns L/I with the images pi(x_c) of L's basis
vectors as sparse rows, and builds no map object.  The stem covers of
`multiplier` are plain algebras, built trusted by the theorems stated
there; their projection is coordinate truncation.  The tests re-validate
every kind of trusted algebra.

The brackets meet the basis triples in one place, `wedge_rows`: one sweep
in which each stored [x_a, x_b] meets every third index c once, as one
term of the d2 row of sorted(a, b, c).  The Jacobi identity is d2 . d1 = 0,
and `check_jacobi` reads it off those rows; validation and
`multiplier.cochain_slice` both call it.  Both read the brackets through
`bracket_table`, the stored table with int constants when all of them are
integral, so the sweep of an integral table builds no Fraction.

Subspaces stay on {column: Fraction} rows from the stored brackets to
their canonical bases: `sparse_subspace` hands the rows to one
elimination (`linalg.rref_basis`).  `subspace` and `Subspace.contains`
take dense vectors from outside, coerce them through `qf` and check
their length; `subspace` ends in the same rref tail.  `Subspace.residue`
reduces a sparse row at the pivots where it is nonzero.  Every derived
fact of an algebra is kept in one memo (`_memoized`, keyed by the function
and the canonical brackets), which `multiplier` and `invariants` share and
`clear_caches()` empties; an algebra holds only its brackets and key.  The
bases of its full space, L^2, centre and central series are kept as
matrices, not as Subspaces, which name their ambient instance, and are
wrapped in a new Subspace on each read: an algebra is no reference cycle
and is freed as soon as its last user lets it go.

Both central series are built inside L, without quotient algebras.
Validation computes the lower series.  The upper series steps
Z_{i+1} = {x : [x, L] in Z_i} (`_centralizer_mod`, brackets reduced by
`Subspace.residue`) from Z_0 = 0, whose step is the centre.  Either series
raises NotNilpotent when a term stops changing, also without validation.
`derived_subalgebra` computes L^2 alone, as the span of the stored
brackets read through `bracket_table` (one elimination, in ints for an
integral table); the lower series starts from that term.  It checks no
nilpotency, which the multiplier
needs none of: dim L^2 = rank d1 and dim H^2(L) are defined for every
Lie algebra, so an unvalidated algebra (a quotient, a cover, a benchmark
copy) pays for the rest of the series only if it asks for it.

Everything here is immutable after construction and all operations are
pure, and the memo locks each access, so concurrent use needs no other
coordination.
"""

from __future__ import annotations

import ast
import functools
import json
import re
import threading
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Q,
    Scalar,
    Vector,
    add_scaled,
    qf,
    rref_basis,
    span_rref,
)


class LieError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexOutOfRange(LieError):
    pass


class DimensionMismatch(LieError):
    pass


class AmbientMismatch(LieError):
    pass


class PresentationError(LieError):
    """Malformed presentation input (bad JSON shape, i >= j, duplicates...)."""


class DimensionTooLarge(LieError):
    """Declared dimension above MAX_DIM."""


class JacobiViolation(LieError):
    """Jacobi identity fails on a basis triple.  Indices are 1-based."""

    def __init__(self, triple: tuple[int, int, int], defect: Vector):
        self.triple = triple
        self.defect = defect
        terms = " + ".join(
            f"{format_rational(c)}*x{k + 1}" for k, c in enumerate(defect) if c
        )
        super().__init__(f"Jacobi identity fails on triple {triple}: defect {terms}")


class NotNilpotent(LieError):
    """A central series stabilized short of its end (0 for the lower, L for the upper)."""

    def __init__(self, stabilized_dim: int):
        self.stabilized_dim = stabilized_dim
        super().__init__(
            f"not nilpotent: a central series stabilizes at a term of dimension {stabilized_dim}"
        )


class NotAnIdeal(LieError):
    pass


class NotCentral(LieError):
    pass


class DependentIdentification(LieError):
    pass


# The largest dimension a caller may declare: a presentation's "dim", A(k),
# H(m) and each step of a name expression such as A(k)⊕H(m).  Dense n x n
# work (full_space, quotients) stays cheap well past it: an abelian dim-200
# algebra loads in about 0.1 s.  The cap turns a huge
# declared dimension into an input error before anything of that size is
# allocated.  Algebras the program builds for itself (covers, direct sums,
# central products) are not capped: the cover of A(20) has dim 210.
MAX_DIM = 200


def check_dim(dim: int) -> None:
    """Reject a declared dimension outside 0..MAX_DIM."""
    if dim < 0:
        raise PresentationError("dimension must be >= 0")
    if dim > MAX_DIM:
        raise DimensionTooLarge(f"dimension {_decimal(dim)} exceeds the limit of {MAX_DIM}")


def _is_int(x) -> bool:
    """A JSON integer: int but not bool (which Python counts as an int)."""
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# rational coefficient expressions ("1", "-1/2", "eps", "1-lam", "-2")
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)

# Most decimal digits an integer may have where a coefficient is read
# (`rational_expr`) or rendered (`format_rational`).  CPython refuses int/str
# conversions above sys.get_int_max_str_digits() (4300 by default), but that
# is a process-wide setting, so both convert in pieces of _PIECE digits,
# below the 640 that is the lowest limit CPython accepts, and this cap is the
# only limit.
MAX_DIGITS = 10_000
_DIGITS_BOUND = 10**MAX_DIGITS
_PIECE = 600
_PIECE_BASE = 10**_PIECE
_LONG_LITERAL = re.compile(r"(?<![\w.])[1-9][0-9]{%d,}(?![\w.])" % _PIECE)


def _split_literal(match: re.Match) -> str:
    """A long decimal literal as a Horner expression in literals of at most
    _PIECE + 1 digits, which the parser converts whatever the limit."""
    digits = match.group()
    if len(digits) > MAX_DIGITS:
        raise PresentationError(
            f"integer literal of {len(digits)} digits exceeds the limit of {MAX_DIGITS}")
    head = len(digits) % _PIECE or _PIECE
    expr = digits[:head]
    for k in range(head, len(digits), _PIECE):
        expr = f"({expr}*{_PIECE_BASE}+{digits[k:k + _PIECE].lstrip('0') or '0'})"
    return expr


def _decimal(n: int) -> str:
    """str(n) for |n| of at most MAX_DIGITS digits, in _PIECE-digit pieces."""
    if n < 0:
        return "-" + _decimal(-n)
    if n >= _DIGITS_BOUND:
        raise PresentationError(f"integer of more than {MAX_DIGITS} digits cannot be rendered")
    pieces = []
    while n >= _PIECE_BASE:
        n, r = divmod(n, _PIECE_BASE)
        pieces.append(str(r).zfill(_PIECE))
    pieces.append(str(n))
    return "".join(reversed(pieces))


def format_rational(x: Fraction) -> str:
    """Render as "p" or "p/q" in lowest terms (Fraction normalizes); p and q
    may have up to MAX_DIGITS digits each."""
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _eval_rational(n: ast.AST, params: Mapping[str, Fraction], text: str) -> Fraction:
    """The value of one node of a parsed `rational_expr`.  A module-level
    function rather than a closure: a recursive closure refers to itself,
    a reference cycle per call."""
    if isinstance(n, ast.Constant) and _is_int(n.value):
        return Q(n.value)
    if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
        v = _eval_rational(n.operand, params, text)
        return -v if isinstance(n.op, ast.USub) else v
    if isinstance(n, ast.BinOp) and isinstance(n.op, _ALLOWED_BINOPS):
        a, b = _eval_rational(n.left, params, text), _eval_rational(n.right, params, text)
        if isinstance(n.op, ast.Add):
            return a + b
        if isinstance(n.op, ast.Sub):
            return a - b
        if isinstance(n.op, ast.Mult):
            return a * b
        if b == 0:
            raise PresentationError(f"division by zero in {text!r}")
        return a / b
    if isinstance(n, ast.Name):
        if n.id not in params:
            raise PresentationError(f"unknown parameter {n.id!r} in {text!r}")
        return params[n.id]
    raise PresentationError(f"bad rational expression {text!r}")


def rational_expr(text: str, params: Mapping[str, Fraction] | None = None) -> Fraction:
    """Evaluate a rational expression with optional named parameters.

    Plain rational strings "p" and "p/q" are the common case; parameter
    names and +,-,*,/ with parentheses are accepted so parameterized
    presentations (eps, lam, 1-lam) share the same parser.  Integer
    literals, and the numerator and denominator of the value, may have up
    to MAX_DIGITS digits.
    """
    if not isinstance(text, str):
        raise PresentationError(f"rational expression must be a string, not {text!r}")
    params = params or {}

    try:
        tree = ast.parse(_LONG_LITERAL.sub(_split_literal, text.strip()), mode="eval")
        value = _eval_rational(tree.body, params, text)
    except (SyntaxError, ValueError) as exc:  # ValueError: null bytes, older Pythons
        raise PresentationError(f"bad rational expression {text!r}") from exc
    except RecursionError as exc:
        raise PresentationError(
            f"rational expression nested too deeply ({len(text)} characters)"
        ) from exc
    if abs(value.numerator) >= _DIGITS_BOUND or value.denominator >= _DIGITS_BOUND:
        raise PresentationError(
            f"rational expression {text[:40]!r}... has a value of more than {MAX_DIGITS} digits")
    return value


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

BracketTable = dict[tuple[int, int], dict[int, Fraction]]


def pair_index(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j < n, in the order of the pair coordinates."""
    return list(combinations(range(n), 2))


class CanonicalKey(tuple):
    """A tuple that hashes its entries once, when it is made.

    A tuple does not keep its hash, so each lookup of a plain key would
    hash every Fraction of the table again; this one keeps the value.  It
    equals, and hashes like, the plain tuple of the same entries."""

    def __new__(cls, entries: tuple) -> "CanonicalKey":
        key = super().__new__(cls, entries)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


# ---------------------------------------------------------------------------
# the memo: every derived fact, keyed by (function, canonical brackets)
# ---------------------------------------------------------------------------

_MEMO: dict[tuple[object, CanonicalKey], object] = {}
_MEMO_LOCK = threading.Lock()
_MISSING = object()


def _memoized(fn):
    """Memoize fn(L) in _MEMO under (fn, L.canonical_key()), a key that keeps its
    hash; equal algebras share one entry, so a value must not refer to L."""
    @functools.wraps(fn)
    def memo(L: "LieAlgebra"):
        key = (fn, L.canonical_key())
        with _MEMO_LOCK:
            value = _MEMO.get(key, _MISSING)
        if value is _MISSING:
            value = fn(L)
            with _MEMO_LOCK:
                _MEMO[key] = value
        return value
    return memo


def clear_caches() -> None:
    """Drop every memoized fact, validations included, here and in
    `multiplier` and `invariants`.  An algebra instance holds no result of
    its own, only its hashed key, so one held across the call computes afresh."""
    with _MEMO_LOCK:
        _MEMO.clear()


@_memoized
def _validated(L: "LieAlgebra") -> None:
    """Jacobi on every basis triple and a lower series reaching 0; a failing
    table raises and stores nothing, so it raises again when rebuilt."""
    L.check_jacobi(L.wedge_rows())
    L.lower_central_series()


@_memoized
def _full_basis(L: "LieAlgebra") -> Matrix:
    return Matrix.identity(L.dim)


@_memoized
def _derived_basis(L: "LieAlgebra") -> Matrix:
    """The rref basis of the span of `L.bracket_table()`: an integral table
    is eliminated as it is, with no Fraction cleared of its denominators."""
    return rref_basis(Matrix.from_sparse(list(L.bracket_table().values()), L.dim))


@_memoized
def _lower_bases(L: "LieAlgebra") -> tuple[Matrix, ...]:
    series = [L.full_space()]
    while series[-1].dim > 0:
        nxt = L.product_space(series[-1], series[0])
        if nxt.dim == series[-1].dim:
            raise NotNilpotent(nxt.dim)
        series.append(nxt)
    return tuple([s.basis for s in series])


@_memoized
def _center_basis(L: "LieAlgebra") -> Matrix:
    return L._centralizer_mod(L.zero_subspace()).basis


@_memoized
def _upper_bases(L: "LieAlgebra") -> tuple[Matrix, ...]:
    series = [L.center()]
    while series[-1].dim < L.dim:
        nxt = L._centralizer_mod(series[-1])
        if nxt.dim == series[-1].dim:
            raise NotNilpotent(nxt.dim)
        series.append(nxt)
    return tuple([s.basis for s in series])


class LieAlgebra:
    """Structure-constant Lie algebra on basis x_1..x_n (stored 0-based)."""

    __slots__ = ("dim", "name", "brackets", "_key")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Fraction]],
        name: str | None = None,
        validate: bool = True,
    ):
        if dim < 0:
            raise PresentationError("dimension must be >= 0")
        table: BracketTable = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < dim):
                raise IndexOutOfRange(f"bracket pair ({i + 1}, {j + 1}) out of range for dim {dim}")
            clean = {k: qf(c) for k, c in terms.items() if c}
            for k in clean:
                if not 0 <= k < dim:
                    raise IndexOutOfRange(f"bracket target x{k + 1} out of range for dim {dim}")
            if clean:
                table[(i, j)] = clean
        self.dim = dim
        self.name = name
        self.brackets = table
        self._key: CanonicalKey | None = None
        if validate:
            _validated(self)

    # -- bracket --------------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[x_i, x_j] as a sparse vector; antisymmetry synthesized."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        terms = self.brackets.get((j, i), {})
        return {k: -c for k, c in terms.items()}

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        """Bilinear, antisymmetric extension of the basis brackets."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(
                f"expected coordinate vectors of length {self.dim}"
            )
        out = [Q(0)] * self.dim
        for (i, j), terms in self.brackets.items():
            ui, vj, uj, vi = u[i], v[j], u[j], v[i]
            if (ui and vj) or (uj and vi):
                coeff = ui * vj - uj * vi
                if coeff:
                    for k, c in terms.items():
                        out[k] += coeff * c
        return tuple(out)

    def ad_images(self, u: Mapping[int, Fraction]) -> list[dict[int, Fraction]]:
        """[u, x_j] for every basis index j, in one sweep over the table; u
        is a {column: Fraction} row, and the images hold no zero values."""
        outs: list[dict[int, Fraction]] = [{} for _ in range(self.dim)]
        for (i, j), terms in self.brackets.items():
            ui, uj = u.get(i), u.get(j)
            if ui:
                add_scaled(outs[j], ui, terms)
            if uj:
                add_scaled(outs[i], -uj, terms)
        return outs

    def bracket_table(self) -> Mapping[tuple[int, int], Mapping[int, Scalar]]:
        """The stored brackets in the cheapest exact scalars: each constant
        as an int when every constant of the table is integral, otherwise
        the Fraction table itself.  Equal values either way (Fraction(3) ==
        3), so what is built from it is unchanged; no table is rescaled.

        Built on each read, not memoized: a memo read costs about 1 us
        against about 5 us to build the table of a dim 10-15 sum, but
        memoized tables raise the peak memory of a cold `run_all(9)` by
        0.35 MB (CPython 3.11, 2-core Xeon)."""
        table = self.brackets
        if all([x._denominator == 1 for terms in table.values() for x in terms.values()]):
            return {p: {k: x._numerator for k, x in terms.items()} for p, terms in table.items()}
        return table

    def wedge_rows(self) -> dict[tuple[int, int, int], dict[int, Scalar]]:
        """The d2 rows of L in pair coordinates, keyed by triple (i, j, k),
        i < j < k, in one sweep over `bracket_table()`, so the values are
        ints when the table has an integral form and Fractions otherwise:

            (d2 f)(xi,xj,xk) = -f([xi,xj],xk) + f([xi,xk],xj) - f([xj,xk],xi).

        A bracket [xa,xb], a < b, meets each c outside {a, b} once, as the
        first (c > b), second (a < c < b) or third (c < a) term of the triple
        sorted(a, b, c), with sign -1, +1, -1; l^c with l > c folds into
        -(c^l).  Each bracket's terms are negated once, not once per c.
        Triples that no bracket reaches are absent, and entries whose
        terms cancel are dropped, so rows hold no zero values but may be empty.
        Rows are kept in the order first met (bracket order, then c
        ascending).  The chain boundary of xi^xj^xk is the negated row."""
        n = self.dim
        # the pair (l, c), l < c, is pair coordinate start[l] + c
        start = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
        rows: dict[tuple[int, int, int], dict[int, Scalar]] = {}
        for (a, b), terms in self.bracket_table().items():
            signed = [(l, x, -x) for l, x in terms.items()]
            for c in range(n):
                if c == a or c == b:
                    continue
                if c > b:
                    triple, negate = (a, b, c), True
                elif c > a:
                    triple, negate = (a, c, b), False
                else:
                    triple, negate = (c, a, b), True
                row = rows.setdefault(triple, {})
                for l, x, minus_x in signed:
                    if l == c:
                        continue
                    if l < c:
                        idx, v = start[l] + c, minus_x if negate else x
                    else:
                        idx, v = start[c] + l, x if negate else minus_x
                    total = row[idx] + v if idx in row else v
                    if total:
                        row[idx] = total
                    else:
                        del row[idx]
        return rows

    def check_jacobi(self, rows: Mapping[tuple[int, int, int], Mapping[int, Scalar]]) -> None:
        """The Jacobi identity on every basis triple, read off this
        algebra's `wedge_rows()` and `bracket_table()`; raises
        JacobiViolation, whose defect holds Fractions whatever the table.

        d1 sends g to (x,y) -> -g([x,y]), so (d2 d1 g)(t) = g(J(t)) with
        J(t) = [[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj] = -sum_p row_t[p] [x_p]
        over the pairs p: Jacobi is d2 . d1 = 0.  A triple absent from the
        rows has J = 0.  The first triple in row order with J != 0 is
        reported.
        """
        table = self.bracket_table()
        pairs = pair_index(self.dim)
        for (i, j, k), row in rows.items():
            # -J(t), negated only when it is reported
            acc: dict[int, Scalar] = {}
            for p, x in row.items():
                add_scaled(acc, x, table.get(pairs[p], {}))
            if acc:
                defect = [Q(0)] * self.dim
                for m, y in acc.items():
                    defect[m] = Q(-y)
                raise JacobiViolation((i + 1, j + 1, k + 1), tuple(defect))

    # -- identity -------------------------------------------------------------

    def canonical_key(self) -> "CanonicalKey":
        """Hashable key identifying the structure-constant table exactly;
        built and hashed once per instance."""
        if self._key is None:
            # from a list, not a generator (see `linalg` on free lists)
            items = tuple([
                (i, j, tuple(sorted(terms.items())))
                for (i, j), terms in sorted(self.brackets.items())
            ])
            self._key = CanonicalKey((self.dim, items))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        label = self.name or "LieAlgebra"
        return f"<{label}: dim {self.dim}, {len(self.brackets)} brackets>"

    # -- subspaces ------------------------------------------------------------

    def subspace(self, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        """The span of dense vectors from outside (coerced through `qf`)."""
        return Subspace(self, span_rref(vectors, self.dim))

    def sparse_subspace(self, rows: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        """The span of {column: Fraction} rows; the values must be Fractions."""
        return Subspace(self, rref_basis(Matrix.from_sparse(rows, self.dim)))

    def full_space(self) -> "Subspace":
        """L itself; its identity basis is memoized."""
        return Subspace.canonical(self, _full_basis(self))

    def zero_subspace(self) -> "Subspace":
        return Subspace(self, Matrix.zero(0, self.dim)._own_rref(()))

    def product_space(self, u: "Subspace", v: "Subspace") -> "Subspace":
        """Span of [a, b] over basis pairs of U x V, in canonical form."""
        for s in (u, v):
            if s.ambient is not self:
                raise AmbientMismatch("subspace belongs to a different algebra")
        if u.dim == self.dim and v.dim == self.dim:
            return self.derived_subalgebra()
        rows: list[dict[int, Fraction]] = []
        for a in u.basis.sparse_rows:
            images = self.ad_images(a)
            if v.dim == self.dim:
                rows += images
            else:
                # [a, b] = sum_j b_j [a, x_j] over the rows b of V
                rows += (v.basis * Matrix.from_sparse(images, self.dim)).sparse_rows
        return self.sparse_subspace(rows)

    def derived_subalgebra(self) -> "Subspace":
        """L^2 = [L, L], the span of the stored brackets; memoized, no nilpotency check."""
        return Subspace.canonical(self, _derived_basis(self))

    # -- series ---------------------------------------------------------------

    def lower_central_series(self) -> list["Subspace"]:
        """gamma_1 = L, gamma_{i+1} = [gamma_i, L], down to and including 0;
        gamma_2 is the memoized `derived_subalgebra`."""
        return [Subspace.canonical(self, b) for b in _lower_bases(self)]

    @property
    def nilpotency_class(self) -> int:
        return len(_lower_bases(self)) - 1

    def lower_central_dims(self) -> tuple[int, ...]:
        return tuple([b.rows for b in _lower_bases(self)])

    def _centralizer_mod(self, s: "Subspace") -> "Subspace":
        """{x : [x, L] in S}, the nullspace of the stacked adjoint matrices
        with each bracket reduced modulo S; S = 0 gives the centre."""
        # row (j, k) is the x -> [x, x_j]_k coordinate; its entry i comes
        # from the one bracket of the pair {i, j} alone, so it is assigned
        # once and never accumulates
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in self.brackets.items():
            for k, c in s.residue(terms).items():
                rows.setdefault((j, k), {})[i] = c
                rows.setdefault((i, k), {})[j] = -c
        if not rows:
            return self.full_space()
        stacked = Matrix.from_sparse([rows[key] for key in sorted(rows)], self.dim)
        return self.sparse_subspace(stacked.sparse_nullspace_basis())

    def center(self) -> "Subspace":
        """Z(L) via the nullspace of the stacked adjoint matrices; memoized."""
        return Subspace.canonical(self, _center_basis(self))

    def upper_central_series(self) -> list["Subspace"]:
        """[Z_1, Z_2, ...] strictly increasing up to and including L."""
        return [Subspace.canonical(self, b) for b in _upper_bases(self)]

    def upper_central_dims(self) -> tuple[int, ...]:
        return tuple([b.rows for b in _upper_bases(self)])

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    def abelianization_dim(self) -> int:
        return self.dim - self.derived_subalgebra().dim

    # -- quotients ------------------------------------------------------------

    def is_ideal(self, s: "Subspace") -> bool:
        if s.ambient is not self:
            raise AmbientMismatch("subspace belongs to a different algebra")
        return not any(
            s.residue(img) for b in s.basis.sparse_rows for img in self.ad_images(b)
        )

    def quotient(self, ideal: "Subspace") -> tuple["LieAlgebra", list[dict[int, Fraction]]]:
        """(L/I, images) on the complement of I's pivot coordinates.

        The quotient basis is the set of standard basis vectors whose
        columns are non-pivot in I's rref, so the construction is
        deterministic and reproducible.  images[c] is pi(x_c), a
        {column: Fraction} row in L/I's coordinates with no zero values.
        Only `is_ideal` is checked; the target is built without validation
        (see the module docstring).
        """
        if not self.is_ideal(ideal):
            raise NotAnIdeal("subspace is not an ideal")
        pivots = set(ideal.basis.pivot_columns())
        free = [c for c in range(self.dim) if c not in pivots]
        qdim = len(free)
        pos = {c: a for a, c in enumerate(free)}

        def project(terms: Mapping[int, Fraction]) -> dict[int, Fraction]:
            """terms modulo I in L/I's coordinates: the residue is zero at
            every pivot column, so its columns are all free."""
            return {pos[c]: x for c, x in sorted(ideal.residue(terms).items())}

        images = [project({c: Q(1)}) for c in range(self.dim)]
        new_brackets: BracketTable = {}
        for a in range(qdim):
            for b in range(a + 1, qdim):
                terms = project(self.bracket_basis(free[a], free[b]))
                if terms:
                    new_brackets[(a, b)] = terms
        label = f"{self.name}/I" if self.name else None
        return LieAlgebra(qdim, new_brackets, name=label, validate=False), images


class Subspace:
    """Subspace of an algebra's underlying space, canonical rref basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: LieAlgebra, basis: Matrix):
        if basis.cols != ambient.dim:
            raise DimensionMismatch("basis width must equal the ambient dimension")
        if basis.rref() != basis or basis.rank() != basis.rows:
            basis = rref_basis(basis)
        self.ambient = ambient
        self.basis = basis

    @classmethod
    def canonical(cls, ambient: LieAlgebra, basis: Matrix) -> "Subspace":
        """Trusted constructor from a basis known to be canonical (its own
        rref, no zero rows) and of the ambient width, such as a memoized
        one: nothing is checked."""
        s = cls.__new__(cls)
        s.ambient = ambient
        s.basis = basis
        return s

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vector]:
        return list(self.basis.data)

    def residue(self, v: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """The {column: value} row v reduced against the rref basis, zero
        values dropped: zero in every pivot column, and empty iff v lies in
        the subspace.

        It is v - sum_p v[p] * row_p over the pivots p where v is nonzero.
        This equals reducing by one row after another, because an rref row
        is zero at every other pivot column, so no step changes v there:
        w[p] is still v[p] when pivot p is reached."""
        w = {j: x for j, x in v.items() if x}
        for p, row in zip(self.basis.pivot_columns(), self.basis.sparse_rows):
            f = w.get(p)
            if f:
                add_scaled(w, -f, row)
        return w

    def contains(self, v: Sequence) -> bool:
        """Whether the dense vector v from outside lies in the subspace; its
        entries are coerced through `qf` and its length must be the ambient
        dimension."""
        row = [qf(x) for x in v]
        if len(row) != self.ambient.dim:
            raise DimensionMismatch(
                f"vector of length {len(row)} in an algebra of dim {self.ambient.dim}")
        return not self.residue(dict(enumerate(row)))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(self.residue(row) for row in other.basis.sparse_rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return self.ambient.sparse_subspace(self.basis.sparse_rows + other.basis.sparse_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        # sum_a c_a u_a lies in V iff sum_a c_a residue_V(u_a) = 0: the c are
        # the nullspace of the matrix whose columns are those residues
        columns: list[dict[int, Fraction]] = [{} for _ in range(self.ambient.dim)]
        for a, u in enumerate(self.basis.sparse_rows):
            for k, x in other.residue(u).items():
                columns[k][a] = x
        coeffs = Matrix.from_sparse(
            Matrix.from_sparse(columns, self.dim).sparse_nullspace_basis(), self.dim)
        return self.ambient.sparse_subspace((coeffs * self.basis).sparse_rows)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient is not other.ambient:
            raise AmbientMismatch("subspaces of different algebras")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient is other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((id(self.ambient), self.basis))

    def __repr__(self) -> str:
        return f"<Subspace dim {self.dim} of {self.ambient!r}>"


# ---------------------------------------------------------------------------
# sums and products
# ---------------------------------------------------------------------------

def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Block direct sum; B's basis is appended after A's.  Built without
    validation: a direct sum of nilpotent Lie algebras is one."""
    brackets: BracketTable = {k: dict(v) for k, v in a.brackets.items()}
    shift = a.dim
    for (i, j), terms in b.brackets.items():
        brackets[(i + shift, j + shift)] = {k + shift: c for k, c in terms.items()}
    if name is None and a.name and b.name:
        name = f"{a.name}⊕{b.name}"
    return LieAlgebra(a.dim + b.dim, brackets, name=name, validate=False)


def central_product(
    a: LieAlgebra,
    b: LieAlgebra,
    identify: Sequence[tuple[Sequence[Fraction], Sequence[Fraction]]],
    name: str | None = None,
) -> LieAlgebra:
    """Quotient of A (+) B identifying central vectors pairwise.

    Each pair (u, v) must be central in its factor and the identified
    lists must be linearly independent on both sides; the result is
    A (+) B / span{(u, -v)}.
    """
    za, zb = a.center(), b.center()
    for u, v in identify:
        if not za.contains(u):
            raise NotCentral("left identification vector is not central in A")
        if not zb.contains(v):
            raise NotCentral("right identification vector is not central in B")
    if identify:
        left = span_rref([u for u, _ in identify], a.dim)
        right = span_rref([v for _, v in identify], b.dim)
        if left.rows != len(identify) or right.rows != len(identify):
            raise DependentIdentification("identified vectors are linearly dependent")
    total = direct_sum(a, b)
    glue = [tuple(u) + tuple(-qf(x) for x in v) for u, v in identify]
    ideal = total.subspace(glue)
    result, _ = total.quotient(ideal)
    if name is None and a.name and b.name:
        name = f"{a.name}∔{b.name}"
    return LieAlgebra(result.dim, result.brackets, name=name, validate=False)


# ---------------------------------------------------------------------------
# presentation format (JSON)
# ---------------------------------------------------------------------------

def presentation_from_dict(doc: Mapping, params: Mapping[str, Fraction] | None = None) -> LieAlgebra:
    """Load the JSON presentation document format.

    { "name": str?, "dim": int, "params": {name: rational-string}?,
      "brackets": [ {"i": int, "j": int,
                     "terms": [ {"k": int, "c": rational-string} ]} ] }

    Indices are 1-based and i < j is required; duplicate (i, j) entries
    are rejected.  Coefficients may reference declared parameter names.
    """
    if not isinstance(doc, Mapping):
        raise PresentationError("presentation must be a JSON object")
    if "dim" not in doc or not _is_int(doc["dim"]):
        raise PresentationError('presentation needs an integer "dim"')
    dim = doc["dim"]
    check_dim(dim)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise PresentationError('"name" must be a string')
    raw_params = doc.get("params") or {}
    if not isinstance(raw_params, Mapping):
        raise PresentationError('"params" must be an object of name: rational')
    declared = {}
    for key, value in raw_params.items():
        declared[key] = rational_expr(str(value))
    if params:
        declared.update(params)
    raw_brackets = doc.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise PresentationError('"brackets" must be a list')
    brackets: BracketTable = {}
    for item in raw_brackets:
        if not (isinstance(item, Mapping) and "i" in item and "j" in item):
            raise PresentationError('each bracket needs integer "i" and "j"')
        i, j = item["i"], item["j"]
        if not (_is_int(i) and _is_int(j)):
            raise PresentationError('bracket indices "i", "j" must be integers')
        if not (1 <= i < j <= dim):
            raise PresentationError(
                f"bracket pair ({i}, {j}) must satisfy 1 <= i < j <= dim"
            )
        if (i - 1, j - 1) in brackets:
            raise PresentationError(f"duplicate bracket pair ({i}, {j})")
        raw_terms = item.get("terms", [])
        if not isinstance(raw_terms, list):
            raise PresentationError(f'"terms" of pair ({i}, {j}) must be a list')
        terms: dict[int, Fraction] = {}
        for term in raw_terms:
            if not isinstance(term, Mapping):
                raise PresentationError(f'each term of pair ({i}, {j}) must be an object')
            k = term.get("k")
            if not _is_int(k) or not 1 <= k <= dim:
                raise PresentationError(f"bracket target {k!r} out of range in pair ({i}, {j})")
            c = rational_expr(str(term.get("c", "1")), declared)
            if c:
                terms[k - 1] = terms.get(k - 1, Q(0)) + c
        brackets[(i - 1, j - 1)] = terms
    return LieAlgebra(dim, brackets, name=name)


def load_presentation(text_or_path: str, params: Mapping[str, Fraction] | None = None) -> LieAlgebra:
    """Parse a presentation from a JSON string or a file path."""
    text = text_or_path
    if not text.lstrip().startswith("{"):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise PresentationError(f"presentation file is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past CPython's digit limit
        raise PresentationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise PresentationError("JSON nested too deeply") from exc
    return presentation_from_dict(doc, params)


def presentation_to_dict(algebra: LieAlgebra) -> dict:
    """Inverse of presentation_from_dict (parameters already resolved)."""
    out: dict = {"dim": algebra.dim}
    if algebra.name:
        out["name"] = algebra.name
    rows = []
    for (i, j) in sorted(algebra.brackets):
        terms = algebra.brackets[(i, j)]
        rows.append(
            {
                "i": i + 1,
                "j": j + 1,
                "terms": [
                    {"k": k + 1, "c": format_rational(c)} for k, c in sorted(terms.items())
                ],
            }
        )
    out["brackets"] = rows
    return out
