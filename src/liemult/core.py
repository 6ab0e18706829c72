"""Nilpotent Lie algebras over Q given by sparse structure constants.

An algebra is a dimension n plus a table of basis brackets
[x_i, x_j] = sum_k c_{ij}^k x_k for i < j (0-based internally; the JSON
presentation format and all human-facing output are 1-based).  Presentations
and direct sums are validated: the Jacobi identity on every basis triple and
nilpotency of the lower central series; non-nilpotent input is an error, not
a supported case.  Quotients are built trusted, by theorem: L/I is a
nilpotent Lie algebra whenever I is an ideal of a nilpotent L, and the
projection is a homomorphism of full rank, so only `is_ideal` is checked.
The stem covers of `multiplier` are plain algebras, built trusted by the
theorems stated there; their projection is coordinate truncation, with no
`QuotientMap`.

Both central series are built inside L, without quotient algebras.
Validation computes and caches the lower series.  The upper series steps
Z_{i+1} = {x : [x, L] in Z_i} (`_centralizer_mod`, brackets reduced by
`Subspace.residue`) from Z_0 = 0, whose step is the centre.  Either series
raises NotNilpotent when a term stops changing, also without validation.
`derived_subalgebra` computes L^2 alone, as the span of the stored
brackets (one product space), and caches it; the lower series starts
from that cached term.  It checks no nilpotency, which the multiplier
needs none of: dim L^2 = rank d1 and dim H^2(L) are defined for every
Lie algebra, so an unvalidated algebra (a quotient, a cover, a benchmark
copy) pays for the rest of the series only if it asks for it.

Everything here is immutable after construction and all operations are
pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Q,
    Vector,
    is_zero_vec,
    qf,
    span_rref,
    unit_vector,
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


# The largest dimension a caller may declare: a presentation's "dim", A(k)
# and H(m).  Dense n x n work (full_space, quotients) stays cheap well past
# it: an abelian dim-200 algebra loads in about 0.1 s.  The cap turns a huge
# declared dimension into an input error before anything of that size is
# allocated.  Algebras the program builds for itself (covers, direct sums,
# central products) are not capped: the cover of A(20) has dim 210.
MAX_DIM = 200


def check_dim(dim: int) -> None:
    """Reject a declared dimension outside 0..MAX_DIM."""
    if dim < 0:
        raise PresentationError("dimension must be >= 0")
    if dim > MAX_DIM:
        raise DimensionTooLarge(f"dimension {dim} exceeds the limit of {MAX_DIM}")


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

    def ev(n) -> Fraction:
        if isinstance(n, ast.Constant) and _is_int(n.value):
            return Q(n.value)
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.USub, ast.UAdd)):
            v = ev(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        if isinstance(n, ast.BinOp) and isinstance(n.op, _ALLOWED_BINOPS):
            a, b = ev(n.left), ev(n.right)
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

    try:
        value = ev(ast.parse(_LONG_LITERAL.sub(_split_literal, text.strip()), mode="eval").body)
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


class LieAlgebra:
    """Structure-constant Lie algebra on basis x_1..x_n (stored 0-based)."""

    __slots__ = ("dim", "name", "brackets", "_derived", "_lcs", "_ucs", "_center", "_key")

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
        self._derived: Subspace | None = None
        self._lcs: list[Subspace] | None = None
        self._ucs: list[Subspace] | None = None
        self._center: Subspace | None = None
        self._key: tuple | None = None
        if validate:
            self._check_jacobi()
            self.lower_central_series()

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

    def ad_images(self, u: Sequence[Fraction]) -> list[dict[int, Fraction]]:
        """[u, x_j] for every basis index j, in one sweep over the table."""
        outs: list[dict[int, Fraction]] = [{} for _ in range(self.dim)]
        for (i, j), terms in self.brackets.items():
            ui, uj = u[i], u[j]
            if ui:
                d = outs[j]
                for k, c in terms.items():
                    d[k] = d.get(k, Q(0)) + ui * c
            if uj:
                d = outs[i]
                for k, c in terms.items():
                    d[k] = d.get(k, Q(0)) - uj * c
        return outs

    def _sparse_to_vec(self, terms: Mapping[int, Fraction]) -> Vector:
        out = [Q(0)] * self.dim
        for k, c in terms.items():
            out[k] = c
        return tuple(out)

    def _jacobi_defect(self, i: int, j: int, k: int) -> Vector:
        out = [Q(0)] * self.dim
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, cl in self.bracket_basis(a, b).items():
                for m, cm in self.bracket_basis(l, c).items():
                    out[m] += cl * cm
        return tuple(out)

    def _check_jacobi(self) -> None:
        # A triple has zero defect unless one of its pairs is a stored
        # bracket, so only candidates touching a bracket key are checked.
        seen: set[tuple[int, int, int]] = set()
        for (i, j) in self.brackets:
            for k in range(self.dim):
                if k == i or k == j:
                    continue
                triple = tuple(sorted((i, j, k)))
                if triple in seen:
                    continue
                seen.add(triple)
                defect = self._jacobi_defect(*triple)
                if not is_zero_vec(defect):
                    raise JacobiViolation(
                        (triple[0] + 1, triple[1] + 1, triple[2] + 1), defect
                    )

    # -- identity -------------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Hashable key identifying the structure-constant table exactly."""
        if self._key is None:
            items = tuple(
                (i, j, tuple(sorted(terms.items())))
                for (i, j), terms in sorted(self.brackets.items())
            )
            self._key = (self.dim, items)
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
        return Subspace(self, span_rref(vectors, self.dim))

    def full_space(self) -> "Subspace":
        return Subspace(self, Matrix.identity(self.dim))

    def zero_subspace(self) -> "Subspace":
        return Subspace(self, Matrix._of((), self.dim)._own_rref(()))

    def product_space(self, u: "Subspace", v: "Subspace") -> "Subspace":
        """Span of [a, b] over basis pairs of U x V, in canonical form."""
        for s in (u, v):
            if s.ambient is not self:
                raise AmbientMismatch("subspace belongs to a different algebra")
        if u.dim == self.dim and v.dim == self.dim:
            return self.subspace(self._sparse_to_vec(t) for t in self.brackets.values())
        if v.dim == self.dim:
            vectors = [
                self._sparse_to_vec(img)
                for a in u.basis_vectors()
                for img in self.ad_images(a)
                if img
            ]
            return self.subspace(vectors)
        vectors = [self.bracket(a, b) for a in u.basis_vectors() for b in v.basis_vectors()]
        return self.subspace(vectors)

    def derived_subalgebra(self) -> "Subspace":
        """L^2 = [L, L], one product space, cached; no nilpotency check."""
        if self._derived is None:
            full = self.full_space()
            self._derived = self.product_space(full, full)
        return self._derived

    # -- series ---------------------------------------------------------------

    def lower_central_series(self) -> list["Subspace"]:
        """gamma_1 = L, gamma_{i+1} = [gamma_i, L], down to and including 0;
        gamma_2 is the cached `derived_subalgebra`."""
        if self._lcs is None:
            series = [self.full_space()]
            while series[-1].dim > 0:
                nxt = (self.derived_subalgebra() if len(series) == 1
                       else self.product_space(series[-1], series[0]))
                if nxt.dim == series[-1].dim:
                    raise NotNilpotent(nxt.dim)
                series.append(nxt)
            self._lcs = series
        return self._lcs

    @property
    def nilpotency_class(self) -> int:
        return len(self.lower_central_series()) - 1

    def lower_central_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.lower_central_series())

    def _centralizer_mod(self, s: "Subspace") -> "Subspace":
        """{x : [x, L] in S}, the nullspace of the stacked adjoint matrices
        with each bracket reduced modulo S; S = 0 gives the centre."""
        rows: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), terms in self.brackets.items():
            for k, c in enumerate(s.residue(self._sparse_to_vec(terms))):
                if c:
                    row = rows.setdefault((j, k), {})
                    row[i] = row[i] + c if i in row else c
                    row = rows.setdefault((i, k), {})
                    row[j] = row[j] - c if j in row else -c
        if not rows:
            return self.full_space()
        stacked = Matrix.from_sparse([rows[key] for key in sorted(rows)], self.dim)
        return self.subspace(stacked.nullspace_basis())

    def center(self) -> "Subspace":
        """Z(L) via the nullspace of the stacked adjoint matrices."""
        if self._center is None:
            self._center = self._centralizer_mod(self.zero_subspace())
        return self._center

    def upper_central_series(self) -> list["Subspace"]:
        """[Z_1, Z_2, ...] strictly increasing up to and including L."""
        if self._ucs is None:
            series = [self.center()]
            while series[-1].dim < self.dim:
                nxt = self._centralizer_mod(series[-1])
                if nxt.dim == series[-1].dim:
                    raise NotNilpotent(nxt.dim)
                series.append(nxt)
            self._ucs = series
        return self._ucs

    def upper_central_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.upper_central_series())

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    def abelianization_dim(self) -> int:
        return self.dim - self.derived_subalgebra().dim

    # -- quotients ------------------------------------------------------------

    def is_ideal(self, s: "Subspace") -> bool:
        if s.ambient is not self:
            raise AmbientMismatch("subspace belongs to a different algebra")
        return all(
            s.contains(self._sparse_to_vec(img))
            for b in s.basis_vectors()
            for img in self.ad_images(b)
            if img
        )

    def quotient(self, ideal: "Subspace") -> tuple["LieAlgebra", "QuotientMap"]:
        """L/I on the complement of I's pivot coordinates.

        The quotient basis is the set of standard basis vectors whose
        columns are non-pivot in I's rref, so the construction is
        deterministic and reproducible.  Only `is_ideal` is checked; the
        target and the map are built without validation (see the module
        docstring).
        """
        if not self.is_ideal(ideal):
            raise NotAnIdeal("subspace is not an ideal")
        pivots = ideal.basis.pivot_columns()
        free = [c for c in range(self.dim) if c not in set(pivots)]
        qdim = len(free)
        pos = {c: a for a, c in enumerate(free)}

        def project(v: Sequence[Fraction]) -> Vector:
            w = ideal.residue(v)
            return tuple(w[c] for c in free)

        proj_matrix = Matrix(
            [project(unit_vector(self.dim, c)) for c in range(self.dim)], cols=qdim
        ).transpose()
        new_brackets: BracketTable = {}
        for a in range(qdim):
            for b in range(a + 1, qdim):
                img = project(self._sparse_to_vec(self.bracket_basis(free[a], free[b])))
                terms = {k: c for k, c in enumerate(img) if c}
                if terms:
                    new_brackets[(a, b)] = terms
        label = f"{self.name}/I" if self.name else None
        target = LieAlgebra(qdim, new_brackets, name=label, validate=False)
        pi = QuotientMap(self, target, proj_matrix, check=False)
        return target, pi


class Subspace:
    """Subspace of an algebra's underlying space, canonical rref basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: LieAlgebra, basis: Matrix):
        if basis.cols != ambient.dim:
            raise DimensionMismatch("basis width must equal the ambient dimension")
        if basis.rref() != basis or basis.rank() != basis.rows:
            basis = span_rref(basis.data, basis.cols)
        self.ambient = ambient
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vector]:
        return list(self.basis.data)

    def residue(self, v: Sequence[Fraction]) -> list[Fraction]:
        """v reduced against the rref basis: zero in every pivot column,
        and zero everywhere iff v lies in the subspace."""
        w = list(v)
        for row, pcol in zip(self.basis.data, self.basis.pivot_columns()):
            f = w[pcol]
            if f:
                w = [x - f * y if y else x for x, y in zip(w, row)]
        return w

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.residue(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis_vectors())

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return self.ambient.subspace(self.basis_vectors() + other.basis_vectors())

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        # sum_i a_i u_i lies in V iff sum_i a_i residue_V(u_i) = 0
        residues = Matrix._of(tuple(tuple(other.residue(u)) for u in self.basis.data),
                              self.ambient.dim)
        coeffs = Matrix._of(tuple(residues.transpose().nullspace_basis()), self.dim)
        return self.ambient.subspace((coeffs * self.basis).data)

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


class QuotientMap:
    """Surjective bracket-compatible linear map in coordinates."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: LieAlgebra, target: LieAlgebra, matrix: Matrix, check: bool = True):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise DimensionMismatch("projection matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        # check=False is reserved for the projection onto a quotient by an
        # ideal (`LieAlgebra.quotient`), which is surjective and compatible by
        # construction; it is the identity on the target's coordinates, so
        # full row rank is not re-checked either.
        if check:
            if matrix.rank() != target.dim:
                raise DimensionMismatch("projection must have full row rank")
            self.check_compatible()

    def check_compatible(self) -> None:
        n = self.source.dim
        zero = (Q(0),) * self.target.dim
        images = [self.matrix.column(i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                terms = self.source.bracket_basis(i, j)
                lhs = self.apply(self.source._sparse_to_vec(terms)) if terms else zero
                rhs = self.target.bracket(images[i], images[j])
                if lhs != rhs:
                    raise LieError(
                        f"projection is not bracket-compatible on pair ({i + 1}, {j + 1})"
                    )

    def apply(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.mul_vec(v)

    def apply_subspace(self, s: Subspace) -> Subspace:
        if s.ambient is not self.source:
            raise AmbientMismatch("subspace not in the source algebra")
        return self.target.subspace([self.apply(v) for v in s.basis_vectors()])

    def kernel(self) -> Subspace:
        return self.source.subspace(self.matrix.nullspace_basis())


# ---------------------------------------------------------------------------
# sums and products
# ---------------------------------------------------------------------------

def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Block direct sum; B's basis is appended after A's."""
    brackets: BracketTable = {k: dict(v) for k, v in a.brackets.items()}
    shift = a.dim
    for (i, j), terms in b.brackets.items():
        brackets[(i + shift, j + shift)] = {k + shift: c for k, c in terms.items()}
    if name is None and a.name and b.name:
        name = f"{a.name}⊕{b.name}"
    return LieAlgebra(a.dim + b.dim, brackets, name=name)


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
    except json.JSONDecodeError as exc:
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
