"""Schur multiplier dimension, covers, epicenter/capability, exterior square.

Two independent routes compute dim M(L):

* cohomology: the Chevalley-Eilenberg slice L* -> Lambda^2 L* -> Lambda^3 L*
  with trivial coefficients; dim M = dim ker(d2) - rank(d1), the size of
  the canonical cocycle basis (`cocycle_representatives`), which is the
  only place the slice is built and d2 eliminated.
* cover (the generators-and-relations elimination count): the homological
  chain slice Lambda^3 L -> Lambda^2 L -> L; adjoining a central generator
  s_ij to every bracket and absorbing redundant ones leaves
  C(n,2) - dim L^2 - rank(boundary_3) survivors.

Both are exact ranks over Q and must agree on every input; the agreement
is asserted whenever both run.  Their wedge terms (d2 rows, boundary_3
columns) come from one sweep over the stored brackets,
`LieAlgebra.wedge_rows` in `core`, in which each bracket [xa,xb] meets
every third index c once; it runs once per matrix and is not memoized.
The agreement checks the ranks but not that assembly; the tests check it
against a dense per-entry reference on brackets with several terms and on
the shapes of the benchmark.  L's Jacobi identity is d2 . d1 = 0; the slice
checks it on its d2 rows (`LieAlgebra.check_jacobi`), so both routes, which
read the cocycle basis, refuse a table that breaks it.

The stem cover is the algebra E = L + Q^m built from the canonical cocycle
representatives, with bracket [(x,a),(y,b)] = ([x,y], f_1(x,y), ...,
f_m(x,y)); `cover` returns E itself.  Its first n coordinates are L's basis,
its last m span the kernel K, and the covering projection is truncation to
the first n coordinates.  E is a Lie algebra by construction (L's Jacobi
identity, d2 . d1 = 0, is checked by `cochain_slice`, and each f_t lies in
ker d2), so its Jacobi identity is not re-checked.  K is central because no
bracket of E has an adjoined index as an argument; K lies in E^2, which is
checked at runtime by one product space (dim E^2 = dim L^2 + m).  The
epicenter is the image of Z(E) under the projection, computed without
building Z(E): it is the set of z in Z(L) whose lift (z, 0) is central in
E, one nullspace in dim Z(L) unknowns.  L is capable iff that image
vanishes.

dim M of a quotient L/K is read off L's own d2 (`dim_multiplier_quotient`),
without building L/K or a second slice.  By inflation (Hochschild-Serre),
the cochains of L/K are the forms on L that vanish when an argument lies
in K, so d2(L/K) is d2(L) restricted to them; the bound checks and
`quotient_exterior_check` use it.  Its rank is an elimination of its own:
the Ganea sequence would give dim M(L/K) for central K from L's cocycles,
but it would make the central-ideal bound hold by construction, so it is
used only in the tests, as a third route.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .core import (
    LieAlgebra,
    LieError,
    NotAnIdeal,
    Subspace,
    pair_index,
)
from .linalg import (
    Matrix,
    Vector,
    extend_integer_echelon,
    sparse_integer_row,
)


def triple_index(n: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(n), 3))


@dataclass(frozen=True)
class CochainComplexSlice:
    """d1: L* -> Lambda^2 L*, d2: Lambda^2 L* -> Lambda^3 L* (trivial coeffs)."""

    d1: Matrix
    d2: Matrix
    pairs: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]


def cochain_slice(L: LieAlgebra) -> CochainComplexSlice:
    """Build the degree-(1,2) cochain slice; d2 . d1 = 0, the Jacobi
    identity, is checked by `L.check_jacobi` on the rows d2 is built from.

    d1 and d2 are the negated transposes of the chain boundaries (d1 = -b2^T,
    d2 = -b3^T); d1 is read off the sparse brackets, d2 off `L.wedge_rows()`.
    rank d1 = dim L^2 holds by construction (d1's nonzero rows are the
    negated stored brackets, whose span is L^2), so it is not re-checked.
    """
    n = L.dim
    pairs = pair_index(n)
    triples = triple_index(n)
    d1 = Matrix.from_sparse(
        ({k: -c for k, c in L.bracket_basis(i, j).items()} for (i, j) in pairs), n)
    swept = L.wedge_rows()
    L.check_jacobi(swept)
    d2 = Matrix.from_sparse([swept.get(t, {}) for t in triples], len(pairs))
    return CochainComplexSlice(d1, d2, tuple(pairs), tuple(triples))


def boundary3(L: LieAlgebra) -> Matrix:
    """Lambda^3 L -> Lambda^2 L, the standard boundary.

    d(x^y^z) = [x,y]^z - [x,z]^y + [y,z]^x, the negated transpose of d2.
    """
    pairs = pair_index(L.dim)
    triples = triple_index(L.dim)
    swept = L.wedge_rows()
    rows: list[dict[int, Fraction]] = [{} for _ in pairs]
    for t, triple in enumerate(triples):
        if triple in swept:
            for a, x in swept[triple].items():
                rows[a][t] = -x
    return Matrix.from_sparse(rows, len(triples))


# ---------------------------------------------------------------------------
# the memo: one dict of results keyed by (function, canonical brackets)
# ---------------------------------------------------------------------------

_MEMO: dict[tuple[str, tuple], object] = {}
_CACHE_LOCK = threading.Lock()


def _memoized(fn):
    """Memoize fn(L) in _MEMO under (fn's name, L.canonical_key())."""
    @functools.wraps(fn)
    def memo(L: LieAlgebra):
        key = (fn.__name__, L.canonical_key())
        with _CACHE_LOCK:
            if key in _MEMO:
                return _MEMO[key]
        value = fn(L)
        with _CACHE_LOCK:
            _MEMO[key] = value
        return value
    return memo


def clear_caches() -> None:
    """Drop memoized cocycle bases, d2 rows, covers, epicenter bases and
    dim M(L/gamma3) (the `_memoized` helper in `invariants`)."""
    with _CACHE_LOCK:
        _MEMO.clear()


# ---------------------------------------------------------------------------
# multiplier dimension, both methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierResult:
    dim_M: int
    cocycle_basis: tuple[Vector, ...]
    method: str


@_memoized
def cocycle_representatives(L: LieAlgebra) -> tuple[Vector, ...]:
    """Canonical basis of a complement of im(d1) inside ker(d2).

    Vectors live in pair coordinates (the value of the 2-form on
    x_i^x_j, pairs ordered lexicographically). Deterministic: the
    coboundary span is extended by nullspace vectors in rref order,
    keeping those that enlarge it (which does not depend on the basis the
    span is reduced in).
    """
    slice_ = cochain_slice(L)
    # the coboundaries are d1's columns, gathered from its sparse rows
    coboundaries: list[dict[int, Fraction]] = [{} for _ in range(L.dim)]
    for a, row in enumerate(slice_.d1.sparse_rows):
        for k, c in row.items():
            coboundaries[k][a] = c
    echelon: dict[int, dict[int, int]] = {}
    for coboundary in coboundaries:
        extend_integer_echelon(echelon, sparse_integer_row(coboundary))
    # the nullspace stays sparse; only the kept vectors are densified
    kept = [v for v in slice_.d2.sparse_nullspace_basis()
            if extend_integer_echelon(echelon, sparse_integer_row(v))]
    return Matrix.from_sparse(kept, slice_.d2.cols).data


def dim_multiplier(L: LieAlgebra) -> int:
    """dim M(L) = dim H^2(L; Q) = dim ker(d2) - rank(d1): the size of the
    cocycle basis, so each algebra's slice is built and eliminated once."""
    return len(cocycle_representatives(L))


def dim_multiplier_cover(L: LieAlgebra) -> MultiplierResult:
    """The elimination count: C(n,2) - dim L^2 - rank(boundary_3).

    Adjoining central generators to every bracket, imposing the Jacobi
    relations, and absorbing generators into a basis change on L^2 kills
    exactly rank(boundary_3) + dim L^2 of the C(n,2) candidates.  L's own
    Jacobi identity is checked on the way, by `cocycle_representatives`.
    """
    reps = cocycle_representatives(L)
    m = len(pair_index(L.dim)) - L.derived_subalgebra().dim - boundary3(L).rank()
    if len(reps) != m:
        raise LieError("cover and cohomology multiplier dimensions disagree")
    return MultiplierResult(dim_M=m, cocycle_basis=tuple(reps), method="cover")


@_memoized
def _d2_rows(L: LieAlgebra) -> tuple[dict[int, int], ...]:
    """The nonzero rows of L's d2 as {pair index: int}, each scaled to
    integers, in sweep order (only their span is used); built without a
    slice."""
    return tuple(sparse_integer_row(r) for r in L.wedge_rows().values() if r)


def dim_multiplier_quotient(L: LieAlgebra, K: Subspace) -> int:
    """dim M(L/K) for an ideal K of L, without building L/K.

    L/K has the basis `L.quotient` gives it, the x_c at the free columns c
    of K's rref, with dual forms phi_c = e^c - sum_p K[p][c] e^p (p over
    K's pivot rows).  Inflation phi_a ^ phi_b -> its 2-form on L is
    injective and commutes with d2, so rank d2(L/K) = rank(d2(L) P_K), and

        dim M(L/K) = C(q,2) - rank(d2(L) P_K) - (dim(L^2 + K) - dim K)

    for q = dim L - dim K.  Column (i,j) of d2(L) goes to pi(x_i) ^ pi(x_j)
    in L/K's pair coordinates; when K is spanned by basis vectors this is
    a column selection.  Raises NotAnIdeal where `L.quotient` does.
    """
    if not L.is_ideal(K):
        raise NotAnIdeal("subspace is not an ideal")
    pivots = K.basis.pivot_columns()
    pivot_set = set(pivots)
    free = [c for c in range(L.dim) if c not in pivot_set]
    q = len(free)
    pos = {c: a for a, c in enumerate(free)}
    # pi(x_c) in L/K's coordinates, all scaled by one common denominator; an
    # rref row of K is zero at every other pivot, so off p it is all free
    rows = K.basis.sparse_rows
    den = lcm(1, *(x.denominator for row in rows for x in row.values()))
    image: dict[int, dict[int, int]] = {c: {pos[c]: den} for c in free}
    for row, p in zip(rows, pivots):
        image[p] = {pos[c]: -int(x * den) for c, x in row.items() if c != p}
    qpair = {p: a for a, p in enumerate(pair_index(q))}
    inflate: dict[int, dict[int, int]] = {}
    for idx, (i, j) in enumerate(pair_index(L.dim)):
        wedge: dict[int, int] = {}
        for a, u in image[i].items():
            for b, v in image[j].items():
                if a != b:
                    col, x = (qpair[(a, b)], u * v) if a < b else (qpair[(b, a)], -u * v)
                    wedge[col] = wedge.get(col, 0) + x
        wedge = {col: x for col, x in wedge.items() if x}
        if wedge:
            inflate[idx] = wedge
    echelon: dict[int, dict[int, int]] = {}
    for w in _d2_rows(L):
        out: dict[int, int] = {}
        for idx, x in w.items():
            if idx in inflate:
                for col, y in inflate[idx].items():
                    out[col] = out.get(col, 0) + x * y
        extend_integer_echelon(echelon, {col: x for col, x in out.items() if x})
    # rank d1(L/K) = dim (L/K)^2 = dim(L^2 + K) - dim K, the rank of L^2 mod K
    projected: dict[int, dict[int, int]] = {}
    rank_d1 = sum(extend_integer_echelon(projected, sparse_integer_row(K.residue(row)))
                  for row in L.derived_subalgebra().basis.sparse_rows)
    return q * (q - 1) // 2 - len(echelon) - rank_d1


# ---------------------------------------------------------------------------
# covers, epicenter, capability
# ---------------------------------------------------------------------------

@_memoized
def cover(L: LieAlgebra) -> LieAlgebra:
    """The stem cover E of L, with dim E = dim L + dim M(L).

    E = L + Q^m with bracket [(x,a),(y,b)] = ([x,y], f_1(x,y),...,f_m(x,y))
    over the canonical cocycle representatives.  E's first n coordinates
    are L's basis and its last m span the kernel K; the covering projection
    is truncation to the first n coordinates.  K is central by
    construction: no key of E's bracket table names an adjoined index.
    K inside E^2 is asserted, not assumed: truncation maps E^2 onto L^2
    with kernel E^2 ^ K, so it holds iff dim E^2 = dim L^2 + m.  E holds
    no reference to L, so equal algebras share one memoized cover.
    """
    n = L.dim
    reps = cocycle_representatives(L)
    m = len(reps)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for idx, (i, j) in enumerate(pair_index(n)):
        terms: dict[int, Fraction] = dict(L.bracket_basis(i, j))
        for t, f in enumerate(reps):
            if f[idx]:
                terms[n + t] = f[idx]
        if terms:
            brackets[(i, j)] = terms
    label = f"cover({L.name})" if L.name else "cover"
    # Jacobi for E is L's (d2 . d1 = 0, checked by cochain_slice) plus each
    # cocycle lying in ker d2, and a central extension of a nilpotent
    # algebra is nilpotent, so E is built without validation
    total = LieAlgebra(n + m, brackets, name=label, validate=False)
    full = total.full_space()
    if total.product_space(full, full).dim != L.derived_subalgebra().dim + m:
        raise LieError("cover kernel escaped E^2: stem property failed")
    return total


def epicenter(L: LieAlgebra) -> Subspace:
    """Z*(L): image of the cover's center under the covering projection pi.

    Z(E) is not built.  pi is a surjective homomorphism, so pi(Z(E)) lies
    in Z(L); the kernel is central, so (z, a) is central in E exactly when
    (z, 0) is.  Hence pi(Z(E)) = {z in Z(L) : (z, 0) central in E}, the
    nullspace of the stacked brackets [(z_a, 0), e_j] over Z(L)'s basis
    z_1..z_r.  For non-abelian nilpotent input this lands inside
    Z(L) ^ L^2; it is a combination of Z(L)'s basis by construction, so
    only the L^2 part is asserted.
    """
    return L.sparse_subspace(_epicenter_basis(L))


@_memoized
def _epicenter_basis(L: LieAlgebra) -> tuple[dict[int, Fraction], ...]:
    """The rref basis of Z*(L) as {column: Fraction} rows."""
    total = cover(L)
    center = L.center().basis
    # one row per nonzero coordinate k of some [(z_a, 0), e_j], over the z_a;
    # a row of Z(L) is already (z_a, 0) in E's coordinates
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, z in enumerate(center.sparse_rows):
        for j, img in enumerate(total.ad_images(z)):
            for k, c in img.items():
                if c:
                    rows.setdefault((j, k), {})[a] = c
    coeffs = Matrix.from_sparse(rows.values(), center.rows).sparse_nullspace_basis()
    image = L.sparse_subspace((Matrix.from_sparse(coeffs, center.rows) * center).sparse_rows)
    if not L.is_abelian and not L.derived_subalgebra().contains_subspace(image):
        raise LieError("epicenter escaped Z(L) ^ L^2")
    return image.basis.sparse_rows


def is_capable(L: LieAlgebra) -> bool:
    return epicenter(L).dim == 0


# ---------------------------------------------------------------------------
# exterior and tensor squares (dimensions only)
# ---------------------------------------------------------------------------

def dim_exterior_square(L: LieAlgebra) -> int:
    """dim(L^L) = dim L^2 + dim M(L)."""
    return L.derived_subalgebra().dim + dim_multiplier(L)


def dim_square_part(L: LieAlgebra) -> int:
    """dim(L square L) = d(d+1)/2 for d = dim L^ab (characteristic 0)."""
    d = L.abelianization_dim()
    return d * (d + 1) // 2


def dim_tensor_square(L: LieAlgebra) -> int:
    return dim_exterior_square(L) + dim_square_part(L)


def quotient_exterior_check(L: LieAlgebra) -> bool:
    """dim(L^L) equals dim of the exterior square of L/Z*(L).

    dim (L/Z*)^2 = dim(L^2 + Z*) - dim Z*, and dim M(L/Z*) is read off L's
    d2 (`dim_multiplier_quotient`), so L/Z*(L) is never built.
    """
    if L.is_abelian:
        raise LieError("quotient_exterior_check needs non-abelian input")
    z = epicenter(L)
    if z.dim == 0:
        return True
    quotient_derived = L.derived_subalgebra().sum(z).dim - z.dim
    return dim_exterior_square(L) == quotient_derived + dim_multiplier_quotient(L, z)
