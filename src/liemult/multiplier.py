"""Schur multiplier dimension, covers, epicenter/capability, exterior square.

Two independent routes compute dim M(L):

* cohomology: the Chevalley-Eilenberg slice L* -> Lambda^2 L* -> Lambda^3 L*
  with trivial coefficients; dim M = dim ker(d2) - rank(d1), the size of
  the canonical cocycle basis, read in integers with d2's reduced
  integer echelon rows from the only place the slice is built and d2
  eliminated (`_cohomology`).  The cocycles are picked in kernel
  coordinates: the coboundaries, restricted to d2's free columns, are
  eliminated, and only the kernel vectors kept are built.
* cover (the generators-and-relations elimination count): the homological
  chain slice Lambda^3 L -> Lambda^2 L -> L; adjoining a central generator
  s_ij to every bracket and absorbing redundant ones leaves
  C(n,2) - dim L^2 - rank(boundary_3) survivors; both ranks are read off
  forward echelons, dim L^2 as the rank of the stored brackets (rank d1),
  and rank(boundary_3) off `boundary3`, built as -boundary_3 = d2^T.

Both are exact ranks over Q and must agree on every input; the agreement
is asserted whenever both run.  Their wedge terms (d2 rows, boundary_3
columns) come from one sweep over the stored brackets,
`LieAlgebra.wedge_rows` in `core`, in which each bracket [xa,xb] meets
every third index c once.  d2 and boundary_3 share one checked sweep per
table, a fact in the memo (`_swept`), so a table whose dim M is read by
both routes is swept once; each route still eliminates its own matrix.
Validation sweeps for its Jacobi check too, but does not keep its sweep:
every validated summand would hold one, and in `liemult info
"H(99)⊕A(1)"` the dim-199 summand H(99), validated and never sliced,
would keep about 6 MB of rows, which raised the peak resident memory from
45.4 to 51.2 MB, over the 50 MB that the n = 200 budget allows.
The sweep keys each row by its triple's index in
`combinations(range(n), 3)`, computed by a closed form as the row is met,
so d2 and boundary_3 place the rows by their keys and no matrix
enumerates the C(n,3) triples.  The agreement checks the ranks but not
that assembly; the tests check it against a dense per-entry reference on
brackets with several terms and on the shapes of the benchmark.  L's Jacobi identity is
d2 . d1 = 0; the shared sweep is checked for it once per table, as
validation checks its own (`core._jacobi_checked`), so both routes
refuse a table that breaks it, and such a table keeps no sweep.

The sweep, the Jacobi check, d1, d2 and boundary_3 all read the stored
brackets `L.brackets`, and the coboundaries are d1's columns.  When every
structure constant of L is integral (every table the catalog builds),
`LieAlgebra` stores them as Python ints, and the complex is built and
eliminated with no Fraction from the sweep to the cocycles, primitive
integer rows for any table, so the cover of an integral L is integral.
A table with a non-integral constant is stored in Fractions, and the
elimination clears each row of denominators as it meets it.  No table is
rescaled to integers: a common denominator of constants with thousands
of digits could be far larger than any one row's.

The stem cover is the algebra E = L + Q^m built from the canonical cocycle
representatives, with bracket [(x,a),(y,b)] = ([x,y], f_1(x,y), ...,
f_m(x,y)); `cover` returns E itself.  Its first n coordinates are L's basis,
its last m span the kernel K, and the covering projection is truncation to
the first n coordinates; its table is built by scattering each cocycle's
entries to their pairs, one step per nonzero.  E is a Lie algebra by
construction (L's Jacobi identity, d2 . d1 = 0, is checked by
`cochain_slice`, and each f_t lies in ker d2), so its Jacobi identity is
not re-checked.  K is central because no
bracket of E has an adjoined index as an argument; K lies in E^2, which is
checked at runtime by one rank (dim E^2 = dim L^2 + m).  The
epicenter is the image of Z(E) under the projection, computed without
building Z(E): it is the set of z in Z(L) whose lift (z, 0) is central in
E, one kernel in dim Z(L) unknowns (`kernel_basis`), whose rows read E's
brackets only at the pairs that name a centre row's support, and there
only at E's adjoined coordinates, as the L-part [z, x_j] of a centre
row's bracket is 0.  The kernel's rref rows combine Z(L)'s rref basis
into the rref basis of the image (`linalg.rref_product`), which is not
eliminated again.  L is capable iff that image vanishes.

dim M of a quotient L/K is read off L's own d2 (`dim_multiplier_quotient`),
without building L/K or a second slice.  By inflation (Hochschild-Serre),
the cochains of L/K are the forms on L that vanish when an argument lies
in K, so d2(L/K) is d2(L) restricted to them.  dim M(L/K) is
dim (L/K)^(L/K) = C(q,2) - rank d2(L/K) (`dim_quotient_exterior_square`,
which the bound checks and `quotient_exterior_check` read) less
dim (L/K)^2 (`dim_quotient_derived`).  When K is spanned by basis vectors
(every <x_i> of the bound checks, and gamma3 in an adapted basis), the
rank is read off d2's reduced rows by their pivots
(`dim_coordinate_quotient_exterior_square`): only the rows whose pivot
pair meets K's indices, read by their pivots, are restricted and
eliminated, and no pair map is built.  Any other K takes the general inflation product, eliminated as a
whole, whose pair map wedges the images of `core._projection`.  The
Ganea sequence would give dim M(L/K) for central K from L's cocycles, but
it would make the central-ideal bound hold by construction, so it is used
only in the tests, as a third route.

The checked sweep, the d2 elimination, covers and epicenter bases are
memoized per algebra in `core`'s one memo (`_memoized`), with L^2, the
centre and the central series; `clear_caches()`, re-exported here,
empties it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Collection

from .core import (
    LieAlgebra,
    LieError,
    NotAnIdeal,
    Subspace,
    _ad_terms,
    _jacobi_checked,
    _memoized,
    _projection,
    clear_caches,  # noqa: F401 (re-exported)
    pair_index,
    pair_starts,
)
from .linalg import (
    Matrix,
    Scalar,
    _forward_echelon,
    _primitive,
    add_scaled,
    extend_integer_echelon,
    kernel_basis,
    rref_product,
    sparse_integer_row,
)


@dataclass(frozen=True)
class CochainComplexSlice:
    """d1: L* -> Lambda^2 L*, d2: Lambda^2 L* -> Lambda^3 L* (trivial coeffs),
    rows and columns in the order of `pair_index` and of
    `combinations(range(n), 3)`."""

    d1: Matrix
    d2: Matrix


@_memoized
def _swept(L: LieAlgebra) -> dict[int, dict[int, Scalar]]:
    """L's d2 rows, `L.wedge_rows()`, with d2 . d1 = 0, the Jacobi identity,
    checked on them unless validation has checked the table
    (`core._jacobi_checked`): one checked sweep per table, which
    `cochain_slice` and `boundary3` both read.  A table that fails the
    check stores nothing and raises again.  The rows are shared, so no
    reader changes them."""
    rows = L.wedge_rows()
    _jacobi_checked(L, rows)
    return rows


def cochain_slice(L: LieAlgebra) -> CochainComplexSlice:
    """Build the degree-(1,2) cochain slice from L's checked sweep
    (`_swept`).

    d1 and d2 are the negated transposes of the chain boundaries (d1 = -b2^T,
    d2 = -b3^T); d1 is read off `L.brackets`, d2 off the swept rows,
    so both hold ints for an integral table.  Each swept row of d2 goes to
    its key, its triple's index; no triple is enumerated.  The rows of d1
    for pairs with no bracket, and those of d2 for triples no bracket
    reaches, share one empty row each: at n = 200 a
    dict for each of the C(n,3) = 1,313,400 rows of d2 would take about
    180 MB.
    rank d1 = dim L^2 holds by construction (d1's nonzero rows are the
    negated stored brackets, whose span is L^2), so it is not re-checked.
    """
    n = L.dim
    pairs = pair_index(n)
    table = L.brackets
    unbracketed: dict[int, Scalar] = {}
    d1 = Matrix.from_sparse(
        [{k: -c for k, c in table[p].items()} if p in table else unbracketed for p in pairs], n)
    unreached: dict[int, Scalar] = {}
    rows = [unreached] * comb(n, 3)
    for t, row in _swept(L).items():
        rows[t] = row
    return CochainComplexSlice(d1, Matrix.from_sparse(rows, len(pairs)))


def boundary3(L: LieAlgebra) -> Matrix:
    """Lambda^3 L -> Lambda^2 L, the negated standard boundary, d2^T.

    d(x^y^z) = [x,y]^z - [x,z]^y + [y,z]^x is -d2^T; the cover count reads
    only the rank, so the entries of L's checked sweep (`_swept`, ints for
    an integral table) are used without a sign copy, each placed in the
    column of its key, its triple's index.  The sweep is d2's, but the rank
    is eliminated here, apart from d2.
    """
    n = L.dim
    rows: list[dict[int, Scalar]] = [{} for _ in range(comb(n, 2))]
    for t, row in _swept(L).items():
        for a, x in row.items():
            rows[a][t] = x
    return Matrix.from_sparse(rows, comb(n, 3))


# ---------------------------------------------------------------------------
# multiplier dimension, both methods
# ---------------------------------------------------------------------------

Cochain = dict[int, int]


@dataclass(frozen=True)
class MultiplierResult:
    dim_M: int


@_memoized
def _cohomology(L: LieAlgebra) -> tuple[tuple[Cochain, ...], dict[int, dict[int, int]]]:
    """L's d2, swept (`cochain_slice`) and eliminated once: the canonical
    cocycle basis as primitive {pair index: int} rows, and d2's reduced
    integer echelon rows (`Matrix.integer_rref_rows`) keyed by their pivot
    columns, in pivot order, which the quotient reads restrict.

    The cocycles are picked in kernel coordinates.  The kernel vector v_c
    of d2 (`Matrix.integer_nullspace`) is 1 at its free column c and 0 at
    the other free columns, so a vector of ker d2 has its restriction to
    the free columns as its coordinates in that basis.  The coboundaries
    (d1's columns) lie in ker d2, as d2 . d1 = 0 was checked.  v_c extends
    the span of the coboundaries and of the v_c' with c' < c exactly when
    no restricted coboundary combination has its last nonzero at c, that
    is when c leads no row of their echelon with the largest column
    leading.  Only the dim M vectors kept are built, each made primitive;
    one that is 1 at c already is."""
    slice_ = cochain_slice(L)
    d2 = slice_.d2
    pivots = set(d2.pivot_columns())
    # the coboundaries restricted to the free columns, gathered from d1's
    # sparse rows at negated columns (`_forward_echelon` leads with the
    # smallest): ints when L's table is integral, like d1 itself
    coboundaries: list[dict[int, Scalar]] = [{} for _ in range(L.dim)]
    for a, row in enumerate(slice_.d1.sparse_rows):
        if a not in pivots:
            for k, c in row.items():
                coboundaries[k][-a] = c
    echelon = _forward_echelon(coboundaries)
    kept = [w if w[c] == 1 else _primitive(w)
            for c, w in d2.integer_nullspace(skip={-a for a in echelon})]
    return tuple(kept), dict(zip(d2.pivot_columns(), d2.integer_rref_rows()))


def cocycle_representatives(L: LieAlgebra) -> tuple[Cochain, ...]:
    """Canonical basis of a complement of im(d1) inside ker(d2), memoized
    with d2's reduced integer rows (`_cohomology`).

    Each cocycle is a primitive {pair index: int} row with no zero values:
    the value of the 2-form on x_i^x_j, pairs ordered lexicographically.
    Divided by its entry at its one free column of d2, which is positive,
    it is an rref kernel vector of d2.  Deterministic: the
    coboundary span is extended by nullspace vectors in rref order, keeping
    those that enlarge it (which does not depend on the basis the span is
    reduced in); `_cohomology` finds them in kernel coordinates, without
    extending any span.
    """
    return _cohomology(L)[0]


def dim_multiplier(L: LieAlgebra) -> int:
    """dim M(L) = dim H^2(L; Q) = dim ker(d2) - rank(d1): the size of the
    cocycle basis, so each algebra's slice is built and d2 eliminated once."""
    return len(cocycle_representatives(L))


def dim_multiplier_cover(L: LieAlgebra) -> MultiplierResult:
    """The elimination count: C(n,2) - dim L^2 - rank(boundary_3).

    Adjoining central generators to every bracket, imposing the Jacobi
    relations, and absorbing generators into a basis change on L^2 kills
    exactly rank(boundary_3) + dim L^2 of the C(n,2) candidates.  dim L^2
    is the rank of the stored brackets, read off their forward echelon
    with no Fraction basis built.  L's own Jacobi identity is checked on
    the way, by `cocycle_representatives`.
    """
    reps = cocycle_representatives(L)
    derived = Matrix.from_sparse(list(L.brackets.values()), L.dim).rank()
    m = comb(L.dim, 2) - derived - boundary3(L).rank()
    if len(reps) != m:
        raise LieError("cover and cohomology multiplier dimensions disagree")
    return MultiplierResult(dim_M=m)


def dim_quotient_exterior_square(L: LieAlgebra, K: Subspace) -> int:
    """dim (L/K)^(L/K) for an ideal K of L, without building L/K.

    L/K has the basis `L.quotient` gives it, the x_c at the free columns c
    of K's rref.  Inflation of the 2-forms of L/K to L is injective and
    commutes with d2, so rank d2(L/K) = rank(d2(L) P_K), and

        dim (L/K)^(L/K) = dim ker d2(L/K) = C(q,2) - rank(d2(L) P_K)

    for q = dim L - dim K.  P_K sends column (i,j) of d2(L) to
    pi(x_i) ^ pi(x_j) in L/K's pair coordinates; it is applied to d2's
    reduced integer rows, as rowspace(d2 P_K) = rowspace(d2) P_K.  When K
    is spanned by basis vectors (`Subspace.unit_pivots`), the rank is read
    by pivots (`dim_coordinate_quotient_exterior_square`); any other K takes the
    general product (`_inflate_pairs`).  Raises NotAnIdeal where
    `L.quotient` does.
    """
    if not L.is_ideal(K):
        raise NotAnIdeal("subspace is not an ideal")
    units = K.unit_pivots()
    if len(units) == K.dim:
        return dim_coordinate_quotient_exterior_square(L, units)
    q = L.dim - K.dim
    echelon: dict[int, dict[int, int]] = {}
    for w in _inflate_pairs(L, K):
        extend_integer_echelon(echelon, w)
    return q * (q - 1) // 2 - len(echelon)


def dim_coordinate_quotient_exterior_square(L: LieAlgebra, indices: Collection[int]) -> int:
    """dim (L/K)^(L/K) for the ideal K spanned by the distinct basis vectors
    x_s, s in `indices`; the caller vouches that K is an ideal.

    P_K keeps the pairs that avoid the indices, so d2(L/K) is d2's reduced
    rows restricted to those pairs.  A reduced row is zero at every other
    row's pivot (its smallest column), so a row whose pivot pair avoids the
    indices keeps a pivot that no other restricted row touches.  With T the
    t rows whose pivot pair meets the indices,

        rank d2(L/K) = rank d2(L) - t + rank(T restricted),

    and only T is restricted and eliminated.  Without rows (every A(n))
    nothing is built; otherwise the pairs met are found by the closed form
    of their pair coordinates, |indices| * (n - 1) of them, not by a map
    over all C(n,2) pairs, and T is read at those of them that are pivots,
    as d2's rows are keyed by their pivots, with no scan of the other rows.
    """
    n = L.dim
    q = n - len(indices)
    rows = _cohomology(L)[1]
    rank = len(rows)
    if rows:
        start = pair_starts(n)
        met = {start[a] + b if a < b else start[b] + a
               for a in indices for b in range(n) if b != a}
        led = [rows[p] for p in met if p in rows]
        echelon: dict[int, dict[int, int]] = {}
        for w in led:
            extend_integer_echelon(echelon, {c: x for c, x in w.items() if c not in met})
        rank += len(echelon) - len(led)
    return q * (q - 1) // 2 - rank


def dim_multiplier_quotient(L: LieAlgebra, K: Subspace) -> int:
    """dim M(L/K) = dim (L/K)^(L/K) - dim (L/K)^2 for an ideal K of L, both
    read off L; raises NotAnIdeal where `L.quotient` does."""
    return dim_quotient_exterior_square(L, K) - dim_quotient_derived(L, K)


def _inflate_pairs(L: LieAlgebra, K: Subspace) -> list[dict[int, int]]:
    """d2(L) P_K for any ideal K: column (i,j) goes to the wedge of
    pi(x_i) and pi(x_j) in L/K's coordinates, both scaled by one common
    denominator (`core._projection`); L/K's dual forms are the forms on L
    that vanish on K."""
    image, _ = _projection(K.basis)
    # e_a ^ e_b as the single-entry row {pair column: +-1} of L/K, a != b
    unit_wedge: dict[tuple[int, int], dict[int, int]] = {}
    for col, (a, b) in enumerate(pair_index(L.dim - K.dim)):
        unit_wedge[(a, b)], unit_wedge[(b, a)] = {col: 1}, {col: -1}
    inflate: dict[int, dict[int, int]] = {}
    for idx, (i, j) in enumerate(pair_index(L.dim)):
        wedge: dict[int, int] = {}
        for a, u in image[i].items():
            for b, v in image[j].items():
                if a != b:
                    add_scaled(wedge, u * v, unit_wedge[(a, b)])
        if wedge:
            inflate[idx] = wedge
    out = []
    for w in _cohomology(L)[1].values():
        row: dict[int, int] = {}
        for idx, x in w.items():
            if idx in inflate:
                add_scaled(row, x, inflate[idx])
        out.append(row)
    return out


def dim_quotient_derived(L: LieAlgebra, K: Subspace) -> int:
    """dim (L/K)^2 = dim(L^2 + K) - dim K, for a subspace K of L: the rank
    of L^2's basis rows reduced modulo K (rank d1 of L/K), with no sum or
    intersection built."""
    projected: dict[int, dict[int, int]] = {}
    return sum(extend_integer_echelon(projected, sparse_integer_row(K.residue(row)))
               for row in L.derived_subalgebra().basis.sparse_rows)


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
    with kernel E^2 ^ K, so it holds iff dim E^2 = dim L^2 + m.  E's
    stored brackets span E^2, so dim E^2 is their rank, read off the
    forward echelon: no subspace of E is built or memoized.  E holds
    no reference to L, so equal algebras share one memoized cover.
    """
    n = L.dim
    reps = cocycle_representatives(L)
    m = len(reps)
    # each cocycle's entries scattered to their pairs in one pass, so each
    # pair holds its adjoined terms n + t with t ascending
    adjoined: dict[int, dict[int, int]] = {}
    for col, f in enumerate(reps, n):
        for idx, x in f.items():
            adjoined.setdefault(idx, {})[col] = x
    # L's terms first; L's stored rows and the scattered ints are handed over
    # as they are, not copied (a positive multiple of a cocycle changes
    # neither E's rank nor Z*(L))
    table = L.brackets
    brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for idx, pair in enumerate(pair_index(n)):
        terms = table.get(pair)
        extra = adjoined.pop(idx, None)
        if extra is not None:
            terms = {**terms, **extra} if terms else extra
        if terms:
            brackets[pair] = terms
    label = f"cover({L.name})" if L.name else "cover"
    # Jacobi for E is L's (d2 . d1 = 0, checked by cochain_slice) plus each
    # cocycle lying in ker d2, and a central extension of a nilpotent
    # algebra is nilpotent, so E is built without validation
    total = LieAlgebra.from_stored(n + m, brackets, name=label)
    if Matrix.from_sparse(total.brackets.values(), n + m).rank() != L.derived_subalgebra().dim + m:
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
    return Subspace.canonical(L, _epicenter_basis(L))


@_memoized
def _epicenter_basis(L: LieAlgebra) -> Matrix:
    """The rref basis of Z*(L).

    Z(L)'s rref rows b_a are scaled to ints z_a = s_a * b_a, s_a the lcm of
    b_a's denominators and z_a's entry at b_a's pivot.  A row of Z(L) is
    already (z_a, 0) in E's coordinates, and the L-part of [(z_a, 0), e_j]
    is [z_a, x_j] = 0, so only E's adjoined coordinates k >= n are read.
    Every [(z_a, 0), e_j] is read in one pass over E's stored brackets, at
    the pairs that name an index of z_a's support (`_ad_terms`), not by a
    sweep of the whole table per z_a, and no copy of the table is made.  The
    system takes the type of E's table, so for an integral E it is ints up
    to its rref kernel, in the coordinates of the z_a.  Each kernel row,
    multiplied by s_a at a and divided by its value at its pivot, is the
    rref kernel row in the coordinates of the b_a, which combines them into
    the rref basis of Z*(L) with no elimination (`linalg.rref_product`)."""
    n = L.dim
    total = cover(L)
    basis = L.center().basis
    center = [sparse_integer_row(b) for b in basis.sparse_rows]
    scale = [z[p] for z, p in zip(center, basis.pivot_columns())]
    # row (j, k) is coordinate k >= n of [(z, 0), e_j] over the z_a; each
    # term is added to it as read, so no image is held
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    for a, j, x, terms in _ad_terms(total.brackets, center):
        for k, c in terms.items():
            if k >= n:
                row = rows.setdefault((j, k), {})
                y = row[a] + x * c if a in row else x * c
                if y:
                    row[a] = y
                else:
                    del row[a]
    coeffs = kernel_basis(rows.values(), len(center))
    pivots = coeffs.pivot_columns()
    coeffs = Matrix.from_sparse(
        [{a: x * scale[a] / scale[p] for a, x in row.items()}
         for p, row in zip(pivots, coeffs.sparse_rows)], len(center))._own_rref(pivots)
    image = Subspace.canonical(L, rref_product(coeffs, basis))
    if not L.is_abelian and not L.derived_subalgebra().contains_subspace(image):
        raise LieError("epicenter escaped Z(L) ^ L^2")
    return image.basis


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
    """dim(L^L) equals dim of the exterior square of L/Z*(L), which is
    read off L's d2 (`dim_quotient_exterior_square`), so L/Z*(L) is never
    built."""
    if L.is_abelian:
        raise LieError("quotient_exterior_check needs non-abelian input")
    return dim_exterior_square(L) == dim_quotient_exterior_square(L, epicenter(L))
