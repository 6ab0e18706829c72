"""Term-by-term references for `liemult.core.LieAlgebra` that only the tests use."""

from liemult.core import LieAlgebra, NotAnIdeal, Subspace, _ad_images
from liemult.linalg import Matrix, Q, Vector, add_scaled, rref_basis

from linalg_helpers import nullspace_basis, sparse_nullspace_basis, transpose


def jacobi_defect(alg, i: int, j: int, k: int) -> Vector:
    """J(x_i, x_j, x_k) of one triple of `alg`, term by term: the reference
    the tests hold `LieAlgebra.check_jacobi` to."""
    out = [Q(0)] * alg.dim
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for l, cl in alg.bracket_basis(a, b).items():
            for m, cm in alg.bracket_basis(l, c).items():
                out[m] += cl * cm
    return tuple(out)


def ad_images(alg, u) -> list[dict]:
    """[u, x_j] for every j, as `core._ad_images` reads them at the pairs
    of the stored table that name an index of u's support."""
    images = _ad_images(alg.brackets, [u])
    return [images.get((0, j), {}) for j in range(alg.dim)]


def swept_ad_images(alg, u) -> list[dict]:
    """[u, x_j] for every j, in one sweep over the whole stored table: the
    reference `ad_images` and the systems read at the pairs that name u's
    support are held to."""
    outs: list[dict] = [{} for _ in range(alg.dim)]
    for (i, j), terms in alg.brackets.items():
        ui, uj = u.get(i), u.get(j)
        if ui:
            add_scaled(outs[j], ui, terms)
        if uj:
            add_scaled(outs[i], -uj, terms)
    return outs


def residue_quotient(alg, ideal) -> tuple[LieAlgebra, list[dict]]:
    """(L/I, images) as `LieAlgebra.quotient` returns them, built pair by
    pair with `Subspace.residue`: pi(v) is the residue of v modulo I read
    at I's free columns, and the table holds pi([x_a, x_b]) for every pair
    of free columns.  The reference the tests hold `quotient` and the
    quotient inflation of `multiplier` to; it shares no projection with
    them."""
    if not alg.is_ideal(ideal):
        raise NotAnIdeal("subspace is not an ideal")
    pivots = set(ideal.basis.pivot_columns())
    free = [c for c in range(alg.dim) if c not in pivots]
    pos = {c: a for a, c in enumerate(free)}

    def project(terms):
        # the residue is zero at every pivot column, so its columns are free
        return {pos[c]: x for c, x in sorted(ideal.residue(terms).items())}

    images = [project({c: Q(1)}) for c in range(alg.dim)]
    table = {}
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            terms = project(alg.bracket_basis(free[a], free[b]))
            if terms:
                table[(a, b)] = terms
    return LieAlgebra(len(free), table, validate=False), images


def fraction_centralizer_mod(alg, s: Matrix) -> Matrix:
    """The rref basis of {x : [x, L] in S}, S the span of the rref basis s,
    on Fraction rows: each stored bracket reduced by `Subspace.residue`, and
    the nullspace of the stacked rows eliminated again by `rref_basis`."""
    space = Subspace.canonical(alg, s)
    rows: dict[tuple[int, int], dict] = {}
    for (i, j), terms in alg.brackets.items():
        for k, c in space.residue(terms).items():
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = -c
    if not rows:
        return Matrix.identity(alg.dim)
    stacked = Matrix.from_sparse([rows[key] for key in sorted(rows)], alg.dim)
    return rref_basis(Matrix.from_sparse(sparse_nullspace_basis(stacked), alg.dim))


def fraction_upper_series(alg) -> list[Matrix]:
    """Z_1, Z_2, ... up to L by `fraction_centralizer_mod`, from Z_0 = 0."""
    series = [fraction_centralizer_mod(alg, Matrix.zero(0, alg.dim)._own_rref(()))]
    while series[-1].rows < alg.dim:
        series.append(fraction_centralizer_mod(alg, series[-1]))
    return series


def fraction_product_space(alg, u: Matrix, v: Matrix) -> Matrix:
    """The rref basis of [U, V] from the Fraction rows [a, x_j] of
    `swept_ad_images`, a sweep of the whole table per row a of U."""
    rows: list[dict] = []
    for a in u.sparse_rows:
        images = Matrix.from_sparse(swept_ad_images(alg, a), alg.dim)
        rows += images.sparse_rows if v.rows == alg.dim else (v * images).sparse_rows
    return rref_basis(Matrix.from_sparse(rows, alg.dim))


def fraction_lower_series(alg) -> list[Matrix]:
    """L, [L, L], ... down to 0 by `fraction_product_space`."""
    series = [Matrix.identity(alg.dim)]
    while series[-1].rows:
        series.append(fraction_product_space(alg, series[-1], series[0]))
    return series


def dense_residue(s, v):
    """Reference for `Subspace.residue`: the dense vector v reduced by one
    rref row after another."""
    w = list(v)
    for row, pcol in zip(s.basis.data, s.basis.pivot_columns()):
        f = w[pcol]
        if f:
            w = [x - f * y if y else x for x, y in zip(w, row)]
    return w


def residue_intersection(u, v):
    """Reference for `Subspace.intersect` on dense rows: the coefficients
    of U's basis are the nullspace of the transposed matrix of dense
    residues mod V, and U ^ V is the span of their combinations."""
    L = u.ambient
    residues = Matrix([dense_residue(v, r) for r in u.basis.data], cols=L.dim)
    coeffs = Matrix(nullspace_basis(transpose(residues)), cols=u.dim)
    return L.subspace((coeffs * u.basis).data)
