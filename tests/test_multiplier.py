"""Multiplier dimensions, covers, capability, exterior/tensor squares."""

import functools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Q
from itertools import combinations
from math import comb, gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from liemult import (
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    abelian,
    cover,
    dim_exterior_square,
    dim_multiplier,
    dim_multiplier_cover,
    dim_multiplier_quotient,
    dim_square_part,
    dim_tensor_square,
    direct_sum,
    epicenter,
    get,
    heisenberg,
    is_capable,
    presentation_from_dict,
    presentation_to_dict,
    quotient_exterior_check,
    s_invariant,
)
import liemult.catalog as cat
from liemult import core, invariants, linalg, multiplier, verify
from liemult.core import AmbientMismatch, LieError
from liemult.invariants import central_basis_vectors, check_central_ideal_bound, invariant_report
from liemult.linalg import (
    Matrix, _forward_echelon, add_scaled, qf, rref_basis, sparse_integer_row)
from liemult.multiplier import (
    boundary3,
    cochain_slice,
    cocycle_representatives,
)
from liemult.verify import WITNESS_EXTENSIONS, build_closure, verify_samples

from catalog_helpers import full_samples
from core_helpers import (
    fraction_lower_series, fraction_product_space, fraction_upper_series, residue_intersection,
    residue_quotient, swept_ad_images)
from linalg_helpers import (
    column, nullspace_basis, sparse_nullspace_basis, transpose, unit_vector, value_type)


# -- dimension values ---------------------------------------------------------

def test_abelian_multiplier_is_pair_count():
    for n in range(7):
        assert dim_multiplier(abelian(n)) == n * (n - 1) // 2


@pytest.mark.parametrize(
    "name,expected",
    [
        ("L_{6,26}", 8),
        ("L_{6,13}", 4),
        ("357A", 8),
        ("247N", 7),
        ("L_{6,14}", 2),
        ("27A", 10),
        ("1457A", 6),
        ("137A", 7),
    ],
)
def test_named_multiplier_values(name, expected):
    assert dim_multiplier(get(name)) == expected


def test_parameterized_values():
    assert dim_multiplier(get("L_{6,21}", eps=1)) == 4
    assert dim_multiplier(get("L_{6,21}", eps=-1)) == 4
    assert dim_multiplier(get("L_{6,22}", eps=0)) == 8


def test_memo_hashes_each_algebra_once_and_shares_equal_ones(monkeypatch):
    """The memo contract: a repeated lookup on one instance hashes no
    Fraction (its key keeps its hash), two equal instances share one
    computation of dim M, L^2, the centre and both central series, and an
    instance held across clear_caches() computes afresh."""
    table = get("L_{6,10}").brackets
    calls = []
    real_slice = multiplier.cochain_slice
    monkeypatch.setattr(multiplier, "cochain_slice",
                        lambda alg: calls.append("cochain_slice") or real_slice(alg))

    def counted(name, real):
        def method(self, *args):
            calls.append(name)
            return real(self, *args)
        return method

    for name in ("product_space", "_centralizer_mod"):
        monkeypatch.setattr(LieAlgebra, name, counted(name, getattr(LieAlgebra, name)))

    def facts(alg):
        return (dim_multiplier(alg), alg.derived_subalgebra().basis, alg.center().basis,
                alg.lower_central_series()[-2].basis, alg.upper_central_series()[0].basis,
                alg.lower_central_dims(), alg.upper_central_dims())

    multiplier.clear_caches()
    held = LieAlgebra(6, table)
    expected = facts(held)
    first = sorted(calls)
    assert set(first) == {"cochain_slice", "product_space", "_centralizer_mod"}
    calls.clear()
    hashes = []
    real_hash = Q.__hash__
    with monkeypatch.context() as m:
        m.setattr(Q, "__hash__", lambda x: hashes.append(x) or real_hash(x))
        again = facts(held)
    assert again == expected and hashes == []
    assert facts(LieAlgebra(6, table)) == expected
    assert calls == []
    multiplier.clear_caches()
    assert facts(held) == expected
    assert sorted(calls) == first


def test_S1_value_consistent_with_listing():
    alg = get("S1")
    assert dim_multiplier(alg) == 15
    assert s_invariant(alg) == 7


def test_both_methods_H1():
    h = heisenberg(1)
    assert dim_multiplier(h) == 2
    result = dim_multiplier_cover(h)
    assert result.dim_M == 2
    assert len(cocycle_representatives(h)) == 2


def test_multiplier_in_a_non_adapted_basis():
    """H(1) in the basis x1, x2, x2 + x3: ad(x1) has diagonal entries, so two
    boundary terms of one triple land on the same pair and must add up."""
    skew = LieAlgebra(3, {(0, 1): {1: Q(-1), 2: Q(1)}, (0, 2): {1: Q(-1), 2: Q(1)}})
    assert dim_multiplier(skew) == dim_multiplier_cover(skew).dim_M == 2


def test_witness_extension_values_cover_method():
    values = {e.name: dim_multiplier_cover(e.build()).dim_M for e in WITNESS_EXTENSIONS}
    assert values["ext(37A; [x1,x7]=x8)"] == 14
    assert values["stem(37A; [x1,x3]=x8)"] == 14
    assert values["ext(147A; [x6,x8]=x7)"] == 12
    assert values["ext(L_{5,8}+A(2); [x6,x8]=x7)"] == 14


def test_method_agreement_on_catalog_defaults():
    import liemult.catalog as cat
    for entry in cat.entries():
        alg = entry.build()
        assert dim_multiplier_cover(alg).dim_M == dim_multiplier(alg), entry.name


# -- complexes ------------------------------------------------------------------

def test_differentials_compose_to_zero():
    for name in ("L_{5,8}", "L_{6,13}", "257J"):
        slice_ = cochain_slice(get(name))
        assert (slice_.d2 * slice_.d1).is_zero()


def test_d1_rank_is_derived_dim():
    for name in ("L_{6,26}", "37A", "157"):
        alg = get(name)
        assert cochain_slice(alg).d1.rank() == alg.derived_subalgebra().dim


# tables that break Jacobi: several violating triples with multi-term
# brackets, the first in sweep order on a middle index; one violation
JACOBI_BREAKING = [
    (5, {(0, 3): {1: Q(1), 4: Q(2)}, (1, 2): {0: Q(1, 2), 4: Q(-1)},
         (0, 1): {2: Q(1), 3: Q(-2)}, (2, 4): {3: Q(3)}}),
    (4, {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}, (1, 3): {2: Q(1)}}),
]


@pytest.mark.parametrize("case", JACOBI_BREAKING)
def test_unvalidated_jacobi_violation_stops_both_routes(case):
    """An unvalidated table reaches the slice's Jacobi check through
    either route, which names the triple and defect validation names."""
    n, table = case
    with pytest.raises(JacobiViolation) as validated:
        LieAlgebra(n, table)
    multiplier.clear_caches()
    for route in (cochain_slice, dim_multiplier, dim_multiplier_cover):
        with pytest.raises(JacobiViolation) as err:
            route(LieAlgebra(n, table, validate=False))
        assert (err.value.triple, err.value.defect) == (
            validated.value.triple, validated.value.defect), route.__name__


def test_boundaries_compose_to_zero():
    for name in ("L_{6,10}", "1357A"):
        alg = get(name)
        assert (boundary2(alg) * boundary3(alg)).is_zero()


def _negated(m):
    return Matrix([[-x for x in r] for r in m.data], cols=m.cols)


def _reference_wedge_rows(alg, signs):
    """Dense per-entry assembly of the wedge boundary, one row per triple:
    for xi^xj^xk, add signs[t] * [xa,xb]^xc over the three terms
    (xa,xb,xc) = (xi,xj,xk), (xi,xk,xj), (xj,xk,xi), folding l^c with l > c
    into -(c^l).  It visits every triple and looks up its three brackets, the
    reverse of the one sweep over the stored brackets (`wedge_rows`) that
    builds d2 and boundary_3 and must agree with it."""
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {p: a for a, p in enumerate(pairs)}
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                row = [Q(0)] * len(pairs)
                for (a, b, c), sign in zip(((i, j, k), (i, k, j), (j, k, i)), signs):
                    for l, cl in alg.bracket_basis(a, b).items():
                        if l < c:
                            row[pos[(l, c)]] += sign * cl
                        elif l > c:
                            row[pos[(c, l)]] -= sign * cl
                rows.append(row)
    return Matrix(rows, cols=len(pairs))


def reference_d2(alg):
    # (d2 f)(xi,xj,xk) = -f([xi,xj],xk) + f([xi,xk],xj) - f([xj,xk],xi)
    return _reference_wedge_rows(alg, (-1, 1, -1))


def reference_boundary3(alg):
    # d(x^y^z) = [x,y]^z - [x,z]^y + [y,z]^x, columns indexed by triples
    return transpose(_reference_wedge_rows(alg, (1, -1, 1)))


def boundary2(alg):
    """Lambda^2 L -> L, x^y -> [x,y]; columns indexed by pairs."""
    pairs = multiplier.pair_index(alg.dim)
    rows = [{} for _ in range(alg.dim)]
    for a, (i, j) in enumerate(pairs):
        for k, c in alg.bracket_basis(i, j).items():
            rows[k][a] = c
    return Matrix.from_sparse(rows, len(pairs))


def _shear(alg, a, b, t, reverse):
    """alg in the basis y with y_b = x_b + t*x_a and y_i = x_i otherwise;
    each bracket's terms are listed in descending index order if reverse."""
    n = alg.dim
    basis = [list(unit_vector(n, i)) for i in range(n)]
    basis[b][a] += t
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = list(alg.bracket(basis[i], basis[j]))
            w[a] -= t * w[b]  # x-coordinates to y-coordinates
            terms = [(k, c) for k, c in enumerate(w) if c]
            if terms:
                brackets[(i, j)] = dict(reversed(terms) if reverse else terms)
    return LieAlgebra(n, brackets, name=f"{alg.name} sheared")


def _multi_term_algebras():
    """Presentations whose brackets have several terms, listed in descending
    or mixed index order: no catalog algebra has such a bracket."""
    l43_a1 = {(0, 1): {2: Q(1)}, (0, 2): {4: Q(1), 3: Q(1)}}  # L4_3 + A1, skewed
    h1_skew = {(0, 1): {2: Q(1), 1: Q(-1)}, (0, 2): {2: Q(1), 1: Q(-1)}}
    out = [
        (LieAlgebra(5, l43_a1, name="L4_3+A1 skew"), 4),
        (LieAlgebra(3, h1_skew, name="H(1) skew, reversed"), 2),
    ]
    for name, a, b, t in (("L_{6,10}", 0, 4, Q(2)), ("1357A", 2, 5, Q(-3, 2)),
                          ("L_{5,8}", 1, 3, Q(1))):
        base = get(name)
        once = _shear(base, a, b, t, reverse=True)
        out.append((_shear(once, b, a, Q(1, 3), reverse=False), dim_multiplier(base)))
        out.append((_shear(once, b, a, Q(1, 3), reverse=True), dim_multiplier(base)))
    return out


def test_wedge_assembly_matches_dense_reference_on_multi_term_brackets():
    """d2 and b3 share one sparse wedge helper, so their duality cannot catch
    a fault in it; the dense per-entry assembly can."""
    from liemult.multiplier import clear_caches
    clear_caches()  # the cache key sorts terms, so an ascending copy could answer
    for alg, expected in _multi_term_algebras():
        slice_ = cochain_slice(alg)
        assert slice_.d2 == reference_d2(alg), alg.name
        assert boundary3(alg) == _negated(reference_boundary3(alg)), alg.name
        assert dim_multiplier(alg) == expected, alg.name
        assert dim_multiplier_cover(alg).dim_M == expected, alg.name
        assert cover(alg).dim == alg.dim + expected, alg.name


def test_wedge_sweep_drops_cancelled_terms():
    """Terms cancel in these presentations (the "H(1) skew" rows come out
    empty); no swept row, and no row of d2 or boundary_3, holds a zero."""
    for alg, _ in _multi_term_algebras():
        assert all(all(row.values()) for row in alg.wedge_rows().values()), alg.name
        for m in (cochain_slice(alg).d2, boundary3(alg)):
            assert all(all(row.values()) for row in m.sparse_rows), alg.name
    h1_skew = _multi_term_algebras()[1][0]
    assert h1_skew.wedge_rows() == {0: {}}


def benchmark_shaped_sums(seed=13):
    """One direct sum of two catalog samples for each total dim 10-14, drawn
    from a fixed seed: the shapes the large-dimension benchmark draws."""
    rng = random.Random(seed)
    pool = [entry.build(v) for entry in cat.entries() for v in entry.sample_values()]
    sums = []
    for total in range(10, 15):
        a, b = rng.choice(pool), rng.choice(pool)
        while a.dim + b.dim != total:
            a, b = rng.choice(pool), rng.choice(pool)
        sums.append(direct_sum(a, b))
    return sums


def scaled(alg, c):
    """cL: every structure constant of alg times c, validated.  It is
    isomorphic to alg (x -> x/c), and a non-integral c takes the Fraction
    path of the sweep and the kernel."""
    table = {p: {k: c * x for k, x in terms.items()} for p, terms in alg.brackets.items()}
    return LieAlgebra(alg.dim, table, name=f"{c}*{alg.name}")


def is_integral(alg):
    return all(x.denominator == 1 for terms in alg.brackets.values() for x in terms.values())


def test_cochains_are_negated_chain_boundaries():
    """d1 = -b2^T and d2 = -b3^T exactly, and d2 and b3 equal the dense
    reference assembly, where `boundary3` builds -b3 = d2^T (the cover
    route reads only its rank), on every catalog sample, H(4..7) and sums of
    total dim 10-14 (up to 455 x 105), and on a non-integral multiple of
    some.  Every value is nonzero and exact, each matrix is all-int or
    all-Fraction, and d1, d2, b3 and b2 (the stored brackets as they are)
    of an integral table are all-int."""
    algebras = [entry.build(v) for entry in cat.entries() for v in full_samples(entry)]
    algebras += [heisenberg(m) for m in range(4, 8)] + benchmark_shaped_sums()
    assert [alg.dim for alg in algebras[-9:]] == [9, 11, 13, 15, 10, 11, 12, 13, 14]
    algebras += [scaled(alg, Q(-2, 3)) for alg in algebras[-9::4]]
    for alg in algebras:
        slice_ = cochain_slice(alg)
        b2, b3 = boundary2(alg), boundary3(alg)
        assert slice_.d1 == _negated(transpose(b2)), alg.name
        assert slice_.d2 == transpose(b3), alg.name
        assert slice_.d2 == reference_d2(alg), alg.name
        assert b3 == _negated(reference_boundary3(alg)), alg.name
        # the kernel clears a Fraction row of denominators and takes an int
        # row as it is, reading the first value's type for the row's
        kinds = {value_type(m) for m in (slice_.d1, slice_.d2, b3, b2)} - {None}
        assert kinds == ({int} if is_integral(alg) else {Q}), alg.name


def spy_kernel_entry(monkeypatch, module):
    """Record the rows `module` hands to `_forward_echelon`, the one entry
    of the elimination, and those handed to `sparse_integer_row` to be
    cleared of denominators: (reached, cleared).  A row of an integral
    table must reach the first as an int row and never the second, so no
    Fraction is built only to be cleared again."""
    reached, cleared = [], []

    def forward(rows):
        rows = list(rows)
        reached.extend(rows)
        return _forward_echelon(rows)

    def clear(terms):
        cleared.append(terms)
        return sparse_integer_row(terms)

    monkeypatch.setattr(module, "_forward_echelon", forward)
    monkeypatch.setattr(module, "sparse_integer_row", clear)
    return reached, cleared


def test_integral_tables_reach_the_kernel_with_no_fraction(monkeypatch):
    """For H(7) and two benchmark-shaped sums, every row of d2 and b3
    reaches `_forward_echelon` in the elimination as itself, an int row,
    and so does each coboundary in `_cohomology`, restricted to d2's free
    columns (a column of d1 with d2's pivot columns dropped, at negated
    columns): no row is cleared of denominators, so no Fraction is built
    from an integral table only to be cleared again."""
    built = {}
    reached, cleared = spy_kernel_entry(monkeypatch, linalg)
    coboundaries, cleared_coboundaries = spy_kernel_entry(monkeypatch, multiplier)

    def spy(name, fn):
        def wrapped(alg):
            built[name] = fn(alg)
            return built[name]
        monkeypatch.setattr(multiplier, name, wrapped)

    spy("cochain_slice", cochain_slice)
    spy("boundary3", boundary3)
    dropped = 0
    for alg in (heisenberg(7), benchmark_shaped_sums()[3], benchmark_shaped_sums()[-1]):
        multiplier.clear_caches()
        for spied in (reached, cleared, coboundaries, cleared_coboundaries):
            spied.clear()
        fresh = LieAlgebra(alg.dim, alg.brackets, name=alg.name, validate=False)
        assert dim_multiplier_cover(fresh).dim_M == dim_multiplier(alg)
        d1, d2 = built["cochain_slice"].d1, built["cochain_slice"].d2
        rows = [r for r in d2.sparse_rows + built["boundary3"].sparse_rows if r]
        ids = {id(r) for r in reached}
        assert rows and all(id(r) in ids for r in rows), alg.name
        pivots = set(d2.pivot_columns())
        columns = transpose(d1).sparse_rows
        restricted = [{-a: x for a, x in col.items() if a not in pivots} for col in columns]
        assert coboundaries == restricted, alg.name
        dropped += sum(len(col) for col in columns) - sum(len(r) for r in coboundaries)
        for r in reached + coboundaries:
            assert all(type(x) is int for x in r.values()), alg.name
        assert not cleared and not cleared_coboundaries, alg.name
    # L_{6,17}+147E(-1) has a bracket at a pivot column of d2
    assert dropped > 0


def fraction_epicenter(alg):
    """The rref basis of Z*(L) on Fraction rows: each [(z_a, 0), e_j] by a
    sweep of the cover's whole table per centre row z_a (`swept_ad_images`),
    and the nullspace of the stacked rows eliminated again by `rref_basis`."""
    total, center = cover(alg), alg.center().basis
    rows = {}
    for a, z in enumerate(center.sparse_rows):
        for j, img in enumerate(swept_ad_images(total, z)):
            for k, c in img.items():
                rows.setdefault((j, k), {})[a] = c
    coeffs = sparse_nullspace_basis(Matrix.from_sparse(rows.values(), center.rows))
    return rref_basis(Matrix.from_sparse(coeffs, center.rows) * center)


def structure_algebras():
    """The closure, H(4..7), the benchmark-shaped sums, some of them scaled
    by 1/3 and -7/5 (the Fraction path), and each closure member with
    dim L^2 >= 2 in a basis changed by a seeded pair of integral shears,
    where the series, the centre and their rows are seldom spanned by
    basis vectors."""
    closure = [m.algebra for m in build_closure(9)]
    sums = benchmark_shaped_sums()
    algebras = closure + [heisenberg(m) for m in range(4, 8)] + sums
    algebras += [scaled(alg, c) for alg in closure[::7] + sums + [heisenberg(5)]
                 for c in (Q(1, 3), Q(-7, 5))]
    rng = random.Random(29)
    for alg in closure:
        if alg.derived_subalgebra().dim >= 2:
            a, b = rng.sample(range(alg.dim), 2)
            t1, t2 = rng.choice((-2, -1, 1, 2)), rng.choice((-3, 1, 3))
            algebras.append(_shear(_shear(alg, a, b, t1, reverse=False), b, a, t2, reverse=True))
    return algebras


def test_structure_bases_match_the_fraction_route():
    """The centre, both central series, a product of two proper subspaces
    and the epicenter, built in ints off the stored brackets with each kernel
    read off one elimination, equal the bases of the Fraction route (every
    bracket reduced by `Subspace.residue`, each kernel eliminated twice, the
    epicenter swept over the whole cover per centre row): the same rows of
    the same Fraction values."""
    for alg in structure_algebras():
        multiplier.clear_caches()
        center, derived = alg.center(), alg.derived_subalgebra()
        pairs = list(zip([s.basis for s in alg.upper_central_series()],
                         fraction_upper_series(alg), strict=True))
        pairs += zip([s.basis for s in alg.lower_central_series()],
                     fraction_lower_series(alg), strict=True)
        pairs.append((alg.product_space(center, derived),
                      fraction_product_space(alg, center.basis, derived.basis)))
        pairs.append((epicenter(alg).basis, fraction_epicenter(alg)))
        for got, want in pairs:
            if isinstance(got, core.Subspace):
                got = got.basis
            assert (got.rows, got.cols) == (want.rows, want.cols), alg.name
            assert got.sparse_rows == want.sparse_rows, alg.name
            assert value_type(got) in (Q, None), alg.name


def test_epicenter_combines_centre_rows_of_different_denominators():
    """H(2)+A(1) and H(2)+A(2) in bases changed by three shears: Z(L)'s
    rref rows are cleared to ints by different factors, and Z*(L) is no
    multiple of one of them, so the kernel solved on the int rows must be
    rescaled before it combines the rref rows.  The epicenter equals the
    Fraction route's."""
    cases = [
        (direct_sum(heisenberg(2), abelian(1)), [(1, 5, Q(1)), (5, 0, Q(3)), (1, 4, Q(-3, 2))]),
        (direct_sum(heisenberg(2), abelian(2)), [(6, 4, Q(-1, 2)), (3, 6, Q(2)), (2, 3, Q(-3))]),
    ]
    for alg, shears in cases:
        for a, b, t in shears:
            alg = _shear(alg, a, b, t, reverse=False)
        center, image = alg.center().basis, epicenter(alg)
        assert len({sparse_integer_row(row)[p] for p, row in
                    zip(center.pivot_columns(), center.sparse_rows)}) > 1, alg.name
        assert not any(image.contains_subspace(alg.sparse_subspace([row]))
                       for row in center.sparse_rows), alg.name
        assert image.basis.sparse_rows == fraction_epicenter(alg).sparse_rows, alg.name


def test_fingerprint_meet_matches_the_intersection():
    """Z(L) ^ L^2 (`Subspace.intersect`, no second elimination) equals the
    dense residue-nullspace reference both ways, and the fingerprint's
    dim(Z ^ L^2) is its dimension, on `structure_algebras`: in the sheared
    and scaled tables Z and L^2 are often not spanned by basis vectors."""
    skew = 0
    for alg in structure_algebras():
        z, d = alg.center(), alg.derived_subalgebra()
        meet = z.intersect(d)
        assert meet == residue_intersection(z, d) == residue_intersection(d, z), alg.name
        assert invariants.fingerprint(alg)[4] == meet.dim, alg.name
        skew += any(len(row) > 1 for row in z.basis.sparse_rows + d.basis.sparse_rows)
    assert skew > 150


def test_quotient_matches_the_residue_reference():
    """`LieAlgebra.quotient` (pi read off `core._projection`, the table from
    the stored brackets of free pairs) equals `residue_quotient` (each pair
    of free columns reduced by `Subspace.residue`): the same table by
    canonical key and the same images, Fraction for Fraction, at the
    centre, L^2, every lower and upper term and a central line through a
    fractional combination of the centre's rows, on `structure_algebras`."""
    checked = non_coordinate = 0
    for alg in structure_algebras():
        z = alg.center()
        mix = {}
        for t, row in enumerate(z.basis.sparse_rows):
            add_scaled(mix, Q((-1) ** t * (t + 1), t + 2), row)
        ideals = [z, alg.derived_subalgebra(), alg.sparse_subspace([mix])]
        ideals += alg.lower_central_series() + alg.upper_central_series()
        for ideal in ideals:
            (got, images), (want, want_images) = alg.quotient(ideal), residue_quotient(alg, ideal)
            assert got.canonical_key() == want.canonical_key(), (alg.name, ideal.basis)
            assert images == want_images, (alg.name, ideal.basis)
            assert all(type(x) is Q for row in images for x in row.values()), alg.name
            checked += 1
            non_coordinate += any(len(row) > 1 for row in ideal.basis.sparse_rows)
    assert checked > 6000 and non_coordinate > 1200


def test_structure_systems_reach_the_kernel_with_no_fraction(monkeypatch):
    """On integral tables, the rows of the centre's, each upper step's,
    each lower step's and a product's system, and of the epicenter's over
    the cover, reach `_forward_echelon` in the elimination as int rows,
    and none is cleared of denominators: no Fraction is built only to be
    cleared again.  The cover of an integral table is integral."""
    reached, cleared = spy_kernel_entry(monkeypatch, linalg)
    closure = [m.algebra for m in build_closure(9)]
    for alg in closure + [heisenberg(m) for m in range(4, 8)] + benchmark_shaped_sums():
        assert is_integral(alg), alg.name
        multiplier.clear_caches()
        fresh = LieAlgebra(alg.dim, alg.brackets, name=alg.name, validate=False)
        steps = [fresh.center, fresh.lower_central_series, fresh.upper_central_series,
                 lambda: fresh.product_space(fresh.center(), fresh.derived_subalgebra()),
                 lambda: epicenter(fresh)]
        for k, step in enumerate(steps):
            if k == 4:
                # E is built first, and its own table is integral
                assert is_integral(cover(fresh)), alg.name
            reached.clear()
            cleared.clear()
            step()
            # a non-abelian centre and lower series always eliminate rows
            assert any(reached) or k > 1 or alg.is_abelian, alg.name
            assert all(type(x) is int for r in reached for x in r.values()), alg.name
            assert not cleared, alg.name


@pytest.mark.parametrize("c", [Q(1, 3), Q(7, 5), Q(-5, 7)])
def test_scaled_tables_take_the_fraction_path_to_the_same_results(c):
    """cL is isomorphic to L and its d2 is c times L's, so the Fraction path
    (cL) and the int path (L) must agree: the same cocycle basis, the same
    reduced d2 rows (for c < 0 up to the sign of each row), the same dim M
    by both routes, and d2(cL) = c d2(L) entry by entry.  On every closure
    member and H(4..7)."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    for alg in algebras:
        assert is_integral(alg), alg.name
        c_alg = scaled(alg, c)
        assert cocycle_representatives(c_alg) == cocycle_representatives(alg), alg.name
        rows, c_rows = multiplier._cohomology(alg)[1], multiplier._cohomology(c_alg)[1]
        assert list(rows) == list(c_rows), alg.name
        for r, s in zip(rows.values(), c_rows.values()):
            assert s == r or (c < 0 and s == {j: -v for j, v in r.items()}), alg.name
        dim_m = dim_multiplier(alg)
        assert dim_multiplier(c_alg) == dim_multiplier_cover(c_alg).dim_M == dim_m, alg.name
        d2, c_d2 = cochain_slice(alg).d2, cochain_slice(c_alg).d2
        assert value_type(d2) in (int, None) and value_type(c_d2) in (Q, None), alg.name
        assert c_d2.sparse_rows == tuple(
            [{j: c * v for j, v in r.items()} for r in d2.sparse_rows]), alg.name


def triple_keyed_d2_rows(alg):
    """The d2 row of every triple a stored bracket reaches, keyed by the
    triple (i, j, k) in `combinations` order and built per triple from its
    three brackets: the reference the sweep (`wedge_rows`) and its keys are
    held to.  A row whose terms cancel is empty."""
    n, start = alg.dim, multiplier.pair_starts(alg.dim)
    rows = {}
    for i, j, k in combinations(range(n), 3):
        if not {(i, j), (i, k), (j, k)} & alg.brackets.keys():
            continue
        row = {}
        for (a, b, c), sign in zip(((i, j, k), (i, k, j), (j, k, i)), (-1, 1, -1)):
            for l, cl in alg.bracket_basis(a, b).items():
                if l != c:
                    idx = start[l] + c if l < c else start[c] + l
                    x = row.get(idx, 0) + (sign if l < c else -sign) * cl
                    if x:
                        row[idx] = x
                    else:
                        row.pop(idx, None)
        rows[(i, j, k)] = row
    return rows


def enumerated_d2(alg):
    """d2 with a row per triple in `combinations` order, built by
    enumerating every triple: the build `cochain_slice` places by index."""
    reference = triple_keyed_d2_rows(alg)
    return Matrix.from_sparse([reference.get(t, {}) for t in combinations(range(alg.dim), 3)],
                              comb(alg.dim, 2))


def enumerated_boundary3(alg):
    """d2^T with a column per triple, filled by enumerating every triple."""
    reference = triple_keyed_d2_rows(alg)
    rows = [{} for _ in range(comb(alg.dim, 2))]
    for t, triple in enumerate(combinations(range(alg.dim), 3)):
        for a, x in reference.get(triple, {}).items():
            rows[a][t] = x
    return Matrix.from_sparse(rows, comb(alg.dim, 3))


def test_wedge_rows_are_keyed_by_the_combinations_index():
    """For every n <= 20, on a seeded table that brackets about half the
    pairs (every pair for n <= 4) with one to three terms, the sweep keys
    each reached triple's row by the triple's index in
    `combinations(range(n), 3)`: the same rows as the per-triple reference,
    and no key for a triple that no bracket reaches."""
    rng = random.Random(33)
    for n in range(21):
        pairs = [p for p in combinations(range(n), 2) if n <= 4 or rng.random() < 0.5]
        table = {p: {rng.randrange(n): rng.choice((1, -1, 2)) for _ in range(rng.randint(1, 3))}
                 for p in pairs}
        alg = LieAlgebra(n, table, validate=False)
        index = {t: a for a, t in enumerate(combinations(range(n), 3))}
        expected = {index[t]: row for t, row in triple_keyed_d2_rows(alg).items()}
        assert alg.wedge_rows() == expected, n


def test_rows_placed_by_triple_index_match_the_enumerated_builds():
    """d2 and b3 place each swept row at its key, the triple's index; they
    equal the builds that enumerate all C(n,3) triples, on the closure,
    H(4..7) and the benchmark-shaped sums.  d1's rows for pairs with no
    bracket, and d2's for triples no bracket reaches, are one shared empty
    row each."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    algebras += benchmark_shaped_sums()
    for alg in algebras:
        slice_ = cochain_slice(alg)
        assert slice_.d2 == enumerated_d2(alg), alg.name
        assert boundary3(alg) == enumerated_boundary3(alg), alg.name
        assert len({id(r) for r in slice_.d1.sparse_rows if not r}) <= 1, alg.name
        reference = triple_keyed_d2_rows(alg)
        unreached = {id(slice_.d2.sparse_rows[t])
                     for t, triple in enumerate(combinations(range(alg.dim), 3))
                     if triple not in reference}
        assert len(unreached) <= 1, alg.name


def test_derived_basis_is_eliminated_from_the_integral_table(monkeypatch):
    """L^2's basis is the rref of the stored brackets: equal to the basis of
    their Fraction copies, on the closure and on scaled Fraction tables.
    The stored rows themselves reach the kernel, as int rows for an
    integral table, and none is cleared of denominators.  Of a Fraction
    table, the unit rows become pivots with no clearing, and each longer
    row is cleared once, as the Fraction row left when the unit columns
    are dropped, unless nothing is left."""
    reached, cleared = spy_kernel_entry(monkeypatch, linalg)
    closure = [m.algebra for m in build_closure(9)]
    for alg in closure + [scaled(alg, Q(-2, 3)) for alg in closure[::17]]:
        multiplier.clear_caches()
        reached.clear()
        cleared.clear()
        basis = core._derived_basis(alg)
        assert [id(r) for r in reached] == [id(r) for r in alg.brackets.values()], alg.name
        kinds = {type(x) for r in reached for x in r.values()}
        if is_integral(alg):
            assert kinds <= {int} and not cleared, alg.name
        else:
            units = {c for r in alg.brackets.values() if len(r) == 1 for c in r}
            stripped = [{c: x for c, x in r.items() if c not in units}
                        for r in alg.brackets.values() if len(r) > 1]
            assert kinds == {Q} and cleared == [r for r in stripped if r], alg.name
            assert all(type(x) is Q for r in cleared for x in r.values()), alg.name
        expected = rref_basis(Matrix.from_sparse(
            [{k: Q(x) for k, x in terms.items()} for terms in alg.brackets.values()], alg.dim))
        assert basis == expected and value_type(basis) in (Q, None), alg.name


def _eval_form(form, pairs, u, v):
    """Evaluate a sparse pair-coordinate 2-form on two coordinate vectors."""
    total = Q(0)
    for idx, c in form.items():
        i, j = pairs[idx]
        total += c * (u[i] * v[j] - u[j] * v[i])
    return total


def test_cocycles_vanish_on_jacobi_boundaries():
    for name in ("L_{6,13}", "L_{6,21}(1)"):
        alg = get(name)
        pairs = multiplier.pair_index(alg.dim)
        reps = cocycle_representatives(alg)
        n = alg.dim
        for f in reps:
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        total = Q(0)
                        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                            w = alg.bracket(unit_vector(n, a), unit_vector(n, b))
                            total += _eval_form(f, pairs, w, unit_vector(n, c))
                        assert total == 0


class ReferenceSpanTracker:
    """Dense Fraction incremental row reduction: add(v) reports whether v
    enlarged the span.  The reference the integer echelon must agree with."""

    def __init__(self):
        self.rows: list[tuple[int, list[Q]]] = []

    def add(self, vec) -> bool:
        w = list(vec)
        for pcol, row in self.rows:
            f = w[pcol]
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        piv = next((idx for idx, x in enumerate(w) if x), None)
        if piv is None:
            return False
        inv = 1 / Q(w[piv])
        if inv != 1:
            w = [x * inv for x in w]
        self.rows.append((piv, w))
        return True


def reference_cocycle_representatives(alg):
    slice_ = cochain_slice(alg)
    tracker = ReferenceSpanTracker()
    for j in range(slice_.d1.cols):
        tracker.add(column(slice_.d1, j))
    return tuple(v for v in nullspace_basis(slice_.d2) if tracker.add(v))


def test_cocycle_representatives_match_dense_reference():
    """The cocycles are primitive int rows with no zero values, each with
    one entry, positive, at a free column of d2.  Each divided exactly by
    that entry and densified, they are the reference's vectors, which it
    keeps by extending the coboundary span with every kernel vector: on
    the closure, H(4..7), the benchmark-shaped sums, A(1..8), and tables
    scaled by non-integral constants (the Fraction path)."""
    closure = [m.algebra for m in build_closure(9)]
    sums = benchmark_shaped_sums()
    algebras = closure + [heisenberg(m) for m in range(4, 8)] + sums
    algebras += [abelian(k) for k in range(1, 9)]
    algebras += [scaled(alg, c) for alg in closure[::13] + sums[:2] + [heisenberg(4)]
                 for c in (Q(1, 3), Q(-7, 5))]
    assert len(algebras) == 263 + 4 + 5 + 8 + 2 * 24
    for alg in algebras:
        reps = cocycle_representatives(alg)
        pairs = alg.dim * (alg.dim - 1) // 2
        pivots = set(cochain_slice(alg).d2.pivot_columns())
        assert all(type(x) is int and x for f in reps for x in f.values()), alg.name
        divided = []
        for f in reps:
            assert gcd(*f.values()) == 1, alg.name
            (free,) = [j for j in f if j not in pivots]
            assert f[free] > 0, alg.name
            divided.append({j: Q(x, f[free]) for j, x in f.items()})
        dense = Matrix.from_sparse(divided, pairs).data
        assert dense == reference_cocycle_representatives(alg), alg.name


def reference_dim_multiplier(alg):
    """The rank formula dim M = C(n,2) - rank d1 - rank d2 on a fresh slice."""
    slice_ = cochain_slice(alg)
    return len(multiplier.pair_index(alg.dim)) - slice_.d1.rank() - slice_.d2.rank()


def test_dim_multiplier_matches_rank_formula():
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    quotients = [alg.quotient(alg.lower_central_series()[2])[0]
                 for alg in algebras if alg.nilpotency_class >= 3]
    assert len(algebras) == 263 + 4 and quotients
    for alg in algebras + quotients:
        assert dim_multiplier(alg) == reference_dim_multiplier(alg), alg.name


def test_rank_d1_is_dim_derived():
    """rank d1 = dim L^2: d1's nonzero rows are the negated stored brackets,
    whose span is L^2.  cochain_slice does not re-check it, so it is
    checked here, on unvalidated quotients too."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    quotients = [alg.quotient(alg.lower_central_series()[2])[0]
                 for alg in algebras if alg.nilpotency_class >= 3]
    assert len(algebras) == 263 + 4 and quotients
    for alg in algebras + quotients:
        assert cochain_slice(alg).d1.rank() == alg.derived_subalgebra().dim, alg.name


def test_one_cochain_slice_per_algebra(monkeypatch):
    built = []

    def counted(alg):
        built.append(alg.name)
        return cochain_slice(alg)

    monkeypatch.setattr(multiplier, "cochain_slice", counted)
    multiplier.clear_caches()
    alg = get("L_{6,10}")
    assert dim_multiplier(alg) == 6
    assert len(cocycle_representatives(alg)) == 6
    assert dim_multiplier_cover(alg).dim_M == 6
    assert cover(alg).dim == alg.dim + 6
    assert not is_capable(alg)
    assert built == ["L_{6,10}"]


def test_both_routes_keep_d2_and_boundary3_sparse(monkeypatch):
    """Elimination, the nullspace, the coboundaries and the d2.d1 = 0 and
    b2.b3 = 0 checks read the sparse rows only: the dense view of d1, d2 and
    boundary_3 is never built."""
    built = {}

    def spy(name, fn):
        def wrapped(alg):
            built[name] = fn(alg)
            return built[name]
        monkeypatch.setattr(multiplier, name, wrapped)

    densified = []
    dense_rows = linalg._dense_rows

    def recorded(rows, cols):
        densified.append(rows)
        return dense_rows(rows, cols)

    spy("cochain_slice", cochain_slice)
    spy("boundary3", boundary3)
    monkeypatch.setattr(linalg, "_dense_rows", recorded)
    multiplier.clear_caches()
    alg = heisenberg(7)
    assert dim_multiplier(alg) == dim_multiplier_cover(alg).dim_M == 2 * 49 - 7 - 1
    d1, d2, b3 = built["cochain_slice"].d1, built["cochain_slice"].d2, built["boundary3"]
    assert (d2.rows, d2.cols) == (b3.cols, b3.rows) == (455, 105)
    # no dense view of d1, d2 or boundary_3 was built: `Matrix.data` hands
    # its own sparse rows to `linalg._dense_rows`
    assert not any(rows is m.sparse_rows for rows in densified for m in (d1, d2, b3))
    assert len(d2.data) == 455 and densified[-1] is d2.sparse_rows


# -- covers ----------------------------------------------------------------------

def bound_check_ideals(alg):
    """The ideals K whose dim M(L/K) the bound checks and L/Z*(L) read:
    <x_i> for central x_i, gamma3 when the class is >= 3, and Z*(L) when
    nonzero."""
    ideals = [alg.subspace([unit_vector(alg.dim, i)]) for i in central_basis_vectors(alg)]
    if alg.nilpotency_class >= 3:
        ideals.append(alg.lower_central_series()[2])
    if not alg.is_abelian and epicenter(alg).dim:
        ideals.append(epicenter(alg))
    return ideals


def cover_parts(alg):
    """(E, images, K) for the stem cover E of alg: images[c] is the image of
    E's x_c under the truncation to the first dim L coordinates, and K is
    the span of the adjoined coordinates."""
    E = cover(alg)
    n = alg.dim
    images = [{c: Q(1)} if c < n else {} for c in range(E.dim)]
    return E, images, E.subspace([unit_vector(E.dim, k) for k in range(n, E.dim)])


def check_projection(source, target, images, kernel):
    """The checks a trusted projection skips: pi, given by images[c] =
    pi(x_c) as sparse rows, maps onto target (full rank), pi([x_i, x_j]) =
    [pi x_i, pi x_j] on every basis pair, and ker pi is `kernel`."""
    assert len(images) == source.dim
    # row c is pi(x_c): pi's matrix transposed
    rows = Matrix.from_sparse(images, target.dim)
    assert rows.rank() == target.dim
    dense = rows.data
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            lhs = [Q(0)] * target.dim
            for c, x in source.bracket_basis(i, j).items():
                for a, y in images[c].items():
                    lhs[a] += x * y
            assert tuple(lhs) == target.bracket(dense[i], dense[j]), (i + 1, j + 1)
    assert source.sparse_subspace(sparse_nullspace_basis(transpose(rows))) == kernel


def trusted_constructions(alg):
    """(source, target, images, kernel) for the cover of alg (source E,
    target alg) and for L/K at each of the bound checks' ideals K (source
    alg, target L/K), the built algebras and projections made without
    validation.  The bound checks read these quotients' dim M off L's d2
    rather than build them; `LieAlgebra.quotient` still builds them for
    `central_product` and the tests."""
    E, images, kernel = cover_parts(alg)
    out = [(E, alg, images, kernel)]
    for ideal in bound_check_ideals(alg):
        target, images = alg.quotient(ideal)
        out.append((alg, target, images, ideal))
    return out


def test_trusted_quotients_and_covers_pass_full_validation(monkeypatch):
    # direct sums are built trusted too: record the closure's (paddings and
    # catalog recipes) and the Kunneth suite's, and re-validate each
    sums = []

    def recorded(a, b, name=None):
        sums.append(direct_sum(a, b, name))
        return sums[-1]

    monkeypatch.setattr(verify, "direct_sum", recorded)
    monkeypatch.setattr(cat, "_direct_sum", recorded)
    closure = build_closure(9)
    paddings = sum(m.origin == "padding" for m in closure)
    assert verify.kunneth_suite().passed
    assert len(sums) > paddings + 50
    for total in sums:
        LieAlgebra(total.dim, total.brackets)
    algebras = [m.algebra for m in closure] + [heisenberg(m) for m in range(4, 8)]
    algebras += [cover(get(name)) for name in ("L_{6,10}", "27A")]
    built = [c for alg in algebras for c in trusted_constructions(alg)]
    assert len(built) > 2 * len(algebras)
    for source, target, images, kernel in built:
        # the built algebra (E or L/K) passes Jacobi and nilpotency, and the
        # projection the full-rank, bracket and kernel checks
        for alg in (source, target):
            LieAlgebra(alg.dim, alg.brackets)
        check_projection(source, target, images, kernel)
    for alg in algebras:
        # the stem property: K is central in E and lies in E^2
        E, _, kernel = cover_parts(alg)
        assert E.dim == alg.dim + dim_multiplier(alg), alg.name
        assert E.center().contains_subspace(kernel), alg.name
        assert E.derived_subalgebra().contains_subspace(kernel), alg.name


def test_cover_builds_no_product_space_and_no_series_on_E(monkeypatch):
    """The stem check reads dim E^2 as the rank of E's stored brackets, so E
    comes back with no subspace built on it and no fact memoized under its
    key."""
    calls = []
    series, product = LieAlgebra.lower_central_series, LieAlgebra.product_space

    def counted_series(self):
        calls.append(("series", self))
        return series(self)

    def counted_product(self, u, v):
        calls.append(("product", self))
        return product(self, u, v)

    monkeypatch.setattr(LieAlgebra, "lower_central_series", counted_series)
    monkeypatch.setattr(LieAlgebra, "product_space", counted_product)
    multiplier.clear_caches()
    L = get("L_{6,10}")
    E = cover(L)
    assert E.dim == 12
    assert [kind for kind, alg in calls if alg is E] == []

    def stored(alg):
        return list(core._MEMO.get(alg.canonical_key(), ()))

    assert stored(E) == []
    # the check sees a fact of E once one is stored
    E.derived_subalgebra()
    assert stored(E) == [core._derived_basis.__wrapped__]


# -- dim M of a quotient, read off L's d2 ---------------------------------------

def quotient_cross_check_ideals(alg):
    """The bound checks' ideals plus Z(L), L^2 (not central) and a central
    line through a fractional combination of Z(L)'s basis (not spanned by
    basis vectors once dim Z(L) >= 2)."""
    z = alg.center().basis_vectors()
    mix = [sum((Q((-1) ** t * (t + 1), t + 2) * v[c] for t, v in enumerate(z)), Q(0))
           for c in range(alg.dim)]
    return bound_check_ideals(alg) + [alg.center(), alg.derived_subalgebra(), alg.subspace([mix])]


def is_coordinate(ideal):
    return all(sum(1 for x in row if x) == 1 for row in ideal.basis.data)


def test_dim_multiplier_quotient_matches_quotient_algebra():
    """Each ideal is also read in the sheared basis y_n = x_n - (3/2) x_1,
    where a central <x_n> is no longer spanned by a basis vector: dim M of
    the quotient does not depend on the basis."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    checked = non_coordinate = 0
    for alg in algebras:
        a, b, t = 0, alg.dim - 1, Q(-3, 2)
        sheared = _shear(alg, a, b, t, reverse=False)
        for ideal in quotient_cross_check_ideals(alg):
            expected = dim_multiplier(residue_quotient(alg, ideal)[0])
            assert dim_multiplier_quotient(alg, ideal) == expected, (alg.name, ideal.basis)
            image = sheared.subspace(
                [v[:a] + (v[a] - t * v[b],) + v[a + 1:] for v in ideal.basis_vectors()])
            assert dim_multiplier_quotient(sheared, image) == expected, (alg.name, image.basis)
            checked += 2
            non_coordinate += (not is_coordinate(ideal)) + (not is_coordinate(image))
    # both ways of restricting d2 are reached: the pivot read for the
    # ideals spanned by basis vectors, the general inflation for the rest
    assert checked > 3600 and non_coordinate > 1000 and checked - non_coordinate > 1000


def test_d2_echelon_has_rank_d2_rows_spanning_d2():
    """The d2 rows memoized with the cocycle basis (`_cohomology`) are an
    echelon basis of d2's row space: rank d2 rows with distinct leading
    columns, which add nothing to d2's rows, each keyed by its leading
    column, d2's pivot, in pivot order.  They are d2's rref rows as
    primitive integer rows (`sparse_integer_row`), up to the sign of each
    row."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    for alg in algebras:
        d2 = cochain_slice(alg).d2
        by_pivot = multiplier._cohomology(alg)[1]
        rows = list(by_pivot.values())
        assert len(rows) == d2.rank(), alg.name
        assert list(by_pivot) == [min(r) for r in rows] == list(d2.pivot_columns()), alg.name
        stacked = [{j: Q(x) for j, x in r.items()} for r in rows] + list(d2.sparse_rows)
        assert Matrix.from_sparse(stacked, d2.cols).rank() == d2.rank(), alg.name
        for row, ref in zip(rows, rref_basis(d2).sparse_rows):
            ref = sparse_integer_row(ref)
            assert row in (ref, {j: -x for j, x in ref.items()}), alg.name


def test_dim_multiplier_quotient_edge_cases():
    for alg in (get("L_{6,10}"), get("1357A"), heisenberg(2), abelian(3)):
        assert dim_multiplier_quotient(alg, alg.zero_subspace()) == dim_multiplier(alg)
        assert dim_multiplier_quotient(alg, alg.full_space()) == 0
    h = heisenberg(1)
    not_ideal = h.subspace([unit_vector(3, 0)])
    with pytest.raises(NotAnIdeal):
        h.quotient(not_ideal)
    with pytest.raises(NotAnIdeal):
        dim_multiplier_quotient(h, not_ideal)
    other = heisenberg(1)
    with pytest.raises(AmbientMismatch):
        other.quotient(h.center())
    with pytest.raises(AmbientMismatch):
        dim_multiplier_quotient(other, h.center())
    # coordinates of different algebras are never compared
    for u, v in ((h.full_space(), abelian(5).full_space()),
                 (abelian(5).full_space(), h.center()),
                 (other.full_space(), h.center())):
        for op in (u.contains_subspace, u.sum, u.intersect):
            with pytest.raises(AmbientMismatch):
                op(v)


@functools.cache
def small_catalog_algebras():
    return [e.build(v) for e in cat.entries() if e.dim <= 5 for v in verify_samples(e)]


FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@seed(9)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dim_multiplier_quotient_on_sums(data):
    """On direct sums of catalog algebras (as in the Kunneth suite), in a
    sheared basis: K is a term of the lower central series plus random
    central vectors."""
    pool = small_catalog_algebras()
    alg = direct_sum(data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)))
    a, b = data.draw(st.lists(st.integers(0, alg.dim - 1), min_size=2, max_size=2, unique=True))
    alg = _shear(alg, a, b, data.draw(FRACTIONS), reverse=data.draw(st.booleans()))
    series = alg.lower_central_series()
    term = series[data.draw(st.integers(1, len(series) - 1))]
    z = alg.center().basis_vectors()
    extra = []
    for _ in range(data.draw(st.integers(0, 2))):
        coeffs = data.draw(st.lists(FRACTIONS, min_size=len(z), max_size=len(z)))
        extra.append([sum((x * v[c] for x, v in zip(coeffs, z)), Q(0)) for c in range(alg.dim)])
    ideal = term.sum(alg.subspace(extra))
    assert dim_multiplier_quotient(alg, ideal) == dim_multiplier(residue_quotient(alg, ideal)[0])


def ganea_dim_multiplier_quotient(alg, i):
    """dim M(L/<x_i>) for central x_i by the Ganea sequence
    K (x) L^ab -> M(L) -> M(L/K) -> K ^ L^2 -> 0: dim M(L) + [x_i in L^2]
    minus the rank of the values f_t(x_j, x_i) over the cocycle basis f_t
    (a coboundary vanishes on a central argument)."""
    pos = {p: a for a, p in enumerate(multiplier.pair_index(alg.dim))}

    def value(f, j):
        if j == i:
            return Q(0)
        return f.get(pos[(j, i)], Q(0)) if j < i else -f.get(pos[(i, j)], Q(0))

    reps = cocycle_representatives(alg)
    rank = Matrix([[value(f, j) for j in range(alg.dim)] for f in reps], cols=alg.dim).rank()
    in_derived = alg.derived_subalgebra().contains(unit_vector(alg.dim, i))
    return len(reps) + in_derived - rank


def test_central_ideal_bound_meet_matches_intersection():
    """check_central_ideal_bound reads dim(L^2 ^ K) as dim L^2 - dim(L^2 + K)
    + dim K; `Subspace.intersect` is the reference, on every central line
    <x_i> of the closure."""
    checked = 0
    for member in build_closure(9):
        alg = member.algebra
        derived = alg.derived_subalgebra()
        for i in central_basis_vectors(alg):
            ideal = alg.sparse_subspace([{i: Q(1)}])
            meet = derived.intersect(ideal).dim
            chk = check_central_ideal_bound(alg, ideal)
            assert chk.lhs == dim_multiplier(alg) + meet, (alg.name, i)
            assert chk.rhs == (dim_multiplier_quotient(alg, ideal)
                               + (alg.dim - 1 - derived.dim + meet)), (alg.name, i)
            checked += 1
    assert checked == 758


def _sheared_coordinates(v, a, b, t):
    """x-coordinates of v to the y-coordinates of `_shear(alg, a, b, t, ...)`."""
    return v[:a] + (v[a] - t * v[b],) + v[a + 1:]


BASIS_FREE_FIELDS = ("n", "dim_derived", "nilpotency_class", "dim_M", "s", "t", "capable",
                     "gamma_dims", "z_dims", "dim_exterior", "dim_tensor")


def test_invariant_report_survives_a_change_of_basis():
    """Metamorphic: each closure member, in a basis changed by a seeded pair
    of shears, has the same basis-free report fields and the same bound
    checks whose id names no basis vector; the central-ideal check of each
    <x_i>, read in the new basis, is the same check.  There gamma3 and those
    lines are often not spanned by basis vectors, so the general inflation
    of `dim_multiplier_quotient` must give what the pivot read gave."""
    rng = random.Random(19)
    non_coordinate = 0
    for member in build_closure(9):
        alg = member.algebra
        a, b = rng.sample(range(alg.dim), 2)
        t1, t2 = (Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(2))
        sheared = _shear(_shear(alg, a, b, t1, reverse=False), b, a, t2, reverse=True)
        before, after = invariant_report(alg), invariant_report(sheared)
        for field in BASIS_FREE_FIELDS:
            assert getattr(before, field) == getattr(after, field), (member.name, field)
        assert ([c for c in before.bound_checks if "[" not in c.check_id]
                == [c for c in after.bound_checks if "[" not in c.check_id]), member.name
        lines = {c.check_id: c for c in before.bound_checks if "[" in c.check_id}
        for i in central_basis_vectors(alg):
            v = _sheared_coordinates(unit_vector(alg.dim, i), a, b, t1)
            image = sheared.subspace([_sheared_coordinates(v, b, a, t2)])
            chk = check_central_ideal_bound(sheared, image)
            assert replace(chk, check_id=f"{chk.check_id}[x{i + 1}]") == lines.pop(
                f"{chk.check_id}[x{i + 1}]"), (member.name, i)
            non_coordinate += not is_coordinate(image)
        assert not lines, member.name
        if alg.nilpotency_class >= 3:
            non_coordinate += not is_coordinate(sheared.lower_central_series()[2])
    assert non_coordinate > 200


def test_ganea_identity_on_central_basis_vectors():
    """A third route to dim M(L/<x_i>), kept out of the program: used there,
    it would make the central-ideal bound hold by construction."""
    checked = 0
    for member in build_closure(9):
        alg = member.algebra
        for i in central_basis_vectors(alg):
            ideal = alg.subspace([unit_vector(alg.dim, i)])
            assert ganea_dim_multiplier_quotient(alg, i) == dim_multiplier_quotient(alg, ideal)
            checked += 1
    assert checked == 758


def central_line_algebras():
    """The closure, H(1..7), the benchmark-shaped sums, and tables scaled
    by non-integral constants (the Fraction path)."""
    closure = [m.algebra for m in build_closure(9)]
    sums = benchmark_shaped_sums()
    algebras = closure + [heisenberg(m) for m in range(1, 8)] + sums
    return algebras + [scaled(alg, c) for alg in closure[::13] + sums[:2] + [heisenberg(4)]
                       for c in (Q(1, 3), Q(-7, 5))]


def test_central_basis_vectors_match_the_centre():
    """The central indices read off the table are those whose x_i reduces
    to nothing against Z(L)."""
    for alg in central_line_algebras():
        center = alg.center()
        assert central_basis_vectors(alg) == [
            i for i in range(alg.dim) if not center.residue({i: Q(1)})], alg.name


def test_central_basis_vectors_disagreeing_with_the_centre_raise(monkeypatch):
    alg = direct_sum(get("L_{5,9}"), abelian(1))
    assert central_basis_vectors(alg) == [3, 4, 5]
    monkeypatch.setattr(LieAlgebra, "center", lambda self: self.sparse_subspace([{3: Q(1)}]))
    with pytest.raises(LieError, match="disagree with Z"):
        central_basis_vectors(alg)


def test_central_line_checks_match_check_central_ideal_bound():
    """The one-pass central-line checks of `bound_checks` are
    `check_central_ideal_bound(L, <x_i>)` for every central x_i."""
    lines = 0
    for alg in central_line_algebras():
        want = []
        for i in central_basis_vectors(alg):
            chk = check_central_ideal_bound(alg, alg.sparse_subspace([{i: Q(1)}]))
            want.append(replace(chk, check_id=f"{chk.check_id}[x{i + 1}]"))
        assert invariants._central_line_checks(alg) == want, alg.name
        lines += len(want)
    assert lines == 924


def column_selection_pairs(alg, K):
    """d2(L) P_K for K spanned by the basis vectors at its pivots, by column
    selection: pi sends those to 0 and the other x_c, in order, to L/K's
    basis, so P_K keeps the pairs that avoid the pivots, which, in order,
    are L/K's pairs.  The reference the pivot read is held to."""
    pivots = set(K.basis.pivot_columns())
    kept = (idx for idx, (i, j) in enumerate(multiplier.pair_index(alg.dim))
            if i not in pivots and j not in pivots)
    select = {idx: col for col, idx in enumerate(kept)}
    return [{select[idx]: x for idx, x in w.items() if idx in select}
            for w in multiplier._cohomology(alg)[1].values()]


def test_pivot_restriction_rank_matches_column_selection():
    """dim (L/K)^(L/K) read by d2's pivots equals C(q,2) less the rank of
    the selected columns, for every ideal K spanned by basis vectors that
    the bound checks or L/Z*(L) read: the central lines, gamma3 and Z*(L)
    when they are spanned by basis vectors, and every <x_i, x_j> of two
    central basis vectors."""
    counted = Counter()
    for alg in central_line_algebras():
        central = central_basis_vectors(alg)
        ideals = [("line", alg.sparse_subspace([{i: Q(1)}])) for i in central]
        ideals += [("plane", alg.sparse_subspace([{i: Q(1)}, {j: Q(1)}]))
                   for i, j in combinations(central, 2)]
        if alg.nilpotency_class >= 3:
            ideals.append(("gamma3", alg.lower_central_series()[2]))
        if not alg.is_abelian:
            ideals.append(("epicenter", epicenter(alg)))
        for kind, K in ideals:
            if not K.dim or not is_coordinate(K):
                continue
            q = alg.dim - K.dim
            echelon = {}
            for w in column_selection_pairs(alg, K):
                linalg.extend_integer_echelon(echelon, w)
            want = q * (q - 1) // 2 - len(echelon)
            assert multiplier.dim_coordinate_quotient_exterior_square(
                alg, K.basis.pivot_columns()) == want, (alg.name, kind, K.basis)
            assert multiplier.dim_quotient_exterior_square(alg, K) == want, (alg.name, kind)
            counted[kind] += 1
    assert counted == {"line": 924, "plane": 1135, "gamma3": 243, "epicenter": 114}, counted


def test_unit_row_read_of_derived_membership_matches_the_residue():
    """x_i lies in L^2 exactly when L^2's rref basis has the row x_i
    (`Subspace.unit_pivots`), read with no residue.  On every structure
    algebra, the sheared and scaled tables included, it agrees with the
    residue of x_i against L^2 at every index, also where L^2 is not
    spanned by basis vectors."""
    counted = Counter()
    for alg in structure_algebras():
        derived = alg.derived_subalgebra()
        units = derived.unit_pivots()
        for i in range(alg.dim):
            inside = not derived.residue({i: Q(1)})
            assert (i in units) == inside, (alg.name, i)
            counted["inside" if inside else "outside"] += 1
        counted["not coordinate"] += len(units) < derived.dim
    assert counted == {"inside": 1699, "outside": 3028, "not coordinate": 127}, counted


def per_pair_cover_brackets(alg):
    """E's bracket table built pair by pair, looking up every cocycle for
    every pair: L's terms first, then n + t for t ascending."""
    n = alg.dim
    reps = cocycle_representatives(alg)
    brackets = {}
    for idx, (i, j) in enumerate(multiplier.pair_index(n)):
        terms = dict(alg.bracket_basis(i, j))
        for t, f in enumerate(reps):
            if idx in f:
                terms[n + t] = f[idx]
        if terms:
            brackets[(i, j)] = terms
    return brackets


def test_cover_brackets_match_the_per_pair_build():
    """`cover` scatters each cocycle's entries to their pairs; the table,
    pair order and term order included, is the per-pair build."""
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    for alg in algebras + benchmark_shaped_sums() + [abelian(6)]:
        got = [(p, list(terms.items())) for p, terms in cover(alg).brackets.items()]
        want = [(p, list(terms.items())) for p, terms in per_pair_cover_brackets(alg).items()]
        assert got == want, alg.name


def stored_form(alg):
    """The table as stored: pairs and terms in order, each value with its type."""
    return [(p, [(k, type(x), x) for k, x in terms.items()]) for p, terms in alg.brackets.items()]


def test_trusted_tables_equal_normalised_ones():
    """`LieAlgebra.from_stored` keeps the rows that `cover` and
    `direct_sum` hand it, and makes an int/Fraction mix Fractions: each
    table equals the one `LieAlgebra(dim, table, validate=False)`
    normalises from it, in canonical key, value types, pair order and term
    order, on integral tables, on tables scaled by 1/3 and -7/5 (whose
    covers mix Fraction rows with int cocycles) and on int (+) Fraction
    sums in both orders."""
    closure = [m.algebra for m in build_closure(9)]
    integral = closure + [heisenberg(m) for m in range(4, 8)]
    fractional = [scaled(alg, c) for alg in integral for c in (Q(1, 3), Q(-7, 5))]
    h1 = heisenberg(1)
    built = closure + benchmark_shaped_sums()
    for alg in integral + fractional:
        built += [cover(alg), direct_sum(alg, h1), direct_sum(h1, alg)]
    built += [direct_sum(fractional[0], integral[-1]), direct_sum(integral[-1], fractional[0])]
    for alg in built:
        again = LieAlgebra(alg.dim, alg.brackets, validate=False)
        assert alg.canonical_key() == again.canonical_key(), alg.name
        assert stored_form(alg) == stored_form(again), alg.name
    mixed = direct_sum(h1, fractional[0]).brackets.values()
    assert {type(x) for terms in mixed for x in terms.values()} == {Q}
    # the rows are taken over, not copied
    total = direct_sum(integral[-1], h1)
    assert all(total.brackets[p] is terms for p, terms in integral[-1].brackets.items())


def test_jacobi_identity_is_checked_once_per_table(monkeypatch):
    """Validation and `cochain_slice` share one memo entry per table, stored
    only when the check passes: `invariant_report` of a parsed closure
    document checks its table once.  An unvalidated copy of a
    Jacobi-breaking table still raises on the triple validation reports,
    and a table is checked again after a failure and after
    `clear_caches()`."""
    checked = []
    original = LieAlgebra.check_jacobi

    def spy(self, rows):
        checked.append(self.canonical_key())
        return original(self, rows)

    monkeypatch.setattr(LieAlgebra, "check_jacobi", spy)
    for doc in [presentation_to_dict(m.algebra) for m in build_closure(9)]:
        multiplier.clear_caches()
        checked.clear()
        alg = presentation_from_dict(doc)
        invariant_report(alg)
        assert checked == [alg.canonical_key()], doc.get("name")
    for n, table in JACOBI_BREAKING:
        checked.clear()
        with pytest.raises(JacobiViolation) as validated:
            LieAlgebra(n, table)
        with pytest.raises(JacobiViolation) as err:
            dim_multiplier(LieAlgebra(n, table, validate=False))
        assert err.value.triple == validated.value.triple
        with pytest.raises(JacobiViolation):
            LieAlgebra(n, table)
        assert len(checked) == 3
    alg = get("L_{6,10}")
    checked.clear()
    dim_multiplier(LieAlgebra(alg.dim, alg.brackets))
    assert checked == []
    multiplier.clear_caches()
    dim_multiplier(LieAlgebra(alg.dim, alg.brackets, validate=False))
    LieAlgebra(alg.dim, alg.brackets)
    assert checked == [alg.canonical_key()]
    multiplier.clear_caches()
    LieAlgebra(alg.dim, alg.brackets)
    assert checked == [alg.canonical_key()] * 2


def test_both_routes_read_one_checked_sweep_per_table(monkeypatch):
    """d2 and boundary_3 read one checked sweep per table
    (`multiplier._swept`): on an unvalidated copy of each of the benchmark's
    sum shapes, `dim_multiplier` then `dim_multiplier_cover` sweeps the
    table once, and once more after `clear_caches()`.  The kept rows equal
    a fresh sweep after both routes have run, so no reader changed a shared
    row.  A table that breaks Jacobi keeps neither the sweep nor the check,
    and a validated table that is never sliced keeps no sweep: validation's
    is dropped, which keeps `liemult info` at n = 200 under its memory cap."""
    swept = []
    sweep = LieAlgebra.wedge_rows

    def counted(alg):
        swept.append(alg.canonical_key())
        return sweep(alg)

    monkeypatch.setattr(LieAlgebra, "wedge_rows", counted)
    kept = multiplier._swept.__wrapped__
    for total in benchmark_shaped_sums():
        for _ in range(2):
            multiplier.clear_caches()
            swept.clear()
            alg = LieAlgebra(total.dim, total.brackets, name=total.name, validate=False)
            assert dim_multiplier(alg) == dim_multiplier_cover(alg).dim_M
            assert swept == [alg.canonical_key()], alg.name
        assert core._MEMO[alg.canonical_key()][kept] == sweep(alg), alg.name
    for n, table in JACOBI_BREAKING:
        broken = LieAlgebra(n, table, validate=False)
        for route in (dim_multiplier, dim_multiplier_cover, boundary3):
            with pytest.raises(JacobiViolation):
                route(broken)
            facts = core._MEMO.get(broken.canonical_key(), {})
            assert kept not in facts and core._jacobi_checked not in facts, route.__name__
    multiplier.clear_caches()
    summand, total = heisenberg(9), get("H(9)⊕A(1)")
    invariant_report(total)
    assert kept in core._MEMO[total.canonical_key()]
    facts = core._MEMO[summand.canonical_key()]
    assert core._jacobi_checked in facts and kept not in facts


def test_integral_covers_are_built_in_ints(monkeypatch):
    """The cocycles of an integral table are int rows, so its cover's table
    arrives in ints and is stored as it is, with no `core.qf` call, on every
    closure member and H(1..7).  The cover of each table scaled by 1/3 and
    by -7/5 is stored all in Fractions, and its epicenter is the unscaled
    one: cL is L under x -> x/c, which keeps every subspace."""
    converted = []

    def counting_qf(x):
        converted.append(x)
        return qf(x)

    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(1, 8)]
    for alg in algebras:
        assert is_integral(alg), alg.name
        multiplier.clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(core, "qf", counting_qf)
            E = cover(alg)
        assert not converted, alg.name
        assert all(type(x) is int for terms in E.brackets.values() for x in terms.values())
        want = epicenter(alg).basis
        for c in (Q(1, 3), Q(-7, 5)):
            c_alg = scaled(alg, c)
            c_E = cover(c_alg)
            assert c_E.dim == E.dim, alg.name
            assert all(type(x) is Q for terms in c_E.brackets.values() for x in terms.values())
            assert epicenter(c_alg).basis == want, alg.name


def test_cover_of_A1_is_trivial():
    assert cover(abelian(1)).dim == 1


def test_cover_of_H1():
    E, _, kernel = cover_parts(heisenberg(1))
    assert E.dim == 5
    assert kernel.dim == 2
    assert E.center().contains_subspace(kernel)
    assert E.derived_subalgebra().contains_subspace(kernel)


def test_cover_stem_check_rejects_kernel_outside_derived(monkeypatch):
    # a zero cochain adjoins an abelian direct factor: the kernel is central
    # but it is not inside E^2
    L = heisenberg(1)
    monkeypatch.setattr(multiplier, "cocycle_representatives", lambda alg: ({},))
    multiplier.clear_caches()
    try:
        with pytest.raises(LieError, match="stem property"):
            cover(L)
    finally:
        multiplier.clear_caches()


def test_cover_of_L58():
    assert cover(get("L_{5,8}")).dim == 11


def test_cover_projection_bracket_compatible():
    for name in ("H(2)", "L_{6,10}"):
        alg = get(name)
        E, images, kernel = cover_parts(alg)
        check_projection(E, alg, images, kernel)


# -- epicenter and capability -----------------------------------------------------

def test_capability_claims():
    assert is_capable(get("27B"))
    assert not is_capable(get("27A"))
    assert not is_capable(get("157"))
    assert is_capable(heisenberg(1))
    assert not is_capable(heisenberg(2))
    assert not is_capable(heisenberg(3))


def test_epicenter_of_L610_is_x6_line():
    z = epicenter(get("L_{6,10}"))
    assert z.dim == 1
    assert z.contains(unit_vector(6, 5))


def test_epicenter_of_A1():
    # the 1-dimensional abelian algebra is not capable
    assert epicenter(abelian(1)).dim == 1
    assert is_capable(abelian(2))


def reference_epicenter(alg):
    """pi(Z(E)) with Z(E) built, pi the truncation to the first dim L
    coordinates: the reference for `epicenter`, which reads Z*(L) off the
    lifts (z, 0) of Z(L) instead."""
    return alg.subspace(v[:alg.dim] for v in cover(alg).center().basis_vectors())


def test_epicenter_matches_image_of_cover_center():
    algebras = [m.algebra for m in build_closure(9)] + [heisenberg(m) for m in range(4, 8)]
    algebras += [cover(get(name)) for name in ("L_{6,10}", "27A")]
    assert len(algebras) == 263 + 4 + 2
    nonzero = 0
    for alg in algebras:
        z = epicenter(alg)
        assert z == reference_epicenter(alg), alg.name
        nonzero += z.dim > 0
    assert 0 < nonzero < len(algebras)


def test_capability_builds_no_cover_center(monkeypatch):
    centres = []
    original = LieAlgebra.center

    def counted(self):
        centres.append(self)
        return original(self)

    monkeypatch.setattr(LieAlgebra, "center", counted)
    multiplier.clear_caches()
    L = get("L_{6,10}")
    assert not is_capable(L)
    total = cover(L)
    assert centres and not any(alg is total for alg in centres)


# -- exterior and tensor squares ----------------------------------------------------

def test_exterior_square_values():
    assert dim_exterior_square(abelian(6)) == 15
    assert dim_exterior_square(direct_sum(heisenberg(1), abelian(4))) == 17
    assert dim_exterior_square(heisenberg(1)) == 3


def test_tensor_square_abelian():
    for n in (2, 3, 5):
        assert dim_tensor_square(abelian(n)) == n * n
        assert dim_square_part(abelian(n)) == n * (n + 1) // 2


def test_tensor_square_values():
    assert dim_tensor_square(heisenberg(1)) == 6
    assert dim_tensor_square(get("L_{5,8}")) == 14


def test_quotient_exterior_check():
    L = get("L_{6,10}")
    assert quotient_exterior_check(L)
    q, _ = L.quotient(epicenter(L))
    assert dim_exterior_square(L) == dim_exterior_square(q) == 8
    assert quotient_exterior_check(get("L_{6,26}"))  # capable: trivially true
    assert quotient_exterior_check(get("157"))


# -- direct sum law ------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b",
    [("H(1)", "A(2)"), ("L_{5,8}", "A(2)"), ("L_{6,10}", "A(1)"), ("L_{4,3}", "H(1)"),
     ("H(1)", "H(2)"), ("37A", "A(1)")],
)
def test_direct_sum_multiplier_law(a, b):
    A, B = get(a), get(b)
    total = direct_sum(A, B)
    assert dim_multiplier(total) == (
        dim_multiplier(A) + dim_multiplier(B)
        + A.abelianization_dim() * B.abelianization_dim()
    )


def test_heisenberg_multipliers():
    assert dim_multiplier(heisenberg(1)) == 2
    assert dim_multiplier(heisenberg(2)) == 5
    assert dim_multiplier(heisenberg(3)) == 14
