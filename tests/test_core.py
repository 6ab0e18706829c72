"""Structure-constant algebras: loading, validation, subspaces, constructions."""

import gc
import io
import json
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from itertools import combinations
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import liemult

from liemult import (
    MAX_DIM,
    DependentIdentification,
    DimensionTooLarge,
    JacobiViolation,
    LieAlgebra,
    LieError,
    NotAnIdeal,
    NotCentral,
    NotNilpotent,
    PresentationError,
    abelian,
    central_product,
    cover,
    direct_sum,
    fingerprint,
    get,
    heisenberg,
    invariant_report,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
)
from liemult.cli import main
from liemult.core import (
    MAX_DIGITS,
    DimensionMismatch,
    Subspace,
    _projection,
    format_rational,
    rational_expr,
)
from liemult import multiplier
from liemult.linalg import Matrix
from liemult.verify import build_closure

from core_helpers import (
    ad_images, dense_residue, fraction_centralizer_mod, jacobi_defect, residue_intersection,
    residue_quotient)
from linalg_helpers import column, nullspace_basis, transpose, unit_vector


def mk(dim, spec, name=None):
    brackets = {(i - 1, j - 1): {k - 1: Q(c) for k, c in t.items()} for (i, j), t in spec.items()}
    return LieAlgebra(dim, brackets, name=name)


# -- loading and validation --------------------------------------------------

def test_load_L58():
    alg = mk(5, {(1, 2): {4: 1}, (1, 3): {5: 1}})
    assert alg.dim == 5
    assert alg.derived_subalgebra().dim == 2


def test_load_abelian():
    alg = LieAlgebra(3, {})
    assert alg.is_abelian and alg.nilpotency_class == 1


def test_jacobi_violation_reported_with_triple():
    with pytest.raises(JacobiViolation) as err:
        mk(4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 4): {3: 1}})
    assert err.value.triple == (1, 2, 3)
    assert any(c != 0 for c in err.value.defect)


def test_non_nilpotent_rejected():
    # [x1, x2] = x2 is solvable, not nilpotent
    with pytest.raises(NotNilpotent):
        mk(2, {(1, 2): {2: 1}})


def test_index_out_of_range():
    from liemult import IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(3, {(0, 1): {7: Q(1)}})


def first_jacobi_violation(alg):
    """Reference for `check_jacobi` on the swept rows: each triple's defect
    term by term (`jacobi_defect`), triples taken in bracket order, then
    third index ascending; the first nonzero one, 1-based, or None."""
    seen = set()
    for (i, j) in alg.brackets:
        for k in range(alg.dim):
            triple = tuple(sorted((i, j, k)))
            if k in (i, j) or triple in seen:
                continue
            seen.add(triple)
            defect = jacobi_defect(alg, *triple)
            if any(defect):
                return tuple(t + 1 for t in triple), defect
    return None


def violating_triples(alg):
    return [t for t in combinations(range(alg.dim), 3) if any(jacobi_defect(alg, *t))]


COEFFICIENT = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3)])


@st.composite
def bracket_tables(draw):
    n = draw(st.integers(3, 6))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          unique=True, max_size=8))
    table = {p: draw(st.dictionaries(st.integers(0, n - 1), COEFFICIENT, min_size=1, max_size=3))
             for p in pairs}
    return n, table


# several violating triples, multi-term brackets, the first in sweep order
# sitting on a middle index (a < c < b) of its first bracket
SEVERAL_VIOLATIONS = (5, {(0, 3): {1: Q(1), 4: Q(2)}, (1, 2): {0: Q(1, 2), 4: Q(-1)},
                          (0, 1): {2: Q(1), 3: Q(-2)}, (2, 4): {3: Q(3)}})


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
@example(SEVERAL_VIOLATIONS)
@example((4, {(0, 1): {2: Q(1)}, (0, 2): {3: Q(1)}, (1, 3): {2: Q(1)}}))
def test_jacobi_sweep_reports_the_reference_triple(case):
    n, table = case
    alg = LieAlgebra(n, table, validate=False)
    expected = first_jacobi_violation(alg)
    if expected is None:
        alg.check_jacobi(alg.wedge_rows())
        return
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(n, table)
    assert (err.value.triple, err.value.defect) == expected
    assert all(type(x) is Q for x in err.value.defect)


def test_jacobi_violation_at_max_dim_reports_its_triple_in_little_memory():
    """At n = MAX_DIM a table that breaks Jacobi only on its last three
    indices is reported on that triple, 1-based: the sweep's index is
    turned back into the triple only when it raises, with no list of the
    C(200,3) = 1,313,400 triples (about 90 MB)."""
    table = {(196, 197): {198: 1}, (196, 198): {199: 1}, (197, 199): {198: 1}}
    tracemalloc.start()
    try:
        with pytest.raises(JacobiViolation) as err:
            LieAlgebra(MAX_DIM, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert MAX_DIM == 200
    assert err.value.triple == (197, 198, 199)
    assert err.value.defect == tuple(Q(1) if m == 198 else Q(0) for m in range(MAX_DIM))
    assert peak < 2_000_000


def test_jacobi_example_has_several_violations():
    n, table = SEVERAL_VIOLATIONS
    alg = LieAlgebra(n, table, validate=False)
    # lexicographically the first is (1, 2, 5); in sweep order it is
    # (1, 3, 4), met from the stored [x1, x4] with x3 between
    assert [tuple(t + 1 for t in v) for v in violating_triples(alg)] == [
        (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
    assert first_jacobi_violation(alg)[0] == (1, 3, 4)


def test_equal_tables_share_one_validation(monkeypatch):
    """Validation is a fact in the memo: a table constructed twice is swept
    for the Jacobi identity once, and again after clear_caches()."""
    swept = []
    sweep = LieAlgebra.wedge_rows

    def counted(alg):
        swept.append(alg)
        return sweep(alg)

    monkeypatch.setattr(LieAlgebra, "wedge_rows", counted)
    spec = {(1, 2): {4: 1}, (1, 3): {5: 1}, (2, 3): {6: 1}}
    multiplier.clear_caches()
    first, second = mk(6, spec, "first"), mk(6, spec, "second")
    assert first is not second and swept == [first]
    multiplier.clear_caches()
    third = mk(6, spec)
    assert swept == [first, third]


def test_canonical_keys_compare_tables_exactly():
    """A key holds each constant as the ints (k, numerator, denominator):
    equal tables, built separately from ints, Fractions or a presentation,
    give equal keys and hashes; a table that differs in one constant, one
    index or the dimension gives another key."""
    spec = {(1, 2): {3: 1}, (1, 3): {4: Q(-7, 5)}, (2, 3): {5: Q(1, 3)}}
    base = mk(5, spec)
    key = base.canonical_key()
    assert all(type(x) is int for _, _, terms in key[1] for entry in terms for x in entry)
    equal = [
        mk(5, spec),
        mk(5, {(1, 2): {3: Q(1)}, (1, 3): {4: Q(14, -10)}, (2, 3): {5: Q(2, 6)}}),
        LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {3: Q(-7, 5)}, (1, 2): {4: Q(1, 3)}},
                   validate=False),
        presentation_from_dict(presentation_to_dict(base)),
    ]
    for alg in equal:
        assert alg is not base
        assert alg.canonical_key() == key and hash(alg.canonical_key()) == hash(key)
        assert alg == base and hash(alg) == hash(base)
    integral = get("L_{5,6}")
    rebuilt = presentation_from_dict(presentation_to_dict(integral))
    assert rebuilt.canonical_key() == integral.canonical_key()
    assert hash(rebuilt.canonical_key()) == hash(integral.canonical_key())
    unequal = [
        mk(5, {**spec, (1, 2): {3: 2}}),
        mk(5, {**spec, (1, 3): {4: Q(7, 5)}}),
        mk(5, {**spec, (2, 3): {5: 3}}),
        mk(5, {**spec, (2, 3): {5: Q(1, 2)}}),
        mk(5, {**spec, (2, 3): {4: Q(1, 3)}}),
        mk(6, spec),
        integral,
    ]
    keys = [key] + [alg.canonical_key() for alg in unequal]
    assert len(set(keys)) == len(keys)
    assert all(alg != base for alg in unequal)


def test_integral_tables_are_stored_in_ints_and_others_in_fractions():
    """The constructor stores a table whose constants are all integral in
    ints, whatever form each constant comes in (int, Fraction, Fraction(4, 2),
    string), and a table with a non-integral constant all in Fractions, its
    integral constants too; one table gives one key in every form, and a
    float is refused."""
    def stored(c12, c13):
        # [x1, x2] = c12 x3, [x1, x3] = c13 x4: Jacobi holds for any constants
        return LieAlgebra(4, {(0, 1): {2: c12}, (0, 2): {3: c13}})

    def types(alg):
        return {type(x) for terms in alg.brackets.values() for x in terms.values()}

    integral = [stored(2, -3), stored(Q(2), Q(-3)), stored(Q(4, 2), Q(-6, 2)),
                stored("2", "-3"), stored("4/2", Q(-3)), stored(2, Q(-3))]
    for alg in integral:
        assert types(alg) == {int}
        assert alg.brackets == {(0, 1): {2: 2}, (0, 2): {3: -3}}
    assert len({alg.canonical_key() for alg in integral}) == 1
    fractional = [stored(2, Q(1, 2)), stored(Q(2), Q(1, 2)), stored("2", "1/2"),
                  stored(Q(4, 2), "2/4")]
    for alg in fractional:
        assert types(alg) == {Q}
        assert alg.brackets == {(0, 1): {2: Q(2)}, (0, 2): {3: Q(1, 2)}}
    assert len({alg.canonical_key() for alg in fractional}) == 1
    assert fractional[0].canonical_key() != integral[0].canonical_key()
    for bad in (2.0, 0.5):
        with pytest.raises(TypeError):
            stored(2, bad)


def test_a_failing_table_raises_on_every_construction():
    """A failed validation stores nothing, so an equal table raises again."""
    multiplier.clear_caches()
    n, table = SEVERAL_VIOLATIONS
    for _ in range(2):
        with pytest.raises(JacobiViolation) as err:
            LieAlgebra(n, table)
        assert err.value.triple == (1, 3, 4)
    for _ in range(2):
        with pytest.raises(NotNilpotent):
            LieAlgebra(2, {(0, 1): {0: Q(1)}})


# -- bracket ------------------------------------------------------------------

def test_bracket_basis_pair():
    L = get("L_{5,8}")
    x1, x2 = unit_vector(5, 0), unit_vector(5, 1)
    assert L.bracket(x1, x2) == unit_vector(5, 3)


def test_bracket_antisymmetry_on_vectors():
    L = get("L_{6,19}", eps=1)
    v = tuple(Q(i + 1, 2) for i in range(6))
    assert all(c == 0 for c in L.bracket(v, v))


def test_bracket_bilinearity_example():
    L = get("L_{5,8}")
    x1, x2, x3 = (unit_vector(5, i) for i in range(3))
    combo = tuple(a + b for a, b in zip(x1, x3))
    assert L.bracket(combo, x2) == unit_vector(5, 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_bracket_antisymmetric_pairs(u, v):
    L = get("L_{6,24}", eps=1)
    uu, vv = tuple(map(Q, u)), tuple(map(Q, v))
    lhs = L.bracket(uu, vv)
    rhs = L.bracket(vv, uu)
    assert lhs == tuple(-x for x in rhs)


# -- product spaces and series -------------------------------------------------

def test_product_space_L58():
    L = get("L_{5,8}")
    full = L.full_space()
    sq = L.product_space(full, full)
    assert sq.dim == 2
    assert sq.contains(unit_vector(5, 3)) and sq.contains(unit_vector(5, 4))


def test_product_space_abelian():
    L = abelian(4)
    assert L.product_space(L.full_space(), L.full_space()).dim == 0


def test_product_space_L610_second_term():
    L = get("L_{6,10}")
    g2 = L.derived_subalgebra()
    g3 = L.product_space(g2, L.full_space())
    assert g3.dim == 1 and g3.contains(unit_vector(6, 5))


def test_lower_series_dims():
    assert abelian(4).lower_central_dims() == (4, 0)
    assert get("L_{6,10}").lower_central_dims() == (6, 2, 1, 0)
    assert get("L_{6,18}").lower_central_dims() == (6, 4, 3, 2, 1, 0)
    assert get("L_{6,18}").nilpotency_class == 5


def test_center_heisenberg():
    for m in (1, 2, 3):
        assert heisenberg(m).center().dim == 1


def test_center_L58():
    z = get("L_{5,8}").center()
    assert z.dim == 2
    assert z.contains(unit_vector(5, 3)) and z.contains(unit_vector(5, 4))


def test_upper_series_L43():
    L = get("L_{4,3}")
    series = L.upper_central_series()
    assert [s.dim for s in series] == [1, 2, 4]
    assert series[0].contains(unit_vector(4, 3))
    assert series[1].contains(unit_vector(4, 2))


def test_series_consistency_across_catalog_samples():
    for name in ("L_{5,6}", "L_{6,13}", "27B", "257J", "1357A"):
        L = get(name)
        gammas = L.lower_central_series()
        zs = L.upper_central_series()
        c = L.nilpotency_class
        assert gammas[c].dim == 0 or c == 0
        dims = [g.dim for g in gammas]
        assert dims == sorted(dims, reverse=True)
        zdims = [z.dim for z in zs]
        assert zdims == sorted(zdims) and zdims[-1] == L.dim
        assert len(zs) == c


def quotient_upper_central_series(L):
    """Reference: Z_{i+1} is the preimage of the centre of L/Z_i, built
    through the quotient algebra of `residue_quotient`, each centre by
    `fraction_centralizer_mod`: no step reads `core._projection`."""
    def center(alg):
        return fraction_centralizer_mod(alg, Matrix.zero(0, alg.dim)._own_rref(()))

    series = [L.sparse_subspace(center(L).sparse_rows)]
    while series[-1].dim < L.dim:
        q, images = residue_quotient(L, series[-1])
        z = center(q)
        if z.rows == q.dim:
            series.append(L.full_space())
            continue
        # v in the preimage iff pi(v) is annihilated by every functional
        # vanishing on Z(L/Z_i); pi's matrix has the images as its columns
        perp = Matrix(nullspace_basis(z), cols=q.dim) if z.rows else Matrix.identity(q.dim)
        projection = transpose(Matrix.from_sparse(images, q.dim))
        series.append(L.subspace(nullspace_basis(perp * projection)))
    return series


def test_upper_series_matches_quotient_reference():
    algebras = [m.algebra for m in build_closure(9)]
    algebras += [heisenberg(m) for m in range(4, 8)]
    algebras += [cover(get(name)) for name in ("L_{6,10}", "27A")]
    for L in algebras:
        assert L.upper_central_series() == quotient_upper_central_series(L), L


def stacked_intersection(u, v):
    """Reference: x = a^T U = b^T V iff (a, -b) is in the nullspace of
    [U^T | V^T]; x is rebuilt from a."""
    L = u.ambient
    if u.dim == 0 or v.dim == 0:
        return L.zero_subspace()
    stacked = Matrix([list(column(u.basis, j)) + list(column(v.basis, j)) for j in range(L.dim)],
                     cols=u.dim + v.dim)
    vectors = []
    for sol in nullspace_basis(stacked):
        x = [Q(0)] * L.dim
        for c, row in zip(sol[:u.dim], u.basis.data):
            for idx, val in enumerate(row):
                x[idx] += c * val
        vectors.append(x)
    return L.subspace(vectors)


def test_intersect_matches_stacked_reference():
    for member in build_closure(9):
        L = member.algebra
        for u in L.lower_central_series():
            for v in (L.center(), L.zero_subspace()):
                expected = stacked_intersection(u, v)
                assert u.intersect(v) == expected and v.intersect(u) == expected, L
    # skew subspaces, not spanned by basis vectors
    L = abelian(4)
    u = L.subspace([(1, 1, 0, 0), (0, 0, 1, 1)])
    v = L.subspace([(1, 1, 1, 1), (1, -1, 0, 0)])
    assert u.intersect(v) == stacked_intersection(u, v) == L.subspace([(1, 1, 1, 1)])


def test_ad_images_drop_cancelled_entries():
    # [x1 + x2, x3] = x4 - x4 = 0
    L = LieAlgebra(4, {(0, 2): {3: Q(1)}, (1, 2): {3: Q(-1)}})
    assert ad_images(L, {0: Q(1), 1: Q(1)}) == [{}, {}, {}, {}]
    assert ad_images(L, {0: Q(1), 1: Q(2)}) == [{}, {}, {3: Q(-1)}, {}]


def test_sparse_subspace_layer_matches_dense_references():
    """Over the closure: Z(L) ^ L^2, is_ideal and contains_subspace, on the
    series terms, Z(L) ^ L^2 and the spans <x_i> (mostly not ideals),
    agree with the dense residue and the residue-nullspace intersection,
    and the fingerprint's dim(Z ^ L^2) is the intersection's dimension."""
    for member in build_closure(9):
        L = member.algebra
        n = L.dim
        z, d = L.center(), L.derived_subalgebra()
        meet = z.intersect(d)
        assert meet == residue_intersection(z, d) == residue_intersection(d, z), member.name
        assert fingerprint(L)[4] == meet.dim, member.name
        units = [L.subspace([unit_vector(n, i)]) for i in range(n)]
        spaces = L.lower_central_series() + L.upper_central_series() + [meet] + units
        for s in spaces:
            images = [L.bracket(b, unit_vector(n, j)) for b in s.basis.data for j in range(n)]
            # the sparse sweep gives the same brackets, with no zero values
            assert [img for b in s.basis.sparse_rows for img in ad_images(L, b)] == [
                {k: x for k, x in enumerate(w) if x} for w in images]
            assert L.is_ideal(s) == all(not any(dense_residue(s, w)) for w in images)
            for w in images:
                sparse = s.residue({k: x for k, x in enumerate(w) if x})
                assert [sparse.get(k, Q(0)) for k in range(n)] == dense_residue(s, w)
        pairs = [(s, t) for s in spaces for t in (z, d, meet)]
        pairs += [(s, t) for s in (z, d) for t in units]
        for s, t in pairs:
            assert s.contains_subspace(t) == all(
                not any(dense_residue(s, r)) for r in t.basis.data), member.name


COORDINATE = st.one_of(
    st.just(Q(0)),
    st.fractions(max_denominator=10**12),
    st.integers(-10**40, 10**40).map(Q),
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_residue_matches_dense_reference(data):
    n = data.draw(st.integers(1, 7))
    vector = st.lists(COORDINATE, min_size=n, max_size=n)
    s = abelian(n).subspace(data.draw(st.lists(vector, max_size=n)))
    v = data.draw(vector)
    expected = list(v)
    for row, pcol in zip(s.basis.data, s.basis.pivot_columns()):
        f = expected[pcol]
        expected = [x - f * y for x, y in zip(expected, row)]
    # residue takes and returns {column: value} rows with no zero values
    sparse = s.residue(dict(enumerate(v)))
    got = [sparse.get(k, Q(0)) for k in range(n)]
    assert got == expected and all(type(x) is Q for x in got) and all(sparse.values())
    coeffs = data.draw(st.lists(COORDINATE, min_size=s.dim, max_size=s.dim))
    inside = [sum((c * row[k] for c, row in zip(coeffs, s.basis.data)), Q(0)) for k in range(n)]
    assert not s.residue(dict(enumerate(inside)))


@st.composite
def rref_bases(draw):
    """A random rref basis: Fraction rows, each 1 at its pivot, 0 left of
    it and at every other pivot, some of them unit rows."""
    n = draw(st.integers(1, 8))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    rows = []
    for p in pivots:
        row = {p: Q(1)}
        if not draw(st.booleans()):  # otherwise a unit row
            for c in range(p + 1, n):
                x = draw(COORDINATE) if c not in pivots else Q(0)
                if x:
                    row[c] = x
        rows.append(row)
    return Matrix.from_sparse(rows, n)


@settings(max_examples=120, deadline=None)
@given(rref_bases())
def test_projection_matches_residue(basis):
    """image[c] of `core._projection` is d times the residue of e_c modulo
    the basis's span, read at the free columns by position, in ints; d is
    the lcm of the basis's denominators."""
    image, d = _projection(basis)
    s = Subspace.canonical(abelian(basis.cols), basis)
    pivots = set(basis.pivot_columns())
    pos = {c: a for a, c in enumerate([c for c in range(basis.cols) if c not in pivots])}
    assert d == lcm(1, *[x.denominator for row in basis.sparse_rows for x in row.values()])
    assert len(image) == basis.cols
    for c in range(basis.cols):
        assert all(type(x) is int for x in image[c].values())
        assert image[c] == {pos[k]: x * d for k, x in s.residue({c: Q(1)}).items()}


def test_series_and_center_build_no_quotient(monkeypatch):
    def no_quotient(self, ideal):
        raise AssertionError("quotient called")

    monkeypatch.setattr(LieAlgebra, "quotient", no_quotient)
    for L in (get("257J"), get("L_{6,13}"), heisenberg(3), abelian(2), abelian(0)):
        assert L.upper_central_series()[-1].dim == L.dim
        assert L.center() == L.upper_central_series()[0]


def test_unvalidated_non_nilpotent_series_raise():
    """[x1, x2] = x1: the lower series stays at span(x1), the upper at 0.
    L^2 = span(x1) checks no nilpotency, asked before or after the series."""
    for derived_first in (True, False):
        L = LieAlgebra(2, {(0, 1): {0: Q(1)}}, validate=False)
        if derived_first:
            assert L.derived_subalgebra() == L.subspace([[Q(1), Q(0)]])
        with pytest.raises(NotNilpotent):
            L.lower_central_series()
        with pytest.raises(NotNilpotent):
            L.upper_central_series()
        assert L.derived_subalgebra() == L.subspace([[Q(1), Q(0)]])


def test_derived_subalgebra_is_the_second_lower_central_term():
    """On the closure and on unvalidated copies of it, L^2 is the span of
    all basis brackets and the lower series' second term, whichever of the
    two is asked for first."""
    for member in build_closure(9):
        alg = member.algebra
        n = alg.dim
        brackets = [alg.bracket(unit_vector(n, i), unit_vector(n, j))
                    for i in range(n) for j in range(i + 1, n)]
        derived_first = LieAlgebra(n, alg.brackets, validate=False)
        series_first = LieAlgebra(n, alg.brackets, validate=False)
        first = derived_first.derived_subalgebra()
        second = series_first.lower_central_series()[1]
        for copy, seen in ((alg, alg.derived_subalgebra()), (derived_first, first),
                           (series_first, second)):
            assert copy.derived_subalgebra() == copy.lower_central_series()[1] == seen
            assert seen == copy.subspace(brackets), alg.name


# -- quotients ------------------------------------------------------------------

def test_quotient_L626_by_x6():
    L = get("L_{6,26}")
    ideal = L.subspace([unit_vector(6, 5)])
    q, images = L.quotient(ideal)
    assert q == get("L_{5,8}")
    # x_1..x_5 are the quotient's basis and x_6 is in the ideal
    assert images == [{c: Q(1)} for c in range(5)] + [{}]


def test_quotient_by_everything():
    L = get("L_{6,10}")
    q, _ = L.quotient(L.full_space())
    assert q.dim == 0


def test_quotient_L43_by_gamma3():
    L = get("L_{4,3}")
    g3 = L.lower_central_series()[2]
    q, _ = L.quotient(g3)
    assert q.dim == 3
    assert q.brackets == {(0, 1): {2: Q(1)}}


def test_quotient_requires_ideal():
    L = get("L_{4,3}")
    with pytest.raises(NotAnIdeal):
        L.quotient(L.subspace([unit_vector(4, 0)]))


def test_quotient_respects_brackets():
    L = get("L_{6,24}", eps=2)
    ideal = L.subspace([unit_vector(6, 5)])
    q, images = L.quotient(ideal)
    n = L.dim

    def project(v):
        """pi(v) = sum_c v_c pi(x_c) as a dense vector of L/I."""
        out = [Q(0)] * q.dim
        for c, x in enumerate(v):
            for a, y in images[c].items():
                out[a] += x * y
        return tuple(out)

    for i in range(n):
        for j in range(i + 1, n):
            lhs = project(L.bracket(unit_vector(n, i), unit_vector(n, j)))
            rhs = q.bracket(project(unit_vector(n, i)), project(unit_vector(n, j)))
            assert lhs == rhs


# -- sums and products ----------------------------------------------------------

def test_direct_sum_basic():
    alg = direct_sum(heisenberg(1), abelian(2))
    assert alg.dim == 5 and alg.derived_subalgebra().dim == 1
    assert direct_sum(abelian(2), abelian(3)) == abelian(5)


def test_direct_sum_matches_table_row():
    assert direct_sum(get("L_{6,10}"), abelian(1)) == get("L_{6,10}⊕A(1)")


def test_direct_sum_series_blocks():
    a, b = get("L_{4,3}"), get("L_{6,13}")
    total = direct_sum(a, b)
    da, db = a.lower_central_dims(), b.lower_central_dims()
    dt = total.lower_central_dims()
    for k in range(max(len(da), len(db))):
        ga = da[k] if k < len(da) else 0
        gb = db[k] if k < len(db) else 0
        assert (dt[k] if k < len(dt) else 0) == ga + gb


def test_central_product_L610_H1():
    a, b = get("L_{6,10}"), heisenberg(1)
    alg = central_product(a, b, [(unit_vector(6, 5), unit_vector(3, 2))])
    assert alg.dim == 8
    assert alg.derived_subalgebra().dim == 2


def test_central_product_H1_H1_is_H2():
    a, b = heisenberg(1), heisenberg(1)
    alg = central_product(a, b, [(unit_vector(3, 2), unit_vector(3, 2))])
    assert alg.dim == 5
    assert alg.derived_subalgebra().dim == 1
    assert alg.center().dim == 1
    assert fingerprint(alg) == fingerprint(heisenberg(2))


def test_central_product_empty_identification():
    a, b = heisenberg(1), abelian(2)
    assert central_product(a, b, []) == direct_sum(a, b)


def test_central_product_rejects_non_central():
    with pytest.raises(NotCentral):
        central_product(heisenberg(1), heisenberg(1),
                        [(unit_vector(3, 0), unit_vector(3, 2))])


def test_central_product_rejects_dependent():
    a = direct_sum(heisenberg(1), abelian(1))
    z = unit_vector(4, 2)
    z4 = unit_vector(4, 3)
    with pytest.raises(DependentIdentification):
        central_product(a, a, [(z, z), (tuple(2 * x for x in z), z4)])


def test_central_product_dimension_formula():
    a = direct_sum(heisenberg(1), abelian(1))
    b = heisenberg(2)
    pairs = [(unit_vector(4, 2), unit_vector(5, 4))]
    assert central_product(a, b, pairs).dim == a.dim + b.dim - len(pairs)


def test_central_product_coerces_identification_entries():
    # "1/2" is read as the rational it spells: z/2 ~ z' glues two copies of
    # H(1) into an algebra isomorphic to H(2)
    h = heisenberg(1)
    alg = central_product(h, h, [((0, 0, "1/2"), (0, 0, 1))])
    assert alg == central_product(h, h, [((0, 0, Q(1, 2)), (0, 0, 1))])
    assert alg.dim == 5 and fingerprint(alg) == fingerprint(heisenberg(2))


@pytest.mark.parametrize("u,v", [((0, 0), (0, 0, 1)), ((0, 1), (0, 0, 1)),
                                 ((0, 0, 1), (0, 0, 1, 0))])
def test_central_product_rejects_wrong_length(u, v):
    # a short vector is not zero-padded and a long one not truncated
    h = heisenberg(1)
    with pytest.raises(DimensionMismatch):
        central_product(h, h, [(u, v)])


# -- presentation format ---------------------------------------------------------

H1_DOC = {
    "name": "h",
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}],
}


def test_presentation_roundtrip(tmp_path):
    doc = presentation_to_dict(get("L_{6,19}", eps=Q(1, 2)))
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    again = load_presentation(str(path))
    assert again == get("L_{6,19}", eps=Q(1, 2))


def test_presentation_sums_a_repeated_target_and_drops_a_cancelled_one():
    """A term whose target k repeats in a bracket is added to the one before;
    a sum that cancels, and a bracket all of whose terms cancel, are dropped.
    Every closure member's presentation round-trips byte for byte."""
    doc = {"dim": 4, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}, {"k": 4, "c": "2"},
                                   {"k": 3, "c": "1/2"}, {"k": 4, "c": "-2"}]},
        {"i": 1, "j": 3, "terms": [{"k": 4, "c": "3"}, {"k": 4, "c": "-1"}]},
        {"i": 2, "j": 3, "terms": [{"k": 4, "c": "5"}, {"k": 4, "c": "-5"}]},
    ]}
    alg = presentation_from_dict(doc)
    assert alg.brackets == {(0, 1): {2: Q(3, 2)}, (0, 2): {3: Q(2)}}
    assert presentation_to_dict(alg)["brackets"] == [
        {"i": 1, "j": 2, "terms": [{"k": 3, "c": "3/2"}]},
        {"i": 1, "j": 3, "terms": [{"k": 4, "c": "2"}]},
    ]
    for member in build_closure(9):
        text = json.dumps(presentation_to_dict(member.algebra))
        again = presentation_from_dict(json.loads(text))
        assert json.dumps(presentation_to_dict(again)) == text, member.name


def test_presentation_rational_strings():
    doc = {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "-2/3"}]}],
    }
    alg = presentation_from_dict(doc)
    assert alg.brackets[(0, 1)][2] == Q(-2, 3)


def test_presentation_params():
    doc = {
        "dim": 3,
        "params": {"a": "1/2"},
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1-a"}]}],
    }
    alg = presentation_from_dict(doc)
    assert alg.brackets[(0, 1)][2] == Q(1, 2)


def test_presentation_rejects_bad_order():
    doc = {"dim": 3, "brackets": [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"}]}]}
    with pytest.raises(PresentationError) as err:
        presentation_from_dict(doc)
    assert "(2, 1)" in str(err.value)


def test_presentation_rejects_duplicates():
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "2"}]},
        ],
    }
    with pytest.raises(PresentationError):
        presentation_from_dict(doc)


def test_presentation_rejects_bad_rational():
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "0.5"}]}]}
    with pytest.raises(PresentationError):
        presentation_from_dict(doc)


def test_presentation_accepts_json_string():
    alg = load_presentation(json.dumps(H1_DOC))
    assert alg.name == "h" and alg == heisenberg(1)


# -- malformed input, size cap and fuzzing ------------------------------------

@pytest.mark.parametrize("doc", [
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": True}]}]},
    {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1+" * 5000 + "1"}]}]},
    {"dim": 3, "brackets": {"i": 1, "j": 2}},
    {"dim": 3, "brackets": None},
    {"dim": 3, "brackets": [[1, 2]]},
])
def test_presentation_rejects_malformed_shapes(doc):
    with pytest.raises(PresentationError):
        presentation_from_dict(doc)


def test_long_integer_coefficients():
    """Integers above CPython's int/str digit limit (4300 by default, 640 at
    the lowest) read and render up to MAX_DIGITS digits, whatever the limit,
    and the process-wide limit is left alone."""
    text = "7" + "0" * 4998 + "3"
    n = 7 * 10**4999 + 3
    top = 10**MAX_DIGITS - 1
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (limit, 640):
            sys.set_int_max_str_digits(setting)
            assert rational_expr(text) == n
            assert rational_expr(f"-{text}/2 + a", {"a": Q(1)}) == Q(-n, 2) + 1
            assert rational_expr("9" * MAX_DIGITS) == top
            assert format_rational(Q(n)) == text
            assert format_rational(Q(-1, n)) == "-1/" + text
            assert format_rational(Q(top)) == "9" * MAX_DIGITS
            assert format_rational(Q(-(10**600), 3)) == "-1" + "0" * 600 + "/3"
            assert sys.get_int_max_str_digits() == setting
    finally:
        sys.set_int_max_str_digits(limit)


def test_integers_above_digit_cap_rejected():
    with pytest.raises(PresentationError):
        rational_expr("1" + "0" * MAX_DIGITS)
    with pytest.raises(PresentationError):
        format_rational(Q(10**MAX_DIGITS))
    with pytest.raises(PresentationError):
        format_rational(Q(1, -(10**MAX_DIGITS)))
    # the cap holds for the value, not only for each decimal literal
    half = "9" * (MAX_DIGITS // 2 + 1)
    for text in (f"{half}*{half}", f"1/({half}*{half})", "0x1" + "0" * 8400, "-0x1" + "0" * 8400):
        with pytest.raises(PresentationError):
            rational_expr(text)
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": f"{half}*{half}"}]}]}
    with pytest.raises(PresentationError):
        presentation_from_dict(doc)
    assert rational_expr(f"{half}*{half}/{half}") == 10 ** len(half) - 1
    # only decimal literals change: hex, underscores and floats behave as before
    assert rational_expr("0x" + "1" * 5000) == int("1" * 5000, 16)
    for text in ("1_" + "0" * 5000, "1" * 5000 + ".5", "1" * 5000 + "e3", "0" + "1" * 5000):
        with pytest.raises(PresentationError):
            rational_expr(text)


def test_falsy_params_mean_none():
    for params in (None, [], {}):
        doc = {"dim": 3, "params": params, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3}]}]}
        assert presentation_from_dict(doc) == heisenberg(1)


def test_dimension_cap_fails_before_allocating():
    assert MAX_DIM >= 200
    assert abelian(MAX_DIM).full_space().dim == MAX_DIM
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge):
            presentation_from_dict({"dim": 100000, "brackets": []})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # one length-100000 row of Fractions alone is ~10 MB
    with pytest.raises(DimensionTooLarge):
        presentation_from_dict({"dim": MAX_DIM + 1, "brackets": []})
    with pytest.raises(DimensionTooLarge):
        abelian(MAX_DIM + 1)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from liemult import *", namespace)
    assert [name for name in liemult.__all__ if name not in namespace] == []


def test_algebras_leave_no_reference_cycle():
    """The memo holds the bases of an algebra's subspaces, not Subspaces
    that refer back to it, and reading a presentation builds no closure that
    refers to itself: a full invariant report of every closure member,
    parsed afresh, leaves nothing for the cyclic garbage collector."""
    docs = [presentation_to_dict(m.algebra) for m in build_closure(9)]
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            multiplier.clear_caches()
            L = presentation_from_dict(doc)
            invariant_report(L)
            assert L.upper_central_series()[-1] == L.full_space()
        del L
        multiplier.clear_caches()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dimension_cap_spares_built_algebras():
    # the cap is on declared input; sums and covers of valid input may exceed it
    assert direct_sum(abelian(MAX_DIM), abelian(1)).dim == MAX_DIM + 1
    assert cover(abelian(20)).dim == 210


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
coefficients = st.sampled_from(["1", "-2/3", "a", "1-a", "1/0", "b", "0", "1e3"]) | json_values
indices = st.integers(-1, 6) | json_values
terms = st.lists(st.fixed_dictionaries({"k": indices, "c": coefficients}), max_size=3) | json_values
brackets = st.lists(
    st.fixed_dictionaries({"i": indices, "j": indices, "terms": terms}), max_size=4
) | json_values


def presentation_docs(dims):
    return st.fixed_dictionaries(
        {},
        optional={
            "dim": dims,
            "name": st.text(max_size=6) | json_values,
            "params": st.dictionaries(st.sampled_from(["a", "b"]), coefficients, max_size=2)
            | json_values,
            "brackets": brackets,
        },
    )


presentations = presentation_docs(st.integers(-1, 5) | json_values)


@settings(max_examples=150, deadline=None)
@given(presentations | json_values)
def test_fuzz_presentation_from_dict(doc):
    try:
        alg = presentation_from_dict(doc)
    except LieError:
        return
    assert isinstance(alg, LieAlgebra)


@settings(max_examples=100, deadline=None)
@given(presentation_docs(st.integers(-1, 5)))
def test_fuzz_compute_exits_0_or_2(doc):
    """`liemult compute` on any small document: a report or an input error,
    never a traceback (main lets anything but LieError and OSError
    propagate).  Dimensions stay small because a valid abelian algebra near
    MAX_DIM has an intractable cochain slice."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["compute", json.dumps(doc)]) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(st.text() | st.from_regex(r"[-+*/() 0-9ab]{0,40}", fullmatch=True))
def test_fuzz_rational_expr(text):
    try:
        value = rational_expr(text, {"a": Q(1, 2)})
    except LieError:
        return
    assert isinstance(value, Q)
