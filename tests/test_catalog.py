"""Catalog entries: loading, filters, expected values, name grammar."""

from fractions import Fraction as Q

import pytest

import liemult.catalog as cat
from liemult import (
    ParamOutOfDomain,
    UnknownName,
    abelian,
    dim_multiplier,
    direct_sum,
    get,
    heisenberg,
    s_invariant,
)
from liemult.catalog import DSUM
from liemult.core import (
    MAX_DIGITS,
    DimensionTooLarge,
    PresentationError,
    clear_caches,
    rational_expr,
)

from catalog_helpers import full_samples
from core_helpers import jacobi_defect


def test_get_L55_brackets():
    alg = get("L_{5,5}")
    assert alg.brackets == {
        (0, 1): {2: Q(1)},
        (0, 2): {4: Q(1)},
        (1, 3): {4: Q(1)},
    }


def test_get_S1_brackets():
    alg = get("S1")
    assert alg.dim == 8 and len(alg.brackets) == 4


def test_param_domains():
    for name in ("L_{6,19}", "L_{6,21}"):
        with pytest.raises(ParamOutOfDomain):
            get(name, eps=0)
    for bad in (0, 1):
        with pytest.raises(ParamOutOfDomain):
            get("147E", lam=bad)
    with pytest.raises(ParamOutOfDomain):
        get("L_{6,26}", eps=1)  # takes no parameter


@pytest.mark.parametrize("name, params, unread", [
    ("L_{6,10}", {"eps": 2}, "eps"),
    ("A(3)", {"eps": 2}, "eps"),
    ("H(2)", {"lam": 3}, "lam"),
    ("L_{6,10}" + DSUM + "H(1)", {"eps": 2}, "eps"),
    ("L_{6,22}(2)", {"eps": 3}, "eps"),  # given inline, so the flag is not read
    ("147E", {"lam": 3, "eps": 2}, "eps"),
    ("L_{6,22}" + DSUM + "A(1)", {"eps": 2, "lam": 3}, "lam"),
])
def test_a_parameter_no_atom_reads_is_refused(name, params, unread):
    """Every kind of name, an entry, A(n) or H(m), a sum or an inline
    value, refuses a parameter that none of its atoms reads."""
    with pytest.raises(ParamOutOfDomain, match=f"takes no parameter '{unread}'"):
        get(name, **params)


def test_each_parameter_is_read_by_the_atom_that_takes_it():
    assert get("L_{6,22}" + DSUM + "147E", eps=2, lam=3) == direct_sum(
        get("L_{6,22}", eps=2), get("147E", lam=3))


def test_each_entry_value_is_built_once_until_caches_are_cleared():
    """`CatalogEntry.build` shares one instance per (entry, value) until
    `clear_caches()`; `get` hands out a fresh copy under its display name."""
    clear_caches()
    entry, plain = cat.lookup("L_{6,22}"), cat.lookup("L_{5,6}")
    one = entry.build(Q(1))
    assert entry.build(Q(1)) is one and entry.build() is one
    assert plain.build() is plain.build()
    minus = entry.build(Q(-1))
    assert minus is not one and minus != one
    assert (one.name, minus.name) == ("L_{6,22}(1)", "L_{6,22}(-1)")
    got = get("L_{6,22}", eps=1)
    assert got is not one and got == one and got.name == "L_{6,22}(1)"
    assert get("L_{6,22}(1)") is not got
    clear_caches()
    again = entry.build(Q(1))
    assert again is not one and again == one and again.name == one.name


def test_unknown_name():
    with pytest.raises(UnknownName):
        get("L_{9,99}")


def test_constructors():
    h1 = heisenberg(1)
    assert h1.dim == 3 and len(h1.brackets) == 1
    h2 = heisenberg(2)
    assert h2.dim == 5 and h2.center().dim == 1
    assert dim_multiplier(h2) == 5
    assert s_invariant(h2) == 2
    assert abelian(0).dim == 0


def test_all_entries_table1_filter():
    names = {e.name for e in cat.all_entries()
             if e.dim <= 6 and e.build().derived_subalgebra().dim == 2}
    assert names == {
        "L_{4,3}", "L_{5,3}", "L_{5,5}", "L_{5,8}", "L_{6,3}", "L_{6,5}",
        "L_{6,8}", "L_{6,10}", "L_{6,22}(eps)",
    }
    assert names == {e.name for e in cat.all_entries(source="table1")}


def test_all_entries_table9_filter():
    names = [e.name for e in cat.all_entries(table=9)]
    assert names == ["L_{6,14}", "L_{6,15}", "L_{6,16}", "L_{6,17}", "L_{6,18}",
                     "L_{6,21}(eps)"]
    assert cat.all_entries(table=5) == []  # not a reference table: no rows


def test_full_catalog_size():
    assert len(cat.entries()) >= 60


def test_full_samples_are_the_harness_and_catalog_samples():
    """The sample sets the tests exercise, derived from `verify_samples` and
    `sample_values`, are the sets each parameter family used to record."""
    recorded = {
        cat.EPS_STAR: (Q(-1), Q(1), Q(2)),
        cat.EPS_ANY: (Q(-1), Q(0), Q(1), Q(2)),
        cat.LAM_NOT01: (Q(-1), Q(2)),
    }
    assert {e.param for e in cat.entries()} == {None, *recorded}
    for entry in cat.entries():
        assert full_samples(entry) == recorded.get(entry.param, (None,)), entry.name


def test_every_entry_loads_at_all_samples():
    for entry in cat.entries():
        for v in full_samples(entry):
            alg = entry.build(v)
            assert alg.dim == entry.dim


CAPTION = {
    "table1": (None, 2, (4, 5, 6)),
    "table2": (7, 2, None),
    "table3": (None, 3, (5, 6)),
    "table4": (7, 3, None),
    "table5": (7, 3, None),
    "table6": (None, 4, (6,)),
}


def test_caption_consistency():
    for entry in cat.entries():
        spec = CAPTION.get(entry.source)
        if spec is None:
            continue
        exact_dim, derived, dims = spec
        alg = entry.build()
        if exact_dim is not None:
            assert alg.dim == exact_dim, entry.name
        if dims is not None:
            assert alg.dim in dims, entry.name
        assert alg.derived_subalgebra().dim == derived, entry.name


def test_expected_values_match_computation():
    for entry in cat.entries():
        if entry.expected_dim_M is None or entry.known_discrepancy:
            continue
        for v in full_samples(entry):
            alg = entry.build(v)
            assert dim_multiplier(alg) == entry.expected_dim_M, (entry.name, v)
            if entry.expected_s is not None:
                assert s_invariant(alg) == entry.expected_s, (entry.name, v)


def test_known_discrepancy_entries_are_flagged():
    flagged = [e.name for e in cat.entries() if e.known_discrepancy]
    assert flagged == ["147E(lam)"]
    # generic member agrees with the recorded value, the special orbit differs
    assert dim_multiplier(get("147E", lam=3)) == 7
    assert dim_multiplier(get("147E", lam=2)) == 8


def test_decomposable_rows_equal_direct_sums():
    assert get("L_{6,3}" + DSUM + "A(1)") == direct_sum(get("L_{6,3}"), abelian(1))
    assert get("L_{6,8}" + DSUM + "A(1)") == direct_sum(get("L_{6,8}"), abelian(1))
    assert get("L_{4,3}" + DSUM + "H(1)") == direct_sum(get("L_{4,3}"), heisenberg(1))
    assert get("L_{5,6}" + DSUM + "A(2)") == direct_sum(get("L_{5,6}"), abelian(2))
    assert get("L_{6,22}(eps)" + DSUM + "A(1)", eps=2) == direct_sum(
        get("L_{6,22}", eps=2), abelian(1)
    )


def test_name_spellings():
    assert get("L6_22", eps=1) == get("L_{6,22}(1)")
    assert get("L6_10.+H(1)") == get("L_{6,10}∔H(1)")
    assert get("27A+A(1)") == direct_sum(get("27A"), abelian(1))
    assert get("H(1)+H(2)") == direct_sum(heisenberg(1), heisenberg(2))


def test_display_names():
    assert get("L_{6,22}", eps=Q(1, 2)).name == "L_{6,22}(1/2)"
    assert get("147E", lam=3).name == "147E(3)"
    assert get("L_{6,19}(eps)" + DSUM + "A(1)", eps=2).name == "L_{6,19}(2)" + DSUM + "A(1)"
    # a sum is named by its atoms' labels, each with its own parameter
    assert get("L_{6,22}" + DSUM + "147E", eps=2, lam=3).name == "L_{6,22}(2)" + DSUM + "147E(3)"
    assert get("L_{6,22}" + DSUM + "A(1)", eps=2).name == "L_{6,22}(2)" + DSUM + "A(1)"
    assert get("L6_22+A(1)").name == "L_{6,22}(1)" + DSUM + "A(1)"


def test_parameters_go_through_the_rational_parser():
    # keywords are coerced through qf: a float is refused, not read as its
    # binary fraction
    with pytest.raises(TypeError):
        get("L_{6,22}", eps=0.1)
    with pytest.raises(TypeError):
        get("147E", lam=2.0)
    assert get("L_{6,22}", eps="1/2") == get("L_{6,22}(1/2)")
    # an inline value is read by rational_expr: no ZeroDivisionError, and no
    # int/str digit limit below MAX_DIGITS
    with pytest.raises(PresentationError, match="division by zero"):
        get("L_{6,22}(1/0)")
    big = "7" + "0" * 4998 + "3"
    alg = get(f"L_{{6,22}}({big})")
    assert alg == get("L_{6,22}", eps=rational_expr(big))
    assert alg.name == f"L_{{6,22}}({big})"
    with pytest.raises(PresentationError):
        get("L_{6,22}(1" + "0" * MAX_DIGITS + ")")
    with pytest.raises(DimensionTooLarge):
        get(f"H({big})")


def test_name_expressions_are_dimension_capped():
    """Each sum or central product step of a name is capped like a declared
    dimension, before the algebra of that size is built."""
    assert get(f"A(100){DSUM}A(100)").dim == 200
    for name in (f"A(150){DSUM}A(150)", f"H(1){DSUM}A(99){DSUM}A(99)", "H(60).+H(60)"):
        with pytest.raises(DimensionTooLarge):
            get(name)


def test_repaired_entries_are_marked():
    repaired = {e.name for e in cat.entries() if e.provenance == "repaired"}
    assert repaired == {
        "L_{6,15}", "L_{6,17}", "L_{6,21}(eps)", "147F", "1357C", "257K", "257L",
    }
    for entry in cat.entries():
        if entry.provenance == "repaired":
            assert entry.note


def test_jacobi_holds_on_all_triples_for_every_entry():
    from itertools import combinations
    for entry in cat.entries():
        alg = entry.build()
        n = alg.dim
        for triple in combinations(range(n), 3):
            defect = jacobi_defect(alg, *triple)
            assert all(c == 0 for c in defect), (entry.name, triple)
