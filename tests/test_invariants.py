"""s/t invariants and the inequality checks."""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from liemult import (
    AbelianInput,
    LieAlgebra,
    NotCentralIdeal,
    PreconditionNotMet,
    abelian,
    check_derived_bound,
    check_third_term_bound,
    check_noncapable_bound,
    check_central_ideal_bound,
    dim_multiplier,
    direct_sum,
    fingerprint,
    gamma3_defect,
    get,
    heisenberg,
    invariant_report,
    presentation_from_dict,
    presentation_to_dict,
    quotient_exterior_check,
    s_invariant,
    t_invariant,
)
from liemult import multiplier
from liemult.core import Subspace
from liemult.invariants import bound_checks, central_basis_vectors
from liemult.multiplier import cochain_slice
from liemult.verify import build_closure

from linalg_helpers import unit_vector


def test_s_values():
    assert s_invariant(direct_sum(heisenberg(1), abelian(2))) == 0
    assert s_invariant(get("L_{5,8}")) == 1
    assert s_invariant(get("L_{4,3}")) == 2
    assert s_invariant(get("L_{5,5}")) == 3


def test_s_rejects_abelian():
    with pytest.raises(AbelianInput):
        s_invariant(abelian(4))


def test_t_values():
    for n in (1, 3, 5):
        assert t_invariant(abelian(n)) == 0
    assert t_invariant(heisenberg(1)) == 1
    assert t_invariant(get("L_{6,26}")) == 7


def test_t_minus_s_is_n_minus_2():
    import liemult.catalog as cat
    for entry in cat.entries():
        alg = entry.build()
        if alg.is_abelian:
            continue
        assert t_invariant(alg) - s_invariant(alg) == alg.dim - 2


def test_derived_bound_equality_cases():
    # rhs = (n+m-2)(n-m-1)/2 + 1 = 7 at (n, m) = (5, 1), and the direct-sum
    # law gives dim M(H(1)+A(2)) = 2 + 1 + 2*2 = 7: the equality case.
    chk = check_derived_bound(direct_sum(heisenberg(1), abelian(2)))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (7, 7, True, True)
    chk = check_derived_bound(get("L_{5,8}"))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (6, 6, True, True)
    chk = check_derived_bound(get("L_{6,14}"))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (2, 5, True, False)


def test_derived_bound_rejects_abelian():
    with pytest.raises(PreconditionNotMet):
        check_derived_bound(abelian(3))


def test_central_ideal_bound_L626():
    L = get("L_{6,26}")
    chk = check_central_ideal_bound(L, L.subspace([unit_vector(6, 5)]))
    assert (chk.lhs, chk.rhs, chk.holds, chk.tight) == (9, 9, True, True)


def test_central_ideal_bound_zero_ideal_is_equality():
    L = get("L_{6,13}")
    chk = check_central_ideal_bound(L, L.zero_subspace())
    assert chk.lhs == chk.rhs == dim_multiplier(L)


def test_central_ideal_bound_L43_gamma3():
    # L/gamma_3 is the 3-dimensional Heisenberg algebra, so the right side
    # is dim M(H(1)) + 0 + dim(H(1)^ab) = 2 + 2 = 4.
    L = get("L_{4,3}")
    chk = check_central_ideal_bound(L, L.lower_central_series()[2])
    assert (chk.lhs, chk.rhs, chk.holds) == (3, 4, True)


def test_central_ideal_bound_rejects_non_central():
    L = get("L_{4,3}")
    with pytest.raises(NotCentralIdeal):
        check_central_ideal_bound(L, L.subspace([unit_vector(4, 0)]))


def test_noncapable_bound_cases():
    chk = check_noncapable_bound(get("27A"))
    assert (chk.lhs, chk.rhs, chk.holds) == (4, 6, True)
    chk = check_noncapable_bound(get("L_{6,10}"))
    assert (chk.lhs, chk.rhs, chk.holds) == (3, 5, True)
    glued = get("L_{6,10}∔H(1)")
    assert dim_multiplier(glued) == 15
    chk = check_noncapable_bound(glued)
    assert (chk.lhs, chk.rhs, chk.holds) == (5, 7, True)


def test_noncapable_bound_preconditions():
    with pytest.raises(PreconditionNotMet):
        check_noncapable_bound(get("27B"))  # capable
    with pytest.raises(PreconditionNotMet):
        check_noncapable_bound(heisenberg(2))  # dim L^2 = 1


def test_gamma3_defect_values():
    # defect = dim M(H(1)) - 1 + 2*1 - dim M(L_{4,3}) = 2 - 1 + 2 - 2 = 1
    chk = gamma3_defect(get("L_{4,3}"))
    assert (chk.lhs, chk.rhs, chk.holds) == (1, -1, True)
    chk = gamma3_defect(get("L_{6,10}"))
    assert chk.rhs == 1 and chk.holds
    chk = gamma3_defect(get("L_{6,18}"))
    assert chk.rhs == -3 and chk.holds


def test_third_term_bound_values():
    # lhs = dim L^3 + dim M = 1 + 2; rhs = dim M(H(1)) + (4 - dim Z_2) * 1 = 4
    chk = check_third_term_bound(get("L_{4,3}"))
    assert (chk.lhs, chk.rhs, chk.holds) == (3, 4, True)
    chk = check_third_term_bound(get("L_{6,10}"))
    assert chk.lhs == 7 and chk.holds
    assert check_third_term_bound(get("L_{6,18}")).holds


def test_third_term_bound_needs_class_three():
    with pytest.raises(PreconditionNotMet):
        check_third_term_bound(get("L_{6,26}"))


def test_central_basis_vectors():
    assert central_basis_vectors(get("L_{6,10}")) == [5]
    assert central_basis_vectors(abelian(3)) == [0, 1, 2]


def test_invariant_report_shape():
    rep = invariant_report(get("L_{6,26}"))
    assert rep.n == 6 and rep.dim_M == 8 and rep.s == 3 and rep.t == 7
    assert rep.capable is True
    assert rep.dim_exterior == 11
    ids = [c.check_id for c in rep.bound_checks]
    assert "derived-bound" in ids
    assert any(i.startswith("central-ideal-bound") for i in ids)
    assert all(c.holds for c in rep.bound_checks)


def test_invariant_report_builds_no_quotient_and_one_slice(monkeypatch):
    """The bound checks and L/Z*(L) read dim M of a quotient off L's own d2:
    no quotient algebra and no cochain slice besides L's."""
    def no_quotient(self, ideal):
        raise AssertionError("quotient called")

    slices = []

    def counted(alg):
        slices.append(alg)
        return cochain_slice(alg)

    monkeypatch.setattr(LieAlgebra, "quotient", no_quotient)
    monkeypatch.setattr(multiplier, "cochain_slice", counted)
    for name in ("L_{6,10}", "1357A", "257J", "L_{6,26}"):
        multiplier.clear_caches()
        slices.clear()
        L = get(name)
        rep = invariant_report(L)
        assert any(c.check_id.startswith("central-ideal-bound") for c in rep.bound_checks)
        assert quotient_exterior_check(L)
        assert slices == [L]


def test_gamma3_quotient_multiplier_read_once_per_algebra(monkeypatch):
    """gamma3_defect and check_third_term_bound share one dim M(L/g3), read
    once per algebra through the exterior square off L's d2.  The central
    lines are read in one pass that makes no Subspace, ideal test or
    reduction modulo K per line: L_{5,9} and L_{5,9}+A(3), which has three
    more central lines, make the same number of each, cold and warm.
    L_{5,9} has dim g3 = 2, so g3 is none of those lines."""
    import liemult.invariants as invariants

    ideals = []
    calls = Counter()
    read = multiplier.dim_quotient_exterior_square

    def counted(alg, K):
        ideals.append(K)
        return read(alg, K)

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(invariants, "dim_quotient_exterior_square", counted)
    for owner, name in ((Subspace, "__init__"), (Subspace, "canonical"),
                        (LieAlgebra, "is_ideal"), (invariants, "dim_quotient_derived"),
                        (multiplier, "dim_quotient_derived")):
        count(owner, name)
    runs = []
    for L in (get("L_{5,9}"), direct_sum(get("L_{5,9}"), abelian(3))):
        multiplier.clear_caches()
        g3 = L.lower_central_series()[2]
        assert L.nilpotency_class == 3 and g3.dim == 2
        ideals.clear()
        calls.clear()
        ids = [c.check_id for c in bound_checks(L)]
        assert "gamma3-defect" in ids and "third-term-bound" in ids
        assert ideals == [g3]
        cold = dict(calls)
        ideals.clear()
        calls.clear()
        bound_checks(L)
        assert ideals == []
        runs.append((sum(i.startswith("central-ideal-bound[") for i in ids), cold, dict(calls)))
    (lines, cold, warm), (padded_lines, padded_cold, padded_warm) = runs
    assert (lines, padded_lines) == (2, 5)
    assert cold == padded_cold and warm == padded_warm
    assert cold["is_ideal"] == 1 and "is_ideal" not in warm
    assert "dim_quotient_derived" not in cold


def test_gamma3_quotient_multiplier_matches_the_general_quotient_read():
    """dim M(L/g3) reads dim (L/g3)^2 as dim L^2 - dim g3; the general
    quotient read, which reduces L^2's rows modulo g3, agrees on every
    closure member of class >= 3."""
    import liemult.invariants as invariants

    checked = 0
    for member in build_closure(9):
        alg = member.algebra
        if alg.nilpotency_class >= 3:
            g3 = alg.lower_central_series()[2]
            assert (invariants._dim_multiplier_mod_gamma3(alg)
                    == multiplier.dim_multiplier_quotient(alg, g3)), member.name
            checked += 1
    assert checked == 205


def test_invariant_report_sweeps_the_brackets_once(monkeypatch):
    """One bracket sweep per algebra: the cocycle basis and every quotient
    read share one d2.  The copies are unvalidated, so validation adds no
    sweep of its own."""
    swept = []
    sweep = LieAlgebra.wedge_rows

    def counted(alg):
        swept.append(alg)
        return sweep(alg)

    monkeypatch.setattr(LieAlgebra, "wedge_rows", counted)
    for member in build_closure(9):
        alg = member.algebra
        copy = LieAlgebra(alg.dim, alg.brackets, name=alg.name, validate=False)
        multiplier.clear_caches()
        swept.clear()
        invariant_report(copy)
        assert swept == [copy], member.name
    multiplier.clear_caches()


def test_bound_checks_find_each_quotient_derived_dim_once(monkeypatch):
    """dim (L/K)^2 is found once per central line <x_i>, though the
    central-ideal bound uses it three times: one residue of x_i against
    L^2, and no reduction of L^2 modulo K (`dim_quotient_derived`); for
    gamma3, which lies in L^2, it is dim L^2 - dim gamma3 and takes no
    reduction either.  With every fact of the algebra memoized, those
    residues are the only ones bound_checks takes."""
    import liemult.invariants as invariants

    def refused(alg, K):
        raise AssertionError("dim_quotient_derived called")

    residues = []
    residue = Subspace.residue
    recording = []

    def recorded(self, v):
        if recording:
            residues.append((self.basis, v))
        return residue(self, v)

    monkeypatch.setattr(invariants, "dim_quotient_derived", refused)
    monkeypatch.setattr(multiplier, "dim_quotient_derived", refused)
    monkeypatch.setattr(Subspace, "residue", recorded)
    lines = 0
    for member in build_closure(9):
        alg = member.algebra
        multiplier.clear_caches()
        bound_checks(alg)
        residues.clear()
        recording.append(True)
        bound_checks(alg)
        recording.clear()
        central = central_basis_vectors(alg)
        derived = alg.derived_subalgebra().basis
        assert residues == [(derived, {i: 1}) for i in central], member.name
        lines += len(central)
    assert lines == 758
    multiplier.clear_caches()


def test_quotient_exterior_check_reads_no_quotient_derived(monkeypatch):
    """dim L^L is compared with dim (L/Z*)^(L/Z*) read off L's d2 as a
    whole: (L/Z*)^2 is not found on its own."""
    def refused(alg, K):
        raise AssertionError("dim_quotient_derived called")

    monkeypatch.setattr(multiplier, "dim_quotient_derived", refused)
    non_capable = 0
    for member in build_closure(9):
        alg = member.algebra
        if not alg.is_abelian:
            assert quotient_exterior_check(alg), member.name
            non_capable += not multiplier.is_capable(alg)
    assert non_capable > 50


def test_invariant_reports_agree_across_threads():
    """The memo shares basis matrices between equal instances: reports of
    freshly parsed closure members from four threads, on an empty memo,
    equal the sequential ones."""
    docs = [presentation_to_dict(m.algebra) for m in build_closure(6)]
    multiplier.clear_caches()
    expected = [invariant_report(presentation_from_dict(doc)) for doc in docs]
    multiplier.clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the memo's reads
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda doc: invariant_report(presentation_from_dict(doc)),
                                docs + docs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected + expected


def test_invariant_report_abelian():
    rep = invariant_report(abelian(3))
    assert rep.s is None and rep.t == 0 and rep.dim_M == 3


def test_fingerprint_examples():
    assert fingerprint(abelian(3)) == (3, (3, 0), (3,), 3, 0)
    assert fingerprint(get("L_{5,8}")) == (5, (5, 2, 0), (2, 5), 6, 2)
    assert fingerprint(get("L_{6,26}")) == (6, (6, 3, 0), (3, 6), 8, 3)


# (check_id, lhs, rhs, holds, tight) of `liemult info`, recorded before the
# applicability rule moved into bound_checks
INFO_CHECKS = {
    "L_{5,6}": [("derived-bound", 3, 4, True, False), ("gamma3-defect", 1, -2, True, None),
                ("third-term-bound", 5, 8, True, False),
                ("central-ideal-bound[x5]", 4, 4, True, True)],
    "L_{6,10}": [("derived-bound", 6, 10, True, False), ("gamma3-defect", 4, 1, True, None),
                 ("third-term-bound", 7, 9, True, False),
                 ("non-capable-s-bound", 3, 5, True, None),
                 ("central-ideal-bound[x6]", 7, 11, True, False)],
    "27A": [("derived-bound", 10, 15, True, False), ("non-capable-s-bound", 4, 6, True, None),
            ("central-ideal-bound[x6]", 11, 14, True, False),
            ("central-ideal-bound[x7]", 11, 16, True, False)],
    "H(2)": [("derived-bound", 5, 7, True, False), ("central-ideal-bound[x5]", 6, 10, True, False)],
}


@pytest.mark.parametrize("name", sorted(INFO_CHECKS))
def test_report_checks_are_bound_checks(name):
    alg = get(name)
    checks = bound_checks(alg)
    assert [(c.check_id, c.lhs, c.rhs, c.holds, c.tight) for c in checks] == INFO_CHECKS[name]
    assert invariant_report(alg).bound_checks == checks
