"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything is exact rational arithmetic; every tolerance is zero.

Criterion 3 samples the family 147E(lam) at lam = 2 with the recorded
value dim M = 7.  A direct calculation refutes that value: the recorded
blanket value 7 holds for generic members of the family but not on the
eigenvalue-coincidence orbit lam in {2, -1, 1/2}, where dim M = 8.
test_criterion_3_147E_sample_as_stated pins the computed 8 and checks
that the recorded 7 stays listed as refuted in the verification report's
documented-discrepancy notes.
"""

from fractions import Fraction
from itertools import combinations

from liemult import (
    abelian,
    dim_exterior_square,
    dim_multiplier,
    dim_multiplier_cover,
    direct_sum,
    get,
    heisenberg,
)
from liemult.multiplier import cochain_slice
from liemult.verify import WITNESS_EXTENSIONS, discrepancy_notes, report_to_json, run_all

from core_helpers import jacobi_defect
from linalg_helpers import nullspace_basis


def _line(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    return ok


def test_criterion_1_table_reproduction(full_report):
    ok = all(t.passed for t in full_report["tables"])
    spots = {
        "L_{6,13}": 4, "37A": 12, "L_{6,14}": 2, "27A": 10,
        "1457A": 6, "137A": 7,
    }
    for name, want in spots.items():
        ok &= dim_multiplier(get(name)) == want
    rows = sum(len(t.rows) for t in full_report["tables"])
    assert _line("1 table reproduction", ok, f"{rows} rows, spot values checked")


def test_criterion_2_classification_sweeps(full_report):
    ok = all(c.passed for c in full_report["classification"])
    detail = "; ".join(
        f"s={c.s_value}:{len(c.computed_names)}" for c in full_report["classification"]
    )
    assert _line("2 classification sweeps", ok, detail)


def test_criterion_3_stem_extension_fixtures():
    values = {e.name: dim_multiplier_cover(e.build()).dim_M for e in WITNESS_EXTENSIONS}
    ok = values["ext(37A; [x1,x7]=x8)"] == 14
    ok &= values["stem(37A; [x1,x3]=x8)"] == 14
    ok &= values["ext(147A; [x6,x8]=x7)"] == 12
    ok &= values["ext(L_{5,8}+A(2); [x6,x8]=x7)"] == 14
    ok &= dim_multiplier_cover(get("357A")).dim_M == 8
    ok &= dim_multiplier_cover(get("247N")).dim_M == 7
    ok &= dim_multiplier_cover(get("147D")).dim_M == 7
    ok &= dim_multiplier_cover(get("147F")).dim_M == 7
    ok &= dim_multiplier_cover(get("147E", lam=3)).dim_M == 7
    assert _line("3 stem-extension fixtures (generic 147E sample)", ok)


def test_criterion_3_147E_sample_as_stated():
    """The criterion pins dim M(147E(2)) = 7; the true value is 8.

    The derivation, which needs nothing from liemult: over Q(lam), take
    the chain complex L^3 L -> L^2 L -> L (exterior powers) of 147E(lam),
    so dim M = C(7,2) - rank d2 - rank d3 = 21 - rank d2 - rank d3.

    - rank d2 = dim [L, L] = 4 for every lam outside {0, 1}.
    - d3 has 12 non-zero rows, and rank d3 = 10 unless every 10 x 10
      minor vanishes.  By Cauchy-Binet the sum of the squares of those
      minors is the x^2 coefficient of the characteristic polynomial of
      the 12 x 12 matrix d3 d3^T; it factors as
      6 (lam-2)^2 (lam+1)^2 (2 lam-1)^2 (lam^2+2) (lam^2-2 lam+3) (lam^2-lam+1).
    - Its only rational roots are lam = 2, -1, 1/2, where rank d3 = 9.

    So dim M = 21 - 4 - 10 = 7 for every other rational lam outside
    {0, 1}, and 21 - 4 - 9 = 8 on the orbit {2, -1, 1/2} (the eigenvalue
    triple {-1, lam, 1-lam} degenerates).  The criterion's lam = 2 sample
    therefore gives 8, and the recorded 7 must stay listed as refuted.
    """
    value = dim_multiplier_cover(get("147E", lam=2)).dim_M
    orbit = [
        dim_multiplier_cover(get("147E", lam=lam)).dim_M
        for lam in (Fraction(-1), Fraction(1, 2))
    ]
    note = next(n for n in discrepancy_notes() if n["id"] == "multiplier-147E-special-orbit")
    ok = value == 8 and orbit == [8, 8]
    ok &= note["recorded"] == 7 and note["computed"] == 8
    assert _line("3b recorded value at the lam=2 sample", ok,
                 f"computed {value}; recorded 7 refuted; lam=-1, 1/2: {orbit}")


def test_criterion_4_method_agreement_and_sum_law(full_report):
    agreement = full_report["structure"]["method_agreement"]
    kunneth = full_report["kunneth"]
    ok = agreement.passed and agreement.checked == full_report.closure_size
    ok &= kunneth.passed and kunneth.checked >= 50
    assert _line(
        "4 method agreement + direct-sum law",
        ok,
        f"{agreement.checked} members; {kunneth.checked} random pairs",
    )


def test_criterion_5_capability(full_report):
    claims_ok = all(c.match for c in full_report["capability"])
    epi = full_report["structure"]["epicenter_containment"]
    stem = full_report["structure"]["cover_stem"]
    ok = claims_ok and epi.passed and stem.passed
    assert _line(
        "5 capability claims + epicenter/stem containment",
        ok,
        f"{len(full_report['capability'])} claims; {epi.checked} epicenter; {stem.checked} covers",
    )


def test_criterion_6_exterior_square_arithmetic(full_report):
    ok = full_report["exterior_consequences"].passed
    ok &= dim_exterior_square(abelian(6)) == 15
    ok &= dim_exterior_square(direct_sum(heisenberg(1), abelian(4))) == 17
    assert _line("6 exterior-square arithmetic", ok)


def test_criterion_7_bound_suites(full_report):
    ok = all(s.passed for s in full_report["bounds"].values())
    detail = "; ".join(f"{k}:{s.checked}" for k, s in full_report["bounds"].items())
    assert _line("7 bound suites", ok, detail)


def test_criterion_8_property_suites(full_report):
    # standalone linear algebra properties live in test_linalg.py; spot
    # checks here plus Jacobi on every catalog entry and byte determinism
    import liemult.catalog as cat
    from liemult.linalg import Matrix

    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    ok = m.rank() + len(nullspace_basis(m)) == m.cols
    ok &= m.rref().rref() == m.rref()
    slice_ = cochain_slice(get("L_{6,13}"))
    ok &= (slice_.d2 * slice_.d1).is_zero()
    for entry in cat.entries():
        alg = entry.build()
        for triple in combinations(range(alg.dim), 3):
            if any(c != 0 for c in jacobi_defect(alg, *triple)):
                ok = False
    ok &= report_to_json(full_report) == report_to_json(run_all(9))
    assert _line("8 property suites + deterministic reports", ok)
