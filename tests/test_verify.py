"""Verification harness: tables, sweeps, suites, reports."""

import csv
import hashlib
import io
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import liemult.catalog as cat
from liemult import core, invariants, multiplier, verify
from liemult.cli import main
from liemult.core import LieAlgebra, direct_sum, format_rational
from liemult.invariants import BoundCheck, bound_checks, invariant_report, s_invariant
from liemult.linalg import Matrix
from liemult.verify import (
    build_closure,
    classify_by_s,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_markdown,
    run_all,
    classification_list,
    verify_capability_claims,
    verify_table,
)

from linalg_helpers import value_type


def test_table9_rows_match():
    rep = verify_table(9)
    assert rep.passed
    values = {r.name: (r.dim_M_computed, r.s_computed) for r in rep.rows}
    assert values["L_{6,14}"] == (2, 9)
    assert values["L_{6,15}"] == (3, 8)
    assert values["L_{6,21}(eps)"] == (4, 7)
    assert {v[0] for v in values.values()} == {2, 3, 4}


def test_table10_rows_match():
    rep = verify_table(10)
    assert rep.passed
    values = {r.name: (r.dim_M_computed, r.s_computed) for r in rep.rows}
    assert values["L_{6,10}"] == (6, 5)
    for name in ("27A", "L_{6,10}⊕A(1)", "157"):
        assert values[name] == (10, 6)


def test_table8_block_values():
    rep = verify_table(8)
    assert rep.passed
    values = {r.name: (r.dim_M_computed, r.s_computed) for r in rep.rows}
    for name in ("257B", "257D", "257E", "257G", "257H", "257I", "257J",
                 "147A", "147B"):
        assert values[name] == (8, 8)
    assert values["37A"] == (12, 4)


def test_table7_passes():
    assert verify_table(7).passed


def test_table_row_counts(full_report):
    counts = {t.table_id: len(t.rows) for t in full_report["tables"]}
    assert counts == {7: 15, 8: 40, 9: 6, 10: 4}


def test_classify_s1():
    rep = classify_by_s(1, 9)
    assert rep.computed_names == ["L_{5,8}"]
    assert rep.passed


def test_classify_s6(full_report):
    rep = full_report["classification"][6]
    assert rep.passed
    # sixteen names, three of them eps-families instantiated over 3 samples
    assert len(rep.expected_names) == 13 + 3 * 3
    assert rep.out_of_closure == ["L_{5,8}⊕A(5)"]


def test_classify_s7(full_report):
    rep = full_report["classification"][7]
    assert rep.passed
    for name in ("S1", "H(1)⊕H(2)", "L_{6,10}∔H(1)", "L_{6,13}",
                 "257A", "257C", "257F", "27B"):
        assert name in rep.computed_names
    assert "L_{5,8}⊕A(6)" in rep.out_of_closure


def test_sweeps_all_pass(full_report):
    for rep in full_report["classification"]:
        assert rep.passed, (rep.s_value, rep.missing, rep.extra)


def test_aliases_are_reported(full_report):
    # printed synonyms are matched by fingerprint, not asserted by name
    rep = full_report["classification"][3]
    assert any(alias.startswith("L_{5,3}") for alias in rep.aliases)


def test_capability_claims():
    claims = verify_capability_claims()
    assert all(c.match for c in claims)
    byname = {c.name: c.computed for c in claims}
    assert byname["27B"] is True
    assert byname["157"] is False
    assert byname["L_{6,22}(1)⊕A(1)"] is True


def test_closure_size_and_composition():
    closure = build_closure(9)
    assert len(closure) >= 200
    names = {m.name for m in closure}
    assert "H(2)⊕A(3)" in names
    assert "S1" in names
    dims = {m.algebra.dim for m in closure}
    assert max(dims) == 9


def test_classification_list_instantiation():
    expected = classification_list(0, 9)
    assert expected == ["H(1)", "H(1)⊕A(1)", "H(1)⊕A(2)", "H(1)⊕A(3)",
                        "H(1)⊕A(4)", "H(1)⊕A(5)", "H(1)⊕A(6)"]
    assert "L_{5,8}⊕A(5)" in classification_list(6, 9)


def _eps(stem: str, tail: str = "") -> list[str]:
    return [f"{stem}({format_rational(v)}){tail}" for v in verify.VERIFY_EPS]


def printed_lists(s_value: int, dim_cap: int) -> list[str]:
    """The lists spelled out one by one, as `classification_list` once did:
    the reference the table and its generator must reproduce."""
    a1, a2 = "⊕A(1)", "⊕A(2)"
    if s_value == 0:
        return [f"H(1)⊕A({k})" if k else "H(1)" for k in range(0, max(dim_cap - 2, 1))]
    if s_value == 1:
        return ["L_{5,8}"]
    if s_value == 2:
        names = ["L_{5,8}" + a1, "L_{4,3}"]
        for m in range(2, verify.HEISENBERG_MAX + 1):
            for k in range(0, dim_cap - 2 * m):
                names.append(f"H({m})⊕A({k})" if k else f"H({m})")
        return names
    if s_value == 3:
        return ["L_{5,8}" + a2, "L_{4,3}" + a1, "L_{5,5}"] + _eps("L_{6,22}") + ["L_{6,26}"]
    if s_value == 4:
        return (["L_{5,8}⊕A(3)", "L_{4,3}" + a2, "L_{5,5}" + a1]
                + _eps("L_{6,22}", a1) + ["L_{5,6}", "L_{5,7}", "L_{5,9}", "37A"])
    if s_value == 5:
        return (["L_{5,8}⊕A(4)", "L_{4,3}⊕A(3)", "L_{5,5}" + a2]
                + _eps("L_{6,22}", a2)
                + ["L_{6,26}" + a1, "L_{6,10}", "L_{6,23}", "L_{6,25}", "37B", "37C", "37D"])
    if s_value == 6:
        return (["L_{5,8}⊕A(5)", "L_{4,3}⊕A(4)", "L_{5,5}⊕A(3)"]
                + _eps("L_{6,22}", "⊕A(3)")
                + ["L_{6,10}" + a1, "27A", "157", "37A" + a1,
                   "L_{6,6}", "L_{6,7}", "L_{6,9}", "L_{6,11}", "L_{6,12}"]
                + _eps("L_{6,19}") + ["L_{6,20}"] + _eps("L_{6,24}"))
    if s_value == 7:
        return (["L_{5,8}⊕A(6)", "L_{4,3}⊕A(5)", "L_{5,5}⊕A(4)"]
                + _eps("L_{6,22}", "⊕A(4)")
                + ["27B", "L_{6,10}" + a2, "27A" + a1, "157" + a1,
                   "L_{6,10}∔H(1)", "H(1)⊕H(2)", "S1",
                   "L_{6,23}" + a1, "L_{6,25}" + a1,
                   "37B" + a1, "37C" + a1, "37D" + a1,
                   "L_{6,26}" + a2, "L_{6,13}", "257A", "257C", "257F"]
                + _eps("L_{6,21}"))
    raise ValueError("classification lists cover s in 0..7 only")


def test_classification_table_reproduces_the_printed_lists():
    for dim_cap in range(3, 14):
        for s in range(8):
            assert classification_list(s, dim_cap) == printed_lists(s, dim_cap), (s, dim_cap)
    for s in (-1, 8):
        with pytest.raises(ValueError):
            classification_list(s, 9)


def test_listed_tails_follow_the_padding_law():
    # s(X + A(k)) = s(X) + k (dim X^2 - 1), from the Kunneth formula
    # dim M(X + A(k)) = dim M(X) + k dim X/X^2 + C(k, 2)
    tails = 0
    for s in range(8):
        for name in classification_list(s, 11):
            tail = re.fullmatch(r"(.+)⊕A\((\d+)\)", name)
            if tail is None:
                continue
            core, k = cat.get(tail[1]), int(tail[2])
            assert s_invariant(core) + k * (core.derived_subalgebra().dim - 1) == s, name
            tails += 1
    assert tails > 40


def test_padding_families_are_typed_as_computed():
    for core, s, derived in verify.PADDING_FAMILIES:
        for v in verify.VERIFY_EPS if "(eps)" in core else (None,):
            alg = cat.get(core, eps=v)
            assert (s_invariant(alg), alg.derived_subalgebra().dim) == (s, derived), alg.name


def test_recorded_s_and_the_lists_agree_both_ways():
    listed = {name: s for s in range(8) for name in classification_list(s, 13)}
    recorded = 0
    for entry in cat.entries():
        if entry.expected_s is None:
            continue
        for v in verify.verify_samples(entry):
            name = entry.build(v).name
            if entry.expected_s <= 7:
                assert listed.get(name) == entry.expected_s, name
                recorded += 1
            else:
                assert name not in listed, name
    assert recorded > 20


def test_listed_l6k_tails_are_l5k_plus_a1():
    # de Graaf: L_{6,k} = L_{5,k} + A(1) for k <= 9, so the s = 6 list names
    # these three tails of the s = 4 list by their L_{6,k} names
    for k in (6, 7, 9):
        assert (cat.get(f"L_{{6,{k}}}").canonical_key()
                == cat.get(f"L_{{5,{k}}}⊕A(1)").canonical_key())


def test_sweeps_at_dim_cap_11_reach_every_listed_name():
    # at the report's cap of 9, five law tails lie beyond the closure; at 11
    # every listed name is swept against a computed s
    section = verify.classification_section(build_closure(11), 11)
    assert section.passed
    for rep in section.results["classification"]:
        assert (rep.missing, rep.extra, rep.out_of_closure) == ([], [], []), rep.s_value


def test_run_all_passes(full_report):
    assert full_report.passed
    assert full_report.exit_code == 0


def test_bound_suites_are_nonempty(full_report):
    for key in ("derived_bound", "central_ideal_bound", "non_capable_bound",
                "third_term_bound", "gamma3_defect"):
        suite = full_report["bounds"][key]
        assert suite.checked > 0
        assert suite.violations == []


# report suite -> the id of its bound_checks (central-ideal ids carry [x_i])
SUITE_CHECK_IDS = {
    "derived_bound": "derived-bound",
    "central_ideal_bound": "central-ideal-bound[",
    "non_capable_bound": "non-capable-s-bound",
    "third_term_bound": "third-term-bound",
    "gamma3_defect": "gamma3-defect",
}


def test_bound_suites_count_bound_checks(full_report):
    ids = [c.check_id for m in build_closure(9) if not m.algebra.is_abelian
           for c in bound_checks(m.algebra)]
    assert {key: suite.checked for key, suite in full_report["bounds"].items()} == {
        key: sum(i == prefix or i.startswith(prefix) for i in ids)
        for key, prefix in SUITE_CHECK_IDS.items()
    }


def test_failed_bound_check_is_a_suite_violation(monkeypatch):
    def fails(check_id):
        return lambda *args: BoundCheck(check_id, 9, 1, False, False)

    def no_report(*args, **kwargs):
        raise AssertionError("bound_suites must not build invariant reports")

    lines = invariants._central_line_checks

    def failed_lines(L):
        return [replace(chk, lhs=9, rhs=1, holds=False, tight=False) for chk in lines(L)]

    monkeypatch.setattr(invariants, "check_third_term_bound", fails("third-term-bound"))
    monkeypatch.setattr(invariants, "_central_line_checks", failed_lines)
    monkeypatch.setattr(invariants, "invariant_report", no_report)
    member = verify.ClosureMember("L_{5,6}", cat.get("L_{5,6}"), "catalog", "L_{5,6}")
    suites = verify.bound_suites([member])
    assert suites["third_term_bound"].violations == ["L_{5,6}: third-term-bound: 9 vs 1"]
    assert suites["central_ideal_bound"].violations == ["L_{5,6}: central-ideal-bound[x5]: 9 vs 1"]
    assert [key for key, suite in suites.items() if not suite.passed] == [
        "central_ideal_bound", "third_term_bound"]
    assert not [name for name in vars(verify) if name.startswith("check_")]


def test_dim_one_references_built_once_per_dimension(monkeypatch):
    # the dim L^2 = 1 members span n = 3..9; the reference H(m) + A(n - 2m - 1)
    # is tried per n (bound suites, m = 1) or per (n, m) (structure suites),
    # and its fingerprint is computed once per cold run, in the one memo
    # that clear_caches() empties
    closure = build_closure(9)
    built, stored = [], []

    def counted(a, b, name=None):
        built.append((a.dim + b.dim, (a.dim - 1) // 2))
        return direct_sum(a, b, name)

    class Facts(dict):
        def __init__(self, key):
            super().__init__()
            self.key = key

        def __setitem__(self, fn, value):
            stored.append((fn, self.key))
            super().__setitem__(fn, value)

    class Memo(dict):
        # the fact dict of each table, bound by `core._facts`
        def setdefault(self, key, default=None):
            return super().setdefault(key, Facts(key))

    monkeypatch.setattr(verify, "direct_sum", counted)
    monkeypatch.setattr(core, "_MEMO", Memo())
    computed_fingerprint = invariants.fingerprint.__wrapped__
    references = {(n, m): direct_sum(cat.heisenberg(m), cat.abelian(n - 2 * m - 1)).canonical_key()
                  for n in range(3, 10) for m in range(1, (n - 1) // 2 + 1)}

    def computed(pairs):
        keys = {references[pair] for pair in pairs}
        return [key for fn, key in stored if fn is computed_fingerprint and key in keys]

    for _ in range(2):
        multiplier.clear_caches()
        assert not core._MEMO
        stored.clear()
        built.clear()
        verify.bound_suites(closure)
        assert set(built) == {(n, 1) for n in range(3, 10)}
        verify.structure_suites(closure)
        assert len(set(built)) == 15 and set(built) <= set(references)
        assert sorted(computed(built)) == sorted(references[pair] for pair in set(built))


def test_method_disagreement_is_a_suite_violation(monkeypatch, tmp_path, capsys):
    # the cohomology route loses one cocycle of L_{6,10}, so the cover count
    # (rank of the chain boundary) disagrees with it
    target = cat.get("L_{6,10}")
    original = multiplier.cocycle_representatives

    def dropped(alg):
        reps = original(alg)
        return reps[:-1] if alg == target else reps

    monkeypatch.setattr(multiplier, "cocycle_representatives", dropped)
    multiplier.clear_caches()
    try:
        member = verify.ClosureMember("L_{6,10}", target, "catalog", "L_{6,10}")
        suites = verify.structure_suites([member])
        assert suites["method_agreement"].violations == [
            "L_{6,10}: cover and cohomology multiplier dimensions disagree"]
        out = tmp_path / "report.json"
        assert main(["verify", "all", "--dim-cap", "6", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        assert "L_{6,10}: cover and cohomology" in out.read_text()
    finally:
        multiplier.clear_caches()


def test_structure_suites(full_report):
    for key in ("method_agreement", "cover_stem", "epicenter_containment",
                "derived_dim_one_form"):
        suite = full_report["structure"][key]
        assert suite.checked > 0
        assert suite.violations == []
    assert full_report["structure"]["method_agreement"].checked == full_report.closure_size


def test_series_suite_runs_on_the_catalog_central_product(monkeypatch):
    # the suite's quotient is the catalog recipe L_{6,10} .+ H(1), and the
    # images of L_{6,10}'s basis span a 6-dim subalgebra H of it
    built = []
    quotient = LieAlgebra.quotient

    def recorded(self, ideal):
        built.append(quotient(self, ideal))
        return built[-1]

    monkeypatch.setattr(LieAlgebra, "quotient", recorded)
    assert verify.subalgebra_series_suite().passed
    ((product_alg, images),) = built
    assert product_alg == cat.get("L_{6,10}∔H(1)")
    h = product_alg.sparse_subspace(images[:6])
    assert h.dim == 6 and h.contains_subspace(product_alg.product_space(h, h))


def test_kunneth_suite(full_report):
    assert full_report["kunneth"].checked >= 50
    assert full_report["kunneth"].passed


def test_exterior_consequences(full_report):
    assert full_report["exterior_consequences"].passed


def test_documented_discrepancies(full_report):
    ids = [d["id"] for d in full_report["documented_discrepancies"]]
    assert ids == ["multiplier-L_{5,8}", "stem-witness-s-values",
                   "multiplier-147E-special-orbit"]
    l58 = full_report["documented_discrepancies"][0]
    assert l58["recorded"] == 9 and l58["computed"] == 6


def test_fixtures_in_report(full_report):
    rows = {f.name: f for f in full_report["fixtures"]}
    assert rows["357A"].computed == 8
    assert rows["247N"].computed == 7
    assert rows["147E(2)"].computed == 8 and not rows["147E(2)"].match
    assert "documented discrepancy" in rows["147E(2)"].note


def test_fixture_mismatch_allowed_only_by_discrepancy_id(full_report, monkeypatch):
    fixtures, notes = full_report["fixtures"], full_report["documented_discrepancies"]
    (allowed,) = [f for f in fixtures if not f.match]
    assert allowed.allowed_by == "multiplier-147E-special-orbit"

    def passed_with(row, discrepancies=notes):
        rows = [row if f is allowed else f for f in fixtures]
        monkeypatch.setattr(verify, "fixtures_suite", lambda: rows)
        monkeypatch.setattr(verify, "discrepancy_notes", lambda: discrepancies)
        return verify.fixtures_section().passed

    assert passed_with(replace(allowed, note="reworded"))
    assert not passed_with(replace(allowed, allowed_by=None))
    assert not passed_with(replace(allowed, allowed_by="no-such-id"))
    assert not passed_with(allowed, [d for d in notes if d["id"] != allowed.allowed_by])


def test_report_is_its_sections(full_report):
    # each top-level key of the JSON report comes from one section (or the
    # header), and the report passes iff every section does
    keys = [key for s in full_report.sections for key in s.json]
    assert len(keys) == len(set(keys))
    assert set(report_to_dict(full_report)) == {"format", "closure", "summary", *keys}
    assert [s.name for s in full_report.sections] == [
        "tables", "classification", "capability", "suites", "fixtures",
        "fingerprint_collisions", "uncovered_entries"]
    failing = replace(full_report.sections[2], passed=False)
    assert not replace(full_report, sections=[*full_report.sections[:2], failing,
                                              *full_report.sections[3:]]).passed


def test_every_suite_violation_is_named_in_csv_and_markdown(monkeypatch):
    monkeypatch.setattr(verify, "kunneth_suite",
                        lambda: verify.SuiteResult(5, ["A + B: 3 != 4"]))
    monkeypatch.setattr(verify, "subalgebra_series_suite",
                        lambda: verify.SuiteResult(1, ["L_{6,10} .+ H(1)"]))
    report = run_all(4)
    assert not report.passed
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert ["suite", "kunneth", "5 pairs", "1", "0", "fail", "A + B: 3 != 4"] in rows
    assert ["suite", "subalgebra_series_law", "1 checks", "1", "0", "fail",
            "L_{6,10} .+ H(1)"] in rows
    markdown = report_to_markdown(report)
    assert "- kunneth: 5 pairs, FAIL: A + B: 3 != 4\n" in markdown
    assert "- subalgebra_series_law: 1 checks, FAIL: L_{6,10} .+ H(1)\n" in markdown


def test_uncovered_entries_are_named_in_csv_and_markdown(full_report):
    # with no table rows and no sweeps, the entries only those cover are left
    coverage = verify.coverage_section(build_closure(4), 4, [], [])
    assert not coverage.passed
    assert "L_{4,3}" in coverage.results["uncovered_entries"]
    report = replace(full_report, sections=[*full_report.sections[:-1], coverage])
    assert not report.passed
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert ["coverage", "covered", "L_{4,3}", "False", "True", "fail", ""] in rows
    assert report_to_markdown(report).endswith(
        "## Uncovered catalog entries\n\n"
        + "".join(f"- {name}\n" for name in coverage.results["uncovered_entries"]))
    assert report_to_dict(report)["uncovered_entries"] == coverage.results["uncovered_entries"]


def test_collisions_reported(full_report):
    flattened = [set(group) for group in full_report["fingerprint_collisions"]]
    assert {"L_{5,6}", "L_{5,7}"} <= set().union(*flattened)


def test_every_entry_covered(full_report):
    assert full_report["uncovered_entries"] == []


def test_reports_deterministic(full_report):
    again = run_all(9)
    assert report_to_json(full_report) == report_to_json(again)
    assert report_to_csv(full_report) == report_to_csv(again)
    assert report_to_markdown(full_report) == report_to_markdown(again)


# sha256 of report_to_json(run_all(9)): a refactor or speedup must keep these
# bytes; a change that alters the report on purpose says what and why.
REPORT_SHA256 = "6cab71cbe9e8a699b2ed7759b5f834103236c0062a79159e61fddce6bae74681"
REPORT_CSV_SHA256 = "ca7a599b30358314100147bacf1bb8014f875f36d1698b50c7002d250f0b475c"
REPORT_MARKDOWN_SHA256 = "27959dc68ee4f6e31b64464ec1a03d5b03b394b830a2b8698fe1cec96447e8aa"


def test_report_bytes_pinned(full_report):
    assert hashlib.sha256(report_to_json(full_report).encode()).hexdigest() == REPORT_SHA256


def test_csv_and_markdown_report_bytes_pinned(full_report):
    assert hashlib.sha256(report_to_csv(full_report).encode()).hexdigest() == REPORT_CSV_SHA256
    assert (hashlib.sha256(report_to_markdown(full_report).encode()).hexdigest()
            == REPORT_MARKDOWN_SHA256)


def test_rows_reach_from_sparse_without_zeros(monkeypatch):
    """`Matrix.from_sparse` keeps its rows as given, so every row the package
    builds must already hold only nonzero exact values, all of one type per
    matrix, int or Fraction: checked on every call during a small
    verification run and an invariant report per closure member.  A zero
    value fails at once: the elimination would not survive it; nor would a
    matrix that mixes the types, since the kernel reads a row's type off its
    first value.  The integral tables send int matrices, the subspace layer
    Fraction ones, and both kinds are seen."""
    given = Matrix.from_sparse
    seen = {int: 0, Fraction: 0}

    def guarded(cls, rows, cols):
        rows = tuple(rows)
        kind = value_type(given(rows, cols))
        if kind is not None:
            seen[kind] += len(rows)
        return given(rows, cols)

    monkeypatch.setattr(Matrix, "from_sparse", classmethod(guarded))
    multiplier.clear_caches()
    assert run_all(6).passed
    for member in build_closure(7):
        invariant_report(member.algebra)
    assert seen[int] > 0 and seen[Fraction] > 0


def test_small_dim_cap_reports_out_of_closure_not_failure():
    report = run_all(5)
    by_s = {c.s_value: c for c in report["classification"]}
    assert by_s[6].out_of_closure  # fixed names above the cap are notes
    assert by_s[6].missing == []
    assert by_s[7].out_of_closure
    for rep in report["classification"]:
        assert rep.passed, (rep.s_value, rep.missing, rep.extra)


def test_csv_table_section_row_count(full_report):
    lines = [l for l in report_to_csv(full_report).splitlines() if l.startswith("table")]
    assert len(lines) == 65
