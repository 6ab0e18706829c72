"""Command-line interface behavior, exit codes, and error tags."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liemult
from liemult import catalog, verify
from liemult.cli import main
from liemult.core import MAX_DIGITS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_named_algebra(capsys):
    code, out, _ = run_cli(capsys, "info", "L_{6,26}")
    assert code == 0
    assert "dim M:      8" in out
    assert "s:          3" in out
    assert "capable:    true" in out


def test_info_S1_json(capsys):
    code, out, _ = run_cli(capsys, "info", "S1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 8 and doc["dim_M"] == 15 and doc["s"] == 7


def test_info_abelian(capsys):
    code, out, _ = run_cli(capsys, "info", "A(3)")
    assert code == 0
    assert "undefined for abelian algebras" in out
    assert "t:          0" in out


def test_info_eps_spellings(capsys):
    code, out, _ = run_cli(capsys, "info", "L6_22", "--eps", "1/2")
    assert code == 0 and "L_{6,22}(1/2)" in out


def test_info_unknown_name(capsys):
    code, _, err = run_cli(capsys, "info", "nonsense")
    assert code == 2
    assert err.splitlines()[0] == "error=UnknownName"


def test_info_param_out_of_domain(capsys):
    code, _, err = run_cli(capsys, "info", "L_{6,21}", "--eps", "0")
    assert code == 2
    assert err.splitlines()[0] == "error=ParamOutOfDomain"


def test_compute_presentation_file(tmp_path, capsys):
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "compute", str(path))
    assert code == 0
    assert "dim M:      2" in out
    assert "t:          1" in out


def test_compute_rejects_bad_pair_order(tmp_path, capsys):
    doc = {"dim": 3, "brackets": [{"i": 2, "j": 1, "terms": [{"k": 3, "c": "1"}]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "compute", str(path))
    assert code == 2
    assert err.splitlines()[0] == "error=PresentationError"
    assert "(2, 1)" in err


def test_compute_reports_jacobi_violation(tmp_path, capsys):
    doc = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
            {"i": 1, "j": 3, "terms": [{"k": 4, "c": "1"}]},
            {"i": 2, "j": 4, "terms": [{"k": 3, "c": "1"}]},
        ],
    }
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "compute", str(path))
    assert code == 2
    assert err.splitlines()[0] == "error=JacobiViolation"
    assert "(1, 2, 3)" in err


def test_info_accepts_file_path(tmp_path, capsys):
    doc = {"dim": 2, "brackets": []}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0 and "dim:        2" in out


@pytest.mark.parametrize("extra", [[], ["--eps", "2", "--format", "json"]])
def test_compute_and_info_print_the_same_report(tmp_path, capsys, extra):
    # [x1, x2] = x5, [x3, x4] = eps x5: --eps reaches the file's coefficients
    doc = {"dim": 5, "params": {"eps": "1"}, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 5, "c": "1"}]},
        {"i": 3, "j": 4, "terms": [{"k": 5, "c": "eps"}]}]}
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(doc))
    compute = run_cli(capsys, "compute", str(path), *extra)
    assert compute == run_cli(capsys, "info", str(path), *extra)
    assert compute[0] == 0 and ("dim M:      5" in compute[1] or '"dim_M": 5' in compute[1])


def test_export_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "l610.json"
    code, _, _ = run_cli(capsys, "export", "L_{6,10}", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dim"] == 6 and doc["name"] == "L_{6,10}"
    code, out, _ = run_cli(capsys, "compute", str(out_path))
    assert code == 0 and "dim M:      6" in out


def test_list_catalog_csv(capsys):
    code, out, _ = run_cli(capsys, "list", "--source", "table6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + six entries
    assert lines[0].startswith("name,dim,dim_derived")
    # names such as L_{6,14} hold a comma, so they must come back as one field
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == [e.name for e in catalog.all_entries(source="table6")]


# sha256 of `liemult list --table t`, recorded when table membership was a
# per-entry catalog field; it now comes from catalog.TABLE_ORDER
LIST_TABLE_SHA256 = {
    7: "2c719a01a29518d0ecf0aa1e14e7340b1b1cddda2b257b93bc586286767d162c",
    8: "119fefebebef4aa0a8fe644d20c20d444be7c2102a90c4e717b21bd98cac5c8f",
    9: "ce24728ad973fb68d3e801103b4574b9aa539b4fb519f7d0fea00284e8bb6cb1",
    10: "d2589e1fac8ebe013ffaaa03889ec08e999fe2a9941173320f9fc1bf9822e62c",
}


@pytest.mark.parametrize("table", sorted(LIST_TABLE_SHA256))
def test_list_table_output_pinned(capsys, table):
    code, out, _ = run_cli(capsys, "list", "--table", str(table))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_TABLE_SHA256[table]
    names = [e.name for e in catalog.all_entries(table=table)]
    assert sorted(names) == sorted(catalog.TABLE_ORDER[table])


# sha256 of `liemult list --derived-dim 3`, recorded when the catalog filter
# built each kept entry a second time for its dim L^2 column
LIST_DERIVED_DIM_3_SHA256 = "7c6f6d31b1126a0ef1c3116b302dbf0b2cd46274a7aaee7f76994402d3a3fd1e"


def test_list_derived_dim_builds_each_entry_once(capsys, monkeypatch):
    built, depth = [], []
    build = catalog.CatalogEntry.build

    def outermost_builds(entry, *args, **kwargs):
        if not depth:  # composite entries build their parts inside
            built.append(entry.name)
        depth.append(entry)
        try:
            return build(entry, *args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(catalog.CatalogEntry, "build", outermost_builds)
    code, out, _ = run_cli(capsys, "list", "--derived-dim", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_DERIVED_DIM_3_SHA256
    assert len(out.splitlines()) == 2 + 55
    assert built == [e.name for e in catalog.entries()]


def test_list_catalog_json_all(capsys):
    code, out, _ = run_cli(capsys, "list", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 60


def test_verify_tables_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables", "--format", "csv")
    assert code == 0
    header, *data = csv.reader(io.StringIO(out))
    assert len(data) == 65
    assert all(row[header.index("status")] == "ok" for row in data)


def test_verify_theorems_single_s(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorems", "--s", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["computed"] == ["L_{5,8}"]


def test_verify_capability(capsys):
    code, out, _ = run_cli(capsys, "verify", "capability", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(row["match"] for row in doc)


def test_verify_scopes_render_report_sections(capsys, full_report):
    report = verify.report_to_dict(full_report)
    header, *report_rows = csv.reader(io.StringIO(verify.report_to_csv(full_report)))
    markdown = verify.report_to_markdown(full_report)
    for scope, key, section in (("tables", "tables", "table"),
                                ("theorems", "classification", "classification"),
                                ("capability", "capability", "capability")):
        code, out, _ = run_cli(capsys, "verify", scope, "--format", "json")
        assert code == 0
        assert json.loads(out) == report[key]
        code, out, _ = run_cli(capsys, "verify", scope, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header
        assert all(len(row) == len(header) for row in rows)
        assert rows[1:] == [row for row in report_rows if row[0].startswith(section)]
        assert rows[1:]
        code, out, _ = run_cli(capsys, "verify", scope, "--format", "md")
        assert code == 0
        assert out.startswith("## ") and out in markdown


def test_verify_all_small_cap_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "all", "--dim-cap", "5",
                         "--format", "json", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["passed"] is True
    assert doc["closure"]["dim_cap"] == 5
    assert len(doc["documented_discrepancies"]) == 3


def test_cli_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "info", "L_{6,13}", "--format", "json")
    _, out2, _ = run_cli(capsys, "info", "L_{6,13}", "--format", "json")
    assert out1 == out2


@pytest.mark.slow
def test_module_invocation_deterministic_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "liemult", "verify", "tables", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


H1_BRACKETS = [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]
MALFORMED = {
    "terms_string": {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": "x"}]},
    "terms_of_int": {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [5]}]},
    "params_list": {"dim": 3, "params": [1], "brackets": H1_BRACKETS},
    "deep_coefficient": {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "-" * 5000 + "1"}]}],
    },
    "dim_boolean": {"dim": True, "brackets": []},
    "index_boolean": {"dim": 3, "brackets": [{"i": True, "j": 2, "terms": []}]},
    "target_boolean": {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": True}]}]},
    "coefficient_above_digit_cap": {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1" + "0" * MAX_DIGITS}]}],
    },
    "coefficient_value_above_digit_cap": {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1" + "0" * 6000 + "*3" + "0" * 6000}]}],
    },
    # raw file contents rather than documents
    "not_utf8": b'\xff\xfe{"dim": 3, "brackets": []}',
    "json_nested_too_deeply": b"[" * 100_000 + b"]" * 100_000,
}


def run_subprocess(*argv):
    """`python -m liemult ARGV` in a fresh process: no traceback may escape,
    whatever the input."""
    env = dict(os.environ, PYTHONPATH=str(Path(liemult.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "liemult", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def run_compute_subprocess(tmp_path, doc):
    """`compute` on a file holding doc as JSON, or doc itself if it is bytes."""
    path = tmp_path / "input.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return run_subprocess("compute", str(path))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_compute_malformed_presentation_exits_2(tmp_path, case):
    proc = run_compute_subprocess(tmp_path, MALFORMED[case])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[0] == "error=PresentationError"
    assert "Traceback" not in proc.stderr


def test_compute_accepts_5000_digit_coefficient(tmp_path):
    # above CPython's default 4300-digit limit on int/str conversion
    n = "7" + "0" * 4998 + "3"
    proc = run_compute_subprocess(
        tmp_path, {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": n}]}]})
    assert proc.returncode == 0, proc.stderr
    assert "  dim M:      2" in proc.stdout.splitlines()


@pytest.mark.parametrize("argv", [
    ("L6_22", "--eps", "abc"),
    ("147E", "--lambda", "1/0"),
    ("L6_22", "--eps", "1" + "0" * MAX_DIGITS),
    ("L_{6,22}(1/0)",),
    ("L_{6,22}(1" + "0" * MAX_DIGITS + ")",),
])
def test_info_bad_parameter_value_exits_2(argv):
    proc = run_subprocess("info", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[0] == "error=PresentationError"
    assert "Traceback" not in proc.stderr


def test_info_accepts_5000_digit_parameter():
    eps = "7" + "0" * 4998 + "3"
    proc = run_subprocess("info", "L6_22", "--eps", eps)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"L_{{6,22}}({eps})"


def test_compute_dimension_above_cap_exits_2(tmp_path):
    proc = run_compute_subprocess(tmp_path, {"dim": 100000, "brackets": []})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[0] == "error=DimensionTooLarge"


def test_info_heisenberg_above_cap(capsys):
    code, _, err = run_cli(capsys, "info", "H(100000000)")
    assert code == 2
    assert err.splitlines()[0] == "error=DimensionTooLarge"


@pytest.mark.parametrize("argv", [
    (),
    ("bogus",),
    ("info",),
    ("info", "L_{4,3}", "extra"),
    # below 3, the dim of H(1), the closure is empty and would pass
    ("verify", "--dim-cap", "-3"),
    ("verify", "theorems", "--dim-cap", "2"),
])
def test_usage_errors_are_tagged(argv):
    """argparse's usage errors print the error=UsageError line first, then
    argparse's own usage text, and exit 2."""
    proc = run_subprocess(*argv)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0] == "error=UsageError"
    assert lines[1].startswith("usage: liemult")
    assert any(line.startswith("liemult") and ": error: " in line for line in lines)
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [("--help",), ("info", "--help")])
def test_help_exits_0_untagged(argv):
    proc = run_subprocess(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: liemult") and proc.stderr == ""
