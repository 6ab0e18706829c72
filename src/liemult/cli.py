"""Command-line front end.

Subcommands: list (catalog export), info (catalog algebra report),
compute (report for a presentation file), verify (tables / theorems /
capability / all), export (write the presentation JSON of a catalog
algebra).  Exit codes: 0 success, 1 verification mismatch, 2 input
error or ``error=OutOfMemory``.  Every error path prints a machine-readable
``error=<Tag>`` line before the human-readable text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, verify
from .core import MAX_DIM, LieError, load_presentation, presentation_to_dict, rational_expr
from .invariants import InvariantReport, invariant_report


def _params(args) -> dict | None:
    """The --eps/--lambda values a presentation file's coefficients may name;
    `presentation_from_dict` refuses one the file neither declares nor
    reads, as `catalog.get` refuses one the name does not read."""
    params = {key: value for key, value in (("eps", args.eps), ("lam", args.lam))
              if value is not None}
    return params or None


def _report_lines(rep: InvariantReport) -> list[str]:
    lines = [
        rep.name,
        f"  dim:        {rep.n}",
        f"  dim L^2:    {rep.dim_derived}",
        f"  class:      {rep.nilpotency_class}",
        f"  gamma dims: {' '.join(map(str, rep.gamma_dims))}",
        f"  Z dims:     {' '.join(map(str, rep.z_dims))}",
        f"  dim M:      {rep.dim_M}",
        f"  s:          {rep.s if rep.s is not None else 'undefined for abelian algebras'}",
        f"  t:          {rep.t}",
        f"  capable:    {'true' if rep.capable else 'false'}",
        f"  dim L^L:    {rep.dim_exterior}",
        f"  dim LxL:    {rep.dim_tensor}",
    ]
    if rep.bound_checks:
        lines.append("  checks:")
        for chk in rep.bound_checks:
            tight = ", tight" if chk.tight else ""
            lines.append(
                f"    {chk.check_id}: {chk.lhs} vs {chk.rhs} "
                f"({'holds' if chk.holds else 'VIOLATED'}{tight})"
            )
    return lines


def _report_dict(rep: InvariantReport) -> dict:
    return {
        "name": rep.name,
        "dim": rep.n,
        "dim_derived": rep.dim_derived,
        "class": rep.nilpotency_class,
        "gamma_dims": list(rep.gamma_dims),
        "z_dims": list(rep.z_dims),
        "dim_M": rep.dim_M,
        "s": rep.s,
        "t": rep.t,
        "capable": rep.capable,
        "dim_exterior_square": rep.dim_exterior,
        "dim_tensor_square": rep.dim_tensor,
        "checks": [
            {
                "id": c.check_id,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "holds": c.holds,
                "tight": c.tight,
            }
            for c in rep.bound_checks
        ],
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


LIST_FIELDS = ("name", "dim", "dim_derived", "source", "params", "expected_dim_M",
               "expected_s", "provenance")


def cmd_list(args) -> int:
    rows = []
    for e in catalog.all_entries(dim=args.dim, source=args.source, table=args.table):
        dim_derived = e.build().derived_subalgebra().dim
        if args.derived_dim is not None and dim_derived != args.derived_dim:
            continue
        rows.append(
            {
                "name": e.name,
                "dim": e.dim,
                "dim_derived": dim_derived,
                "source": e.source,
                "params": "" if e.param is None else f"{e.param.name}: {e.param.label()}",
                "expected_dim_M": e.expected_dim_M,
                "expected_s": e.expected_s,
                "provenance": e.provenance,
            }
        )
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    elif args.format == "csv":
        # csv writes None as an empty field
        _emit(verify.csv_text([LIST_FIELDS] + [[r[k] for k in LIST_FIELDS] for r in rows]),
              args.out)
    else:
        lines = ["| name | dim | dim L^2 | source | params | dim M | s |", "|---|---|---|---|---|---|---|"]
        for r in rows:
            lines.append(
                f"| {r['name']} | {r['dim']} | {r['dim_derived']} | {r['source']} "
                f"| {r['params']} | {r['expected_dim_M'] if r['expected_dim_M'] is not None else ''} "
                f"| {r['expected_s'] if r['expected_s'] is not None else ''} |"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _print_report(alg, args) -> int:
    rep = invariant_report(alg)
    if args.format == "json":
        _emit(json.dumps(_report_dict(rep), sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(_report_lines(rep)) + "\n", args.out)
    return 0


def cmd_info(args) -> int:
    if os.path.exists(args.name) or args.name.endswith(".json"):
        return _print_report(load_presentation(args.name, _params(args)), args)
    return _print_report(catalog.get(args.name, eps=args.eps, lam=args.lam), args)


def cmd_compute(args) -> int:
    return _print_report(load_presentation(args.file, _params(args)), args)


def cmd_verify(args) -> int:
    """`all` prints the full report.  A single scope builds the one report
    section it names and prints it as the report does: its JSON value, its
    CSV rows under the report's CSV header, its Markdown lines.  A flag
    the scope does not read is a usage error, not ignored."""
    for flag, readers in (("s", ("theorems",)), ("dim_cap", ("theorems", "all"))):
        if getattr(args, flag) is not None and args.scope not in readers:
            args.refuse(f"verify {args.scope} takes no --{flag.replace('_', '-')}")
    dim_cap = 9 if args.dim_cap is None else args.dim_cap
    if args.scope == "all":
        report = verify.run_all(dim_cap)
        writers = {"json": verify.report_to_json, "csv": verify.report_to_csv,
                   "md": verify.report_to_markdown}
        _emit(writers[args.format](report), args.out)
        return report.exit_code
    if args.scope == "tables":
        section = verify.tables_section()
    elif args.scope == "theorems":
        s_values = [args.s] if args.s is not None else range(8)
        section = verify.classification_section(verify.build_closure(dim_cap), dim_cap, s_values)
    else:
        section = verify.capability_section()
    if args.format == "json":
        (doc,) = section.json.values()
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(verify.csv_text([verify.CSV_HEADER, *section.csv]), args.out)
    else:
        _emit("\n".join(section.markdown), args.out)
    return 0 if section.passed else 1


def cmd_export(args) -> int:
    alg = catalog.get(args.name, eps=args.eps, lam=args.lam)
    doc = presentation_to_dict(alg)
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _dim_cap(text: str) -> int:
    """--dim-cap: at least 3, the dimension of H(1), the smallest closure
    member; a smaller cap would verify an empty closure."""
    cap = int(text)
    if cap < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, not {cap}")
    return cap


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its usage errors tagged like every other error:
    the ``error=UsageError`` line, then argparse's own text and exit 2."""

    def error(self, message: str):
        sys.stderr.write("error=UsageError\n")
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    # subparsers are built with the class of their parent, so they are
    # tagged too
    parser = _Parser(
        prog="liemult",
        description="Schur multiplier, capability, and s/t invariants of "
                    "nilpotent Lie algebras over the rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--dim", type=int)
    p_list.add_argument("--derived-dim", type=int, dest="derived_dim")
    p_list.add_argument("--source", choices=["table1", "table2", "table3", "table4",
                                             "table5", "table6", "extra", "composite"])
    p_list.add_argument("--table", type=int, choices=[7, 8, 9, 10])
    p_list.add_argument("--format", choices=["json", "csv", "md"], default="md")
    p_list.add_argument("--out")
    p_list.set_defaults(func=cmd_list)

    def add_params(p):
        # rational_expr raises PresentationError, which argparse passes on to main
        p.add_argument("--eps", type=rational_expr, default=None,
                       help="rational value for eps families (default 1)")
        p.add_argument("--lambda", type=rational_expr, default=None, dest="lam",
                       help="rational value for the lam family (default 3)")

    p_info = sub.add_parser("info", help="invariants of a catalog algebra or presentation file")
    p_info.add_argument("name")
    add_params(p_info)
    p_info.add_argument("--format", choices=["text", "json"], default="text")
    p_info.add_argument("--out")
    p_info.set_defaults(func=cmd_info)

    p_compute = sub.add_parser("compute", help="invariants of a presentation file")
    p_compute.add_argument("file")
    add_params(p_compute)
    p_compute.add_argument("--format", choices=["text", "json"], default="text")
    p_compute.add_argument("--out")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("scope", nargs="?", default="all",
                          choices=["tables", "theorems", "capability", "all"])
    p_verify.add_argument("--s", type=int, choices=range(8))
    p_verify.add_argument("--dim-cap", type=_dim_cap, dest="dim_cap", help="default 9")
    p_verify.add_argument("--format", choices=["json", "csv", "md"], default="json")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify, refuse=p_verify.error)

    p_export = sub.add_parser("export", help="write the presentation JSON of a catalog algebra")
    p_export.add_argument("name")
    add_params(p_export)
    p_export.add_argument("--out")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except LieError as exc:
        tag, text = type(exc).__name__, exc
    except OSError as exc:
        tag, text = "IOError", exc
    except (MemoryError, SystemError) as exc:
        # how CPython 3.11 can report a failed allocation under `ulimit -v`
        if isinstance(exc, SystemError) and str(exc) != "error return without exception set":
            raise
        tag, text = "OutOfMemory", f"ran out of memory; see the README on MAX_DIM = {MAX_DIM}"
    sys.stderr.write(f"error={tag}\n{text}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
