"""liemult benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a liemult checkout; the package is imported from its
``src/`` directory.  All timed work runs in fresh worker processes
(perfbench/worker.py), one at a time, single-threaded.

--trace 0 prints the end-to-end metrics, scaled to the reference host
speed that probe.py measures while each worker runs; the unscaled wall
times go to standard error.  --trace 1 prints the per-layer metrics of
one traced pass (see perfbench/README.md for both lists, the workloads
and how each metric is computed).  The last line of standard output is

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

where ``attempted`` counts operations (plus trace consistency checks) and
``failed`` those with at least one failed output check, so
error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "liemult"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify_all", "info_catalog", "large_dim")
SETUP_ONLY_RUNS = 5       # set-up-only workers per run, besides the timed ones
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150        # no new verify_all worker starts after this

# Package source at the commit that defined the benchmark.  While the source
# is unchanged, the traced counts must repeat these values exactly.
BASELINE_SOURCE_SHA256 = "07d6ac8ea274507da7f0b3323b6ec08f3a07a52469219917b84df3c51672dd92"
BASELINE_COUNTS = {
    "verify_all": {"core.full_space.calls": 20615, "linalg.reduce.eliminations": 60860},
}

# Per-layer metrics: (group, key, unit).  key "hit_ratio" is hits / calls.
LAYER_METRICS = [
    ("linalg.reduce", "calls", "count"), ("linalg.reduce", "eliminations", "count"),
    ("linalg.reduce", "cells", "count"), ("linalg.reduce", "self_s", "s"),
    ("linalg.matrix_new", "calls", "count"), ("linalg.matrix_new", "cells", "count"),
    ("linalg.matrix_new", "self_s", "s"),
    ("linalg.matmul", "calls", "count"), ("linalg.matmul", "cells", "count"),
    ("linalg.matmul", "self_s", "s"),
    ("core.construct", "calls", "count"), ("core.construct", "self_s", "s"),
    ("core.presentation", "calls", "count"), ("core.presentation", "self_s", "s"),
    ("core.full_space", "calls", "count"),
    ("core.subspace", "calls", "count"), ("core.subspace", "self_s", "s"),
    ("core.product_space", "calls", "count"), ("core.product_space", "self_s", "s"),
    ("core.series", "calls", "count"), ("core.series", "self_s", "s"),
    ("core.center", "calls", "count"), ("core.center", "self_s", "s"),
    ("core.quotient", "calls", "count"), ("core.quotient", "self_s", "s"),
    ("multiplier.cochain_slice", "calls", "count"), ("multiplier.cochain_slice", "cells", "count"),
    ("multiplier.cochain_slice", "self_s", "s"),
    ("multiplier.boundary", "calls", "count"), ("multiplier.boundary", "cells", "count"),
    ("multiplier.boundary", "self_s", "s"),
    ("multiplier.dim_multiplier_cover", "calls", "count"),
    ("multiplier.dim_multiplier_cover", "self_s", "s"),
]
for _cache in ("dim_multiplier", "cocycle_reps", "cover", "epicenter"):
    LAYER_METRICS += [(f"multiplier.{_cache}", "calls", "count"),
                      (f"multiplier.{_cache}", "self_s", "s"),
                      (f"multiplier.{_cache}", "hit_ratio", "ratio")]
for _group in ("invariants.bounds", "invariants.fingerprint", "invariants.report", "catalog.build"):
    LAYER_METRICS += [(_group, "calls", "count"), (_group, "self_s", "s")]
STAGES = ("closure", "tables", "classify", "capability", "bounds", "structure", "kunneth",
          "exterior", "series", "fixtures", "collisions", "discrepancies", "render")
LAYER_METRICS += [(f"verify.stage.{s}", "total_s", "s") for s in STAGES]


def metric_name(group: str, key: str) -> str:
    return f"{group}_s" if key == "total_s" else f"{group}.{key}"


# Per-layer metrics that must read non-zero (and zero) on each workload's
# traced pass, traced set-up included.
_EVERYWHERE = {"linalg.reduce", "linalg.matrix_new", "linalg.matmul", "core.construct",
               "core.full_space", "core.subspace", "core.product_space", "core.series",
               "multiplier.cochain_slice", "multiplier.dim_multiplier",
               "multiplier.cocycle_reps", "catalog.build"}
NONZERO_GROUPS = {
    "verify_all": _EVERYWHERE | {"core.center", "core.quotient", "multiplier.boundary",
                                 "multiplier.dim_multiplier_cover", "multiplier.cover",
                                 "multiplier.epicenter", "invariants.bounds",
                                 "invariants.fingerprint"} | {f"verify.stage.{s}" for s in STAGES},
    "info_catalog": _EVERYWHERE | {"core.presentation", "core.center", "core.quotient",
                                   "multiplier.cover", "multiplier.epicenter",
                                   "invariants.bounds", "invariants.report",
                                   "verify.stage.closure"},
    "large_dim": _EVERYWHERE | {"multiplier.boundary", "multiplier.dim_multiplier_cover"},
}
ZERO_GROUPS = {
    "verify_all": {"core.presentation", "invariants.report"},
    "info_catalog": {"multiplier.boundary", "multiplier.dim_multiplier_cover"},
    "large_dim": {"multiplier.cover", "multiplier.epicenter", "invariants.bounds",
                  "invariants.report", "invariants.fingerprint", "core.presentation"}
                 | {f"verify.stage.{s}" for s in STAGES},
}


class BenchError(Exception):
    pass


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def worker(mode: str, workload: str, seed: int, seconds: float = 0.0,
           trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    # bytecode is never cached, so every set-up compiles the same way
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(runs: list[dict], scaled: bool) -> tuple[float, float, float]:
    """pass_s, p50_ms, p90_ms over per-input median operation times.

    Percentiles are taken over inputs, not operations, so neither the
    seeded order nor a partly finished last pass changes the mix.
    """
    per_input: dict[int, list[float]] = {}
    for r in runs:
        scale = r["run_factor"] if scaled else 1.0
        for i, t in r["times"]:
            per_input.setdefault(i, []).append(t * scale)
    if len(per_input) != len(runs[0]["ids"]):
        raise BenchError("some inputs never ran")
    typical = [statistics.median(ts) for ts in per_input.values()]
    return sum(typical), 1000 * statistics.median(typical), 1000 * quantile(typical, 90)


def end_to_end(args) -> dict:
    setups = [worker("setup", args.workload, args.seed) for _ in range(SETUP_ONLY_RUNS)]
    runs: list[dict] = []
    start = time.perf_counter()
    if args.workload == "verify_all":
        # one cold run_all per fresh process, until the time is up
        while not runs or (time.perf_counter() - start < args.seconds
                           and time.perf_counter() - start < RUN_BUDGET_S):
            runs.append(worker("run", args.workload, args.seed))
    else:
        runs.append(worker("run", args.workload, args.seed, args.seconds))
    setups += runs
    pass_s, p50_ms, p90_ms = summarise(runs, scaled=True)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] * w["setup_factor"] for w in setups), "s"),
        "pass_s": (pass_s, "s"),
        "p50_ms": (p50_ms, "ms"),
        "p90_ms": (p90_ms, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    for r in runs:
        for line in r["fails"]:
            print(f"check failed: {line}", file=sys.stderr)
    ops = sum(len(r["times"]) for r in runs)
    raw_pass_s, raw_p50_ms, raw_p90_ms = summarise(runs, scaled=False)
    print(f"{args.workload}: {ops} operations over {len(runs[0]['ids'])} inputs in "
          f"{len(runs)} process(es), {len(setups)} set-ups; unscaled wall time: "
          f"setup_s {statistics.median(w['setup_s'] for w in setups):.4f} "
          f"pass_s {raw_pass_s:.4f} p50_ms {raw_p50_ms:.3f} p90_ms {raw_p90_ms:.3f}; "
          f"host factor {statistics.median(r['run_factor'] for r in runs):.3f}",
          file=sys.stderr)
    return {"attempted": ops, "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def per_layer(args) -> dict:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    traced = worker("trace", args.workload, args.seed, trace_file=trace_file)
    plain = worker("run", args.workload, args.seed)
    layers = traced["layers"]
    checks: list[tuple[str, bool]] = []

    def value(group: str, key: str):
        g = layers.get(group)
        if g is None:
            return None
        if key == "hit_ratio":
            return g["hits"] / g["calls"] if g["calls"] else 0.0
        return g.get(key)

    metrics = {}
    for group, key, unit in LAYER_METRICS:
        v = value(group, key)
        if v is None:
            print(f"absent: {metric_name(group, key)}", file=sys.stderr)
            continue
        metrics[metric_name(group, key)] = (v, unit)
    traced_s = sum(t for _, t in traced["times"])
    plain_s = sum(t for _, t in plain["times"])
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    metrics["trace.spans"] = (traced["spans"], "count")

    for group in NONZERO_GROUPS[args.workload]:
        if group in layers:
            checks.append((f"{group}.calls is non-zero", layers[group]["calls"] > 0))
    for group in ZERO_GROUPS[args.workload]:
        if group in layers:
            checks.append((f"{group}.calls is zero", layers[group]["calls"] == 0))
    if args.workload == "verify_all":
        checks.append(("traced report bytes equal the untraced ones",
                       traced["report_sha256"] == plain["report_sha256"]))
    if source_sha256() == BASELINE_SOURCE_SHA256:
        for name, want in BASELINE_COUNTS.get(args.workload, {}).items():
            got = metrics.get(name, (None,))[0]
            checks.append((f"{name} = {got}, baseline {want}", got == want))
    for label, ok in checks:
        if not ok:
            print(f"trace check failed: {label}", file=sys.stderr)
    for line in traced["fails"] + plain["fails"]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "attempted": len(traced["times"]) + len(plain["times"]) + len(checks),
        "failed": traced["failed"] + plain["failed"] + sum(not ok for _, ok in checks),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no liemult package at {PACKAGE}; run from a liemult checkout",
              file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
