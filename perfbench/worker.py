"""One benchmark process: set up a workload, then time it, trace it or pin it.

    python3 perfbench/worker.py MODE --workload W --seed N [--seconds S]

MODE is one of

* ``setup``  - time import plus input generation, nothing else;
* ``run``    - set up, then run operations until S seconds have passed and
  every input ran at least once (S = 0: exactly one pass; run.py uses
  that for verify_all, whose one operation must start in a fresh process);
* ``trace``  - like ``run``, with the tracer installed after import; the
  spans go to --trace-file;
* ``pin``    - print the oracle data this workload checks against.

Outside trace mode the host probe (probe.py) runs throughout: timings
exclude the probe's own time, and the result carries the factors that
scale set-up and run timings to the reference host speed.

The result is one JSON object on the last line of standard output.  The
liemult package is imported from ``src/`` of the checkout (run.py sets
PYTHONPATH); nothing here is imported by liemult.
"""

import time

T_START = time.perf_counter()

from probe import HostProbe  # noqa: E402

PROBE = HostProbe()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"
WORKLOADS = ("verify_all", "info_catalog", "large_dim")

# sha256 of report_to_json(run_all(9)); the ROADMAP pins its first 12 digits.
REPORT_SHA256 = "6cab71cbe9e8a699b2ed7759b5f834103236c0062a79159e61fddce6bae74681"
LARGE_SUM_DIMS = range(10, 15)
LARGE_SUMS_PER_DIM = 40
HEISENBERG_M = range(4, 8)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(rep) -> str:
    """Digest of the user-visible fields of an InvariantReport."""
    fields = ("name", "n", "dim_derived", "nilpotency_class", "dim_M", "s", "t",
              "capable", "gamma_dims", "z_dims", "dim_exterior", "dim_tensor")
    doc = {f: getattr(rep, f) for f in fields}
    doc["bound_checks"] = [
        [c.check_id, c.lhs, c.rhs, c.holds, c.tight] for c in rep.bound_checks
    ]
    return _sha(json.dumps(doc, sort_keys=True, default=str))[:16]


# ---------------------------------------------------------------------------
# workloads: prepare(i) is untimed set-up of one operation, run(arg) is the
# timed operation, check(i, result) lists the failed checks (empty = pass)
# ---------------------------------------------------------------------------

class VerifyAll:
    """Cold run_all(9) plus report_to_json; the input is fixed, the seed unused."""

    def __init__(self, seed: int):
        from liemult import verify
        self.verify = verify
        self.ids = ["run_all(9)"]
        self.last_sha = None

    def prepare(self, i: int):
        return None

    def run(self, arg):
        report = self.verify.run_all(9)
        return report, self.verify.report_to_json(report)

    def check(self, i: int, result) -> list[str]:
        report, text = result
        self.last_sha = _sha(text)
        fails = []
        if not report.passed:
            fails.append("report.passed is false")
        if self.last_sha != REPORT_SHA256:
            fails.append(f"report sha256 {self.last_sha} != pinned {REPORT_SHA256}")
        return fails


class InfoCatalog:
    """Presentation dict -> invariant_report for each closure member, cold caches."""

    def __init__(self, seed: int):
        from liemult import catalog, core, invariants, multiplier, verify
        self.core, self.invariants, self.multiplier = core, invariants, multiplier
        closure = verify.build_closure(9)
        self.ids = [m.name for m in closure]
        self.docs = [core.presentation_to_dict(m.algebra) for m in closure]
        self.recorded = {}
        for m in closure:
            if m.origin == "catalog":
                entry = catalog.lookup(m.base_entry)
                self.recorded[m.name] = (entry.expected_dim_M, entry.expected_s)
        # pin mode runs before the oracle exists; then every digest check fails
        oracle = (json.loads(ORACLE.read_text(encoding="utf-8")) if ORACLE.exists()
                  else {"info_digests": {}, "documented_discrepancies": {}})
        self.digests = oracle["info_digests"]
        self.documented = {k: tuple(v) for k, v in oracle["documented_discrepancies"].items()}

    def prepare(self, i: int):
        self.multiplier.clear_caches()
        return self.docs[i]

    def run(self, doc):
        return self.invariants.invariant_report(self.core.presentation_from_dict(doc))

    def differs_from_record(self, name: str, rep) -> bool:
        dim_m, s = self.recorded.get(name, (None, None))
        return (dim_m is not None and rep.dim_M != dim_m) or (s is not None and rep.s != s)

    def check(self, i: int, rep) -> list[str]:
        name = self.ids[i]
        fails = []
        if report_digest(rep) != self.digests.get(name):
            fails.append(f"{name}: report digest differs from the pinned one")
        got = (rep.dim_M, rep.s)
        if name in self.documented:
            if got != self.documented[name]:
                fails.append(f"{name}: documented discrepancy is {self.documented[name]}, got {got}")
        elif self.differs_from_record(name, rep):
            fails.append(f"{name}: (dim M, s) = {got}, recorded {self.recorded[name]}")
        return fails

    def pin(self) -> dict:
        digests, documented = {}, {}
        for i, name in enumerate(self.ids):
            rep = self.run(self.prepare(i))
            digests[name] = report_digest(rep)
            if self.differs_from_record(name, rep):
                documented[name] = [rep.dim_M, rep.s]
        return {"info_digests": digests, "documented_discrepancies": documented}


class LargeDim:
    """dim M by both routes on H(4..7) and seeded sums of total dim 10-14."""

    def __init__(self, seed: int):
        from liemult import catalog, core, multiplier
        self.core, self.multiplier = core, multiplier
        rng = random.Random(seed)
        pool = [e.build(v) for e in catalog.entries() for v in e.sample_values()]
        algebras, expected = [], []
        for m in HEISENBERG_M:
            algebras.append(catalog.heisenberg(m))
            expected.append(2 * m * m - m - 1)
        parts: dict[int, tuple[int, int]] = {}
        for total in LARGE_SUM_DIMS:
            made = 0
            while made < LARGE_SUMS_PER_DIM:
                a, b = rng.choice(pool), rng.choice(pool)
                if a.dim + b.dim != total:
                    continue
                for p in (a, b):
                    if id(p) not in parts:
                        parts[id(p)] = (multiplier.dim_multiplier(p), p.abelianization_dim())
                (ma, aa), (mb, ab) = parts[id(a)], parts[id(b)]
                algebras.append(core.direct_sum(a, b))
                expected.append(ma + mb + aa * ab)  # Kunneth law for dim M
                made += 1
        self.algebras = algebras
        self.expected = expected
        self.ids = [f"{k}:{alg.name}" for k, alg in enumerate(algebras)]

    def prepare(self, i: int):
        """An unvalidated copy, so the per-algebra caches start empty."""
        self.multiplier.clear_caches()
        L = self.algebras[i]
        return self.core.LieAlgebra(L.dim, L.brackets, name=L.name, validate=False)

    def run(self, L):
        return self.multiplier.dim_multiplier(L), self.multiplier.dim_multiplier_cover(L).dim_M

    def check(self, i: int, result) -> list[str]:
        by_cohomology, by_cover = result
        fails = []
        if by_cohomology != by_cover:
            fails.append(f"{self.ids[i]}: routes disagree, {by_cohomology} != {by_cover}")
        if by_cohomology != self.expected[i]:
            fails.append(f"{self.ids[i]}: dim M {by_cohomology} != expected {self.expected[i]}")
        return fails


CLASSES = {"verify_all": VerifyAll, "info_catalog": InfoCatalog, "large_dim": LargeDim}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace", "pin"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    # the probe stays off while tracing: its signal handler would land
    # inside traced spans
    timed = args.mode in ("setup", "run")
    if timed:
        PROBE.start()
    import liemult  # noqa: F401  (import cost is part of set-up)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        work = CLASSES[args.workload](args.seed)
    out = {"setup_s": time.perf_counter() - T_START - PROBE.spent}
    if timed:
        PROBE.sample()
        out["setup_factor"] = PROBE.factor()
        setup_probes = len(PROBE.durations)
    if args.mode == "setup":
        PROBE.stop()
        print(json.dumps(out))
        return 0
    if args.mode == "pin":
        print(json.dumps(work.pin(), sort_keys=True, indent=1))
        return 0

    # Operations follow seeded shuffles of the inputs, pass after pass,
    # until every input ran once and the time is up.
    rng = random.Random(args.seed)
    n = len(work.ids)

    def schedule():
        while True:
            order = list(range(n))
            rng.shuffle(order)
            yield from order

    times: list[list] = []
    failed_ops = 0
    fails: list[str] = []
    clock = time.perf_counter
    t_run = clock()
    with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
        for i in schedule():
            if len(times) >= n and clock() - t_run >= args.seconds:
                break
            arg = work.prepare(i)
            spent = PROBE.spent
            t0 = clock()
            try:
                result, error = work.run(arg), None
            except Exception as exc:  # a failing operation is a failed check
                result, error = None, exc
            times.append([i, clock() - t0 - (PROBE.spent - spent)])
            problems = [f"{work.ids[i]}: raised {error!r}"] if error else work.check(i, result)
            failed_ops += bool(problems)
            fails.extend(problems)
    out.update(
        ids=work.ids,
        times=times,
        failed=failed_ops,
        fails=fails[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if timed:
        PROBE.stop()
        out["run_factor"] = PROBE.factor(setup_probes)
    if isinstance(work, VerifyAll):
        out["report_sha256"] = work.last_sha
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.start)
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
