"""Span tracer that instruments liemult from the outside.

The tracer replaces the public entry points of each liemult module with
wrappers that record a span (name, start, end, parent) per call.  Spans
are kept in memory in flat arrays and summarised per *group*: a group is
one row of LAYERS, e.g. ``linalg.reduce`` or ``multiplier.cover``.

Per group the summary gives

* ``calls``   - spans entered from outside the group (nested calls within
  the group, such as ``rank`` calling ``pivot_columns``, count once);
* ``self_s``  - span time minus the time of direct child spans, summed
  over every span of the group, so the groups partition traced time;
* ``total_s`` - inclusive time of the entering spans;
* ``hits``    - entering spans that opened no direct child span in the
  ``multiplier`` layer (used for the multiplier memo caches: a miss
  always calls down into another multiplier function);
* extra counters named in LAYERS (``cells`` = rows x cols, elimination
  counts).

A function that a later version of liemult deletes or renames is
reported in ``absent`` and its metrics are left out; nothing crashes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager


def _matrix_cells(args, result):
    m = args[0]
    return m.rows * m.cols


def _result_cells(args, result):
    return result.rows * result.cols


def _slice_cells(args, result):
    return result.d1.rows * result.d1.cols + result.d2.rows * result.d2.cols


# (group, "module:qualified.name", extra counter, function giving its increment)
# A counter name ending in ".calls" counts calls of that one function; any
# other counter adds the increment function's value.
_CELLS = "cells"
LAYERS: list[tuple[str, str, str | None, object]] = [
    ("linalg.reduce", "linalg:Matrix.rref", None, None),
    ("linalg.reduce", "linalg:Matrix.pivot_columns", None, None),
    ("linalg.reduce", "linalg:Matrix.rank", None, None),
    ("linalg.reduce", "linalg:Matrix.nullspace_basis", None, None),
    ("linalg.reduce", "linalg:span_rref", None, None),
    ("linalg.reduce", "linalg:Matrix._eliminate", "eliminations", None),
    ("linalg.reduce", "linalg:Matrix._eliminate", _CELLS, _matrix_cells),
    ("linalg.matrix_new", "linalg:Matrix.__init__", _CELLS, _matrix_cells),
    ("linalg.matmul", "linalg:Matrix.__mul__", _CELLS, _result_cells),
    ("core.construct", "core:LieAlgebra.__init__", None, None),
    ("core.construct", "core:direct_sum", None, None),
    ("core.construct", "core:central_product", None, None),
    ("core.presentation", "core:presentation_from_dict", None, None),
    ("core.presentation", "core:presentation_to_dict", None, None),
    ("core.full_space", "core:LieAlgebra.full_space", None, None),
    ("core.subspace", "core:LieAlgebra.subspace", None, None),
    ("core.subspace", "core:LieAlgebra.zero_subspace", None, None),
    ("core.subspace", "core:Subspace.contains", None, None),
    ("core.subspace", "core:Subspace.contains_subspace", None, None),
    ("core.subspace", "core:Subspace.sum", None, None),
    ("core.subspace", "core:Subspace.intersect", None, None),
    ("core.product_space", "core:LieAlgebra.product_space", None, None),
    ("core.series", "core:LieAlgebra.lower_central_series", None, None),
    ("core.series", "core:LieAlgebra.upper_central_series", None, None),
    ("core.center", "core:LieAlgebra.center", None, None),
    ("core.quotient", "core:LieAlgebra.quotient", None, None),
    ("core.quotient", "core:QuotientMap.__init__", None, None),
    ("core.quotient", "core:QuotientMap.apply_subspace", None, None),
    ("core.quotient", "core:QuotientMap.kernel", None, None),
    ("core.quotient", "core:QuotientMap.preimage", None, None),
    ("multiplier.cochain_slice", "multiplier:cochain_slice", _CELLS, _slice_cells),
    ("multiplier.boundary", "multiplier:boundary2", _CELLS, _result_cells),
    ("multiplier.boundary", "multiplier:boundary3", _CELLS, _result_cells),
    ("multiplier.dim_multiplier", "multiplier:dim_multiplier", None, None),
    ("multiplier.dim_multiplier_cover", "multiplier:dim_multiplier_cover", None, None),
    ("multiplier.cocycle_reps", "multiplier:cocycle_representatives", None, None),
    ("multiplier.cover", "multiplier:cover", None, None),
    ("multiplier.epicenter", "multiplier:epicenter", None, None),
    ("multiplier.capability", "multiplier:is_capable", None, None),
    ("invariants.st", "invariants:s_invariant", None, None),
    ("invariants.st", "invariants:t_invariant", None, None),
    ("invariants.bounds", "invariants:check_derived_bound", None, None),
    ("invariants.bounds", "invariants:check_central_ideal_bound", None, None),
    ("invariants.bounds", "invariants:check_noncapable_bound", None, None),
    ("invariants.bounds", "invariants:gamma3_defect", None, None),
    ("invariants.bounds", "invariants:check_third_term_bound", None, None),
    ("invariants.fingerprint", "invariants:fingerprint", None, None),
    ("invariants.report", "invariants:invariant_report", None, None),
    ("catalog.build", "catalog:CatalogEntry.build", None, None),
    ("catalog.build", "catalog:get", None, None),
    ("catalog.build", "catalog:heisenberg", None, None),
    ("catalog.build", "catalog:abelian", None, None),
    ("verify.stage.closure", "verify:build_closure", None, None),
    ("verify.stage.tables", "verify:verify_table", None, None),
    ("verify.stage.classify", "verify:classify_by_s", None, None),
    ("verify.stage.capability", "verify:verify_capability_claims", None, None),
    ("verify.stage.bounds", "verify:bound_suites", None, None),
    ("verify.stage.structure", "verify:structure_suites", None, None),
    ("verify.stage.kunneth", "verify:kunneth_suite", None, None),
    ("verify.stage.exterior", "verify:exterior_consequence_suite", None, None),
    ("verify.stage.series", "verify:subalgebra_series_suite", None, None),
    ("verify.stage.fixtures", "verify:fixtures_suite", None, None),
    ("verify.stage.collisions", "verify:fingerprint_collisions", None, None),
    ("verify.stage.discrepancies", "verify:discrepancy_notes", None, None),
    ("verify.stage.render", "verify:report_to_json", None, None),
    ("verify.stage.render", "verify:report_to_dict", None, None),
]


class Tracer:
    """Nestable spans and counters, in memory, for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.groups.append(group)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (its own group, named as the span)."""
        idx = self._open(self._name_id(name, name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, group: str, fn, counters):
        nid = self._name_id(name, group)
        stack, start, end = self._stack, self.start, self.end
        totals = self.counters
        open_ = self._open
        clock = time.perf_counter
        for counter, _ in counters:
            totals.setdefault(counter, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for counter, inc in counters:
                totals[counter] += 1 if inc is None else inc(args, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, package: str = "liemult") -> None:
        """Wrap every LAYERS target, in every package module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        by_target: dict[tuple[str, str], list] = {}
        for group, target, counter, inc in LAYERS:
            slot = by_target.setdefault((group, target), [])
            if counter is not None:
                slot.append((f"{group}.{counter}", inc))
        for (group, target), counters in by_target.items():
            mod_name, qual = target.split(":")
            module = sys.modules.get(f"{package}.{mod_name}")
            owner, attr = module, qual
            if "." in qual and module is not None:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name, None)
            original = None if owner is None else (
                owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None))
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self.wrap(f"{mod_name}.{qual}", group, original, counters)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summarising ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-group calls, self_s, total_s, hits, spans and extra counters."""
        n = len(self.start)
        group_of = [self.groups[self.name_of[i]] for i in range(n)]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        mult_child = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if group_of[i].startswith("multiplier."):
                    mult_child[p] = 1
        out: dict[str, dict[str, float]] = {}
        for group in dict.fromkeys(self.groups):
            out[group] = {"calls": 0, "spans": 0, "self_s": 0.0, "total_s": 0.0, "hits": 0}
        for i in range(n):
            g = out[group_of[i]]
            g["spans"] += 1
            g["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or group_of[p] != group_of[i]:
                g["calls"] += 1
                g["total_s"] += dur[i]
                if not mult_child[i]:
                    g["hits"] += 1
        for counter, value in self.counters.items():
            group, _, key = counter.rpartition(".")
            out[group][key] = value
        return out

    def write(self, path) -> None:
        """Write spans (columnar), counters, the summary and absent targets."""
        doc = {
            "format": "perfbench-trace/1",
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "groups": self.groups,
            "spans": {
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "start": [round(x, 7) for x in self.start],
                "end": [round(x, 7) for x in self.end],
            },
            "counters": self.counters,
            "summary": self.summary(),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
