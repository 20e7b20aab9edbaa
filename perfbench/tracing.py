"""Per-layer spans recorded from outside the package.

`Tracer.install` rebinds netcap's public functions, in every module that
calls them, to wrappers that record one span per call: name, start, end,
parent span and case id.  `projlab` and `cuts` import `feasible_with_capacity`,
`fix_variables`, `solve_lp` and `graded_box` by name, so each importing
module's binding is patched, not only the defining one.  Spans stay in
memory; `layer_metrics` derives counts and self times from one pass's spans
and `write_spans` dumps them when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module attribute on the lib namespace, function name, span name).  A span
# name shared by several bindings is one layer seen from several callers.
PATCHES = (
    ("core", "parse_instance", "core.parse_instance"),
    ("formulate", "build_undirected", "formulate.build"),
    ("formulate", "build_bidirected", "formulate.build"),
    ("formulate", "build_directed", "formulate.build"),
    ("formulate", "add_flow_symmetry", "formulate.build"),
    ("solver", "build_undirected", "formulate.build"),
    ("solver", "build_bidirected", "formulate.build"),
    ("solver", "build_directed", "formulate.build"),
    ("solver", "add_flow_symmetry", "formulate.build"),
    ("solver", "fix_variables", "formulate.fix_variables"),
    ("cuts", "fix_variables", "formulate.fix_variables"),
    ("solver", "feasible", "solver.feasible"),
    ("solver", "solve_lp", "solver.solve_lp"),
    ("cuts", "solve_lp", "solver.solve_lp"),
    ("solver", "solve_mip", "solver.solve_mip"),
    ("projlab", "feasible_with_capacity", "solver.feasible_with_capacity"),
    ("projlab", "graded_box", "enumeration.graded_box"),
    ("cuts", "graded_box", "enumeration.graded_box"),
    ("projlab", "project", "projlab.project"),
    ("projlab", "verify_corollary", "projlab.verify_corollary"),
    ("cuts", "cutset_inequality", "cuts.cutset_inequality"),
    ("cuts", "check_cut_validity", "cuts.check_cut_validity"),
    ("transform", "result_point", "transform.result_point"),
    ("transform", "render_point", "transform.render_point"),
)

# Spans that open a new case; everything below them shares its case id.
CASE_SPANS = {"projlab.project", "cuts.check_cut_validity", "solver.solve_mip"}
TIME_UNITS = {"s", "ms"}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    pass_index: int
    case: str
    start_ns: int
    end_ns: int = 0
    value: object = None  # what the layer produced that a metric counts

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _measure(name: str, args: tuple, result) -> object:
    """The countable part of a call's arguments or result."""
    if name in ("solver.feasible", "solver.solve_lp"):
        return len(args[0].constraints), result if name == "solver.feasible" else None
    if name == "solver.solve_mip":
        return result.nodes
    if name == "enumeration.graded_box":
        return len(result)
    if name == "projlab.project":
        return len(result.minimal)
    if name == "cuts.check_cut_validity":
        return result.points
    return None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    unit: int = 0
    pass_index: int = 0
    _stack: list[Span] = field(default_factory=list)
    _case_count: int = 0
    _saved: list = field(default_factory=list)

    def start_unit(self, pass_index: int, unit: int) -> None:
        self.pass_index, self.unit, self._case_count = pass_index, unit, 0

    def _wrap(self, inner, name: str):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name in CASE_SPANS and (parent is None or "." not in parent.case):
                case = f"{self.unit}.{self._case_count}"
                self._case_count += 1
            else:
                case = parent.case if parent else str(self.unit)
            span = Span(len(self.spans), parent.sid if parent else None, name, self.pass_index, case, 0)
            self.spans.append(span)
            self._stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = inner(*args, **kwargs)
                if name == "enumeration.graded_box":
                    result = list(result)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            span.value = _measure(name, args, result)
            return iter(result) if name == "enumeration.graded_box" else result

        traced.__wrapped__ = inner
        return traced

    def install(self, lib) -> None:
        for module_name, attr, name in PATCHES:
            module = getattr(lib, module_name)
            inner = getattr(module, attr)
            self._saved.append((module, attr, inner))
            setattr(module, attr, self._wrap(inner, name))

    def uninstall(self) -> None:
        for module, attr, inner in reversed(self._saved):
            setattr(module, attr, inner)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "pass": s.pass_index,
                    "case": s.case, "start_ns": s.start_ns, "end_ns": s.end_ns,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass: name -> (value, unit)."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        # A call nested in a call of the same layer (solve_mip's own probe)
        # is already inside its parent's time.
        return [
            s for s in spans
            if s.name == name and (s.parent is None or by_id[s.parent].name != name)
        ]

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    m: dict[str, tuple[float, str]] = {}
    for layer in ("core.parse_instance", "formulate.build", "formulate.fix_variables",
                  "solver.feasible", "solver.solve_lp", "solver.solve_mip",
                  "projlab.project", "cuts.check_cut_validity"):
        m[f"{layer}.calls"] = (len(named(layer)), "count")
        m[f"{layer}.s"] = (total(layer), "s")
    for layer in ("enumeration.graded_box", "cuts.cutset_inequality",
                  "transform.result_point", "transform.render_point"):
        m[f"{layer}.s"] = (total(layer), "s")

    lp_rows = [s.value[0] for s in spans if s.name in ("solver.feasible", "solver.solve_lp")]
    m["formulate.rows_per_lp"] = (_ratio(sum(lp_rows), len(lp_rows)), "rows")
    feas = named("solver.feasible")
    infeasible = sum(1 for s in feas if not s.value[1])
    m["solver.feasible.infeasible_frac"] = (_ratio(infeasible, len(feas)), "ratio")
    nodes = sum(s.value for s in named("solver.solve_mip"))
    m["solver.bb_nodes"] = (nodes, "count")
    m["solver.ms_per_node"] = (_ratio(1000 * total("solver.solve_mip"), nodes), "ms")

    projections = named("projlab.project")
    proj_ids = {s.sid for s in projections}
    boxes = named("enumeration.graded_box")
    box_in_projection = sum(s.value for s in boxes if s.parent in proj_ids)
    oracle = sum(1 for s in named("solver.feasible_with_capacity") if s.parent in proj_ids)
    minimal = sum(s.value for s in projections)
    m["enumeration.box_vectors"] = (sum(s.value for s in boxes), "count")
    m["enumeration.oracle_calls"] = (oracle, "count")
    m["enumeration.dominance_skips"] = (box_in_projection - oracle, "count")
    m["enumeration.minimal_per_oracle_call"] = (_ratio(minimal, oracle), "ratio")
    m["projlab.project.self_s"] = (
        sum(s.seconds - sum(c.seconds for c in children.get(s.sid, ())) for s in projections), "s"
    )

    checks = named("cuts.check_cut_validity")
    check_ids = {s.sid for s in checks}
    check_lps = sum(1 for s in named("solver.solve_lp") if s.parent in check_ids)
    check_box = sum(s.value for s in boxes if s.parent in check_ids)
    m["cuts.feasible_points"] = (sum(s.value for s in checks), "count")
    m["cuts.lp_per_box_vector"] = (_ratio(check_lps, check_box), "ratio")
    return m
