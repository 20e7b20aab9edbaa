"""Capacity-projection experiments.

The projection of a capacity model is the set of integer capacity vectors
that can route the traffic.  These sets are upward closed, so they are
represented by their minimal elements within an enumeration box.  The
module verifies two structural facts by exhaustive enumeration: the
five-way projection equality across model/traffic variants, and the
closed-form description of the bidirected projection on a triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    Edge,
    FacilityMenu,
    Instance,
    Network,
    Node,
    TrafficMatrix,
    edge_between,
    scale_traffic,
    symmetric_counterpart,
)
from .enumeration import MonotoneFeasibility, check_box, dominates, graded_box
from .errors import NoRoutingError, PreconditionError
from .formulate import MipModel, ModelKind, VarRef, equalize_directed
from .solver import FarkasCache, build_for_feasibility

# Not called here.  The benchmark's tracer rebinds this name on this module
# (perfbench/tracing.py PATCHES), so it must stay importable from it.
from .solver import feasible_with_capacity  # noqa: F401

VARIANTS = ("plain", "symmetrized-flows", "equalized")


@dataclass(frozen=True)
class ProjectionSet:
    """Minimal elements of an upward-closed capacity set within a box.

    Each vector lists counts aligned with `components`, the model's capacity
    variables in `VarRef.sort_key` order.
    """

    components: tuple[VarRef, ...]
    bound: int
    minimal: frozenset[tuple[int, ...]]

    def member(self, vector: tuple[int, ...]) -> bool:
        """Membership of a count tuple aligned with `components`, inside the
        box (upward closure of `minimal`)."""
        if not isinstance(vector, tuple) or len(vector) != len(self.components):
            raise PreconditionError(
                "capacity vector must be a count tuple aligned with the projection components"
            )
        return any(dominates(vector, mins) for mins in self.minimal)

    def minimal_vectors(self) -> list[tuple[int, ...]]:
        """The minimal vectors in graded (total, then lexicographic) order."""
        return sorted(self.minimal, key=lambda v: (sum(v), v))


def capacity_bound(inst: Instance) -> int:
    """Box bound sufficient for every model: B copies of the smallest module
    on every element carry the entire traffic along any connected routing."""
    if not inst.network.is_routable(inst.traffic):
        raise NoRoutingError(
            "some commodity's endpoints lie in different components; "
            "no capacity level can route it"
        )
    total = inst.traffic.total()
    if total == 0:
        return 0
    return math.ceil(total / inst.facilities.capacity(1))


def capacity_box(
    inst: Instance, model: MipModel, bound: int | None
) -> tuple[tuple[VarRef, ...], int]:
    """The box to enumerate: the model's capacity variables in `VarRef.sort_key`
    order, and `bound`, which defaults to `capacity_bound(inst)`."""
    refs = tuple(sorted((v for v in model.variables if v.kind == "capacity"), key=lambda v: v.sort_key))
    b = capacity_bound(inst) if bound is None else bound
    if b < 0:
        raise PreconditionError("bound must be nonnegative")
    check_box(len(refs), b)
    return refs, b


def _model_for(inst: Instance, kind: ModelKind, variant: str):
    if variant not in VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    if variant == "equalized":
        return equalize_directed(build_for_feasibility(inst, kind))
    return build_for_feasibility(inst, kind, symmetrize_flows=(variant == "symmetrized-flows"))


def project(
    inst: Instance,
    kind: ModelKind,
    *,
    variant: str = "plain",
    bound: int | None = None,
) -> ProjectionSet:
    """Minimal capacity vectors of the model's projection, within the box.

    Enumerates {0..bound}^components in graded order, and decides each
    vector by dominance, by a cached ray, or by an LP: a vector above a
    known minimal one is feasible; one that a capacity inequality cached
    from an earlier Farkas ray refutes is infeasible (`FarkasCache`); any
    other is decided by phase 1 of the flow LP with its capacities pinned,
    and an infeasible one adds its checked ray to the cache.  Dominance keeps
    the LPs near the boundary of the feasible set, and the cached rays keep
    them off most vectors below it.
    """
    model = _model_for(inst, kind, variant)
    refs, b = capacity_box(inst, model, bound)
    cache = MonotoneFeasibility(FarkasCache(model, refs).feasible)
    for vec in graded_box(len(refs), b):
        cache.feasible(vec)
    return ProjectionSet(components=refs, bound=b, minimal=frozenset(cache.minimal))


# -- five-way projection equality --------------------------------------------

CorollaryEntry = tuple[str, ProjectionSet]


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of comparing the five capacity projections of one instance."""

    entries: tuple[CorollaryEntry, ...]
    bound: int

    @property
    def equal(self) -> bool:
        first = self.entries[0][1].minimal
        return all(e.minimal == first for _, e in self.entries[1:])

    @property
    def minimal_count(self) -> int:
        return len(self.entries[0][1].minimal)

    def mismatches(self) -> list[str]:
        base_label, base = self.entries[0]
        out = []
        for label, entry in self.entries[1:]:
            if entry.minimal != base.minimal:
                only_base = sorted(base.minimal - entry.minimal)[:3]
                only_other = sorted(entry.minimal - base.minimal)[:3]
                out.append(
                    f"{label} differs from {base_label}: "
                    f"only in first {only_base!r}, only in second {only_other!r}"
                )
        return out

    def describe(self) -> str:
        if self.equal:
            return (
                f"{len(self.entries)} projections identical; "
                f"{self.minimal_count} minimal vectors (bound {self.bound})"
            )
        return "projection mismatch: " + "; ".join(self.mismatches())


def verify_corollary(inst: Instance, *, bound: int | None = None) -> CorollaryReport:
    """Compare five projections that should coincide exactly.

    The variants: the undirected model of the traffic as given; the
    undirected model of its symmetric counterpart, without and with
    mirror-flow rows; and the bidirected model of the doubled symmetric
    counterpart, without and with mirror-flow rows.  All five share the
    same capacity components and box.
    """
    tstar = symmetric_counterpart(inst.traffic)
    inst_star = inst.with_traffic(tstar)
    inst_doubled = inst.with_traffic(scale_traffic(tstar, 2))
    b = capacity_bound(inst) if bound is None else bound
    entries = (
        ("undirected/original", project(inst, ModelKind.UNDIRECTED, bound=b)),
        ("undirected/averaged", project(inst_star, ModelKind.UNDIRECTED, bound=b)),
        (
            "undirected/averaged/mirror-flows",
            project(inst_star, ModelKind.UNDIRECTED, variant="symmetrized-flows", bound=b),
        ),
        ("bidirected/doubled-averaged", project(inst_doubled, ModelKind.BIDIRECTED, bound=b)),
        (
            "bidirected/doubled-averaged/mirror-flows",
            project(inst_doubled, ModelKind.BIDIRECTED, variant="symmetrized-flows", bound=b),
        ),
    )
    return CorollaryReport(entries=entries, bound=b)


# -- triangle closed form ----------------------------------------------------

@dataclass(frozen=True)
class TriangleForm:
    """Closed-form membership test for the bidirected projection of a
    complete 3-node, single-unit-facility instance with no existing capacity.

    A capacity vector y belongs iff every node's incident capacity covers
    that node's rounded-up directional load, and the total capacity covers
    both the rounded half-sum of those loads and the rounded worst
    one-node-relay routing.
    """

    nodes: tuple[Node, Node, Node]
    node_requirements: Mapping[Node, int]
    theta: Fraction
    total_requirement: int

    def member(self, edge_counts: Mapping[Edge, int]) -> bool:
        edges = {edge_between(a, b) for a, b in zip(self.nodes, self.nodes[1:] + self.nodes[:1])}
        stray = set(tuple(e) for e in edge_counts) - edges
        if stray:
            raise PreconditionError(f"unknown edges {sorted(stray)!r}")
        counts = {e: edge_counts.get(e, 0) for e in edges}
        for n in self.nodes:
            incident = sum(c for e, c in counts.items() if n in e)
            if incident < self.node_requirements[n]:
                return False
        return sum(counts.values()) >= self.total_requirement


def triangle_bidirected_projection(
    traffic: TrafficMatrix, nodes: Iterable[Node] | None = None
) -> TriangleForm:
    """Build the closed-form projection test for a 3-node traffic matrix."""
    if nodes is None:
        inferred = sorted(traffic.node_ids())
        if len(inferred) != 3:
            raise PreconditionError(
                f"traffic mentions {len(inferred)} nodes; pass the three nodes explicitly"
            )
        triple = tuple(inferred)
    else:
        triple = tuple(sorted(nodes))
        if len(triple) != 3 or len(set(triple)) != 3:
            raise PreconditionError(f"need exactly three distinct nodes, got {triple!r}")
        stray = traffic.node_ids() - set(triple)
        if stray:
            raise PreconditionError(f"traffic references nodes outside the triangle: {sorted(stray)!r}")
    reqs: dict[Node, int] = {}
    for n in triple:
        others = [m for m in triple if m != n]
        out_load = sum((traffic.get(n, m) for m in others), Fraction(0))
        in_load = sum((traffic.get(m, n) for m in others), Fraction(0))
        reqs[n] = math.ceil(max(out_load, in_load))
    theta = Fraction(0)
    for i in triple:
        j, k = [m for m in triple if m != i]
        for a, b in ((j, k), (k, j)):
            theta = max(theta, traffic.get(i, a) + traffic.get(i, b) + traffic.get(a, b))
    total_req = max(math.ceil(Fraction(sum(reqs.values())) / 2), math.ceil(theta))
    return TriangleForm(
        nodes=triple,
        node_requirements=reqs,
        theta=theta,
        total_requirement=total_req,
    )


@dataclass(frozen=True)
class TriangleReport:
    """Closed form vs. LP enumeration on a triangle, plus the symmetric checks."""

    bound: int
    points: int
    mismatches: tuple[tuple[int, ...], ...]
    ceiling_ok: bool
    halves_equal: bool

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.ceiling_ok and self.halves_equal

    def describe(self) -> str:
        if self.passed:
            return (
                f"closed form agrees with LP membership on {self.points} vectors; "
                "half-traffic identity and ceiling inequality hold"
            )
        parts = []
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} membership mismatches, first {self.mismatches[0]!r}")
        if not self.ceiling_ok:
            parts.append("ceiling inequality fails")
        if not self.halves_equal:
            parts.append("half-traffic projection differs")
        return "triangle check failed: " + "; ".join(parts)


def _triangle_instance(traffic: TrafficMatrix, triple: tuple[Node, Node, Node]) -> Instance:
    net = Network(
        nodes=triple,
        edges=(
            edge_between(triple[0], triple[1]),
            edge_between(triple[0], triple[2]),
            edge_between(triple[1], triple[2]),
        ),
    )
    return Instance(net, FacilityMenu((1,)), traffic)


def verify_triangle_remark(
    traffic: TrafficMatrix,
    bound: int,
    nodes: Iterable[Node] | None = None,
) -> TriangleReport:
    """Check the triangle closed form against LP-based membership on the box,
    and for the symmetric counterpart check the two companion identities:
    the rounded half-sum dominates the relay bound, and the bidirected
    projection of the counterpart equals the undirected projection of the
    halved traffic."""
    form = triangle_bidirected_projection(traffic, nodes)
    inst = _triangle_instance(traffic, form.nodes)
    proj = project(inst, ModelKind.BIDIRECTED, bound=bound)
    mismatches = []
    points = 0
    for vec in graded_box(len(proj.components), bound):
        points += 1
        counts = {ref.edge: v for ref, v in zip(proj.components, vec)}
        if form.member(counts) != proj.member(vec):
            mismatches.append(vec)

    tstar = symmetric_counterpart(traffic)
    star_form = triangle_bidirected_projection(tstar, form.nodes)
    half_sum = math.ceil(Fraction(sum(star_form.node_requirements.values())) / 2)
    ceiling_ok = half_sum >= math.ceil(star_form.theta)

    proj_star = project(inst.with_traffic(tstar), ModelKind.BIDIRECTED, bound=bound)
    proj_half = project(
        inst.with_traffic(scale_traffic(traffic, Fraction(1, 2))), ModelKind.UNDIRECTED, bound=bound
    )
    halves_equal = proj_star.minimal == proj_half.minimal

    return TriangleReport(
        bound=bound,
        points=points,
        mismatches=tuple(mismatches),
        ceiling_ok=ceiling_ok,
        halves_equal=halves_equal,
    )
