"""Constructive transforms between feasible flows of the capacity models.

The four operations implement the package's equivalences:

* redistribute: move flow between a commodity and its reverse so the flow
  serves a different traffic matrix with the same per-pair totals, without
  touching any edge's per-commodity-pair load,
* symmetrize: average a flow with its reversal to get a direction-symmetric
  routing of a symmetric traffic matrix,
* lift_to_bidirected / drop_to_undirected: the exact 2x / x/2 correspondence
  between undirected points for traffic T and bidirected points for 2T.

Preconditions are checked by direct constraint evaluation, and every
transform re-validates its output before returning it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .core import (
    Arc,
    Commodity,
    Edge,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    pairwise_similar,
    parse_json,
    parse_rational,
    read_text,
    render_rational,
    scale_traffic,
    write_text,
)
from .errors import ParseError, PreconditionError
from .formulate import (
    MipModel,
    VarRef,
    add_flow_symmetry,
    build_bidirected,
    build_undirected,
    parse_varref,
)

FlowKey = tuple[Commodity, Arc]


@dataclass(frozen=True)
class FlowVector:
    """Nonnegative per-commodity arc flows; missing entries are zero."""

    entries: Mapping[FlowKey, Fraction]

    def __post_init__(self) -> None:
        clean: dict[FlowKey, Fraction] = {}
        for (k, a), raw in self.entries.items():
            v = parse_rational(raw)
            if v < 0:
                raise PreconditionError(f"negative flow for commodity {k!r} on arc {a!r}")
            if v != 0:
                clean[(tuple(k), tuple(a))] = v
        object.__setattr__(self, "entries", clean)

    def get(self, commodity: Commodity, arc: Arc) -> Fraction:
        return self.entries.get((commodity, arc), Fraction(0))

    def commodities(self) -> set[Commodity]:
        return {k for k, _ in self.entries}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowVector):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)


@dataclass(frozen=True)
class ModelPoint:
    """A flow vector with integer counts on capacity variables.

    Capacity entries are keyed by the model's capacity `VarRef`s: edge-keyed
    for the undirected and bidirected models, arc-keyed for the directed one.
    """

    flow: FlowVector
    capacity: Mapping[VarRef, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for ref, count in self.capacity.items():
            if not isinstance(ref, VarRef) or ref.kind != "capacity":
                raise PreconditionError(f"capacity key {ref!r} is not a capacity variable")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise PreconditionError(f"capacity count for {ref.name} must be a nonnegative integer")

    def assignment(self) -> dict[VarRef, Fraction]:
        """Variable assignment for constraint evaluation."""
        values: dict[VarRef, Fraction] = {
            VarRef.flow(k, a): v for (k, a), v in self.flow.entries.items()
        }
        values.update((ref, Fraction(count)) for ref, count in self.capacity.items())
        return values


def balance_violations(
    flow: FlowVector, traffic: TrafficMatrix, network: Network
) -> list[str]:
    """Commodity/node pairs where outflow - inflow misses the required net supply."""
    bad: list[str] = []
    relevant = sorted(flow.commodities() | set(traffic.entries))
    for o, d in relevant:
        t = traffic.get(o, d)
        for node in network.nodes:
            net_out = Fraction(0)
            for a in network.out_arcs(node):
                net_out += flow.get((o, d), a)
            for a in network.in_arcs(node):
                net_out -= flow.get((o, d), a)
            want = t if node == o else (-t if node == d else Fraction(0))
            if net_out != want:
                bad.append(f"{o}>{d}@{node}")
    return bad


def _require_balanced(flow: FlowVector, traffic: TrafficMatrix, network: Network, label: str) -> None:
    bad = balance_violations(flow, traffic, network)
    if bad:
        raise PreconditionError(f"{label} violates flow balance at {bad[:4]!r}")


def _unordered_pairs(*groups) -> list[Edge]:
    pairs = set()
    for group in groups:
        for o, d in group:
            pairs.add(edge_between(o, d))
    return sorted(pairs)


def edge_pair_load(flow: FlowVector, edge: Edge, pair: Edge) -> Fraction:
    """Combined load of a commodity pair on both orientations of an edge."""
    i, j = edge
    u, v = pair
    total = Fraction(0)
    for k in ((u, v), (v, u)):
        total += flow.get(k, (i, j)) + flow.get(k, (j, i))
    return total


def redistribute(
    flow: FlowVector,
    traffic: TrafficMatrix,
    target: TrafficMatrix,
    network: Network,
) -> FlowVector:
    """Reroute a flow for `traffic` into one for `target`.

    Requires identical per-pair totals (pairwise similarity).  For each
    commodity pair the two directions' flows are pooled arc-wise (one of
    them reversed) and split in the ratio the target prescribes, so the
    combined load of the pair on every edge is unchanged.  A pair with zero
    total keeps its circulation on the lexicographically-larger commodity.
    """
    if not pairwise_similar(traffic, target, nodes=network.nodes):
        raise PreconditionError("traffic matrices are not pairwise similar")
    _require_balanced(flow, traffic, network, "input flow")
    out: dict[FlowKey, Fraction] = {}
    for u, v in _unordered_pairs(flow.commodities(), traffic.entries, target.entries):
        total = traffic.get(u, v) + traffic.get(v, u)
        share = target.get(u, v) / total if total else Fraction(0)
        for i, j in network.arcs:
            pooled_uv = flow.get((u, v), (i, j)) + flow.get((v, u), (j, i))
            pooled_vu = flow.get((v, u), (i, j)) + flow.get((u, v), (j, i))
            out[((u, v), (i, j))] = share * pooled_uv
            out[((v, u), (i, j))] = (1 - share) * pooled_vu
    result = FlowVector(out)
    _require_balanced(result, target, network, "redistributed flow")
    for e in network.edges:
        for pair in _unordered_pairs(flow.commodities(), traffic.entries, target.entries):
            if edge_pair_load(result, e, pair) != edge_pair_load(flow, e, pair):
                raise PreconditionError(
                    f"internal: pair load changed on edge {e!r} for pair {pair!r}"
                )
    return result


def reverse_flow(flow: FlowVector) -> FlowVector:
    """Swap every commodity with its reverse and every arc with its reverse."""
    return FlowVector(
        {((k[1], k[0]), (a[1], a[0])): v for (k, a), v in flow.entries.items()}
    )


def is_direction_symmetric(flow: FlowVector) -> bool:
    """True when x[(u,v),(i,j)] equals x[(v,u),(j,i)] throughout."""
    return all(
        v == flow.get((k[1], k[0]), (a[1], a[0])) for (k, a), v in flow.entries.items()
    )


def symmetrize(flow: FlowVector, traffic: TrafficMatrix, network: Network) -> FlowVector:
    """Average a flow with its reversal; requires symmetric traffic.

    The output routes the same traffic, is direction-symmetric, and its
    per-edge directional totals are each half the combined original load.
    """
    if not traffic.is_symmetric():
        raise PreconditionError("symmetrize requires a symmetric traffic matrix")
    _require_balanced(flow, traffic, network, "input flow")
    mirrored = reverse_flow(flow)
    keys = set(flow.entries) | set(mirrored.entries)
    out = {ka: (flow.entries.get(ka, Fraction(0)) + mirrored.entries.get(ka, Fraction(0))) / 2 for ka in keys}
    result = FlowVector(out)
    _require_balanced(result, traffic, network, "symmetrized flow")
    if not is_direction_symmetric(result):
        raise PreconditionError("internal: symmetrized flow is not direction-symmetric")
    return result


def scale_flow(flow: FlowVector, factor: Fraction | int | str) -> FlowVector:
    f = parse_rational(factor)
    if f < 0:
        raise PreconditionError("flow scale factor must be nonnegative")
    return FlowVector({ka: v * f for ka, v in flow.entries.items()})


def scale_flow_cost(
    cost: Mapping[VarRef, Fraction], factor: Fraction | int | str
) -> dict[VarRef, Fraction]:
    """Scale only the flow coefficients of a cost vector."""
    f = parse_rational(factor)
    return {v: parse_rational(c) * (f if v.kind == "flow" else 1) for v, c in cost.items()}


def _check_point(model: MipModel, point: ModelPoint, label: str) -> None:
    values = point.assignment()
    known = set(model.variables)
    stray = [v.name for v in values if v not in known]
    if stray:
        raise PreconditionError(f"{label} references variables outside the model: {stray[:4]!r}")
    bad = model.violations(values)
    if bad:
        raise PreconditionError(f"{label} violates {len(bad)} constraints, first {bad[:4]!r}")


def lift_to_bidirected(point: ModelPoint, inst: Instance) -> ModelPoint:
    """Map an undirected mirror-flow point for symmetric traffic T to a
    bidirected point for traffic 2T: flows double, capacities carry over.

    `inst` must carry the symmetric traffic; the input is validated against
    the undirected model with mirror-flow rows, the output against the
    bidirected model of the doubled instance.
    """
    if not inst.traffic.is_symmetric():
        raise PreconditionError("lift_to_bidirected requires symmetric traffic")
    source = add_flow_symmetry(build_undirected(inst))
    _check_point(source, point, "undirected point")
    lifted = ModelPoint(scale_flow(point.flow, 2), dict(point.capacity))
    doubled = inst.with_traffic(scale_traffic(inst.traffic, 2))
    target = add_flow_symmetry(build_bidirected(doubled))
    _check_point(target, lifted, "lifted point")
    return lifted


def drop_to_undirected(point: ModelPoint, inst: Instance) -> ModelPoint:
    """Inverse of lift_to_bidirected: halve a bidirected mirror-flow point
    for traffic 2T into an undirected point for the symmetric traffic T."""
    if not inst.traffic.is_symmetric():
        raise PreconditionError("drop_to_undirected requires symmetric traffic")
    doubled = inst.with_traffic(scale_traffic(inst.traffic, 2))
    source = add_flow_symmetry(build_bidirected(doubled))
    _check_point(source, point, "bidirected point")
    dropped = ModelPoint(scale_flow(point.flow, Fraction(1, 2)), dict(point.capacity))
    target = add_flow_symmetry(build_undirected(inst))
    _check_point(target, dropped, "dropped point")
    return dropped


# -- point files -------------------------------------------------------------

def render_point(point: ModelPoint) -> str:
    flow = {
        VarRef.flow(k, a).key: render_rational(v)
        for (k, a), v in sorted(point.flow.entries.items())
    }
    capacity = {
        ref.key: count
        for ref, count in sorted(point.capacity.items(), key=lambda item: item[0].sort_key)
    }
    return json.dumps({"flow": flow, "capacity": capacity}, indent=2) + "\n"


def _parse_key(letter: str, key: str, what: str) -> VarRef:
    try:
        return parse_varref(f"{letter}[{key}]")
    except ParseError:
        raise ParseError(f"malformed {what} key {key!r}") from None


def parse_point(text: str) -> ModelPoint:
    doc = parse_json(text)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("flow"), dict)
        and isinstance(doc.get("capacity"), dict)
    ):
        raise ParseError("point document needs 'flow' and 'capacity' maps")
    flow: dict[FlowKey, Fraction] = {}
    for key, raw in doc["flow"].items():
        ref = _parse_key("x", key, "flow")
        flow[(ref.commodity, ref.arc)] = parse_rational(raw)
    capacity: dict[VarRef, int] = {}
    for key, raw in doc["capacity"].items():
        ref = _parse_key("y", key, "capacity")
        count = parse_rational(raw)
        if count.denominator != 1 or count < 0:
            raise ParseError(f"capacity count for {key!r} must be a nonnegative integer")
        capacity[ref] = int(count)
    return ModelPoint(FlowVector(flow), capacity)


def load_point(path: str | Path) -> ModelPoint:
    return parse_point(read_text(path))


def save_point(point: ModelPoint, path: str | Path) -> None:
    write_text(path, render_point(point))


def result_point(values: Mapping[VarRef, Fraction]) -> ModelPoint:
    """Package a solver assignment as a ModelPoint."""
    flow: dict[FlowKey, Fraction] = {}
    capacity: dict[VarRef, int] = {}
    for v, val in values.items():
        if val == 0:
            continue
        if v.kind == "flow":
            flow[(v.commodity, v.arc)] = val
        else:
            capacity[v] = int(val)
    return ModelPoint(FlowVector(flow), capacity)
