"""Constructive transforms between feasible flows of the capacity models.

The four operations implement the package's equivalences:

* redistribute: move flow between a commodity and its reverse so the flow
  serves a different traffic matrix with the same per-pair totals, without
  touching any edge's per-commodity-pair load,
* symmetrize: average a flow with its reversal to get a direction-symmetric
  routing of a symmetric traffic matrix,
* lift_to_bidirected / drop_to_undirected: the exact 2x / x/2 correspondence
  between undirected points for traffic T and bidirected points for 2T.

Every transform checks its input, and again its output, by evaluating model
rows: `formulate.balance_rows` for redistribute and symmetrize, the
mirror-flow models of both readings for lift and drop.  A flow variable off
the network's commodities and arcs, or a capacity variable the model lacks,
is refused as outside the model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Collection, Mapping, Sequence

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
    LinearConstraint,
    ModelKind,
    VarRef,
    add_flow_symmetry,
    balance_rows,
    build,
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


# A model as the transforms check it: its rows and its variables.
_RowsAndVariables = tuple[Sequence[LinearConstraint], Collection[VarRef]]


def _violations(model: _RowsAndVariables, point: ModelPoint) -> list[str]:
    """Names of the rows the point breaks, then of its variables the model lacks."""
    rows, known = model
    values = point.assignment()
    broken = [row.name for row in rows if not row.satisfied_by(values)]
    stray = sorted((v for v in values if v not in known), key=lambda v: v.sort_key)
    return broken + [v.name for v in stray]


def _require(label: str, model: _RowsAndVariables, point: ModelPoint) -> None:
    bad = _violations(model, point)
    if bad:
        raise PreconditionError(f"{label} breaks rows or lies outside the model at {bad[:4]!r}")


def _balance_model(network: Network, traffic: TrafficMatrix) -> _RowsAndVariables:
    """Balance rows for every commodity of the network or the traffic, over
    the flow variables of the network's commodities on its arcs."""
    rows = balance_rows(network, traffic, sorted(set(network.commodities) | set(traffic.entries)))
    return rows, {VarRef.flow(k, a) for k in network.commodities for a in network.arcs}


def balance_violations(
    flow: FlowVector, traffic: TrafficMatrix, network: Network
) -> list[str]:
    """Where a flow fails to route `traffic` on `network`: the names of the
    broken balance rows (`bal[1>2|1]`), then those of the flow variables off
    the network's commodities and arcs (`x[1>2|1>3]`)."""
    return _violations(_balance_model(network, traffic), ModelPoint(flow))


def _unordered_pairs(*groups) -> list[Edge]:
    return sorted({edge_between(o, d) for group in groups for o, d in group})


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
    _require("input flow", _balance_model(network, traffic), ModelPoint(flow))
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
    _require("redistributed flow", _balance_model(network, target), ModelPoint(result))
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
    balance = _balance_model(network, traffic)
    _require("input flow", balance, ModelPoint(flow))
    mirrored = reverse_flow(flow)
    keys = set(flow.entries) | set(mirrored.entries)
    out = {ka: (flow.entries.get(ka, Fraction(0)) + mirrored.entries.get(ka, Fraction(0))) / 2 for ka in keys}
    result = FlowVector(out)
    _require("symmetrized flow", balance, ModelPoint(result))
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


def _mirror_model(inst: Instance, kind: ModelKind) -> _RowsAndVariables:
    """The mirror-flow model of a reading: undirected for the instance's
    traffic T, bidirected for 2T."""
    if kind is ModelKind.BIDIRECTED:
        inst = inst.with_traffic(scale_traffic(inst.traffic, 2))
    model = add_flow_symmetry(build(inst, kind))
    return model.constraints, set(model.variables)


def _carry(point: ModelPoint, inst: Instance, source: ModelKind, factor: Fraction) -> ModelPoint:
    """Scale a mirror-flow point's flows from the `source` reading into the
    other one; capacities carry over, and both ends are checked."""
    target = ModelKind.UNDIRECTED if source is ModelKind.BIDIRECTED else ModelKind.BIDIRECTED
    if not inst.traffic.is_symmetric():
        raise PreconditionError(f"{source.value} to {target.value} requires symmetric traffic")
    _require(f"{source.value} point", _mirror_model(inst, source), point)
    out = ModelPoint(scale_flow(point.flow, factor), dict(point.capacity))
    _require(f"{target.value} point", _mirror_model(inst, target), out)
    return out


def lift_to_bidirected(point: ModelPoint, inst: Instance) -> ModelPoint:
    """Map an undirected mirror-flow point for symmetric traffic T to a
    bidirected point for traffic 2T: flows double, capacities carry over.

    `inst` must carry the symmetric traffic; the input is validated against
    the undirected model with mirror-flow rows, the output against the
    bidirected model of the doubled instance.
    """
    return _carry(point, inst, ModelKind.UNDIRECTED, Fraction(2))


def drop_to_undirected(point: ModelPoint, inst: Instance) -> ModelPoint:
    """Inverse of lift_to_bidirected: halve a bidirected mirror-flow point
    for traffic 2T into an undirected point for the symmetric traffic T."""
    return _carry(point, inst, ModelKind.BIDIRECTED, Fraction(1, 2))


def require_capacity_keys(point: ModelPoint, inst: Instance) -> None:
    """Refuse a capacity key that names no facility of the menu on an edge
    or arc of the network."""
    net, menu = inst.network, inst.facilities.indices
    known = {VarRef.cap_edge(m, e) for m in menu for e in net.edges}
    known |= {VarRef.cap_arc(m, a) for m in menu for a in net.arcs}
    _require("point", ((), known), ModelPoint(FlowVector({}), point.capacity))


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
        elif val.denominator != 1:
            raise PreconditionError(f"capacity {v.name} = {render_rational(val)} is not an integer")
        else:
            capacity[v] = int(val)
    return ModelPoint(FlowVector(flow), capacity)
