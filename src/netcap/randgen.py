"""Seeded random generators for experiments and property sweeps.

Everything takes an explicit `random.Random` so trials are reproducible
from a seed.  The instance generators resample until the enumeration box
implied by the instance stays small enough for exhaustive checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    Arc,
    Commodity,
    FacilityMenu,
    Instance,
    Network,
    Node,
    TrafficMatrix,
    edge_between,
    symmetric_counterpart,
)
from .cuts import CutsetSpec, cut_arcs
from .errors import NoRoutingError
from .projlab import capacity_bound
from .transform import FlowVector

TRIANGLE_NODES = ("1", "2", "3")
FOUR_NODES = ("1", "2", "3", "4")
# A network routes this traffic exactly when it is connected.
_ALL_FOUR_PAIRS = TrafficMatrix({(o, d): 1 for o in FOUR_NODES for d in FOUR_NODES if o != d})


def random_traffic(
    rng: random.Random,
    nodes: Iterable[Node],
    *,
    max_numerator: int = 8,
    denominators: Sequence[int] = (1, 2, 4),
    zero_chance: float = 0.3,
) -> TrafficMatrix:
    """Independent random entries for every ordered node pair, each 0 with
    probability `zero_chance`, else a numerator up to `max_numerator` over
    one of `denominators`."""
    entries = {}
    for o in nodes:
        for d in nodes:
            if o == d:
                continue
            if zero_chance and rng.random() < zero_chance:
                entries[(o, d)] = Fraction(0)
            else:
                entries[(o, d)] = Fraction(rng.randint(0, max_numerator), rng.choice(tuple(denominators)))
    return TrafficMatrix(entries)


def symmetric_random_traffic(rng: random.Random, nodes: Iterable[Node]) -> TrafficMatrix:
    return symmetric_counterpart(random_traffic(rng, nodes))


def triangle_network() -> Network:
    a, b, c = TRIANGLE_NODES
    return Network(TRIANGLE_NODES, (edge_between(a, b), edge_between(a, c), edge_between(b, c)))


def triangle_corollary_instance(rng: random.Random) -> Instance:
    """Triangle with one module size and quarter-integral traffic at most 2,
    resampled until the shared enumeration box has at most 6^3 points."""
    net = triangle_network()
    while True:
        menu = FacilityMenu((rng.choice((1, 2)),))
        traffic = random_traffic(rng, TRIANGLE_NODES, max_numerator=8, denominators=(4,))
        if traffic.total() == 0:
            continue
        inst = Instance(net, menu, traffic)
        if 1 <= capacity_bound(inst) <= 5:
            return inst


def four_node_corollary_instance(rng: random.Random) -> Instance:
    """Connected 4-node network with 4 to 6 edges; resampled until the
    box (bound+1)^edges stays below ~1600 points."""
    all_edges = [edge_between(a, b) for a, b in combinations(FOUR_NODES, 2)]
    while True:
        net = Network(FOUR_NODES, tuple(rng.sample(all_edges, rng.randint(4, 6))))
        if not net.is_routable(_ALL_FOUR_PAIRS):
            continue
        menu = FacilityMenu((rng.choice((1, 2)),))
        traffic = random_traffic(rng, FOUR_NODES, max_numerator=4, denominators=(1, 2, 4), zero_chance=0.5)
        if traffic.total() == 0:
            continue
        if not net.is_routable(traffic):
            continue
        inst = Instance(net, menu, traffic)
        b = capacity_bound(inst)
        if b >= 1 and (b + 1) ** len(net.edges) <= 1600:
            return inst


def triangle_remark_traffic(rng: random.Random) -> TrafficMatrix:
    """Quarter-integral triangle traffic with entries at most 2."""
    while True:
        traffic = random_traffic(
            rng, TRIANGLE_NODES, max_numerator=8, denominators=(4,), zero_chance=0.25
        )
        if traffic.total() > 0:
            return traffic


def cut_check_instance(rng: random.Random) -> Instance:
    """Instance sized for exhaustive cut validation.

    Two-node instances may carry a two-entry module menu (4 directed
    capacity components); triangles stay single-facility (6 components)
    and are resampled to a tighter box.
    """
    two_node = rng.random() < 0.5
    if two_node:
        net = Network(("1", "2"), (("1", "2"),))
        menus = ((1,), (2,), (1, 3), (2, 5))
        cap = 4
    else:
        net = triangle_network()
        menus = ((1,), (2,))
        cap = 2
    while True:
        menu = FacilityMenu(rng.choice(menus))
        traffic = random_traffic(
            rng, net.nodes, max_numerator=6, denominators=(1, 2, 4), zero_chance=0.4
        )
        if traffic.total() == 0:
            continue
        existing = {}
        if rng.random() < 0.5:
            for e in net.edges:
                existing[e] = Fraction(rng.randint(0, 2))
        inst = Instance(net, menu, traffic, existing)
        if 1 <= capacity_bound(inst) <= cap:
            return inst


def random_cutset_spec(rng: random.Random, inst: Instance) -> CutsetSpec:
    """Random bipartition, bundle, and rounding arc subsets for an instance."""
    nodes = inst.network.nodes
    while True:
        side = frozenset(n for n in nodes if rng.random() < 0.5)
        if 0 < len(side) < len(nodes):
            break
    forward, backward = cut_arcs(inst.network, side)
    ks = inst.network.commodities
    bundle = frozenset(k for k in ks if rng.random() < 0.5) or frozenset({rng.choice(ks)})
    s_plus = frozenset(a for a in forward if rng.random() < 0.4)
    s_minus = frozenset(a for a in backward if rng.random() < 0.4)
    facility = rng.choice(inst.facilities.indices)
    return CutsetSpec(side, bundle, s_plus, s_minus, facility)


# -- balanced flows -----------------------------------------------------------

def _simple_paths(network: Network, origin: Node, dest: Node) -> list[tuple[Arc, ...]]:
    paths: list[tuple[Arc, ...]] = []

    def walk(node: Node, seen: set[Node], trail: list[Arc]) -> None:
        if node == dest:
            paths.append(tuple(trail))
            return
        for arc in network.out_arcs(node):
            nxt = arc[1]
            if nxt in seen:
                continue
            seen.add(nxt)
            trail.append(arc)
            walk(nxt, seen, trail)
            trail.pop()
            seen.remove(nxt)

    walk(origin, {origin}, [])
    return paths


def _add(flow: dict[tuple[Commodity, Arc], Fraction], k: Commodity, arcs: Iterable[Arc], amount: Fraction) -> None:
    if amount == 0:
        return
    for a in arcs:
        key = (k, a)
        flow[key] = flow.get(key, Fraction(0)) + amount


def random_balanced_flow(rng: random.Random, network: Network, traffic: TrafficMatrix) -> FlowVector:
    """A random routing of the traffic: each commodity takes one random
    simple path, or half the time two when it has two, and half the time
    one random commodity also carries a circulation around a closed walk.
    The result satisfies every flow balance row by construction."""
    flow: dict[tuple[Commodity, Arc], Fraction] = {}
    for (o, d), t in traffic.items():
        paths = _simple_paths(network, o, d)
        if not paths:
            raise NoRoutingError(f"no route from {o} to {d}")
        if len(paths) >= 2 and rng.random() < 0.5:
            first, second = rng.sample(paths, 2)
            share = Fraction(rng.randint(0, 4), 4)
            _add(flow, (o, d), first, t * share)
            _add(flow, (o, d), second, t * (1 - share))
        else:
            _add(flow, (o, d), rng.choice(paths), t)
    if rng.random() < 0.5:
        nodes = network.nodes
        u, v = rng.sample(list(nodes), 2)
        there = _simple_paths(network, u, v)
        back = _simple_paths(network, v, u)
        if there and back:
            k = rng.choice(network.commodities)
            amount = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
            _add(flow, k, rng.choice(there), amount)
            _add(flow, k, rng.choice(back), amount)
    return FlowVector(flow)


def pair_preserving_target(rng: random.Random, traffic: TrafficMatrix) -> TrafficMatrix:
    """Random traffic with the same per-unordered-pair totals.

    Each pair's combined volume is redealt between the two directions at a
    random eighth-integral share."""
    pairs: dict[tuple[Node, Node], Fraction] = {}
    for (o, d), t in traffic.items():
        key = (min(o, d), max(o, d))
        pairs[key] = pairs.get(key, Fraction(0)) + t
    entries: dict[Commodity, Fraction] = {}
    for (a, b), sigma in pairs.items():
        share = Fraction(rng.randint(0, 8), 8)
        entries[(a, b)] = sigma * share
        entries[(b, a)] = sigma * (1 - share)
    return TrafficMatrix(entries)
