"""Reroute a flow onto a different traffic split without touching edge loads.

Starts from a routed flow, redistributes it to a target matrix that moves
volume between the two directions of each pair, and shows that every
per-edge pair load (and any cost that only sees those) is unchanged.  Then
symmetrizes a flow for symmetric traffic and round-trips it through the
doubled bidirected reading.
"""

import random
from fractions import Fraction

from netcap.core import FacilityMenu, Instance, TrafficMatrix, edge_between, symmetric_counterpart
from netcap.formulate import VarRef, add_flow_symmetry, build_undirected, is_arc_symmetric
from netcap.projlab import capacity_bound
from netcap.randgen import random_balanced_flow, triangle_network
from netcap.solver import solve_mip
from netcap.transform import (
    drop_to_undirected,
    edge_pair_load,
    lift_to_bidirected,
    redistribute,
    result_point,
    symmetrize,
)

net = triangle_network()
traffic = TrafficMatrix({("1", "2"): Fraction(2), ("1", "3"): Fraction(1, 2)})
target = TrafficMatrix(
    {("1", "2"): Fraction(1, 2), ("2", "1"): Fraction(3, 2), ("3", "1"): Fraction(1, 2)}
)

rng = random.Random(7)
flow = random_balanced_flow(rng, net, traffic)
moved = redistribute(flow, traffic, target, net)

print("per-edge pair loads before/after rerouting:")
for e in net.edges:
    pair = edge_between(*e)
    for p in (edge_between("1", "2"), edge_between("1", "3")):
        before = edge_pair_load(flow, e, p)
        after = edge_pair_load(moved, e, p)
        assert before == after
        if before:
            print(f"  edge {e}, pair {p}: {before}")

# a cost that charges each commodity pair the same rate in all four slots
# on an edge cannot tell the two flows apart
cost = {}
for e in net.edges:
    for pair in (("1", "2"), ("1", "3"), ("2", "3")):
        rate = Fraction(rng.randint(1, 5), 2)
        for k in (pair, (pair[1], pair[0])):
            for a in (e, (e[1], e[0])):
                cost[VarRef.flow(k, a)] = rate
assert is_arc_symmetric(cost)
charge = lambda fl: sum(c * fl.get(v.commodity, v.arc) for v, c in cost.items())
print(f"cost before {charge(flow)}, after {charge(moved)}")

# mirroring: symmetric traffic admits a direction-symmetric routing
star = symmetric_counterpart(traffic)
sym = symmetrize(random_balanced_flow(rng, net, star), star, net)
print(f"\nsymmetrized flow entries: {len(sym.entries)} (mirror pairs equal)")

inst = Instance(net, FacilityMenu((1,)), star)
res = solve_mip(add_flow_symmetry(build_undirected(inst)), capacity_bound(inst))
point = result_point(res.values)
lifted = lift_to_bidirected(point, inst)
back = drop_to_undirected(lifted, inst)
print(f"lift/drop round-trip identical: {back == point}")
