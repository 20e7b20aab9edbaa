"""Size capacity on a three-node network under the three link-direction readings.

Builds one instance, then solves the integer program for each reading of a
"link" (undirected pool, per-direction bound, independent arcs) and prints
the resulting installation plans side by side.
"""

from fractions import Fraction

from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix
from netcap.formulate import ModelKind, build, build_undirected
from netcap.projlab import capacity_bound
from netcap.solver import SolveStatus, solve_mip
from netcap.transform import result_point, render_point

net = Network(("1", "2", "3"), (("1", "2"), ("1", "3"), ("2", "3")))
traffic = TrafficMatrix(
    {
        ("1", "2"): Fraction(3, 2),
        ("2", "1"): Fraction(1, 2),
        ("1", "3"): Fraction(1),
        ("3", "2"): Fraction(5, 4),
    }
)
inst = Instance(net, FacilityMenu((1, 3)), traffic)
bound = capacity_bound(inst)
print(f"traffic total {traffic.total()}, box bound {bound}")

for kind in ModelKind:
    res = solve_mip(build(inst, kind), bound)
    assert res.status is SolveStatus.OPTIMAL
    point = result_point(res.values)
    installed = dict(point.capacity_edge) or dict(point.capacity_arc)
    print(f"\n{kind.value}: optimal cost {res.objective}, {res.nodes} nodes explored")
    for (facility, pair), count in sorted(installed.items()):
        if count:
            print(f"  facility {facility} on {pair}: {count}")

# the undirected reading pools both directions, so it never costs less
# than the bidirected one on the same traffic
print()
print(render_point(result_point(solve_mip(build_undirected(inst), bound).values)))
