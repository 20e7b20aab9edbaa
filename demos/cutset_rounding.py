"""Derive a rounded cut inequality and certify it exhaustively.

Takes a two-node instance with a two-size facility menu, rounds the demand
crossing the cut against the larger module, prints the resulting inequality
in both the per-arc and the per-edge reading, and then checks each against
every feasible point inside the capacity box.
"""

from fractions import Fraction

from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix
from netcap.cuts import (
    CutsetSpec,
    check_cut_validity,
    cutset_inequality,
    mir_data,
    translate_to_bidirected,
)
from netcap.formulate import LinearConstraint, ModelKind

net = Network(("1", "2"), (("1", "2"),))
inst = Instance(
    net,
    FacilityMenu((1, 3)),
    TrafficMatrix({("1", "2"): Fraction(4), ("2", "1"): Fraction(1)}),
    existing_edge={("1", "2"): Fraction(1, 2)},
)

spec = CutsetSpec(
    side_u=frozenset({"1"}),
    commodities=frozenset({("1", "2")}),
    s_plus=frozenset({("1", "2")}),
    facility=2,
)
print(mir_data(inst, spec).describe())

ineq = cutset_inequality(inst, spec)
print(f"\ndirected reading:  {ineq.render()}")
report = check_cut_validity(inst, ineq)
print(f"  valid on all {report.points} feasible capacity vectors: {report.valid}")

edge_ineq = translate_to_bidirected(ineq)
print(f"per-edge reading:  {edge_ineq.render()}")
edge_report = check_cut_validity(inst, edge_ineq, kind=ModelKind.BIDIRECTED)
print(f"  valid on all {edge_report.points} feasible capacity vectors: {edge_report.valid}")

# tightening the right-hand side past the rounded value must break it
too_strong = LinearConstraint("cut", ineq.coeffs, ">=", ineq.rhs + 1)
broken = check_cut_validity(inst, too_strong)
vec, lhs = broken.violations[0]
print(f"\nrhs bumped to {too_strong.rhs}: valid {broken.valid}, "
      f"first violation at y={vec} (lhs {lhs})")
