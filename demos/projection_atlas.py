"""Map the installable capacity vectors of a triangle five different ways.

Projects out the flows of one instance under five model readings that
should agree, prints the shared minimal vectors, and cross-checks the
triangle's closed-form membership test against the LP enumeration.
"""

from fractions import Fraction

from netcap.core import FacilityMenu, Instance, TrafficMatrix
from netcap.formulate import ModelKind
from netcap.projlab import (
    capacity_bound,
    project,
    triangle_bidirected_projection,
    verify_corollary,
    verify_triangle_remark,
)
from netcap.randgen import triangle_network
from netcap.solver import build_for_feasibility

net = triangle_network()
traffic = TrafficMatrix(
    {
        ("1", "2"): Fraction(3, 2),
        ("2", "1"): Fraction(1, 2),
        ("1", "3"): Fraction(1),
        ("2", "3"): Fraction(1, 4),
    }
)
inst = Instance(net, FacilityMenu((1,)), traffic)
bound = capacity_bound(inst)

proj = project(build_for_feasibility(inst, ModelKind.UNDIRECTED), bound)
print(f"undirected projection, box bound {bound}:")
for vec in proj.minimal_vectors():
    print("  " + " ".join(f"{ref.key}={n}" for ref, n in zip(proj.components, vec)))

report = verify_corollary(inst)
print(f"\nfive-way comparison: {report.describe()}")
for label, entry in report.entries:
    print(f"  {label}: {len(entry.minimal)} minimal vectors")

# the closed form answers membership without any LP
form = triangle_bidirected_projection(traffic)
print(f"\nclosed form: node requirements {dict(form.node_requirements)}, "
      f"relay bound {form.theta}, total {form.total_requirement}")
remark = verify_triangle_remark(traffic, 3)
print(f"closed form vs LP on the box: {remark.describe()}")
