"""netcap: exact-arithmetic toolkit for capacitated network design.

Builds undirected, bidirected and directed capacity-expansion models over
shared multicommodity flows, transforms feasible points between them,
generates MIR cut-set inequalities, and compares capacity projections by
exhaustive enumeration.  All arithmetic is exact rational.
"""

from .core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    load_instance,
    parse_instance,
    parse_rational,
    pairwise_similar,
    render_instance,
    render_rational,
    save_instance,
    scale_traffic,
    symmetric_counterpart,
)
from .cuts import (
    CutCheck,
    CutsetSpec,
    MirData,
    check_cut_validity,
    cut_arcs,
    cutset_inequality,
    mir_data,
    phi_minus,
    phi_plus,
    single_facility_cutset,
    translate_to_bidirected,
)
from .enumeration import MonotoneFeasibility, box_size, graded_box, max_box_limit
from .errors import (
    BoxTooLargeError,
    InvalidCutError,
    InvalidInstanceError,
    MissingBoundError,
    NetcapError,
    NoRoutingError,
    ParseError,
    PreconditionError,
    VacuousCutError,
)
from .formulate import (
    LinearConstraint,
    MipModel,
    ModelKind,
    VarRef,
    add_flow_symmetry,
    build,
    build_bidirected,
    build_directed,
    build_undirected,
    equalize_directed,
    fix_variables,
    is_arc_symmetric,
    parse_model,
    render_model,
)
from .projlab import (
    CorollaryReport,
    ProjectionSet,
    TriangleForm,
    TriangleReport,
    capacity_bound,
    project,
    triangle_bidirected_projection,
    verify_corollary,
    verify_triangle_remark,
)
from .solver import (
    LpSolution,
    MipResult,
    SolveStatus,
    build_for_feasibility,
    feasible_with_capacity,
    infeasibility_certificate,
    optimality_certificate,
    reduced_commodities,
    solve_lp,
    solve_mip,
    unboundedness_certificate,
)
from .transform import (
    FlowVector,
    ModelPoint,
    balance_violations,
    drop_to_undirected,
    lift_to_bidirected,
    load_point,
    parse_point,
    redistribute,
    render_point,
    result_point,
    save_point,
    scale_flow_cost,
    symmetrize,
)

__version__ = "0.1.0"
