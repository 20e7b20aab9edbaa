"""Capacity projections: bounds, minimal sets, triangle closed form."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    symmetric_counterpart,
)
from netcap.enumeration import dominates, graded_box
from netcap.errors import NoRoutingError, PreconditionError
from netcap.formulate import ModelKind, VarRef
from netcap.projlab import (
    VARIANTS,
    ProjectionSet,
    _model_for,
    capacity_bound,
    capacity_box,
    project,
    triangle_bidirected_projection,
    verify_corollary,
    verify_triangle_remark,
)
from netcap.randgen import (
    TRIANGLE_NODES,
    pair_preserving_target,
    triangle_corollary_instance,
    triangle_network,
)
from netcap.solver import build_for_feasibility, feasible_with_capacity

_TRI_TRAFFIC = TrafficMatrix(
    {("1", "2"): Fraction(3, 2), ("2", "1"): Fraction(1, 2), ("1", "3"): Fraction(1)}
)


def _tri_instance(traffic=_TRI_TRAFFIC, menu=(1,)):
    return Instance(triangle_network(), FacilityMenu(menu), traffic)


def test_capacity_bound():
    assert capacity_bound(_tri_instance()) == 3
    assert capacity_bound(_tri_instance(menu=(2, 5))) == 2
    assert capacity_bound(_tri_instance(TrafficMatrix({}))) == 0

    stranded = Instance(
        Network(("1", "2", "3"), (("1", "2"),)),
        FacilityMenu((1,)),
        TrafficMatrix({("1", "3"): Fraction(1)}),
    )
    with pytest.raises(NoRoutingError):
        capacity_bound(stranded)


def test_projection_set_membership_is_upward_closure():
    e12, e13 = VarRef.cap_edge(1, ("1", "2")), VarRef.cap_edge(1, ("1", "3"))
    proj = ProjectionSet(
        components=(e12, e13),
        bound=3,
        minimal=frozenset({(1, 2), (2, 0)}),
    )
    assert proj.member((1, 2))
    assert proj.member((3, 3))
    assert proj.member((2, 1))
    assert not proj.member((1, 1))
    assert not proj.member((0, 3))
    assert proj.member((2, 0))
    with pytest.raises(PreconditionError):
        proj.member((1, 2, 3))
    # only the aligned tuple is read: no mapping, not even one keyed by the
    # components, and never an arc key read as nothing on an edge component
    for vector in ([2, 0], {e12: 2, e13: 0}, {VarRef.cap_arc(1, ("1", "2")): 2, e13: 2}):
        with pytest.raises(PreconditionError):
            proj.member(vector)


def test_pinned_triangle_projection():
    proj = project(_tri_instance(), ModelKind.UNDIRECTED)
    assert proj.bound == 3
    assert [ref.key for ref in proj.components] == ["1|1-2", "1|1-3", "1|2-3"]
    assert proj.minimal == {(2, 1, 0), (1, 2, 1), (3, 0, 1), (0, 3, 2)}
    assert proj.minimal_vectors() == [(2, 1, 0), (1, 2, 1), (3, 0, 1), (0, 3, 2)]


def test_projection_membership_matches_direct_feasibility():
    """Sampled box vectors must agree with a from-scratch model solve."""
    rng = random.Random(61)
    inst = _tri_instance()
    proj = project(inst, ModelKind.UNDIRECTED)
    model = build_for_feasibility(inst, ModelKind.UNDIRECTED)
    for _ in range(25):
        vec = tuple(rng.randint(0, 3) for _ in proj.components)
        direct = feasible_with_capacity(model, dict(zip(proj.components, vec)))
        assert proj.member(vec) == direct


_READINGS = [
    (kind, variant)
    for kind in ModelKind
    for variant in VARIANTS
    if variant != "equalized" or kind is ModelKind.DIRECTED
]


@st.composite
def _small_projections(draw):
    """A two-node or triangle instance, a reading and a bound, with at most
    81 vectors in the box."""
    net = Network(("1", "2"), (("1", "2"),)) if draw(st.booleans()) else triangle_network()
    amounts = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(2)])
    traffic = TrafficMatrix({(o, d): draw(amounts) for o in net.nodes for d in net.nodes if o != d})
    kind, variant = draw(st.sampled_from(_READINGS))
    inst = Instance(net, FacilityMenu(draw(st.sampled_from([(1,), (2,), (1, 2)]))), traffic)
    dims = len(net.edges) * len(inst.facilities.capacities) * (2 if kind is ModelKind.DIRECTED else 1)
    assume(2**dims <= 81)
    bound = draw(st.sampled_from([b for b in (1, 2, 3) if (b + 1) ** dims <= 81]))
    return inst, kind, variant, bound


@settings(max_examples=40, deadline=None)
@given(_small_projections())
def test_project_matches_a_per_vector_sweep(case):
    """Dominance and cached rays decide the same minimal vectors as phase 1
    run on every vector of the box."""
    inst, kind, variant, bound = case
    model = _model_for(inst, kind, variant)
    refs, b = capacity_box(inst, model, bound)
    feasible = [v for v in graded_box(len(refs), b) if feasible_with_capacity(model, dict(zip(refs, v)))]
    minimal = {v for v in feasible if not any(w != v and dominates(v, w) for w in feasible)}
    proj = project(inst, kind, variant=variant, bound=bound)
    assert proj.components == refs and proj.minimal == minimal


def test_project_variant_validation():
    inst = _tri_instance()
    with pytest.raises(PreconditionError):
        project(inst, ModelKind.UNDIRECTED, variant="sideways")
    with pytest.raises(PreconditionError):
        project(inst, ModelKind.UNDIRECTED, variant="equalized")
    eq = project(inst, ModelKind.DIRECTED, variant="equalized", bound=2)
    assert len(eq.components) == 6  # one per arc
    assert all(ref.arc is not None for ref in eq.components)


def test_rerouting_preserves_the_projection():
    """Pairwise-similar traffic matrices have identical undirected projections."""
    rng = random.Random(67)
    for _ in range(3):
        inst = triangle_corollary_instance(rng)
        target = pair_preserving_target(rng, inst.traffic)
        base = project(inst, ModelKind.UNDIRECTED)
        moved = project(inst.with_traffic(target), ModelKind.UNDIRECTED, bound=base.bound)
        assert base.minimal == moved.minimal


def test_verify_corollary_on_random_triangle():
    rng = random.Random(71)
    inst = triangle_corollary_instance(rng)
    report = verify_corollary(inst)
    assert report.equal
    assert report.mismatches() == []
    assert "projections identical" in report.describe()
    labels = [label for label, _ in report.entries]
    assert labels == [
        "undirected/original",
        "undirected/averaged",
        "undirected/averaged/mirror-flows",
        "bidirected/doubled-averaged",
        "bidirected/doubled-averaged/mirror-flows",
    ]


def test_triangle_closed_form_pinned():
    form = triangle_bidirected_projection(_TRI_TRAFFIC)
    assert form.nodes == ("1", "2", "3")
    assert dict(form.node_requirements) == {"1": 3, "2": 2, "3": 1}
    assert form.theta == Fraction(5, 2)
    assert form.total_requirement == 3

    assert form.member({("1", "2"): 2, ("1", "3"): 1, ("2", "3"): 0})
    assert not form.member({("1", "2"): 1, ("1", "3"): 1, ("2", "3"): 1})  # node 1 short
    with pytest.raises(PreconditionError):
        form.member({("1", "9"): 1})


def test_triangle_relay_bound_can_exceed_node_requirements():
    traffic = TrafficMatrix(
        {("1", "2"): Fraction(2), ("1", "3"): Fraction(2), ("2", "3"): Fraction(2)}
    )
    form = triangle_bidirected_projection(traffic)
    assert dict(form.node_requirements) == {"1": 4, "2": 2, "3": 4}
    assert form.theta == 6
    assert form.total_requirement == 6
    # (1, 3, 1) meets every node requirement but totals only five
    assert not form.member({("1", "2"): 1, ("1", "3"): 3, ("2", "3"): 1})
    assert form.member({("1", "2"): 2, ("1", "3"): 3, ("2", "3"): 1})


def test_triangle_form_node_handling():
    with pytest.raises(PreconditionError):
        triangle_bidirected_projection(TrafficMatrix({("1", "2"): Fraction(1)}))
    form = triangle_bidirected_projection(
        TrafficMatrix({("1", "2"): Fraction(1)}), nodes=("3", "1", "2")
    )
    assert form.nodes == ("1", "2", "3")
    with pytest.raises(PreconditionError):
        triangle_bidirected_projection(
            TrafficMatrix({("1", "9"): Fraction(1)}), nodes=TRIANGLE_NODES
        )


def test_verify_triangle_remark_pinned():
    report = verify_triangle_remark(_TRI_TRAFFIC, 3)
    assert report.passed
    assert report.points == 64
    assert report.mismatches == ()
    assert report.ceiling_ok and report.halves_equal
    assert "closed form agrees" in report.describe()


def test_symmetric_counterpart_shares_triangle_bound():
    form = triangle_bidirected_projection(symmetric_counterpart(_TRI_TRAFFIC))
    assert form.total_requirement >= form.theta
