"""Flow rerouting, symmetrization, lift/drop, point files."""

import random
from fractions import Fraction

import pytest

from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    scale_traffic,
)
from netcap.errors import ParseError, PreconditionError
from netcap.formulate import VarRef, add_flow_symmetry, build_undirected
from netcap.randgen import (
    FOUR_NODES,
    TRIANGLE_NODES,
    pair_preserving_target,
    random_balanced_flow,
    random_traffic,
    symmetric_random_traffic,
    triangle_network,
)
from netcap.solver import SolveStatus, solve_mip
from netcap.transform import (
    FlowVector,
    ModelPoint,
    balance_violations,
    drop_to_undirected,
    edge_pair_load,
    is_direction_symmetric,
    lift_to_bidirected,
    parse_point,
    redistribute,
    render_point,
    result_point,
    reverse_flow,
    scale_flow,
    scale_flow_cost,
    symmetrize,
)

_FOUR_NET = Network(
    FOUR_NODES,
    (("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4")),
)


def _pairs(nodes):
    return [(o, d) for o in nodes for d in nodes if o != d]


def test_balance_violations_pinpoints_nodes():
    net = triangle_network()
    traffic = TrafficMatrix({("1", "2"): Fraction(1)})
    empty = FlowVector({})
    assert balance_violations(empty, traffic, net) == ["bal[1>2|1]", "bal[1>2|2]"]
    routed = FlowVector({(("1", "2"), ("1", "2")): Fraction(1)})
    assert balance_violations(routed, traffic, net) == []
    detour = FlowVector(
        {
            (("1", "2"), ("1", "3")): Fraction(1),
            (("1", "2"), ("3", "2")): Fraction(1),
        }
    )
    assert balance_violations(detour, traffic, net) == []


def test_flow_transforms_refuse_flows_off_the_network():
    """A flow on a pair that is no edge of the network, or of a commodity
    whose node the network lacks, is refused by both flow transforms, even
    where it is balanced on the network's own arcs."""
    path = Network(("1", "2", "3"), (("1", "2"), ("2", "3")))
    traffic = TrafficMatrix({("1", "3"): Fraction(1), ("3", "1"): Fraction(1)})
    routed = {
        (("1", "3"), ("1", "2")): Fraction(1),
        (("1", "3"), ("2", "3")): Fraction(1),
        (("3", "1"), ("3", "2")): Fraction(1),
        (("3", "1"), ("2", "1")): Fraction(1),
    }
    shortcut = FlowVector({**routed, (("1", "3"), ("1", "3")): Fraction(1)})
    stranger = FlowVector(
        {**routed, (("1", "9"), ("1", "2")): Fraction(1), (("1", "9"), ("2", "1")): Fraction(1)}
    )
    assert balance_violations(FlowVector(routed), traffic, path) == []
    assert balance_violations(shortcut, traffic, path) == ["x[1>3|1>3]"]
    assert balance_violations(stranger, traffic, path) == ["x[1>9|1>2]", "x[1>9|2>1]"]
    for flow in (shortcut, stranger):
        with pytest.raises(PreconditionError, match="outside the model"):
            symmetrize(flow, traffic, path)
        with pytest.raises(PreconditionError, match="outside the model"):
            redistribute(flow, traffic, traffic, path)


def test_balance_violations_read_traffic_off_the_network():
    """Traffic of a commodity the network lacks cannot be routed, so its
    origin's balance row is broken rather than skipped."""
    net = Network(("1", "2"), (("1", "2"),))
    traffic = TrafficMatrix({("1", "9"): Fraction(1)})
    assert balance_violations(FlowVector({}), traffic, net) == ["bal[1>9|1]"]


def test_redistribute_reverses_a_route():
    net = Network(("1", "2"), (("1", "2"),))
    traffic = TrafficMatrix({("1", "2"): Fraction(1)})
    target = TrafficMatrix({("2", "1"): Fraction(1)})
    flow = FlowVector({(("1", "2"), ("1", "2")): Fraction(1)})
    out = redistribute(flow, traffic, target, net)
    assert out.get(("2", "1"), ("2", "1")) == 1
    assert out.get(("1", "2"), ("1", "2")) == 0


def test_redistribute_splits_by_target_share():
    net = triangle_network()
    traffic = TrafficMatrix({("1", "2"): Fraction(2)})
    target = TrafficMatrix({("1", "2"): Fraction(1, 2), ("2", "1"): Fraction(3, 2)})
    flow = FlowVector(
        {
            (("1", "2"), ("1", "2")): Fraction(1),
            (("1", "2"), ("1", "3")): Fraction(1),
            (("1", "2"), ("3", "2")): Fraction(1),
        }
    )
    out = redistribute(flow, traffic, target, net)
    assert balance_violations(out, target, net) == []
    # the direct route splits 1/4 forward, 3/4 mirrored backward
    assert out.get(("1", "2"), ("1", "2")) == Fraction(1, 4)
    assert out.get(("2", "1"), ("2", "1")) == Fraction(3, 4)
    for e in net.edges:
        assert edge_pair_load(out, e, ("1", "2")) == edge_pair_load(flow, e, ("1", "2"))


def test_redistribute_keeps_zero_pair_circulations():
    net = triangle_network()
    traffic = TrafficMatrix({})
    loop = FlowVector(
        {
            (("1", "2"), ("1", "2")): Fraction(1),
            (("1", "2"), ("2", "3")): Fraction(1),
            (("1", "2"), ("3", "1")): Fraction(1),
        }
    )
    out = redistribute(loop, traffic, traffic, net)
    for e in net.edges:
        assert edge_pair_load(out, e, ("1", "2")) == edge_pair_load(loop, e, ("1", "2"))
    assert balance_violations(out, traffic, net) == []


def test_redistribute_rejects_bad_inputs():
    net = Network(("1", "2"), (("1", "2"),))
    traffic = TrafficMatrix({("1", "2"): Fraction(1)})
    flow = FlowVector({(("1", "2"), ("1", "2")): Fraction(1)})
    with pytest.raises(PreconditionError):
        redistribute(flow, traffic, TrafficMatrix({("1", "2"): Fraction(2)}), net)
    lopsided = FlowVector({(("1", "2"), ("1", "2")): Fraction(2)})
    with pytest.raises(PreconditionError):
        redistribute(lopsided, traffic, traffic, net)


def _random_arc_symmetric_cost(rng, network, commodities):
    cost = {}
    for e in network.edges:
        for pair in {edge_between(o, d) for o, d in commodities}:
            value = Fraction(rng.randint(0, 8), rng.choice((1, 2)))
            u, v = pair
            for k in ((u, v), (v, u)):
                for a in (e, (e[1], e[0])):
                    cost[VarRef.flow(k, a)] = value
    return cost


def _flow_cost(cost, flow):
    return sum(
        (c * flow.get(v.commodity, v.arc) for v, c in cost.items() if v.kind == "flow"),
        Fraction(0),
    )


def test_redistribute_property_sweep():
    """Rerouting keeps balance, per-edge pair loads, and symmetric costs."""
    rng = random.Random(29)
    for trial in range(30):
        if trial % 2:
            net, nodes = triangle_network(), TRIANGLE_NODES
        else:
            net, nodes = _FOUR_NET, FOUR_NODES
        traffic = random_traffic(rng, nodes, zero_chance=0.4)
        flow = random_balanced_flow(rng, net, traffic)
        target = pair_preserving_target(rng, traffic)
        out = redistribute(flow, traffic, target, net)
        assert balance_violations(out, target, net) == []
        pairs = {edge_between(o, d) for o, d in _pairs(nodes)}
        for e in net.edges:
            for pair in pairs:
                assert edge_pair_load(out, e, pair) == edge_pair_load(flow, e, pair)
        cost = _random_arc_symmetric_cost(rng, net, _pairs(nodes))
        assert _flow_cost(cost, out) == _flow_cost(cost, flow)


def test_reverse_flow_involution():
    rng = random.Random(31)
    net = triangle_network()
    traffic = random_traffic(rng, TRIANGLE_NODES)
    flow = random_balanced_flow(rng, net, traffic)
    assert reverse_flow(reverse_flow(flow)) == flow


def test_symmetrize_properties():
    rng = random.Random(37)
    net = triangle_network()
    for _ in range(10):
        traffic = symmetric_random_traffic(rng, TRIANGLE_NODES)
        flow = random_balanced_flow(rng, net, traffic)
        sym = symmetrize(flow, traffic, net)
        assert is_direction_symmetric(sym)
        assert balance_violations(sym, traffic, net) == []
        commodities = _pairs(TRIANGLE_NODES)
        for i, j in net.edges:
            before = sum(
                flow.get(k, (i, j)) + flow.get(k, (j, i)) for k in commodities
            )
            per_direction = sum(sym.get(k, (i, j)) for k in commodities)
            assert per_direction == before / 2


def test_symmetrize_requires_symmetric_traffic():
    net = Network(("1", "2"), (("1", "2"),))
    traffic = TrafficMatrix({("1", "2"): Fraction(1)})
    flow = FlowVector({(("1", "2"), ("1", "2")): Fraction(1)})
    with pytest.raises(PreconditionError):
        symmetrize(flow, traffic, net)


def test_scale_flow_and_cost():
    flow = FlowVector({(("1", "2"), ("1", "2")): Fraction(3, 2)})
    assert scale_flow(flow, 2).get(("1", "2"), ("1", "2")) == 3
    with pytest.raises(PreconditionError):
        scale_flow(flow, -1)

    x = VarRef.flow(("1", "2"), ("1", "2"))
    y = VarRef.cap_edge(1, ("1", "2"))
    scaled = scale_flow_cost({x: Fraction(3), y: Fraction(5)}, Fraction(1, 2))
    assert scaled[x] == Fraction(3, 2)
    assert scaled[y] == 5


def _symmetric_triangle_instance():
    traffic = TrafficMatrix(
        {
            ("1", "2"): Fraction(1),
            ("2", "1"): Fraction(1),
            ("1", "3"): Fraction(1, 2),
            ("3", "1"): Fraction(1, 2),
        }
    )
    return Instance(triangle_network(), FacilityMenu((1,)), traffic)


def _mirror_point(inst):
    model = add_flow_symmetry(build_undirected(inst))
    res = solve_mip(model, 6)
    assert res.status is SolveStatus.OPTIMAL
    return result_point(res.values)


def test_lift_then_drop_is_identity():
    inst = _symmetric_triangle_instance()
    point = _mirror_point(inst)
    lifted = lift_to_bidirected(point, inst)
    assert lifted.capacity == point.capacity
    assert lifted.flow == scale_flow(point.flow, 2)
    doubled = inst.with_traffic(scale_traffic(inst.traffic, 2))
    assert balance_violations(lifted.flow, doubled.traffic, inst.network) == []
    back = drop_to_undirected(lifted, inst)
    assert back == point


def test_lift_rejects_asymmetric_traffic():
    inst = Instance(
        triangle_network(), FacilityMenu((1,)), TrafficMatrix({("1", "2"): Fraction(1)})
    )
    with pytest.raises(PreconditionError):
        lift_to_bidirected(ModelPoint(FlowVector({})), inst)


def test_lift_rejects_infeasible_or_stray_points():
    inst = _symmetric_triangle_instance()
    point = _mirror_point(inst)
    # break mirror symmetry: add one-sided flow
    skew = dict(point.flow.entries)
    skew[(("1", "2"), ("1", "3"))] = skew.get((("1", "2"), ("1", "3")), Fraction(0)) + 1
    skew[(("1", "2"), ("3", "2"))] = skew.get((("1", "2"), ("3", "2")), Fraction(0)) + 1
    with pytest.raises(PreconditionError):
        lift_to_bidirected(ModelPoint(FlowVector(skew), dict(point.capacity)), inst)
    # stray variable: flow for a node the instance does not have
    with pytest.raises(PreconditionError):
        lift_to_bidirected(
            ModelPoint(FlowVector({(("1", "9"), ("1", "9")): Fraction(1)})), inst
        )


def test_point_assignment_guards_capacity_keying():
    inst = _symmetric_triangle_instance()
    point = _mirror_point(inst)
    # the same counts keyed by arc name variables the edge models lack
    arc_keyed = {VarRef.cap_arc(r.facility, r.edge): n for r, n in point.capacity.items()}
    with pytest.raises(PreconditionError, match="outside the model"):
        lift_to_bidirected(ModelPoint(point.flow, arc_keyed), inst)
    assert ModelPoint(FlowVector({}), arc_keyed).assignment() == {
        r: Fraction(n) for r, n in arc_keyed.items()
    }
    with pytest.raises(PreconditionError):
        ModelPoint(FlowVector({}), {(1, ("1", "2")): 1})  # bare tuples are not keys


def test_point_json_round_trip():
    point = ModelPoint(
        FlowVector(
            {
                (("1", "2"), ("1", "2")): Fraction(3, 2),
                (("2", "1"), ("2", "1")): Fraction(1, 4),
            }
        ),
        {VarRef.cap_edge(1, ("1", "2")): 2},
    )
    assert parse_point(render_point(point)) == point

    directed = ModelPoint(
        FlowVector({(("1", "2"), ("1", "2")): Fraction(1)}),
        {VarRef.cap_arc(2, ("1", "2")): 1, VarRef.cap_arc(2, ("2", "1")): 0},
    )
    text = render_point(directed)
    assert '"2|1>2": 1' in text
    assert parse_point(text) == directed
    # edge keys are read in canonical order
    swapped = parse_point('{"flow": {}, "capacity": {"1|2-1": 3}}')
    assert swapped.capacity == {VarRef.cap_edge(1, ("1", "2")): 3}


def test_parse_point_rejects_malformed():
    with pytest.raises(ParseError):
        parse_point("[]")
    with pytest.raises(ParseError, match="malformed flow key"):
        parse_point('{"flow": {"1>2": "1"}, "capacity": {}}')
    with pytest.raises(ParseError, match="must be a nonnegative integer"):
        parse_point('{"flow": {}, "capacity": {"1|1-2": "1/2"}}')
    with pytest.raises(ParseError, match="malformed capacity key"):
        parse_point('{"flow": {}, "capacity": {"one|1-2": "1"}}')
    with pytest.raises(ParseError, match="malformed capacity key"):
        parse_point('{"flow": {}, "capacity": {"1|12": "1"}}')


def test_result_point_refuses_fractional_capacity():
    with pytest.raises(PreconditionError, match="not an integer"):
        result_point({VarRef.cap_edge(1, ("1", "2")): Fraction(3, 2)})


def test_result_point_partitions_solver_values():
    values = {
        VarRef.flow(("1", "2"), ("1", "2")): Fraction(1),
        VarRef.cap_edge(1, ("1", "2")): Fraction(2),
        VarRef.cap_edge(1, ("1", "3")): Fraction(0),
    }
    point = result_point(values)
    assert point.flow.get(("1", "2"), ("1", "2")) == 1
    assert point.capacity == {VarRef.cap_edge(1, ("1", "2")): 2}
