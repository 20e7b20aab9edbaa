"""Core data types: rationals, networks, traffic, instances, file I/O."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from netcap.core import (
    MAX_DIGITS,
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    load_instance,
    pairwise_similar,
    parse_instance,
    parse_json,
    parse_rational,
    render_instance,
    render_rational,
    save_instance,
    scale_traffic,
    symmetric_counterpart,
)
from netcap.errors import InvalidInstanceError, ParseError


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational(Fraction(7, 4)) == Fraction(7, 4)


def test_parse_rational_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        parse_rational(1.5)
    with pytest.raises(ParseError):
        parse_rational(True)
    with pytest.raises(ParseError):
        parse_rational("not a number")


def test_number_text_is_bounded_at_parse_time():
    nines = "9" * MAX_DIGITS
    assert parse_rational(nines) == 10**MAX_DIGITS - 1
    assert parse_rational(f"1/{nines}").denominator == 10**MAX_DIGITS - 1
    assert parse_rational(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
    for bad in (nines + "9", f"1/{nines}9", f"1e{MAX_DIGITS}", "1e-5000", "1e10000000"):
        with pytest.raises(ParseError, match="digits"):
            parse_rational(bad)
    assert parse_json(f"[{nines}, 1.5e3]") == [10**MAX_DIGITS - 1, 1500]
    for bad in (nines + "9", "1e5000", "[1e10000000]"):
        with pytest.raises(ParseError, match="digits"):
            parse_json(bad)
    with pytest.raises(ParseError):
        parse_json("[" * 100_000)


def test_huge_exponent_is_refused_before_the_power_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="digits"):
            parse_rational("1e10000000")  # 10**10**7 would take over 4 MB
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_render_rational():
    assert render_rational(Fraction(3, 2)) == "3/2"
    assert render_rational(Fraction(2)) == "2"
    assert render_rational(Fraction(0)) == "0"
    assert render_rational(Fraction(-1, 3)) == "-1/3"


def test_rational_round_trip_sweep():
    rng = random.Random(11)
    for _ in range(200):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        assert parse_rational(render_rational(q)) == q


def test_edge_between_orders_and_rejects_loops():
    assert edge_between("2", "1") == ("1", "2")
    with pytest.raises(InvalidInstanceError):
        edge_between("1", "1")


def test_network_shape():
    net = Network(("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3")))
    assert net.edges == (("1", "2"), ("1", "3"), ("2", "3"))
    assert len(net.arcs) == 6
    assert len(net.commodities) == 6
    assert net.out_arcs("1") == (("1", "2"), ("1", "3"))
    assert net.in_arcs("1") == (("2", "1"), ("3", "1"))
    assert net.arcs is net.arcs and net.commodities is net.commodities  # computed once


def test_network_validation():
    with pytest.raises(InvalidInstanceError):
        Network(("1",), ())  # fewer than two nodes
    with pytest.raises(InvalidInstanceError):
        Network(("1", "2"), (("1", "3"),))  # edge to unknown node
    with pytest.raises(InvalidInstanceError):
        Network(("1", "2"), (("1", "2"), ("2", "1")))  # duplicate edge
    with pytest.raises(InvalidInstanceError):
        Network(("1", "1"), ())  # duplicate node


def test_node_id_reserved_characters():
    for bad in ("a>b", "a-b", "a,b", "a|b", "a:b", "", "a b", "a\tb", "\x85", "a\u2028b"):
        with pytest.raises(InvalidInstanceError):
            Network((bad, "z"), ())


def test_traffic_matrix_basics():
    t = TrafficMatrix({("1", "2"): "3/2", ("2", "1"): 0})
    assert t.get("1", "2") == Fraction(3, 2)
    assert t.get("2", "1") == 0
    assert ("2", "1") not in dict(t.items())  # zero entries dropped
    assert t.total() == Fraction(3, 2)
    assert not t.is_symmetric()


def test_traffic_matrix_rejects_negative_and_diagonal():
    with pytest.raises(InvalidInstanceError):
        TrafficMatrix({("1", "2"): Fraction(-1)})
    with pytest.raises(InvalidInstanceError):
        TrafficMatrix({("1", "1"): Fraction(1)})


def test_facility_menu():
    menu = FacilityMenu((1, 3, 7))
    assert menu.capacity(1) == 1
    assert menu.capacity(3) == 7
    assert list(menu.indices) == [1, 2, 3]
    with pytest.raises(InvalidInstanceError):
        menu.capacity(0)
    with pytest.raises(InvalidInstanceError):
        menu.capacity(4)
    with pytest.raises(InvalidInstanceError):
        FacilityMenu((2, 2))
    with pytest.raises(InvalidInstanceError):
        FacilityMenu((3, 1))
    with pytest.raises(InvalidInstanceError):
        FacilityMenu(())


def test_symmetric_counterpart():
    t = TrafficMatrix({("1", "2"): Fraction(3, 2), ("2", "1"): Fraction(1, 2)})
    star = symmetric_counterpart(t)
    assert star.get("1", "2") == 1
    assert star.get("2", "1") == 1
    assert star.is_symmetric()
    assert symmetric_counterpart(star) == star  # idempotent
    assert pairwise_similar(t, star)


def test_pairwise_similar_is_equivalence_relation():
    rng = random.Random(3)
    nodes = ("1", "2", "3")

    def rand_traffic():
        return TrafficMatrix(
            {
                (o, d): Fraction(rng.randint(0, 6), rng.choice((1, 2, 4)))
                for o in nodes
                for d in nodes
                if o != d
            }
        )

    for _ in range(40):
        a = rand_traffic()
        b = symmetric_counterpart(a)
        c = scale_traffic(a, 1)
        assert pairwise_similar(a, a)
        assert pairwise_similar(a, b) == pairwise_similar(b, a)
        if pairwise_similar(a, b) and pairwise_similar(b, c):
            assert pairwise_similar(a, c)


def test_scale_traffic():
    t = TrafficMatrix({("1", "2"): Fraction(3, 2)})
    assert scale_traffic(t, 2).get("1", "2") == 3
    assert scale_traffic(t, "1/3").get("1", "2") == Fraction(1, 2)
    with pytest.raises(InvalidInstanceError):
        scale_traffic(t, -1)


def _triangle_instance():
    net = Network(("1", "2", "3"), (("1", "2"), ("1", "3"), ("2", "3")))
    return Instance(
        net,
        FacilityMenu((1, 4)),
        TrafficMatrix({("1", "2"): Fraction(3, 2)}),
        existing_edge={("1", "2"): Fraction(1, 2)},
    )


def test_instance_capacity_lookup():
    inst = _triangle_instance()
    assert inst.edge_capacity(("1", "2")) == Fraction(1, 2)
    assert inst.edge_capacity(("2", "3")) == 0
    # edge-keyed existing applies to both orientations
    assert inst.arc_capacity(("1", "2")) == Fraction(1, 2)
    assert inst.arc_capacity(("2", "1")) == Fraction(1, 2)


def test_instance_existing_validation():
    net = Network(("1", "2"), (("1", "2"),))
    menu = FacilityMenu((1,))
    t = TrafficMatrix({})
    with pytest.raises(InvalidInstanceError):
        Instance(net, menu, t, existing_edge={("1", "3"): Fraction(1)})
    with pytest.raises(InvalidInstanceError):
        Instance(net, menu, t, existing_edge={("1", "2"): Fraction(-1)})
    with pytest.raises(InvalidInstanceError):
        Instance(net, menu, t, existing_arc={("2", "1"): Fraction(-1)})


def test_instance_traffic_must_use_known_nodes():
    net = Network(("1", "2"), (("1", "2"),))
    with pytest.raises(InvalidInstanceError):
        Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "9"): 1}))


def test_instance_json_round_trip(tmp_path):
    inst = _triangle_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst


def test_parse_instance_accepts_decimal_strings():
    doc = {
        "nodes": ["1", "2"],
        "edges": [["1", "2"]],
        "facilities": [1],
        "existing": {"1-2": "0.25"},
        "traffic": [{"from": "1", "to": "2", "amount": 1.5}],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.traffic.get("1", "2") == Fraction(3, 2)
    assert inst.edge_capacity(("1", "2")) == Fraction(1, 4)


def test_parse_instance_arc_keyed_existing():
    doc = {
        "nodes": ["1", "2"],
        "edges": [["1", "2"]],
        "facilities": [1],
        "existing": {"2>1": "3"},
        "traffic": [],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.arc_capacity(("2", "1")) == 3
    assert inst.arc_capacity(("1", "2")) == 0


def test_parse_instance_accumulates_repeated_traffic_rows():
    doc = {
        "nodes": ["1", "2"],
        "edges": [["1", "2"]],
        "facilities": [1],
        "existing": {},
        "traffic": [
            {"from": "1", "to": "2", "amount": "1"},
            {"from": "1", "to": "2", "amount": "2"},
        ],
    }
    assert parse_instance(json.dumps(doc)).traffic.get("1", "2") == 3


def test_parse_instance_rejects_duplicate_existing_key():
    doc = {
        "nodes": ["1", "2"],
        "edges": [["1", "2"]],
        "facilities": [1],
        "existing": {"1-2": "1", "2-1": "2"},
        "traffic": [],
    }
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_parse_instance_rejects_malformed_existing_key():
    doc = {
        "nodes": ["1", "2"],
        "edges": [["1", "2"]],
        "facilities": [1],
        "existing": {"12": "1"},
        "traffic": [],
    }
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_render_parse_instance_inverse_sweep():
    rng = random.Random(19)
    nodes = ("1", "2", "3")
    net = Network(nodes, (("1", "2"), ("1", "3"), ("2", "3")))
    for _ in range(20):
        traffic = TrafficMatrix(
            {
                (o, d): Fraction(rng.randint(0, 8), rng.choice((1, 2, 4)))
                for o in nodes
                for d in nodes
                if o != d
            }
        )
        inst = Instance(net, FacilityMenu((1, 3)), traffic)
        assert parse_instance(render_instance(inst)) == inst


def test_with_traffic_replaces_only_traffic():
    inst = _triangle_instance()
    new = inst.with_traffic(TrafficMatrix({("2", "3"): 1}))
    assert new.network == inst.network
    assert new.facilities == inst.facilities
    assert new.traffic.get("2", "3") == 1
    assert new.traffic.get("1", "2") == 0
