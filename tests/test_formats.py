"""Property tests for the three text formats: instances, point files and
LP-format models round-trip exactly, and malformed documents fail only with
netcap's own errors (which the command line turns into exit code 2)."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    parse_instance,
    render_instance,
)
from netcap.errors import NetcapError
from netcap.formulate import ModelKind, VarRef, add_flow_symmetry, build, parse_model, render_model
from netcap.transform import FlowVector, ModelPoint, parse_point, render_point

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Node ids: any characters but the reserved separators and whitespace.
node_ids = st.text(
    st.characters(blacklist_characters="->|,:", blacklist_categories=("Cs",)).filter(
        lambda c: not c.isspace()
    ),
    min_size=1,
    max_size=3,
)
rationals = st.builds(
    Fraction, st.integers(0, 10**6), st.integers(1, 10**4)
)
positive_rationals = rationals.filter(lambda q: q > 0)


@st.composite
def instances(draw, nodes=node_ids, max_nodes=4, arc_existing=True):
    names = tuple(draw(st.lists(nodes, min_size=2, max_size=max_nodes, unique=True)))
    pairs = [edge_between(a, b) for a, b in combinations(names, 2)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    network = Network(names, tuple(edges))
    menu = tuple(sorted(draw(st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True))))
    commodities = [(o, d) for o in names for d in names if o != d]
    traffic = draw(st.dictionaries(st.sampled_from(commodities), rationals, max_size=6))
    existing_edge = draw(st.dictionaries(st.sampled_from(edges), rationals)) if edges else {}
    existing_arc = {}
    if arc_existing and edges:
        existing_arc = draw(st.dictionaries(st.sampled_from(network.arcs), rationals))
    return Instance(network, FacilityMenu(menu), TrafficMatrix(traffic), existing_edge, existing_arc)


@st.composite
def points(draw):
    pair = st.tuples(node_ids, node_ids)
    flow = draw(st.dictionaries(st.tuples(pair, pair), positive_rationals, max_size=6))
    edge_refs = st.builds(
        lambda m, e: VarRef.cap_edge(m, edge_between(*e)),
        st.integers(0, 12),
        pair.filter(lambda p: p[0] != p[1]),
    )
    arc_refs = st.builds(VarRef.cap_arc, st.integers(0, 12), pair)
    refs = draw(st.sampled_from([edge_refs, arc_refs, edge_refs | arc_refs]))
    capacity = draw(st.dictionaries(refs, st.integers(0, 10**6), max_size=6))
    return ModelPoint(FlowVector(flow), capacity)


@SETTINGS
@given(points())
def test_point_round_trip(point):
    assert parse_point(render_point(point)) == point


@SETTINGS
@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(render_instance(inst)) == inst


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    instances(max_nodes=3, arc_existing=False),
    st.sampled_from(list(ModelKind)),
    st.booleans(),
)
def test_model_round_trip(inst, kind, mirror):
    model = build(inst, kind)
    if mirror:
        model = add_flow_symmetry(model)
    text = render_model(model)
    again = parse_model(text)
    assert again == model
    assert render_model(again) == text


# -- malformed documents -----------------------------------------------------

# Placeholders for bare JSON number literals, put into the text after
# json.dumps (which cannot write an integer this long).
RAW_NUMBERS = {"raw-long-integer": "9" * 5000, "raw-huge-exponent": "1e10000000"}
number_texts = st.sampled_from(
    ["1e5000", "1e10000000", "-1e-5000", "9" * 1200, "1/" + "7" * 1001, "1e", "3/0", "0x10", "nan"]
    + list(RAW_NUMBERS)
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | number_texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


NUMBER_FIELDS = {"amount", "existing", "flow", "capacity"}


def _mutate(draw, doc):
    """Replace one value somewhere in a JSON document: a number field's value
    by a bad number, or any value by an arbitrary one."""
    paths = []

    def walk(node, path):
        paths.append((path, node))
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, path + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, path + (i,))

    walk(doc, ())
    # Leaves first, since Hypothesis favours early choices; the document
    # keeps its own type (unit tests cover a wrong one).
    paths = paths[:0:-1]
    numbers = [path for path, node in paths if NUMBER_FIELDS & set(path) and not isinstance(node, (dict, list))]
    if numbers and draw(st.booleans()):
        path, value = draw(st.sampled_from(numbers)), draw(number_texts)
    else:
        path, value = draw(st.sampled_from([path for path, _ in paths])), draw(json_values)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value


def _text(doc) -> str:
    text = json.dumps(doc)
    for placeholder, literal in RAW_NUMBERS.items():
        text = text.replace(f'"{placeholder}"', literal)
    return text


@st.composite
def broken_instance_texts(draw):
    doc = json.loads(render_instance(draw(instances())))
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, doc)
    return _text(doc)


@st.composite
def broken_point_texts(draw):
    doc = json.loads(render_point(draw(points())))
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, doc)
    return _text(doc)


@pytest.mark.parametrize("parse, texts", [(parse_instance, broken_instance_texts), (parse_point, broken_point_texts)])
def test_malformed_documents_raise_only_netcap_errors(parse, texts):
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(texts())
    def check(text):
        try:
            parse(text)
        except NetcapError:
            pass

    check()
