"""Model builders: variables, rows, symmetry transforms, LP text."""

import random
from fractions import Fraction

import pytest

from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix, parse_rational
from netcap.errors import InvalidInstanceError, ParseError, PreconditionError
from netcap.formulate import (
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
    parse_varref,
    render_model,
)
from netcap.randgen import four_node_corollary_instance, triangle_corollary_instance
from netcap.solver import SolveStatus, build_for_feasibility, solve_mip
from netcap.projlab import capacity_bound


def _two_node(menu=(1,), t12=Fraction(1), t21=Fraction(0)):
    net = Network(("1", "2"), (("1", "2"),))
    traffic = TrafficMatrix({("1", "2"): t12, ("2", "1"): t21})
    return Instance(net, FacilityMenu(menu), traffic)


def _triangle(t=None, menu=(1,)):
    net = Network(("1", "2", "3"), (("1", "2"), ("1", "3"), ("2", "3")))
    traffic = TrafficMatrix(t or {("1", "2"): Fraction(3, 2), ("2", "1"): Fraction(1, 2)})
    return Instance(net, FacilityMenu(menu), traffic)


def test_varref_names():
    assert VarRef.flow(("1", "2"), ("2", "1")).name == "x[1>2|2>1]"
    assert VarRef.cap_edge(2, ("1", "3")).name == "y[2|1-3]"
    assert VarRef.cap_arc(1, ("3", "1")).name == "y[1|3>1]"
    assert VarRef.flow(("1", "2"), ("2", "1")).key == "1>2|2>1"
    assert VarRef.cap_edge(2, ("1", "3")).key == "2|1-3"
    assert VarRef.cap_arc(1, ("3", "1")).key == "1|3>1"


def test_varref_parse_round_trip():
    refs = [
        VarRef.flow(("a", "b"), ("b", "a")),
        VarRef.cap_edge(3, ("x", "y")),
        VarRef.cap_arc(12, ("q", "p")),
    ]
    for ref in refs:
        assert parse_varref(ref.name) == ref
    assert parse_varref("y[3|y-x]") == VarRef.cap_edge(3, ("x", "y"))
    assert parse_varref("y[1|a]-b[]") == VarRef.cap_edge(1, ("a]", "b["))


def test_parse_varref_rejects_malformed():
    for bad in ("x[1>2]", "z[1|1-2]", "y[one|1-2]", "y[1|12]", "x[12|1>2]", "x",
                "x[1>|1>2]", "y[1|1-]", "y[1|>2]"):
        with pytest.raises(ParseError):
            parse_varref(bad)


def test_two_node_model_shapes():
    inst = _two_node()
    u = build_undirected(inst)
    assert sum(v.kind == "flow" for v in u.variables) == 4
    assert sum(v.kind == "capacity" for v in u.variables) == 1
    assert sum(c.name.startswith("bal[") for c in u.constraints) == 4
    assert sum(c.name.startswith("cap[") for c in u.constraints) == 1

    b = build_bidirected(inst)
    assert sum(v.kind == "capacity" for v in b.variables) == 1
    assert sum(c.name.startswith("cap[") for c in b.constraints) == 2

    d = build_directed(inst)
    assert sum(v.kind == "capacity" for v in d.variables) == 2
    assert sum(c.name.startswith("cap[") for c in d.constraints) == 2


def test_balance_row_signs():
    """Origin row reads +t, destination row -t, via outflow minus inflow."""
    inst = _two_node(t12=Fraction(3, 2))
    model = build_undirected(inst)
    rows = {c.name: c for c in model.constraints}
    point = {VarRef.flow(("1", "2"), ("1", "2")): Fraction(3, 2)}
    assert rows["bal[1>2|1]"].rhs == Fraction(3, 2)
    assert rows["bal[1>2|2]"].rhs == Fraction(-3, 2)
    assert rows["bal[1>2|1]"].satisfied_by(point)
    assert rows["bal[1>2|2]"].satisfied_by(point)
    # routing the demand backwards breaks both rows
    wrong = {VarRef.flow(("1", "2"), ("2", "1")): Fraction(3, 2)}
    assert not rows["bal[1>2|1]"].satisfied_by(wrong)


def test_each_flow_variable_in_exactly_one_capacity_row():
    inst = _triangle(menu=(1, 3))
    for build in (build_undirected, build_bidirected, build_directed):
        model = build(inst)
        cap_rows = [c for c in model.constraints if c.name.startswith("cap[")]
        for v in model.variables:
            if v.kind != "flow":
                continue
            hits = sum(v in c.coeffs for c in cap_rows)
            assert hits == 1, (build.__name__, v.name)


def test_capacity_rows_carry_existing_capacity():
    net = Network(("1", "2"), (("1", "2"),))
    inst = Instance(
        net,
        FacilityMenu((1,)),
        TrafficMatrix({}),
        existing_edge={("1", "2"): Fraction(1, 2)},
    )
    u = build_undirected(inst)
    (cap_row,) = [c for c in u.constraints if c.name == "cap[1-2]"]
    assert cap_row.rhs == Fraction(1, 2)
    assert cap_row.sense == "<="

    d = build_directed(inst)
    for name in ("cap[1>2]", "cap[2>1]"):
        (row,) = [c for c in d.constraints if c.name == name]
        assert row.rhs == Fraction(1, 2)


def test_directed_arc_existing_overrides_edge():
    net = Network(("1", "2"), (("1", "2"),))
    inst = Instance(
        net,
        FacilityMenu((1,)),
        TrafficMatrix({}),
        existing_edge={("1", "2"): Fraction(1)},
        existing_arc={("2", "1"): Fraction(3)},
    )
    d = build_directed(inst)
    rows = {c.name: c for c in d.constraints}
    assert rows["cap[1>2]"].rhs == 1
    assert rows["cap[2>1]"].rhs == 3
    for build in (build_undirected, build_bidirected):
        with pytest.raises(PreconditionError):
            build(inst)


def test_undirected_point_feasible_in_bidirected():
    """An assignment obeying the summed-direction bound obeys each direction."""
    rng = random.Random(5)
    for trial in range(6):
        inst = (
            triangle_corollary_instance(rng)
            if trial % 2
            else four_node_corollary_instance(rng)
        )
        u = build_undirected(inst)
        res = solve_mip(u, capacity_bound(inst))
        assert res.status is SolveStatus.OPTIMAL
        b = build_bidirected(inst)
        assert b.violations(res.values) == []


def test_equalized_directed_matches_bidirected_point_set():
    inst = _two_node(menu=(2,), t12=Fraction(3, 2), t21=Fraction(1))
    b = build_bidirected(inst)
    d = equalize_directed(build_directed(inst))
    e = ("1", "2")
    rng = random.Random(23)
    feasible = 0
    for _ in range(200):
        # balanced by construction: demand plus a two-arc circulation
        s = Fraction(rng.randint(0, 2), 2)
        r = Fraction(rng.randint(0, 2), 2)
        xs = {
            VarRef.flow(("1", "2"), ("1", "2")): Fraction(3, 2) + s,
            VarRef.flow(("1", "2"), ("2", "1")): s,
            VarRef.flow(("2", "1"), ("2", "1")): Fraction(1) + r,
            VarRef.flow(("2", "1"), ("1", "2")): r,
        }
        y = Fraction(rng.randint(0, 2))
        b_point = dict(xs)
        b_point[VarRef.cap_edge(1, e)] = y
        d_point = dict(xs)
        d_point[VarRef.cap_arc(1, e)] = y
        d_point[VarRef.cap_arc(1, (e[1], e[0]))] = y
        b_ok = b.violations(b_point) == []
        d_ok = d.violations(d_point) == []
        assert b_ok == d_ok
        feasible += b_ok
    assert 0 < feasible < 200  # both outcomes exercised


def test_unequal_arc_capacities_violate_equalize_rows():
    inst = _two_node()
    d = equalize_directed(build_directed(inst))
    point = {
        VarRef.flow(("1", "2"), ("1", "2")): Fraction(1),
        VarRef.cap_arc(1, ("1", "2")): Fraction(1),
        VarRef.cap_arc(1, ("2", "1")): Fraction(0),
    }
    assert "eq[1|1-2]" in d.violations(point)


def test_add_flow_symmetry_rows_and_idempotence():
    inst = _triangle()
    model = build_undirected(inst)
    sym = add_flow_symmetry(model)
    added = len(sym.constraints) - len(model.constraints)
    # one row per unordered commodity pair and arc orientation: 3 pairs x 3 edges x 2
    assert added == 18
    again = add_flow_symmetry(sym)
    assert len(again.constraints) == len(sym.constraints)
    # equalize_directed ties the two orientations of each edge once: 1 facility x 3 edges
    directed = build_directed(inst)
    eq = equalize_directed(directed)
    assert len(eq.constraints) - len(directed.constraints) == 3
    assert equalize_directed(eq).constraints == eq.constraints

    point = {
        VarRef.flow(("1", "2"), ("1", "2")): Fraction(1),
        VarRef.flow(("2", "1"), ("2", "1")): Fraction(1),
    }
    rows = {c.name: c for c in sym.constraints}
    assert rows["sym[1>2|1>2]"].satisfied_by(point)
    point[VarRef.flow(("2", "1"), ("2", "1"))] = Fraction(2)
    assert not rows["sym[1>2|1>2]"].satisfied_by(point)


def test_equalize_directed_rejects_other_kinds():
    inst = _two_node()
    with pytest.raises(PreconditionError):
        equalize_directed(build_undirected(inst))


def test_fix_variables_offset_and_consistency():
    inst = _two_node(menu=(4,), t12=Fraction(1))
    model = build_undirected(inst)
    y = VarRef.cap_edge(1, ("1", "2"))
    fixed = fix_variables(model, {y: Fraction(2)})
    assert fixed.offset == 8  # module size 4 times two modules
    assert fixed.consistent
    assert y not in fixed.model.variables

    # fixing every variable to zero contradicts the origin balance row
    all_zero = {v: Fraction(0) for v in model.variables}
    result = fix_variables(model, all_zero)
    assert not result.consistent
    assert result.model.variables == ()


def test_fix_variables_rejects_bad_input():
    inst = _two_node()
    model = build_undirected(inst)
    with pytest.raises(PreconditionError):
        fix_variables(model, {VarRef.cap_edge(9, ("1", "2")): Fraction(1)})
    with pytest.raises(PreconditionError):
        fix_variables(model, {model.variables[0]: Fraction(-1)})


def test_constraints_hash_like_they_compare():
    x, y = VarRef.cap_edge(1, ("1", "2")), VarRef.flow(("1", "2"), ("1", "2"))
    cut = LinearConstraint("cut", {x: 2, y: -1}, ">=", 1)
    reordered = LinearConstraint("cut", {y: Fraction(-1), x: Fraction(2)}, ">=", Fraction(1))
    assert cut == reordered and hash(cut) == hash(reordered)
    assert hash(LinearConstraint("cut", {}, ">=", 1)) == hash(LinearConstraint("cut", {}, ">=", 1))
    assert {cut, reordered} == {cut}
    other_rhs = LinearConstraint("cut", {x: 2, y: -1}, ">=", 2)
    other_sense = LinearConstraint("cut", {x: 2, y: -1}, "<=", 1)
    assert len({cut, reordered, other_rhs, other_sense}) == 3


def test_violations_flag_negative_values():
    inst = _two_node()
    model = build_undirected(inst)
    v = VarRef.flow(("1", "2"), ("1", "2"))
    names = model.violations({v: Fraction(-1)})
    assert v.name in names


def test_commodity_subset_validation():
    inst = _triangle()
    with pytest.raises(PreconditionError):
        build(inst, ModelKind.UNDIRECTED, commodities=[("1", "9"), ("9", "1")])
    with pytest.raises(PreconditionError):
        build(inst, ModelKind.UNDIRECTED, commodities=[("1", "2")])  # reversal missing
    with pytest.raises(PreconditionError):
        # drops the positive 1->2 demand
        build(inst, ModelKind.UNDIRECTED, commodities=[("1", "3"), ("3", "1")])
    model = build(inst, ModelKind.UNDIRECTED, commodities=[("1", "2"), ("2", "1")])
    assert sum(v.kind == "flow" for v in model.variables) == 12


def test_is_arc_symmetric():
    inst = _triangle()
    model = build_undirected(inst)
    assert is_arc_symmetric(model.objective)  # pure capacity cost

    lop = {VarRef.flow(("1", "2"), ("1", "2")): Fraction(1)}
    assert not is_arc_symmetric(lop)

    even = {
        VarRef.flow(k, a): Fraction(5, 2)
        for k in (("1", "2"), ("2", "1"))
        for a in (("1", "2"), ("2", "1"))
    }
    assert is_arc_symmetric(even)


def test_render_model_writes_negative_rationals():
    model = build_undirected(_triangle(menu=(1, 3)))
    cost = dict(model.objective)
    cost[VarRef.flow(("1", "2"), ("1", "2"))] = Fraction(-7, 3)
    objective = render_model(model.with_objective(cost)).splitlines()[2]
    assert objective == (
        "  - 7/3 x[1>2|1>2] + 1 y[1|1-2] + 1 y[1|1-3] + 1 y[1|2-3] + 3 y[2|1-2] + 3 y[2|1-3] + 3 y[2|2-3]"
    )


def test_render_model_deterministic():
    inst = _triangle(menu=(1, 3))
    assert render_model(build_directed(inst)) == render_model(build_directed(inst))


def test_model_validates_members():
    v = VarRef.cap_edge(1, ("1", "2"))
    with pytest.raises(Exception):
        MipModel(
            kind=ModelKind.UNDIRECTED,
            variables=(v, v),
            integer=frozenset(),
            constraints=(),
            objective={},
        )
    with pytest.raises(Exception):
        MipModel(
            kind=ModelKind.UNDIRECTED,
            variables=(v,),
            integer=frozenset(),
            constraints=(
                LinearConstraint("r", {VarRef.cap_edge(2, ("1", "2")): Fraction(1)}, "<=", 1),
            ),
            objective={},
        )


def test_rows_and_objectives_read_values_as_parse_rational_does():
    """A Fraction is taken as it is and any other value goes through
    `parse_rational`, as a coefficient, a rhs or an objective value alike,
    so the two agree on every accepted value and bools and floats are
    refused."""
    v = VarRef.cap_edge(1, ("1", "2"))
    for value in (3, -2, "5/2", "1.25", "-0.5", Fraction(7, 3), Fraction(0), 0):
        row = LinearConstraint("r", {v: value}, "<=", value)
        model = MipModel(ModelKind.UNDIRECTED, (v,), frozenset(), (), {v: value})
        exact = parse_rational(value)
        assert row.rhs == exact and type(row.rhs) is Fraction
        assert row.coeffs == ({v: exact} if exact else {})
        assert model.objective == row.coeffs
        assert model.with_objective({v: value}).objective == row.coeffs
        assert all(type(c) is Fraction for c in (*row.coeffs.values(), *model.objective.values()))
    for bad in (True, False, 1.5, 2.0, "x", None):
        with pytest.raises(ParseError):
            LinearConstraint("r", {v: bad}, "<=", 0)
        with pytest.raises(ParseError):
            LinearConstraint("r", {v: 1}, "<=", bad)
        with pytest.raises(ParseError):
            MipModel(ModelKind.UNDIRECTED, (v,), frozenset(), (), {v: bad})
        model = MipModel(ModelKind.UNDIRECTED, (v,), frozenset(), (), {})
        with pytest.raises(ParseError):
            model.with_objective({v: bad})


def test_derived_models_check_what_they_add():
    """`with_constraints` and `with_objective` refuse a row or an objective
    term on a variable the model lacks, and otherwise give the model that
    the constructor builds from the same members."""
    model = build_undirected(_triangle(menu=(1, 3)))
    stranger = VarRef.cap_arc(1, ("1", "2"))
    with pytest.raises(InvalidInstanceError):
        model.with_constraints([LinearConstraint("r", {stranger: 1}, "<=", 1)])
    with pytest.raises(InvalidInstanceError):
        model.with_constraints(iter([LinearConstraint("r", {model.variables[0]: 1, stranger: 1}, "<=", 1)]))
    with pytest.raises(InvalidInstanceError):
        model.with_objective({model.variables[0]: 1, stranger: 1})
    row = LinearConstraint("r", {model.variables[0]: 1}, "<=", 1)
    derived = model.with_constraints(iter([row])).with_objective({model.variables[-1]: "3/2"})
    assert derived == MipModel(
        model.kind, model.variables, model.integer, model.constraints + (row,), {model.variables[-1]: Fraction(3, 2)}
    )
    assert model.constraints == build_undirected(_triangle(menu=(1, 3))).constraints  # the base is unchanged


def test_rows_hold_the_models_own_variables():
    """Every builder's rows name a variable by the very object in
    `model.variables`, one VarRef per variable."""
    inst = _triangle(menu=(1, 3))
    models = [build(inst, kind) for kind in ModelKind]
    models += [add_flow_symmetry(m) for m in models]
    models.append(equalize_directed(build_directed(inst)))
    models += [build_for_feasibility(inst, kind) for kind in ModelKind]
    models.append(add_flow_symmetry(build_for_feasibility(inst, ModelKind.BIDIRECTED)))
    models.append(equalize_directed(build_for_feasibility(inst, ModelKind.DIRECTED)))
    for model in models:
        own = {id(v) for v in model.variables}
        assert len(own) == len(model.variables)
        for con in model.constraints:
            assert all(id(v) in own for v in con.coeffs), (model.kind, con.name)
        assert all(id(v) in own for v in model.objective)
