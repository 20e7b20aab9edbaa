"""Exact LP/MIP solving: pinned optima, certificates, statuses."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from netcap import cuts, solver
from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix, symmetric_counterpart
from netcap.cuts import check_cut_validity, cutset_inequality, translate_to_bidirected
from netcap.enumeration import graded_box
from netcap.errors import MissingBoundError, PreconditionError, VacuousCutError
from netcap.formulate import (
    LinearConstraint,
    MipModel,
    ModelKind,
    VarRef,
    add_flow_symmetry,
    build_bidirected,
    build_directed,
    build_undirected,
    equalize_directed,
    fix_variables,
)
from netcap.randgen import (
    cut_check_instance,
    four_node_corollary_instance,
    random_cutset_spec,
    triangle_corollary_instance,
)
from netcap.solver import (
    SolveStatus,
    _standardize,
    accommodates,
    build_for_feasibility,
    feasible,
    feasible_with_capacity,
    optimality_certificate,
    reduced_commodities,
    solve_lp,
    solve_mip,
)
from netcap.projlab import capacity_bound


def _two_node(menu=(1,), t12=Fraction(1), t21=Fraction(0)):
    net = Network(("1", "2"), (("1", "2"),))
    return Instance(net, FacilityMenu(menu), TrafficMatrix({("1", "2"): t12, ("2", "1"): t21}))


def test_pinned_optima_across_kinds():
    one_way = _two_node(t12=Fraction(1))
    both_ways = _two_node(t12=Fraction(1), t21=Fraction(1))

    assert solve_mip(build_undirected(one_way), 4).objective == 1
    # the summed-direction bound pays for each direction separately
    assert solve_mip(build_undirected(both_ways), 4).objective == 2
    # the per-direction bound pays once
    assert solve_mip(build_bidirected(both_ways), 4).objective == 1

    res = solve_mip(build_directed(one_way), 4)
    assert res.objective == 1
    assert res.values.get(VarRef.cap_arc(1, ("1", "2"))) == 1
    assert res.values.get(VarRef.cap_arc(1, ("2", "1")), Fraction(0)) == 0


def test_fractional_relaxation_value():
    inst = _two_node(t12=Fraction(3, 2))
    sol = solve_lp(build_undirected(inst), ignore_integrality=True)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == Fraction(3, 2)
    mip = solve_mip(build_undirected(inst), 4)
    assert mip.objective == 2  # rounding up to whole modules


def test_solve_lp_rejects_integer_models():
    inst = _two_node()
    with pytest.raises(PreconditionError):
        solve_lp(build_undirected(inst))


def test_mip_returns_feasible_integral_points():
    rng = random.Random(7)
    for trial in range(8):
        inst = (
            triangle_corollary_instance(rng)
            if trial % 2
            else four_node_corollary_instance(rng)
        )
        model = build_undirected(inst)
        res = solve_mip(model, capacity_bound(inst))
        assert res.status is SolveStatus.OPTIMAL
        assert res.nodes >= 1
        assert model.violations(res.values) == []
        for v in model.integer:
            assert res.values.get(v, Fraction(0)).denominator == 1


def _record_optimal_lps(monkeypatch, module):
    """Rebind `module.solve_lp` to keep every (model, Optimal solution) it returns."""
    seen = []
    inner = module.solve_lp

    def recording(model, **kwargs):
        sol = inner(model, **kwargs)
        if sol.status is SolveStatus.OPTIMAL:
            seen.append((model, sol))
        return sol

    monkeypatch.setattr(module, "solve_lp", recording)
    return seen


def test_optimality_certificate_sweep(monkeypatch):
    """Every Optimal LP answer must carry a verifiable dual certificate."""
    rng = random.Random(41)
    for trial in range(10):
        inst = (
            triangle_corollary_instance(rng)
            if trial % 2
            else four_node_corollary_instance(rng)
        )
        for build in (build_undirected, build_bidirected, build_directed):
            model = build(inst)
            sol = solve_lp(model, ignore_integrality=True)
            assert sol.status is SolveStatus.OPTIMAL
            assert optimality_certificate(model, sol)

    # branch-and-bound node LPs: branch rows, and mirror-flow rows
    node_lps = _record_optimal_lps(monkeypatch, solver)
    for _ in range(3):
        inst = triangle_corollary_instance(rng)
        star = inst.with_traffic(symmetric_counterpart(inst.traffic))
        for model in (
            build_undirected(inst),
            build_bidirected(inst),
            add_flow_symmetry(build_undirected(star)),
        ):
            assert solve_mip(model, capacity_bound(inst)).status is SolveStatus.OPTIMAL
    assert any(c.name.startswith("br") for m, _ in node_lps for c in m.constraints)
    assert any(c.name.startswith("sym[") for m, _ in node_lps for c in m.constraints)

    # cut-check probes: capacities fixed, flow part (with negative terms) minimized
    probes = _record_optimal_lps(monkeypatch, cuts)
    checked = 0
    while checked < 4:
        inst = cut_check_instance(rng)
        try:
            ineq = cutset_inequality(inst, random_cutset_spec(rng, inst))
        except VacuousCutError:
            continue
        check_cut_validity(inst, ineq, bound=1)
        check_cut_validity(inst, translate_to_bidirected(ineq), kind=ModelKind.BIDIRECTED, bound=1)
        checked += 1
    assert any(c < 0 for m, _ in probes for c in m.objective.values())

    for model, sol in node_lps + probes:
        assert optimality_certificate(model, sol)


def test_optimality_certificate_rejects_tampering(monkeypatch):
    rng = random.Random(41)
    model = build_undirected(triangle_corollary_instance(rng))
    sol = solve_lp(model, ignore_integrality=True)
    assert sol.objective > 0 and optimality_certificate(model, sol)
    assert not optimality_certificate(model, replace(sol, objective=sol.objective + 1))
    assert not optimality_certificate(model, replace(sol, duals=(Fraction(0),) * len(sol.duals)))
    assert not optimality_certificate(model, replace(sol, duals=sol.duals[:-1]))

    # Cut-check answers hold for the system with capacities pinned; with the
    # pinned values dropped, their duals no longer certify the model.
    probes = _record_optimal_lps(monkeypatch, cuts)
    rng = random.Random(3)
    while len(probes) < 10:
        inst = cut_check_instance(rng)
        try:
            ineq = cutset_inequality(inst, random_cutset_spec(rng, inst))
        except VacuousCutError:
            continue
        check_cut_validity(inst, ineq, bound=1)
        check_cut_validity(inst, translate_to_bidirected(ineq), kind=ModelKind.BIDIRECTED, bound=1)
    assert all(s.fixed and optimality_certificate(m, s) for m, s in probes)
    assert any(not optimality_certificate(m, replace(s, fixed={})) for m, s in probes)
    # more capacity than was pinned breaks no row and costs the probe nothing
    m, s = probes[0]
    v, val = next(iter(s.fixed.items()))
    assert not optimality_certificate(m, replace(s, values={**s.values, v: val + 1}))


def test_feasible_agrees_with_phase_two():
    """Phase 1 alone decides feasibility exactly as a full solve does."""
    rng = random.Random(17)
    verdicts = set()
    for _ in range(3):
        inst = triangle_corollary_instance(rng)
        for kind in (ModelKind.UNDIRECTED, ModelKind.BIDIRECTED):
            model = build_for_feasibility(inst, kind)
            caps = [v for v in model.variables if v.kind == "capacity"]
            for _ in range(6):
                y = {v: Fraction(rng.randint(0, 2)) for v in caps}
                verdict = feasible(model, y)
                probe = model.with_objective({})
                assert verdict == (solve_lp(probe, fixed=y).status is SolveStatus.OPTIMAL)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _pinning_cases():
    """Models with every kind of row that pinning capacities can touch."""
    rng = random.Random(5)
    tri = triangle_corollary_instance(rng)
    edge_existing = Instance(tri.network, tri.facilities, tri.traffic, {("1", "2"): Fraction(1, 2)})
    arc_existing = Instance(tri.network, tri.facilities, tri.traffic, {}, {("1", "3"): Fraction(1)})
    star = tri.with_traffic(symmetric_counterpart(tri.traffic))
    cases = [
        (build_undirected(edge_existing), 2),
        (build_bidirected(tri), 2),
        (build_directed(arc_existing), 1),
        (add_flow_symmetry(build_undirected(star)), 2),
        (add_flow_symmetry(build_bidirected(star)), 1),
        (equalize_directed(build_directed(tri)), 1),  # capacity-only rows
    ]
    for model, bound in cases:
        # flow terms of both signs, so the pinned optimum moves flow around
        objective = {v: Fraction(rng.choice((-1, 0, 1, 2))) for v in model.variables if v.kind == "flow"}
        objective.update((v, c) for v, c in model.objective.items())
        yield model.with_objective(objective), bound


def test_pinning_matches_fix_variables():
    """Pinning inside the LP gives exactly the system fix_variables writes out."""
    outcomes = set()
    for model, bound in _pinning_cases():
        refs = [v for v in model.variables if v.kind == "capacity"]
        for vec in graded_box(len(refs), bound):
            y = dict(zip(refs, vec))
            reference = fix_variables(model, y)
            std = _standardize(model, y)
            pinned = solve_lp(model, fixed=y)
            if not reference.consistent:
                assert std.inconsistent and pinned.status is SolveStatus.INFEASIBLE
                assert not feasible(model, y)
                outcomes.add("inconsistent")
                continue
            assert std == _standardize(reference.model, {})
            direct = solve_lp(reference.model)
            assert pinned.status is direct.status
            assert feasible(model, y) == (direct.status is SolveStatus.OPTIMAL)
            outcomes.add(direct.status)
            if direct.status is SolveStatus.OPTIMAL:
                assert pinned.objective == direct.objective + reference.offset
                assert pinned.duals == direct.duals
                assert pinned.values == direct.values | {v: n for v, n in y.items() if n}
                assert pinned.fixed == y
                assert optimality_certificate(model, pinned)
    assert outcomes == {"inconsistent", SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def test_pinned_values_are_checked():
    model = build_undirected(_two_node(menu=(4,)))
    y = VarRef.cap_edge(1, ("1", "2"))
    stray = VarRef.cap_edge(2, ("1", "2"))
    for pin in (
        lambda fixed: fix_variables(model, fixed),
        lambda fixed: _standardize(model, fixed),
        lambda fixed: feasible(model, fixed),
        lambda fixed: solve_lp(model, fixed=fixed),
    ):
        with pytest.raises(PreconditionError, match=r"fixing unknown variables \[y\[2\|1-2\]\]"):
            pin({stray: 1})
        with pytest.raises(PreconditionError, match=r"negative value for y\[1\|1-2\]"):
            pin({y: -1})
    # integer variables must be pinned or relaxed, and pinned ones are paid for
    with pytest.raises(PreconditionError, match="integer variables"):
        solve_lp(model)
    sol = solve_lp(model, fixed={y: 1})
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == 4 and sol.values[y] == 1


def test_certificate_requires_optimal():
    inst = _two_node()
    model = build_undirected(inst)
    sol = solve_lp(model, ignore_integrality=True)
    from netcap.solver import LpSolution

    fake = LpSolution(SolveStatus.INFEASIBLE, {}, None)
    with pytest.raises(PreconditionError):
        optimality_certificate(model, fake)
    assert sol.status is SolveStatus.OPTIMAL


def test_infeasible_statuses():
    # no path from 1 to 3: balance rows cannot hold
    net = Network(("1", "2", "3"), (("1", "2"),))
    inst = Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "3"): 1}))
    model = build_undirected(inst)
    assert not feasible(model)
    assert solve_mip(model, 5).status is SolveStatus.INFEASIBLE

    # positive traffic under a zero capacity budget
    tight = _two_node(t12=Fraction(1))
    assert solve_mip(build_undirected(tight), 0).status is SolveStatus.INFEASIBLE


def _free_variable_model(extra_rows=()):
    x = VarRef.flow(("1", "2"), ("1", "2"))
    y = VarRef.cap_edge(1, ("1", "2"))
    return MipModel(
        kind=ModelKind.UNDIRECTED,
        variables=(x, y),
        integer=frozenset({y}),
        constraints=tuple(extra_rows),
        objective={x: Fraction(-1)},
    ), x, y


def test_unbounded_statuses():
    model, _, y = _free_variable_model()
    assert solve_lp(model, ignore_integrality=True).status is SolveStatus.UNBOUNDED
    assert solve_mip(model, 3).status is SolveStatus.UNBOUNDED

    # same ray, but the integer part is contradictory: infeasible wins
    dead_row = LinearConstraint("dead", {y: Fraction(1)}, "<=", Fraction(-1))
    contradictory, _, _ = _free_variable_model((dead_row,))
    assert solve_mip(contradictory, 3).status is SolveStatus.INFEASIBLE


def test_bound_validation():
    inst = _two_node()
    model = build_undirected(inst)
    y = VarRef.cap_edge(1, ("1", "2"))
    assert solve_mip(model, {y: 2}).status is SolveStatus.OPTIMAL
    with pytest.raises(MissingBoundError):
        solve_mip(model, {})
    with pytest.raises(MissingBoundError):
        solve_mip(model, {y: -1})
    with pytest.raises(MissingBoundError):
        solve_mip(model, {y: Fraction(2)})


def test_capacity_vector_lookup_errors():
    inst = _two_node()
    model = build_undirected(inst)
    e = ("1", "2")
    assert feasible_with_capacity(model, {VarRef.cap_edge(1, e): 1})
    with pytest.raises(PreconditionError):
        feasible_with_capacity(model, {VarRef.cap_edge(2, e): 1})  # unknown facility
    with pytest.raises(PreconditionError):
        feasible_with_capacity(model, {})  # missing entries
    with pytest.raises(PreconditionError):
        feasible_with_capacity(model, {VarRef.cap_arc(1, e): 1})  # arc key, edge model
    with pytest.raises(PreconditionError):
        feasible_with_capacity(model, {(1, e): 1})  # bare tuples are not keys


def test_accommodates_pinned():
    inst = _two_node(t12=Fraction(1), t21=Fraction(1))
    y = VarRef.cap_edge(1, ("1", "2"))
    fwd, back = VarRef.cap_arc(1, ("1", "2")), VarRef.cap_arc(1, ("2", "1"))
    assert not accommodates(inst, ModelKind.UNDIRECTED, {y: 1})
    assert accommodates(inst, ModelKind.UNDIRECTED, {y: 2})
    assert accommodates(inst, ModelKind.BIDIRECTED, {y: 1})
    assert accommodates(inst, ModelKind.DIRECTED, {fwd: 1, back: 1})
    assert not accommodates(inst, ModelKind.DIRECTED, {fwd: 2, back: 0})


def test_symmetrized_flows_need_symmetric_traffic():
    lopsided = _two_node(t12=Fraction(1), t21=Fraction(0))
    y = VarRef.cap_edge(1, ("1", "2"))
    assert not accommodates(lopsided, ModelKind.UNDIRECTED, {y: 5}, symmetrize_flows=True)
    balanced = _two_node(t12=Fraction(1), t21=Fraction(1))
    assert accommodates(balanced, ModelKind.UNDIRECTED, {y: 2}, symmetrize_flows=True)


def test_reduced_commodities():
    net = Network(("1", "2", "3"), (("1", "2"), ("1", "3"), ("2", "3")))
    inst = Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "2"): Fraction(1, 2)}))
    assert reduced_commodities(inst) == (("1", "2"), ("2", "1"))
    empty = Instance(net, FacilityMenu((1,)), TrafficMatrix({}))
    assert reduced_commodities(empty) == ()


def test_build_for_feasibility_matches_full_model():
    """Feasibility over the reduced commodity set agrees with the full set."""
    rng = random.Random(13)
    for _ in range(4):
        inst = triangle_corollary_instance(rng)
        small = build_for_feasibility(inst, ModelKind.UNDIRECTED)
        full = build_undirected(inst)
        e_vars = [v for v in full.variables if v.kind == "capacity"]
        for _ in range(6):
            vec = {v: rng.randint(0, 2) for v in e_vars}
            assert feasible_with_capacity(small, vec) == feasible_with_capacity(full, vec)
