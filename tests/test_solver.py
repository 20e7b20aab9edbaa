"""Exact LP/MIP solving: pinned optima, certificates, statuses."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcap import cuts, solver, transform
from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix, symmetric_counterpart
from netcap.cuts import check_cut_validity, cutset_inequality, phi_minus, phi_plus, translate_to_bidirected
from netcap.enumeration import graded_box
from netcap.errors import MissingBoundError, NetcapError, PreconditionError, VacuousCutError
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
    pinned_values,
)
from netcap.randgen import (
    cut_check_instance,
    four_node_corollary_instance,
    random_cutset_spec,
    triangle_corollary_instance,
)
from netcap.solver import (
    FarkasCache,
    LpSolution,
    SolveStatus,
    _phase1,
    build_for_feasibility,
    feasible,
    feasible_with_capacity,
    infeasibility_certificate,
    optimality_certificate,
    reduced_commodities,
    solve_lp,
    solve_mip,
    unboundedness_certificate,
)
from netcap.projlab import capacity_bound, project

_CERTIFICATES = {
    SolveStatus.OPTIMAL: optimality_certificate,
    SolveStatus.INFEASIBLE: infeasibility_certificate,
    SolveStatus.UNBOUNDED: unboundedness_certificate,
}


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


def _record_lps(monkeypatch, module):
    """Rebind `module.solve_lp` to keep every (model, solution) it returns."""
    seen = []
    inner = module.solve_lp

    def recording(model, **kwargs):
        sol = inner(model, **kwargs)
        seen.append((model, sol))
        return sol

    monkeypatch.setattr(module, "solve_lp", recording)
    return seen


def _record_learned_rays(monkeypatch):
    """Rebind `FarkasCache.learn` to keep every (model, Infeasible answer) a
    capacity sweep learns from."""
    seen = []
    inner = solver.FarkasCache.learn

    def recording(cache, sol):
        seen.append((cache.model, sol))
        return inner(cache, sol)

    monkeypatch.setattr(solver.FarkasCache, "learn", recording)
    return seen


def test_optimality_certificate_sweep(monkeypatch):
    """Every LP answer must carry a verifiable certificate: duals when
    Optimal, a Farkas ray when Infeasible."""
    rng = random.Random(41)
    relaxations = []
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
            assert len(sol.duals) == len(model.constraints)
            assert optimality_certificate(model, sol)
            relaxations.append((model, sol))

    # branch-and-bound node LPs: branch rows, and mirror-flow rows
    node_lps = _record_lps(monkeypatch, solver)
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
    probes = _record_lps(monkeypatch, cuts)
    rays = _record_learned_rays(monkeypatch)
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

    # projection sweeps: phase-1 rays, constant rows among them
    for _ in range(2):
        inst = triangle_corollary_instance(rng)
        project(inst, ModelKind.UNDIRECTED)
        project(inst, ModelKind.DIRECTED, variant="equalized", bound=1)
    assert any(sum(map(bool, sol.duals)) == 1 for _, sol in rays)

    answers = relaxations + node_lps + probes + rays
    for lps in (node_lps, probes, rays):
        assert any(sol.status is SolveStatus.INFEASIBLE for _, sol in lps)
    for model, sol in answers:
        assert len(sol.duals) == len(model.constraints)
        assert _CERTIFICATES[sol.status](model, sol)

    # The check reads the model's rows alone: with the LP kernel made to
    # raise, every recorded answer still certifies.
    def kernel(*args):
        raise AssertionError("a certificate check reached the LP kernel")

    for name in ("_phase1", "_pivot", "_bland_simplex"):
        monkeypatch.setattr(solver, name, kernel)
    for model, sol in answers:
        assert _CERTIFICATES[sol.status](model, sol)


def test_optimality_certificate_rejects_tampering(monkeypatch):
    rng = random.Random(41)
    model = build_undirected(triangle_corollary_instance(rng))
    sol = solve_lp(model, ignore_integrality=True)
    assert sol.objective > 0 and optimality_certificate(model, sol)
    assert not optimality_certificate(model, replace(sol, objective=sol.objective + 1))
    assert not optimality_certificate(model, replace(sol, duals=(Fraction(0),) * len(sol.duals)))
    assert not optimality_certificate(model, replace(sol, duals=sol.duals[:-1]))
    # a nonzero dual on an inequality row, negated, combines the row the wrong way
    flips = [i for i, (u, c) in enumerate(zip(sol.duals, model.constraints)) if u and c.sense != "="]
    assert flips
    for i in flips:
        duals = list(sol.duals)
        duals[i] = -duals[i]
        assert not optimality_certificate(model, replace(sol, duals=tuple(duals)))
    # x = 1 is not optimal for min -x under x <= 2 and x <= 4, yet duals
    # (-3/2, 1/2) price x at zero and sum to -1 through a wrong-signed
    # second row; the same with both rows written as >=
    for sign in (1, -1):
        sense = "<=" if sign > 0 else ">="
        lp, _ = _small_lp([((sign,), sense, 2 * sign), ((sign,), sense, 4 * sign)], (-1,))
        duals = (Fraction(-3, 2) * sign, Fraction(1, 2) * sign)
        false = LpSolution(SolveStatus.OPTIMAL, {_LP_VARS[0]: Fraction(1)}, Fraction(-1), duals)
        assert not optimality_certificate(lp, false)
    # a pin on a variable the model lacks is refused, not raised
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not optimality_certificate(model, replace(sol, fixed={stray: Fraction(0)}))

    # Cut-check answers hold for the system with capacities pinned; with the
    # pinned values dropped, their duals no longer certify the model.
    recorded = _record_lps(monkeypatch, cuts)
    probes = []
    rng = random.Random(3)
    while len(probes) < 10:
        inst = cut_check_instance(rng)
        try:
            ineq = cutset_inequality(inst, random_cutset_spec(rng, inst))
        except VacuousCutError:
            continue
        check_cut_validity(inst, ineq, bound=1)
        check_cut_validity(inst, translate_to_bidirected(ineq), kind=ModelKind.BIDIRECTED, bound=1)
        probes = [(m, s) for m, s in recorded if s.status is SolveStatus.OPTIMAL]
    assert all(s.fixed and optimality_certificate(m, s) for m, s in probes)
    assert any(not optimality_certificate(m, replace(s, fixed={})) for m, s in probes)
    # more capacity than was pinned breaks no row and costs the probe nothing
    m, s = probes[0]
    v, val = next(iter(s.fixed.items()))
    assert not optimality_certificate(m, replace(s, values={**s.values, v: val + 1}))


def test_infeasibility_certificate_rejects_tampering():
    rng = random.Random(41)
    model = build_for_feasibility(triangle_corollary_instance(rng), ModelKind.UNDIRECTED)
    caps = [v for v in model.variables if v.kind == "capacity"]
    sol = solve_lp(model.with_objective({}), fixed={v: 0 for v in caps})
    assert sol.status is SolveStatus.INFEASIBLE and infeasibility_certificate(model, sol)
    assert len(sol.duals) == len(model.constraints) and sol.fixed
    assert not infeasibility_certificate(model, replace(sol, duals=sol.duals[:-1]))
    assert not infeasibility_certificate(model, replace(sol, duals=(Fraction(0),) * len(sol.duals)))
    # a nonzero multiplier on an inequality row, negated, combines the row the wrong way
    flips = [i for i, (u, c) in enumerate(zip(sol.duals, model.constraints)) if u and c.sense != "="]
    assert flips
    for i in flips:
        duals = list(sol.duals)
        duals[i] = -duals[i]
        assert not infeasibility_certificate(model, replace(sol, duals=tuple(duals)))
    # a pin on a variable the model lacks is refused, not raised
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not infeasibility_certificate(model, replace(sol, fixed={**sol.fixed, stray: Fraction(0)}))
    # with enough capacity pinned the same ray proves nothing
    assert not infeasibility_certificate(model, replace(sol, fixed={v: Fraction(9) for v in caps}))

    # x <= 1 and x >= 2: the ray (-1, 1) needs both rows, and with x >= 1
    # in place of x >= 2 it sums to 0 over a feasible system
    lp, _ = _small_lp([((1,), "<=", 1), ((1,), ">=", 2)], (0,))
    ray = LpSolution(SolveStatus.INFEASIBLE, {}, None, (Fraction(-1), Fraction(1)))
    assert solve_lp(lp).duals == ray.duals and infeasibility_certificate(lp, ray)
    for zeroed in ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))):
        assert not infeasibility_certificate(lp, replace(ray, duals=zeroed))
    tight, _ = _small_lp([((1,), "<=", 1), ((1,), ">=", 1)], (0,))
    assert solve_lp(tight).status is SolveStatus.OPTIMAL
    assert not infeasibility_certificate(tight, ray)


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
    """Pinning inside the LP solves exactly the system fix_variables writes out."""
    outcomes = set()
    for model, bound in _pinning_cases():
        refs = [v for v in model.variables if v.kind == "capacity"]
        for vec in graded_box(len(refs), bound):
            y = dict(zip(refs, vec))
            reference = fix_variables(model, y)
            (pinned, pinned_pivots), _ = _kernel_run(model, y)
            if not reference.consistent:
                assert pinned.status is SolveStatus.INFEASIBLE and not pinned_pivots
                assert not feasible(model, y)
                outcomes.add("inconsistent")
                continue
            (direct, direct_pivots), _ = _kernel_run(reference.model, {})
            assert pinned_pivots == direct_pivots
            assert pinned.status is direct.status
            assert feasible(model, y) == (direct.status is SolveStatus.OPTIMAL)
            outcomes.add(direct.status)
            if direct.status is SolveStatus.OPTIMAL:
                assert pinned.objective == direct.objective + reference.offset
                # fix_variables keeps the rows with a free variable, in order
                kept = [i for i, c in enumerate(model.constraints) if set(c.coeffs) - set(y)]
                assert [pinned.duals[i] for i in kept] == list(direct.duals)
                assert not any(u for i, u in enumerate(pinned.duals) if i not in kept)
                assert pinned.values == direct.values | {v: n for v, n in y.items() if n}
                assert pinned.fixed == y
                assert optimality_certificate(model, pinned)
    assert outcomes == {"inconsistent", SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def test_pinned_certificate_reads_constant_and_negated_rows():
    """With both arc capacities pinned, equalize_directed's eq row is a
    constant check, and a cut x <= 2y - 1 has its rhs turned negative, so
    the kernel negates that row; its dual comes back in the model's sign."""
    model = equalize_directed(build_directed(_two_node(menu=(2,), t12=Fraction(0))))
    x = VarRef.flow(("1", "2"), ("1", "2"))
    y, y_back = VarRef.cap_arc(1, ("1", "2")), VarRef.cap_arc(1, ("2", "1"))
    model = model.with_constraints([LinearConstraint("cut", {x: -1, y: 2}, ">=", 1)])
    model = model.with_objective({x: -1})
    fixed = {y: Fraction(1), y_back: Fraction(1)}
    names = [c.name for c in model.constraints]
    eq, cut = next(i for i, name in enumerate(names) if name.startswith("eq[")), names.index("cut")
    assert set(model.constraints[eq].coeffs) <= set(fixed)
    assert (cut, -1) in _phase1(model, fixed).origin

    sol = solve_lp(model, fixed=fixed)
    assert sol.status is SolveStatus.OPTIMAL and sol.objective == -1
    assert sol.duals[eq] == 0 and sol.duals[cut] > 0
    assert optimality_certificate(model, sol)
    flipped = list(sol.duals)
    flipped[cut] = -flipped[cut]
    assert not optimality_certificate(model, replace(sol, duals=tuple(flipped)))


def test_constant_row_ray_refutes_its_vectors():
    """Pinning y[1|1>2] = 1 and y[1|2>1] = 0 leaves equalize_directed's eq
    row 0 = -1: its ray is -1 on that row alone, which proves y12 <= y21 and
    so refutes exactly the vectors with y12 > y21."""
    model = equalize_directed(build_for_feasibility(_two_node(t12=Fraction(1), t21=Fraction(1)), ModelKind.DIRECTED))
    y12, y21 = VarRef.cap_arc(1, ("1", "2")), VarRef.cap_arc(1, ("2", "1"))
    refs = (y12, y21)
    eq = next(i for i, c in enumerate(model.constraints) if c.name.startswith("eq["))
    sol = solve_lp(model.with_objective({}), fixed={y12: 1, y21: 0})
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.duals == tuple(Fraction(-1) if i == eq else 0 for i in range(len(model.constraints)))
    assert infeasibility_certificate(model, sol)
    cache = FarkasCache(model, refs)
    cache.learn(sol)
    for vec in graded_box(2, 3):
        assert cache.refutes(vec) == (vec[0] > vec[1])
        assert not (cache.refutes(vec) and feasible_with_capacity(model, dict(zip(refs, vec))))
    # a ray that does not certify, or one found with other pins, is not kept
    with pytest.raises(NetcapError):
        cache.learn(replace(sol, duals=tuple(-u for u in sol.duals)))
    with pytest.raises(PreconditionError):
        cache.learn(replace(sol, fixed={y12: Fraction(1)}))


_Y = VarRef.cap_edge(1, ("1", "2"))
_X = VarRef.flow(("1", "2"), ("1", "2"))
# Entry points of the model layer that take a number, and what they accept.
_EXACT = (0, 1, Fraction(1, 2))
_EXACT_ENTRY_POINTS = {
    "row coefficient": (lambda q: LinearConstraint("r", {_Y: q}, "<=", 1), _EXACT),
    "row rhs": (lambda q: LinearConstraint("r", {_Y: 1}, "<=", q), _EXACT),
    "objective": (lambda q: build_undirected(_two_node()).with_objective({_Y: q}), _EXACT),
    "pinned value": (lambda q: feasible(build_undirected(_two_node()), {_Y: q}), _EXACT),
    "phi capacity": (lambda q: phi_plus(q, 2, Fraction(1, 4)), _EXACT),
    "phi remainder": (lambda q: phi_minus(3, 2, q), _EXACT),
    "flow cost": (lambda q: transform.scale_flow_cost({_X: q, _Y: 1}, 2), _EXACT),
    "capacity cost": (lambda q: transform.scale_flow_cost({_X: 1, _Y: q}, 2), _EXACT),
    "mip bound": (lambda q: solve_mip(build_undirected(_two_node()), q), (0, 1)),
}


@pytest.mark.parametrize("entry", sorted(_EXACT_ENTRY_POINTS))
def test_model_layer_refuses_floats_and_bools(entry):
    enter, exact = _EXACT_ENTRY_POINTS[entry]
    for inexact in (0.0, 0.5, 1.0, True, False):
        with pytest.raises(NetcapError):
            enter(inexact)
    for q in exact:
        enter(q)


def test_pinned_values_are_checked():
    model = build_undirected(_two_node(menu=(4,)))
    y = VarRef.cap_edge(1, ("1", "2"))
    stray = VarRef.cap_edge(2, ("1", "2"))
    for pin in (
        lambda fixed: fix_variables(model, fixed),
        lambda fixed: pinned_values(model, fixed),
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
    fake = LpSolution(SolveStatus.INFEASIBLE, {}, None)
    with pytest.raises(PreconditionError):
        optimality_certificate(model, fake)
    assert sol.status is SolveStatus.OPTIMAL
    # each checker takes its own status only
    for status, check in _CERTIFICATES.items():
        for other in SolveStatus:
            if other is not status:
                with pytest.raises(PreconditionError):
                    check(model, replace(sol, status=other))


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
    model, x, y = _free_variable_model()
    sol = solve_lp(model, ignore_integrality=True)
    assert sol.status is SolveStatus.UNBOUNDED and sol.ray == {x: 1}
    assert unboundedness_certificate(model, sol)
    assert solve_mip(model, 3).status is SolveStatus.UNBOUNDED

    # min -x under x - y <= 0: x enters, then y enters with no row to leave,
    # so the ray raises both; every tampered ray or point is refused
    model, x, y = _free_variable_model((LinearConstraint("r", {x: 1, y: -1}, "<=", 0),))
    sol = solve_lp(model, ignore_integrality=True)
    assert sol.status is SolveStatus.UNBOUNDED and sol.ray == {x: 1, y: 1}
    assert unboundedness_certificate(model, sol)
    for ray in (
        {x: 1},  # breaks x - y <= 0
        {y: 1},  # costs nothing
        {x: -1, y: -1},  # not nonnegative
        {},
    ):
        assert not unboundedness_certificate(model, replace(sol, ray=ray))
    assert not unboundedness_certificate(model, replace(sol, values={x: Fraction(1)}))
    # with y pinned the ray may not move it, and the pin must hold in the point
    pinned = solve_lp(model, fixed={y: 2}, ignore_integrality=True)
    assert pinned.status is SolveStatus.OPTIMAL and pinned.objective == -2
    assert not unboundedness_certificate(model, replace(sol, fixed={y: Fraction(0)}))
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not unboundedness_certificate(model, replace(sol, fixed={stray: Fraction(0)}))

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
    undirected, bidirected, directed = (
        build_for_feasibility(inst, kind)
        for kind in (ModelKind.UNDIRECTED, ModelKind.BIDIRECTED, ModelKind.DIRECTED)
    )
    assert not feasible_with_capacity(undirected, {y: 1})
    assert feasible_with_capacity(undirected, {y: 2})
    assert feasible_with_capacity(bidirected, {y: 1})
    assert feasible_with_capacity(directed, {fwd: 1, back: 1})
    assert not feasible_with_capacity(directed, {fwd: 2, back: 0})


def test_symmetrized_flows_need_symmetric_traffic():
    lopsided = _two_node(t12=Fraction(1), t21=Fraction(0))
    y = VarRef.cap_edge(1, ("1", "2"))
    model = build_for_feasibility(lopsided, ModelKind.UNDIRECTED, symmetrize_flows=True)
    assert not feasible_with_capacity(model, {y: 5})
    balanced = _two_node(t12=Fraction(1), t21=Fraction(1))
    model = build_for_feasibility(balanced, ModelKind.UNDIRECTED, symmetrize_flows=True)
    assert feasible_with_capacity(model, {y: 2})


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


# -- the integer kernel against the rational tableau it replaced -------------

def _rational_simplex(model, fixed):
    """Reference: standardize (model, fixed) into a dense Fraction tableau and
    run two-phase Bland simplex on it, with the same column order, drive-out
    and read-outs.  Returns (status, values, one multiplier per model row, the
    unbounded ray, the (leave, enter) pivots): the multipliers are the duals
    when Optimal and the Farkas ray when Infeasible; values are the last
    basic point unless Infeasible."""
    pivots = []

    def pivot(tab, basis, reds, leave, enter):
        pivots.append((leave, enter))
        tab[leave] = prow = [c / tab[leave][enter] for c in tab[leave]]
        for row in tab + reds:
            f = row[enter]
            if f and row is not prow:
                row[:] = [a - f * b for a, b in zip(row, prow)]
        basis[leave] = enter

    def simplex(tab, basis, reds, width):
        """-1 at an optimum, else the entering column with no leaving row."""
        while True:
            enter = next((j for j in range(width) if reds[0][j] < 0), -1)
            if enter < 0:
                return -1
            ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(tab) if row[enter] > 0]
            if not ratios:
                return enter
            pivot(tab, basis, reds, min(ratios)[2], enter)

    ray = [Fraction(0)] * len(model.constraints)
    free = [v for v in model.variables if v not in fixed]
    rows = []  # (model row, sign, free coefficients, rhs >= 0, sense)
    for r, con in enumerate(model.constraints):
        b = con.rhs - sum(c * fixed[v] for v, c in con.coeffs.items() if v in fixed)
        coeffs = {free.index(v): c for v, c in con.coeffs.items() if v not in fixed}
        if not coeffs:
            if not LinearConstraint("constant", {}, con.sense, b).satisfied_by({}):
                ray[r] = Fraction(1 if b > 0 else -1)
                return SolveStatus.INFEASIBLE, {}, tuple(ray), {}, pivots
            continue
        sign = -1 if b < 0 else 1
        sense = {"<=": ">=", ">=": "<=", "=": "="}[con.sense] if sign < 0 else con.sense
        rows.append((r, sign, {j: sign * c for j, c in coeffs.items()}, sign * b, sense))
    n = len(free)
    slacks = [i for i, row in enumerate(rows) if row[4] != "="]
    arts = [i for i, row in enumerate(rows) if row[4] != "<="]
    width = n + len(slacks)
    total = width + len(arts)
    tab, start, red1 = [], [], [Fraction(0)] * (total + 1)
    for i, (_, _, coeffs, b, sense) in enumerate(rows):
        row = [Fraction(0)] * (total + 1)
        for j, c in coeffs.items():
            row[j] = c
        row[-1] = b
        if sense != "=":
            row[n + slacks.index(i)] = Fraction(1 if sense == "<=" else -1)
        if sense == "<=":
            start.append(n + slacks.index(i))
        else:
            start.append(width + arts.index(i))
            red1 = [r - a for r, a in zip(red1, row)]
            row[start[-1]] = Fraction(1)
        tab.append(row)
    basis = list(start)
    red2 = [model.objective.get(v, Fraction(0)) for v in free] + [Fraction(0)] * (total + 1 - n)
    simplex(tab, basis, [red1, red2], total)
    if red1[-1]:
        # the phase-1 duals: cost 1 on an artificial, 0 on a slack, less the reduced cost
        for (r, sign, *_), j in zip(rows, start):
            ray[r] = sign * ((1 if j >= width else 0) - red1[j])
        return SolveStatus.INFEASIBLE, {}, tuple(ray), {}, pivots
    for i in range(len(tab)):
        if basis[i] >= width:
            enter = next((j for j in range(width) if tab[i][j]), -1)
            if enter >= 0:
                pivot(tab, basis, [red2], i, enter)
    keep = [i for i in range(len(tab)) if basis[i] < width]
    tab, basis = [tab[i] for i in keep], [basis[i] for i in keep]
    unbounded = simplex(tab, basis, [red2], width)
    point = {free[b]: row[-1] for row, b in zip(tab, basis) if b < n} | dict(fixed)
    values = {v: point[v] for v in model.variables if point.get(v)}
    if unbounded >= 0:
        direction = {free[b]: -row[unbounded] for row, b in zip(tab, basis) if b < n and row[unbounded]}
        if unbounded < n:
            direction[free[unbounded]] = Fraction(1)
        return SolveStatus.UNBOUNDED, values, (), direction, pivots
    duals = [Fraction(0)] * len(model.constraints)
    for (r, sign, *_), j in zip(rows, start):
        duals[r] = -sign * red2[j]
    return SolveStatus.OPTIMAL, values, tuple(duals), {}, pivots


_LP_VARS = tuple(VarRef.cap_edge(m, ("1", "2")) for m in range(1, 5))


def _small_lp(rows, cost, pins=()):
    """A continuous model over len(cost) variables: `rows` holds
    (coefficients, sense, rhs), `pins` (variable index, pinned value)."""
    xs = _LP_VARS[: len(cost)]
    constraints = tuple(
        LinearConstraint(f"r{i}", dict(zip(xs, map(Fraction, coeffs))), sense, Fraction(rhs))
        for i, (coeffs, sense, rhs) in enumerate(rows)
    )
    model = MipModel(ModelKind.UNDIRECTED, xs, frozenset(), constraints, dict(zip(xs, map(Fraction, cost))))
    return model, {xs[k]: Fraction(v) for k, v in pins}


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 4))
    coeffs = st.lists(_RATIONALS, min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(coeffs, st.sampled_from(("<=", ">=", "=")), _RATIONALS), min_size=1, max_size=4))
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))))
    return _small_lp(rows, draw(coeffs), sorted(pins.items()))


def _kernel_run(model, fixed):
    """`solve_lp(model, fixed=fixed)` with its (leave, enter) pivots, and the
    cells it pivoted on."""
    pivots, cells = [], []
    inner = solver._pivot

    def recording(t, leave, enter):
        pivots.append((leave, enter))
        cells.append(t.rows[leave][enter])
        inner(t, leave, enter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pivot", recording)
        sol = solve_lp(model, fixed=fixed)
    return (sol, pivots), cells


# A drive-out pivot on a negative cell, and a rational rhs (scale 6 > 1).
NEGATIVE_DRIVE_OUT = _small_lp([((1, 1), "=", 0), ((1, -1), "=", 0), ((0, 1), "<=", 1)], (1, -1))
RATIONAL_RHS = _small_lp([((1, 1), ">=", Fraction(5, 3)), ((1, -1), "<=", Fraction(4, 3))], (1, 2), [(1, Fraction(1, 2))])
# Phase 1 ends at once here; scaling the second row alone by 2 would give x
# a negative phase-1 reduced cost and a pivot.
ROW_WEIGHTS = _small_lp([((1,), "<=", -1), ((1,), ">=", Fraction(1, 2))], (0,))


def test_kernel_examples_reach_their_cases():
    _, cells = _kernel_run(*NEGATIVE_DRIVE_OUT)
    assert any(c < 0 for c in cells)
    tableau = _phase1(*RATIONAL_RHS)
    assert tableau is not None and tableau.scale > 1


@settings(max_examples=300, deadline=None)
@given(_small_lps())
@example(NEGATIVE_DRIVE_OUT)
@example(RATIONAL_RHS)
@example(ROW_WEIGHTS)
def test_integer_kernel_matches_rational_reference(lp):
    """Same status, pivots, values, model-row duals or Farkas ray, and
    unbounded ray as the Fraction tableau; every answer is certified.  An
    unbounded ray is compared up to a positive factor: the kernel steps a
    slack scaled in with its row."""
    model, fixed = lp
    (sol, pivots), _ = _kernel_run(model, fixed)

    def unit(ray):
        return {v: c / sum(ray.values()) for v, c in ray.items()}

    status, values, duals, ray, reference_pivots = _rational_simplex(model, fixed)
    assert (sol.status, dict(sol.values), sol.duals, unit(sol.ray), pivots) == (
        status, values, duals, unit(ray), reference_pivots
    )
    assert _CERTIFICATES[sol.status](model, sol)
