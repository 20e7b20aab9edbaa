"""Exact LP/MIP solving: pinned optima, certificates, statuses."""

import random
import re
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netcap import solver, transform
from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    load_instance,
    scale_traffic,
    symmetric_counterpart,
)
from netcap.cuts import (
    CutsetSpec,
    check_cut_validity,
    cutset_inequality,
    phi_minus,
    phi_plus,
    translate_to_bidirected,
)
from netcap.enumeration import graded_box
from netcap.errors import MissingBoundError, NetcapError, PreconditionError, VacuousCutError
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
    pinned_values,
)
from netcap.randgen import (
    TRIANGLE_NODES,
    cut_check_instance,
    four_node_corollary_instance,
    random_cutset_spec,
    random_traffic,
    triangle_corollary_instance,
    triangle_network,
)
from netcap.solver import (
    CapacitySweep,
    LpSolution,
    SolveStatus,
    _rhs,
    _Rows,
    _solve,
    _tableau,
    build_for_feasibility,
    certify,
    feasible,
    feasible_with_capacity,
    reduced_commodities,
    solve_lp,
    solve_mip,
)
from netcap.projlab import capacity_bound, capacity_box, project

_TRIANGLE = Path(__file__).resolve().parent / "data" / "instances" / "triangle.json"

def _two_node(menu=(1,), t12=Fraction(1), t21=Fraction(0)):
    net = Network(("1", "2"), (("1", "2"),))
    return Instance(net, FacilityMenu(menu), TrafficMatrix({("1", "2"): t12, ("2", "1"): t21}))


def _relaxed(model):
    """The continuous relaxation: the model without its integer marks."""
    return replace(model, integer=frozenset())


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
    sol = solve_lp(_relaxed(build_undirected(inst)))
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


def _node_model(rows, checks):
    """The model that `checks` state, one per row of `rows.model`: a
    branch-and-bound node's, the bounded model with that node's bounds."""
    constraints = zip(rows.model.constraints, checks)
    return replace(rows.model, constraints=tuple(replace(con, rhs=Fraction(rhs, own)) for con, (_, _, rhs, _, own) in constraints))


def _record_resolves(monkeypatch, nodes=False):
    """Rebind `solver._resolve`, which decides every LP, a capacity
    sweep's and a branch-and-bound node's among them, to keep every (model,
    answer) it decides, or, with `nodes`, the nodes' alone.  The answer is
    the one `solve_lp` would return (`_answer`), its certificate read off
    the tableau as the LP leaves it, though neither a sweep nor a node
    reads one as Fractions.  A node's model carries its own bounds
    (`_node_model`), and an LP with no cost that is feasible (a
    projection's vector, the root of a search) is not kept."""
    seen = []
    inner = solver._resolve

    def recording(rows, t, y, b, checks=None):
        outcome = inner(rows, t, y, b, checks)
        if outcome is not None and (checks is not None or not nodes):
            model = rows.model if checks is None else _node_model(rows, checks)
            seen.append((model, solver._answer(rows, t, y, outcome)))
        return outcome

    monkeypatch.setattr(solver, "_resolve", recording)
    return seen


def _branched(model):
    """Whether a node's model has a lower bound raised by branching, an
    `lb[...]` row -v <= -lo with lo > 0: every branching solves such a
    node, its up branch."""
    return any(c.name.startswith("lb[") and c.rhs < 0 for c in model.constraints)


@contextmanager
def _without_root_rows(monkeypatch):
    """A context in which branch and bound adds no root rows: with them,
    the small searches here meet no Infeasible node, and without them the
    same searches do."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_root_rows", lambda model: [])
        yield


def _record_learned_rays(monkeypatch):
    """Rebind `CapacitySweep._keep` to keep every (model, Infeasible answer)
    a capacity sweep keeps a ray from, the answer carrying the integer ray
    as `solve_lp` would (`_fractions`)."""
    seen = []
    inner = solver.CapacitySweep._keep

    def recording(sweep, m, scale, pins=None):
        if pins is not None:
            q, ys = pins
            fixed = {v: Fraction(y, q) for v, y in zip(sweep.refs, ys)}
            sol = LpSolution(SolveStatus.INFEASIBLE, {}, None, solver._fractions(sweep._rows, m, scale), fixed)
            seen.append((sweep.model, sol))
        return inner(sweep, m, scale, pins)

    monkeypatch.setattr(solver.CapacitySweep, "_keep", recording)
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
            sol = solve_lp(_relaxed(model))
            assert sol.status is SolveStatus.OPTIMAL
            assert len(sol.duals) == len(model.constraints)
            assert certify(model, sol)
            relaxations.append((model, sol))

    # branch-and-bound node LPs: branched bounds, and mirror-flow rows; the
    # same searches without root rows meet Infeasible nodes too
    node_lps = _record_resolves(monkeypatch, nodes=True)
    searches = []
    for _ in range(3):
        inst = triangle_corollary_instance(rng)
        star = inst.with_traffic(symmetric_counterpart(inst.traffic))
        for model in (
            build_undirected(inst),
            build_bidirected(inst),
            add_flow_symmetry(build_undirected(star)),
        ):
            searches.append((model, capacity_bound(inst)))
    for model, bound in searches:
        assert solve_mip(model, bound).status is SolveStatus.OPTIMAL
    with _without_root_rows(monkeypatch):
        for model, bound in searches:
            assert solve_mip(model, bound).status is SolveStatus.OPTIMAL
    assert any(_branched(m) for m, _ in node_lps)
    assert any(c.name.startswith("root[") for m, _ in node_lps for c in m.constraints)
    assert any(c.name.startswith("sym[") for m, _ in node_lps for c in m.constraints)

    # cut-check probes: capacities fixed, flow part (with negative terms)
    # minimized; the sweep re-solves them by solver._resolve too
    node_lps = list(node_lps)
    probes = _record_resolves(monkeypatch)
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

    # projection sweeps: rays, constant rows among them
    for _ in range(2):
        inst = triangle_corollary_instance(rng)
        project(build_for_feasibility(inst, ModelKind.UNDIRECTED), capacity_bound(inst))
        project(equalize_directed(build_for_feasibility(inst, ModelKind.DIRECTED)), 1)
    assert any(sum(map(bool, sol.duals)) == 1 for _, sol in rays)

    answers = relaxations + node_lps + probes + rays
    for lps in (node_lps, probes, rays):
        assert any(sol.status is SolveStatus.INFEASIBLE for _, sol in lps)
    for model, sol in answers:
        assert len(sol.duals) == len(model.constraints)
        assert certify(model, sol)

    # The check reads the model's rows alone: with the LP kernel made to
    # raise, every recorded answer still certifies.
    def kernel(*args):
        raise AssertionError("a certificate check reached the LP kernel")

    for name in ("_tableau", "_pivot", "_dual_simplex", "_bland_simplex"):
        monkeypatch.setattr(solver, name, kernel)
    for model, sol in answers:
        assert certify(model, sol)


def test_optimality_certificate_rejects_tampering(monkeypatch):
    rng = random.Random(41)
    model = build_undirected(triangle_corollary_instance(rng))
    sol = solve_lp(_relaxed(model))
    assert sol.objective > 0 and certify(model, sol)
    assert not certify(model, replace(sol, objective=sol.objective + 1))
    assert not certify(model, replace(sol, duals=(Fraction(0),) * len(sol.duals)))
    assert not certify(model, replace(sol, duals=sol.duals[:-1]))
    assert not certify(model, replace(sol, duals=sol.duals + (Fraction(0),)))  # one multiplier too many
    # a nonzero dual on an inequality row, negated, combines the row the wrong way
    flips = [i for i, (u, c) in enumerate(zip(sol.duals, model.constraints)) if u and c.sense != "="]
    assert flips
    for i in flips:
        duals = list(sol.duals)
        duals[i] = -duals[i]
        assert not certify(model, replace(sol, duals=tuple(duals)))
    # x = 1 is not optimal for min -x under x <= 2 and x <= 4, yet duals
    # (-3/2, 1/2) price x at zero and sum to -1 through a wrong-signed
    # second row; the same with both rows written as >=
    for sign in (1, -1):
        sense = "<=" if sign > 0 else ">="
        lp, _ = _small_lp([((sign,), sense, 2 * sign), ((sign,), sense, 4 * sign)], (-1,))
        duals = (Fraction(-3, 2) * sign, Fraction(1, 2) * sign)
        false = LpSolution(SolveStatus.OPTIMAL, {_LP_VARS[0]: Fraction(1)}, Fraction(-1), duals)
        assert not certify(lp, false)
    # a pin on a variable the model lacks is refused, not raised
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not certify(model, replace(sol, fixed={stray: Fraction(0)}))

    # Cut-check answers hold for the system with capacities pinned; with the
    # pinned values dropped, their duals no longer certify the model.
    recorded = _record_resolves(monkeypatch)
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
    assert all(s.fixed and certify(m, s) for m, s in probes)
    assert any(not certify(m, replace(s, fixed={})) for m, s in probes)
    # more capacity than was pinned breaks no row and costs the probe nothing
    m, s = probes[0]
    v, val = next(iter(s.fixed.items()))
    assert not certify(m, replace(s, values={**s.values, v: val + 1}))


def test_infeasibility_certificate_rejects_tampering():
    rng = random.Random(41)
    model = build_for_feasibility(triangle_corollary_instance(rng), ModelKind.UNDIRECTED)
    caps = [v for v in model.variables if v.kind == "capacity"]
    sol = solve_lp(model.with_objective({}), fixed={v: 0 for v in caps})
    assert sol.status is SolveStatus.INFEASIBLE and certify(model, sol)
    assert len(sol.duals) == len(model.constraints) and sol.fixed
    assert not certify(model, replace(sol, duals=sol.duals[:-1]))
    assert not certify(model, replace(sol, duals=sol.duals + (Fraction(0),)))
    assert not certify(model, replace(sol, duals=(Fraction(0),) * len(sol.duals)))
    # a nonzero multiplier on an inequality row, negated, combines the row the wrong way
    flips = [i for i, (u, c) in enumerate(zip(sol.duals, model.constraints)) if u and c.sense != "="]
    assert flips
    for i in flips:
        duals = list(sol.duals)
        duals[i] = -duals[i]
        assert not certify(model, replace(sol, duals=tuple(duals)))
    # a pin on a variable the model lacks is refused, not raised
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not certify(model, replace(sol, fixed={**sol.fixed, stray: Fraction(0)}))
    # with enough capacity pinned the same ray proves nothing
    assert not certify(model, replace(sol, fixed={v: Fraction(9) for v in caps}))

    # x <= 1 and x >= 2: the ray (-1, 1) needs both rows, and with x >= 1
    # in place of x >= 2 it sums to 0 over a feasible system
    lp, _ = _small_lp([((1,), "<=", 1), ((1,), ">=", 2)], (0,))
    ray = LpSolution(SolveStatus.INFEASIBLE, {}, None, (Fraction(-1), Fraction(1)))
    assert solve_lp(lp).duals == ray.duals and certify(lp, ray)
    for zeroed in ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))):
        assert not certify(lp, replace(ray, duals=zeroed))
    tight, _ = _small_lp([((1,), "<=", 1), ((1,), ">=", 1)], (0,))
    assert solve_lp(tight).status is SolveStatus.OPTIMAL
    assert not certify(tight, ray)


def test_feasible_agrees_with_phase_two():
    """`feasible`, which stops at the first feasible basis, decides
    feasibility exactly as a full solve does."""
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
            (pinned, pinned_pivots), _ = _kernel_run(lambda: solve_lp(model, fixed=y))
            if not reference.consistent:
                assert pinned.status is SolveStatus.INFEASIBLE and not pinned_pivots
                assert not feasible(model, y)
                outcomes.add("inconsistent")
                continue
            (direct, direct_pivots), _ = _kernel_run(lambda: solve_lp(reference.model))
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
                assert certify(model, pinned)
    assert outcomes == {"inconsistent", SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def test_pinned_certificate_reads_constant_and_negated_rows():
    """With both arc capacities pinned, equalize_directed's eq row is a
    constant check, and a cut -x + 2y >= 1 enters the tableau negated, as
    every `>=` row does, with its rhs 1 - 2y negative at y = 1; its dual
    comes back in the model's sign."""
    model = equalize_directed(build_directed(_two_node(menu=(2,), t12=Fraction(0))))
    x = VarRef.flow(("1", "2"), ("1", "2"))
    y, y_back = VarRef.cap_arc(1, ("1", "2")), VarRef.cap_arc(1, ("2", "1"))
    model = model.with_constraints([LinearConstraint("cut", {x: -1, y: 2}, ">=", 1)])
    model = model.with_objective({x: -1})
    fixed = {y: Fraction(1), y_back: Fraction(1)}
    names = [c.name for c in model.constraints]
    eq, cut = next(i for i, name in enumerate(names) if name.startswith("eq[")), names.index("cut")
    assert set(model.constraints[eq].coeffs) <= set(fixed)
    rows = _Rows(model, tuple(fixed))
    assert (cut, -1) in _tableau(rows, 1, None).origin and _rhs(rows, tuple(fixed.values()))[1][cut] < 0

    sol = solve_lp(model, fixed=fixed)
    assert sol.status is SolveStatus.OPTIMAL and sol.objective == -1
    assert sol.duals[eq] == 0 and sol.duals[cut] > 0
    assert certify(model, sol)
    flipped = list(sol.duals)
    flipped[cut] = -flipped[cut]
    assert not certify(model, replace(sol, duals=tuple(flipped)))


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
    assert certify(model, sol)
    sweep = CapacitySweep(model, refs)
    sweep.learn(sol)
    for vec in graded_box(2, 3):
        assert sweep.refutes(vec) == (vec[0] > vec[1])
        assert not (sweep.refutes(vec) and feasible_with_capacity(model, dict(zip(refs, vec))))
    # a ray that does not certify, or one found with other pins, is not kept
    with pytest.raises(NetcapError):
        sweep.learn(replace(sol, duals=tuple(-u for u in sol.duals)))
    with pytest.raises(PreconditionError):
        sweep.learn(replace(sol, fixed={y12: Fraction(1)}))


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


def test_relabelled_answer_does_not_certify():
    """Each certificate proves its own status only: an Optimal, an
    Infeasible and an Unbounded answer, each relabelled as either other
    status, do not certify."""
    model = build_undirected(_two_node())
    optimal = solve_lp(_relaxed(model))
    infeasible = solve_lp(model, fixed={VarRef.cap_edge(1, ("1", "2")): 0})
    free, _, _ = _free_variable_model()
    unbounded = solve_lp(_relaxed(free))
    for m, sol in ((model, optimal), (model, infeasible), (free, unbounded)):
        assert certify(m, sol)
        for other in SolveStatus:
            if other is not sol.status:
                assert not certify(m, replace(sol, status=other))


def test_answer_naming_a_variable_off_the_model_does_not_certify():
    """An Optimal or Unbounded point with a value on a variable the model
    lacks does not certify, though no row reads that variable."""
    inst = load_instance(_TRIANGLE)
    model = build_directed(inst)
    sol = solve_lp(model, fixed={v: 3 for v in model.integer})
    assert sol.status is SolveStatus.OPTIMAL and certify(model, sol)
    stray = {VarRef.flow(("9", "8"), ("1", "2")): Fraction(5)}
    assert not certify(model, replace(sol, values={**sol.values, **stray}))
    free, _, _ = _free_variable_model()
    unbounded = solve_lp(_relaxed(free))
    assert unbounded.status is SolveStatus.UNBOUNDED and certify(free, unbounded)
    assert not certify(free, replace(unbounded, values={**unbounded.values, **stray}))


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
    sol = solve_lp(_relaxed(model))
    assert sol.status is SolveStatus.UNBOUNDED and sol.ray == {x: 1}
    assert certify(model, sol)
    # with no row to keep, only d >= 0 refuses a ray that lowers the cost
    assert not certify(model, replace(sol, ray={x: Fraction(1), y: Fraction(-1)}))
    assert solve_mip(model, 3).status is SolveStatus.UNBOUNDED

    # min -x under x - y <= 0: x enters, then y enters with no row to leave,
    # so the ray raises both; every tampered ray or point is refused
    model, x, y = _free_variable_model((LinearConstraint("r", {x: 1, y: -1}, "<=", 0),))
    sol = solve_lp(_relaxed(model))
    assert sol.status is SolveStatus.UNBOUNDED and sol.ray == {x: 1, y: 1}
    assert certify(model, sol)
    for ray in (
        {x: 1},  # breaks x - y <= 0
        {y: 1},  # costs nothing
        {x: -1, y: -1},  # not nonnegative
        {},
    ):
        assert not certify(model, replace(sol, ray=ray))
    assert not certify(model, replace(sol, values={x: Fraction(1)}))
    # with y pinned the ray may not move it, and the pin must hold in the point
    pinned = solve_lp(_relaxed(model), fixed={y: 2})
    assert pinned.status is SolveStatus.OPTIMAL and pinned.objective == -2
    assert not certify(model, replace(sol, fixed={y: Fraction(0)}))
    stray = VarRef.cap_edge(9, ("1", "2"))
    assert not certify(model, replace(sol, fixed={stray: Fraction(0)}))

    # same ray, but the integer part is contradictory: infeasible wins
    dead_row = LinearConstraint("dead", {y: Fraction(1)}, "<=", Fraction(-1))
    contradictory, _, _ = _free_variable_model((dead_row,))
    assert solve_mip(contradictory, 3).status is SolveStatus.INFEASIBLE


def test_unbounded_relaxation_searches_for_an_integral_point():
    """When the root relaxation is unbounded (min -x, x rising freely),
    the MIP is Unbounded if it has an integral point at all and Infeasible
    if not, which a search with no objective settles at its first integral
    node; `nodes` counts the root and every node of that search.  2y = 2
    has one; 2y = 1 and 1 <= 3y <= 2 have none, and their search ends at
    its root on the rounded cut-set row y >= 1.  With a second integer
    variable z, which no cut-set row reads, 2z = 1 and 2z + y = 3 each
    branch once, on z."""
    base, x, y = _free_variable_model()
    z = VarRef.flow(("2", "1"), ("2", "1"))
    cases = [
        ((x, y), [LinearConstraint("two", {y: 2}, "=", 2)], SolveStatus.UNBOUNDED, 2),
        ((x, y), [LinearConstraint("half", {y: 2}, "=", 1)], SolveStatus.INFEASIBLE, 2),
        ((x, y), [LinearConstraint("lo", {y: 3}, ">=", 1), LinearConstraint("hi", {y: 3}, "<=", 2)],
         SolveStatus.INFEASIBLE, 2),
        ((x, y, z), [LinearConstraint("half", {z: 2}, "=", 1)], SolveStatus.INFEASIBLE, 4),
        ((x, y, z), [LinearConstraint("odd", {z: 2, y: 1}, "=", 3)], SolveStatus.UNBOUNDED, 4),
    ]
    for variables, rows, status, nodes in cases:
        integer = frozenset(variables) - {x}
        model = MipModel(ModelKind.UNDIRECTED, variables, integer, tuple(rows), base.objective)
        assert solve_lp(_relaxed(model)).status is SolveStatus.UNBOUNDED
        probe = solver._branch_and_bound(model.with_objective({}), 3)
        found = solve_mip(model, 3)
        assert (found.status, found.values, found.nodes) == (status, {}, nodes) == (status, {}, 1 + probe.nodes)


def test_bound_validation():
    inst = _two_node()
    model = build_undirected(inst)
    y = VarRef.cap_edge(1, ("1", "2"))
    assert solve_mip(model, 2).status is SolveStatus.OPTIMAL
    assert solve_mip(model, 0).status is SolveStatus.INFEASIBLE
    for bad in ({y: 2}, {}, -1, Fraction(2), True):
        with pytest.raises(MissingBoundError):
            solve_mip(model, bad)


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
    model = add_flow_symmetry(build_for_feasibility(lopsided, ModelKind.UNDIRECTED))
    assert not feasible_with_capacity(model, {y: 5})
    # The merged sym rows make the mirrored commodity's balance rows the
    # negations of the other's, with right-hand sides that disagree; the ray
    # still certifies against the model as written, tie rows and all.
    ties = _Rows(model, (y,)).ties
    assert ties
    sol = solve_lp(model.with_objective({}), fixed={y: 5})
    assert sol.status is SolveStatus.INFEASIBLE and len(sol.duals) == len(model.constraints)
    assert certify(model, sol)
    assert any(sol.duals[r] for r, *_ in ties)
    balanced = _two_node(t12=Fraction(1), t21=Fraction(1))
    model = add_flow_symmetry(build_for_feasibility(balanced, ModelKind.UNDIRECTED))
    assert feasible_with_capacity(model, {y: 2})


def _criterion_1_draws(n):
    """The first n triangles of acceptance criterion 1, each with its bound
    and the averaged undirected and doubled-averaged bidirected models that
    `verify_corollary` builds, before mirror-flow rows."""
    rng = random.Random(100)
    for _ in range(n):
        inst = triangle_corollary_instance(rng)
        tstar = symmetric_counterpart(inst.traffic)
        averaged = build_for_feasibility(inst.with_traffic(tstar), ModelKind.UNDIRECTED)
        doubled = build_for_feasibility(inst.with_traffic(scale_traffic(tstar, 2)), ModelKind.BIDIRECTED)
        yield inst, capacity_bound(inst), (averaged, doubled)


def _tie_interval(model, answer, r):
    """(a, low, high) for tie row r, a v - a w = 0: given the answer's other
    multipliers, a times r's multiplier lies in [low, high] exactly when v
    and w both price (duals: g <= c) or both keep g <= 0 (a ray)."""
    (v, a), (w, _) = model.constraints[r].coeffs.items()
    rest = {v: Fraction(0), w: Fraction(0)}
    for s, (u, con) in enumerate(zip(answer.duals, model.constraints)):
        if s != r and u:
            for x in rest:
                rest[x] += u * con.coeffs.get(x, 0)
    priced = answer.status is SolveStatus.OPTIMAL
    cost = {x: model.objective.get(x, Fraction(0)) if priced else Fraction(0) for x in rest}
    return a, rest[w] - cost[w], cost[v] - rest[v]


def test_mirror_flow_answers_certify_against_the_model(monkeypatch):
    """Every answer on a mirror-flow reading, where each sym row merges two
    flow columns, carries one multiplier per row of the model as written
    and certifies against it: a sweep's rays, pinned LPs and branch-and-bound
    nodes.  A tie's multiplier moved out of the interval where both of its
    columns price, or where both keep g <= 0, does not certify.  The merged
    reading's tableau has no more rows than the plain one's."""
    rays = _record_learned_rays(monkeypatch)
    nodes = _record_resolves(monkeypatch, nodes=True)
    rng = random.Random(8)
    pinned = []
    for inst, bound, plain in _criterion_1_draws(3):
        for model in plain:
            mirror = add_flow_symmetry(model)
            refs = capacity_box(mirror, bound)
            merged = _Rows(mirror, refs).ties
            assert {mirror.constraints[r].name[:4] for r, *_ in merged} == {"sym["}
            assert len(_tableau(_Rows(mirror, refs), 1, None).rows) <= len(_tableau(_Rows(model, refs), 1, None).rows)
            project(mirror, bound)
            costs = {v: Fraction(rng.choice((-1, 0, 1, 2))) for v in mirror.variables if v.kind == "flow"}
            priced = mirror.with_objective(costs)
            for vec in list(graded_box(len(refs), bound))[::11]:
                pinned.append((priced, solve_lp(priced, fixed=dict(zip(refs, vec)))))
        star = inst.with_traffic(symmetric_counterpart(inst.traffic))
        mirror = add_flow_symmetry(build_undirected(star))
        assert solve_mip(mirror, bound).status is SolveStatus.OPTIMAL
        with _without_root_rows(monkeypatch):
            assert solve_mip(mirror, bound).status is SolveStatus.OPTIMAL
    assert any(_branched(m) for m, _ in nodes)
    for answers, statuses in (
        (rays, {SolveStatus.INFEASIBLE}),
        (pinned, {SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL}),
        (nodes, {SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL}),
    ):
        assert {sol.status for _, sol in answers} == statuses
        for model, sol in answers:
            assert len(sol.duals) == len(model.constraints)
            assert certify(model, sol)
        ties = [
            (model, sol, r)
            for model, sol in answers[:6]
            for r, c in enumerate(model.constraints)
            if c.name.startswith("sym[")
        ]
        assert any(sol.duals[r] for model, sol, r in ties)
        for model, sol, r in ties:
            a, low, high = _tie_interval(model, sol, r)
            assert low <= a * sol.duals[r] <= high
            for outside in (low - 1, high + 1):
                duals = list(sol.duals)
                duals[r] = outside / a
                assert not certify(model, replace(sol, duals=tuple(duals)))


def test_tie_free_models_keep_their_pivots(monkeypatch):
    """A model with no tie takes the path it took before ties merged: on the
    first criterion-1 draw the plain readings' sweeps decide and pivot as
    pinned here.  Plain models can hold ties too: on two nodes, the balance
    rows of a reverse commodity with no traffic are x[k|1>2] - x[k|2>1] = 0.
    Such a cut check keeps its verdict, its points and its violations, for
    the cut and for the cut with its rhs raised by one."""
    pivots = []
    inner = solver._pivot
    monkeypatch.setattr(solver, "_pivot", lambda t, leave, enter: pivots.append(enter) or inner(t, leave, enter))
    (inst, bound, (averaged, doubled)), = _criterion_1_draws(1)
    counts = []
    for model in (build_for_feasibility(inst, ModelKind.UNDIRECTED), averaged, doubled):
        refs = capacity_box(model, bound)
        assert not _Rows(model, refs).ties
        sweep = CapacitySweep(model, refs)
        pivots.clear()
        for vec in graded_box(len(refs), bound):
            sweep.decide(vec)
        counts.append((sweep.lp_solved, sweep.ray_refuted, len(pivots)))
    assert counts == [(9, 31, 37), (8, 32, 37), (8, 32, 32)]

    inst = _two_node(menu=(2, 5), t12=Fraction(0), t21=Fraction(2))
    model = build(inst, ModelKind.DIRECTED, commodities=reduced_commodities(inst))
    assert _Rows(model, capacity_box(model, capacity_bound(inst))).ties
    cut = cutset_inequality(inst, CutsetSpec({"1"}, {("2", "1")}, {("1", "2")}, facility=2))
    failing = [((0, 0, 0, 1), 2), ((0, 1, 0, 0), 2), ((0, 1, 0, 1), 2)]
    for row, violations in ((cut, []), (replace(cut, rhs=cut.rhs + 1), failing)):
        directed = check_cut_validity(inst, row)
        bidirected = check_cut_validity(inst, translate_to_bidirected(row), kind=ModelKind.BIDIRECTED)
        assert (directed.points, list(directed.violations)) == (12, violations)
        assert (bidirected.points, bidirected.violations) == (3, ())


def _sweep_draws():
    """Run the sweeps of the five readings of each criterion-1 draw, and
    of directed and bidirected checks of valid cut-set rows (seed 71) and
    of each with its rhs raised by one, which fails somewhere."""
    for inst, bound, (averaged, doubled) in _criterion_1_draws(30):
        original = build_for_feasibility(inst, ModelKind.UNDIRECTED)
        for model in (original, averaged, add_flow_symmetry(averaged), doubled, add_flow_symmetry(doubled)):
            project(model, bound)
    rng = random.Random(71)
    raised_fail = 0
    while raised_fail < 4:
        inst = cut_check_instance(rng)
        try:
            cut = cutset_inequality(inst, random_cutset_spec(rng, inst))
        except VacuousCutError:
            continue
        for kind, row in ((ModelKind.DIRECTED, cut), (ModelKind.BIDIRECTED, translate_to_bidirected(cut))):
            assert check_cut_validity(inst, row, kind=kind).valid
            raised_fail += not check_cut_validity(inst, replace(row, rhs=row.rhs + 1), kind=kind).valid


def test_warm_resolves_match_cold_solves(monkeypatch):
    """Every LP that a sweep solves on its kept tableau (`_resolve`) gets
    the verdict of a cold solve at the same pins, on a fresh tableau
    (`_solve`): feasibility in a projection, and the status and least
    objective, the least left-hand side less the cut's pinned terms, in a
    cut check.  Every answer certifies.  A kept cost row stays dual
    feasible, so once a cost row is kept, phase 2 after the dual simplex
    never pivots.  Cases: the sweeps of `_sweep_draws`."""
    warm, phase2 = [], []
    resolve, simplex = solver._resolve, solver._bland_simplex

    def recording(rows, t, y, b, checks=None):
        priced, kept = t.cost is not None, t.red is not None
        phase2.clear()
        outcome = resolve(rows, t, y, b, checks)
        assert not (kept and any(phase2))
        warm.append((rows, y, priced, solver._answer(rows, t, y, outcome)))
        return outcome

    def pivoting(t):
        basis = list(t.basis)
        out = simplex(t)
        phase2.append(basis != t.basis)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_resolve", recording)
        patch.setattr(solver, "_bland_simplex", pivoting)
        _sweep_draws()

    verdicts = {False: set(), True: set()}
    for rows, y, priced, answer in warm:
        cold = _solve(rows, y, priced)
        if priced:
            assert answer.status is cold.status and answer.objective == cold.objective
            verdicts[True].add(answer.status)
        else:
            assert (answer is None) == (cold is None)
            verdicts[False].add(cold is None)
        assert answer is None or certify(rows.model, answer)
    assert verdicts == {False: {True, False}, True: {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}}


def test_every_sweep_builds_one_tableau(monkeypatch):
    """A sweep builds one tableau, at its first LP, and solves every LP on
    it: each sweep of `_sweep_draws` that solves an LP calls `_tableau`
    exactly once, a projection and a cut check alike.  Some cut checks
    keep a tableau whose first LP was infeasible and re-solve it to an
    optimum."""
    sweeps, built = {}, []
    solve_at, tableau = CapacitySweep._solve_at, solver._tableau

    def solving(sweep, vec):
        before = len(built)
        answer = solve_at(sweep, vec)
        sweeps.setdefault(sweep, []).append((len(built) - before, answer[0]))  # (tableaux, status)
        return answer

    def building(*args):
        built.append(None)
        return tableau(*args)

    monkeypatch.setattr(CapacitySweep, "_solve_at", solving)
    monkeypatch.setattr(solver, "_tableau", building)
    _sweep_draws()
    solved = {sweep: lps for sweep, lps in sweeps.items() if any(n for n, _ in lps)}
    assert {sweep.row is None for sweep in solved} == {True, False}
    assert all(sum(n for n, _ in lps) == 1 for lps in solved.values())
    assert any(
        next(status for n, status in lps if n) is SolveStatus.INFEASIBLE
        and SolveStatus.OPTIMAL in [status for _, status in lps]
        for sweep, lps in solved.items()
        if sweep.row is not None
    )


def _single_test(scratch, keep):
    """The one test that `keep` makes `scratch`, a sweep of the same model,
    refs and row, keep, from empty."""
    scratch._rays, scratch._bounds, scratch._learned = {}, {}, set()
    keep(scratch)
    (test,) = [*scratch._rays, *scratch._bounds]
    return test


def test_integer_certificates_give_the_public_answers_tests(monkeypatch):
    """Every LP of a sweep keeps the test that `solve_lp`'s answer at its
    vector gives: the Farkas ray or duals read off the kept tableau in
    integers (`_ray`, `_rhs`, `_duals`) and checked by `_proved_row` give,
    after `_coprime`, the test that the answer's Fraction multipliers give
    through `learn`, and the sweep holds it.
    Cases: the sweeps of the README cut, as given and with its rhs raised
    by one, which fails, and the projections of the triangle readings at
    bound 1, mirror-flow readings included."""
    lps = []
    solve_at = CapacitySweep._solve_at

    def solving(sweep, vec):
        status, objective, ray = solve_at(sweep, vec)
        if status is SolveStatus.INFEASIBLE:
            lps.append((sweep, vec, (*ray, (1, vec))))
        elif status is SolveStatus.OPTIMAL:
            rows = sweep._rows
            lps.append((sweep, vec, (*solver._duals(rows, sweep._kept, rows.objective, rows.cost_scale), None)))
        return status, objective, ray

    monkeypatch.setattr(CapacitySweep, "_solve_at", solving)
    inst = load_instance(_TRIANGLE)
    cut = cutset_inequality(inst, CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),)))
    for row in (cut, replace(cut, rhs=cut.rhs + 1)):
        check_cut_validity(inst, row, bound=1)
    _, readings = _triangle_readings()
    for model in readings.values():
        project(model, 1)
    assert len(lps) > 1100 and {sweep.row is None for sweep, *_ in lps} == {True, False}
    assert {pins is None for *_, (_, _, pins) in lps} == {True, False}
    assert any(c.name.startswith("sym[") for sweep, *_ in lps for c in sweep.model.constraints)
    scratch = {}
    for sweep, vec, (m, scale, pins) in lps:
        if sweep not in scratch:
            scratch[sweep] = CapacitySweep(sweep.model, sweep.refs, sweep.row)
        answer = solve_lp(sweep.model, fixed=dict(zip(sweep.refs, vec)))
        assert answer.status is (SolveStatus.OPTIMAL if pins is None else SolveStatus.INFEASIBLE)
        test = _single_test(scratch[sweep], lambda fresh: fresh._keep(m, scale, pins))
        assert test == _single_test(scratch[sweep], lambda fresh: fresh.learn(answer))
        assert test in (sweep._bounds if pins is None else sweep._rays)


def test_kept_tableau_refutes_through_a_dependent_row():
    """With y1 and y2 pinned, the rows x - y1 = 0 and x - y2 = 0 are
    dependent: the drive-out, when the tableau is built, leaves the second
    row's artificial basic with no real column to replace it, and
    `t.dependent` lists that row.  The tableau keeps the row in its place,
    with and without a cost row: where y1 and y2 differ its rhs turns
    nonzero and its ray, on both rows, refutes the LP; where they agree the
    LP is feasible at x = y1.  Each re-solve of one kept tableau agrees with a
    cold solve, and each ray certifies."""
    model, _ = _small_lp([((1, -1, 0), "=", 0), ((1, 0, -1), "=", 0)], (1, 0, 0))
    rows = _Rows(model, _LP_VARS[1:3])
    pins = [(1, 1), (1, 2), (2, 2), (2, 1), (0, 0), (3, 1), (1, 1)]
    for priced in (True, False):
        t = _tableau(rows, 1, rows.cost if priced else None)
        for y in pins:
            answer, cold = solver._answer(rows, t, y, solver._resolve(rows, t, y, _rhs(rows, y)[1])), _solve(rows, y)
            assert len(t.rows) == 2 and t.basis[1] >= t.width and t.dependent == [1]  # the dependent row stays
            if y[0] == y[1]:
                assert cold.status is SolveStatus.OPTIMAL and cold.values.get(_LP_VARS[0], 0) == y[0]
                assert answer == cold if priced else answer is None
            else:
                assert answer.status is cold.status is SolveStatus.INFEASIBLE
                assert all(answer.duals) and certify(model, answer)


def test_tableaux_are_built_driven_out(monkeypatch):
    """Every tableau is built with its `=` rows' artificials driven out
    (`_drive_out`): right after `_tableau`, the rows with a basic
    artificial are exactly those that `t.dependent` lists, and each is zero
    on every real column.  So no pivot touches a dependent row, and over a
    sweep's later re-solves (`_resolve`) none changes but for its rhs.
    Cases: the sweeps of `_sweep_draws`, many of whose tableaux keep
    dependent rows."""
    tableau, resolve = solver._tableau, solver._resolve
    built = {}  # id(t) -> (t, each dependent row less its rhs, with its denominator and basic column)

    def dependent_rows(t):
        return [(t.rows[i][:-1], t.den[i], t.basis[i]) for i in t.dependent]

    def building(*args):
        t = tableau(*args)
        assert [i for i, j in enumerate(t.basis) if j >= t.width] == t.dependent
        assert not any(any(t.rows[i][: t.width]) for i in t.dependent)
        built[id(t)] = t, dependent_rows(t)
        return t

    resolves = []

    def resolving(rows, t, *args):
        answer = resolve(rows, t, *args)
        kept, rows_as_built = built[id(t)]
        assert kept is t and dependent_rows(t) == rows_as_built
        if t.dependent:
            resolves.append(id(t))
        return answer

    monkeypatch.setattr(solver, "_tableau", building)
    monkeypatch.setattr(solver, "_resolve", resolving)
    _sweep_draws()
    assert len(resolves) > len(set(resolves)) > 0  # a tableau with dependent rows is re-solved


def test_equalized_directed_triangle_pays_both_orientations(monkeypatch):
    """equalize_directed ties the two orientations' integer capacities, and
    branch and bound merges each pair and branches on merged columns.  A
    merged pair is one column with one `ub[...]` and one `lb[...]` row,
    named after its first variable: 30 model rows, less the 6 merged ties,
    and 12 bound rows make 36 tableau rows, where a pair of bound rows per
    variable would make 48.  Both orientations are paid for, so the optimum
    is twice the bidirected one, at an integral point whose orientations
    agree."""
    inst = load_instance(_TRIANGLE)
    bound = capacity_bound(inst)
    model = equalize_directed(build_directed(inst))
    merged = _Rows(model, ()).ties
    assert {model.constraints[r].name[:3] for r, *_ in merged} == {"eq["}
    assert all(model.variables[v] in model.integer for _, v, _, _, _ in merged)
    rows = _Rows(model, (), bound)
    bounded = rows.model.constraints[len(model.constraints):]
    assert {c.name for c in bounded[::2]} == {f"ub[{model.variables[v].name}]" for _, v, _, _, _ in merged}
    assert (len(model.constraints), len(bounded), len(_tableau(rows, 1, None).rows)) == (30, 12, 36)
    nodes = _record_resolves(monkeypatch, nodes=True)
    res = solve_mip(model, bound)
    pairs = {model.variables[i].name for _, v, w, _, _ in merged for i in (v, w)}
    assert any(c.name.startswith("lb[") and c.rhs < 0 and c.name[3:-1] in pairs for m, _ in nodes for c in m.constraints)
    assert all(len(sol.duals) == len(m.constraints) and certify(m, sol) for m, sol in nodes)
    bidirected = solve_mip(build_bidirected(inst), bound)
    assert (res.status, res.objective, bidirected.objective) == (SolveStatus.OPTIMAL, 4, 2)
    assert not model.violations(res.values)
    for v in model.integer:
        assert res.values.get(v, Fraction(0)).denominator == 1
        back = VarRef.cap_arc(v.facility, v.arc[::-1])
        assert res.values.get(v, Fraction(0)) == res.values.get(back, Fraction(0))


def _triangle_readings():
    """The bound of tests/data/instances/triangle.json and its readings:
    the three plain ones, the mirror-flow ones of its symmetric
    counterpart (undirected) and of twice that (bidirected), and the
    equalized directed one."""
    inst = load_instance(_TRIANGLE)
    tstar = symmetric_counterpart(inst.traffic)
    return capacity_bound(inst), {
        "undirected": build_undirected(inst),
        "bidirected": build_bidirected(inst),
        "directed": build_directed(inst),
        "undirected/mirror-flows": add_flow_symmetry(build_undirected(inst.with_traffic(tstar))),
        "bidirected/mirror-flows": add_flow_symmetry(build_bidirected(inst.with_traffic(scale_traffic(tstar, 2)))),
        "directed/equalized": equalize_directed(build_directed(inst)),
    }


def test_warm_nodes_match_cold_solves(monkeypatch):
    """Branch and bound solves every node on the root's kept tableau
    (`_resolve`).  On each triangle reading, each node's answer has the
    status and objective of a cold `_solve` of the node's own model, the
    bounded model with the node's bounds, and certifies against that
    model; so it is the node's LP, whatever vertex the warm start stops
    at.  Each reading is searched with its root rows and again without
    them, where Infeasible nodes occur.  The nodes branch, and the warm
    re-solves of the branched nodes take under a third of the cold solves'
    pivots."""
    pivots = []
    inner = solver._pivot
    monkeypatch.setattr(solver, "_pivot", lambda t, leave, enter: pivots.append(enter) or inner(t, leave, enter))
    resolve, warm = solver._resolve, []

    def recording(rows, t, y, b, checks=None):
        before = len(pivots)
        outcome = resolve(rows, t, y, b, checks)
        if checks is not None:  # a node; the root's LP with no cost and the cold LP at the end pass none
            warm.append((_node_model(rows, checks), solver._answer(rows, t, y, outcome), len(pivots) - before))
        return outcome

    bound, readings = _triangle_readings()
    for name, model in readings.items():
        warm.clear()
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_resolve", recording)
            assert solve_mip(model, bound).status is SolveStatus.OPTIMAL, name
            with _without_root_rows(monkeypatch):
                assert solve_mip(model, bound).status is SolveStatus.OPTIMAL, name
        assert any(_branched(m) for m, _, _ in warm), name
        assert {answer.status for _, answer, _ in warm} == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}, name
        warm_pivots = cold_pivots = 0
        for node, answer, count in warm:
            before = len(pivots)
            cold = _solve(_Rows(node, ()), ())
            if _branched(node):
                warm_pivots, cold_pivots = warm_pivots + count, cold_pivots + len(pivots) - before
            assert (answer.status, answer.objective) == (cold.status, cold.objective), name
            assert len(answer.duals) == len(node.constraints) and certify(node, answer), name
        assert 3 * warm_pivots < cold_pivots, (name, warm_pivots, cold_pivots)


def test_searches_read_duals_for_root_rows_alone(monkeypatch):
    """Branch and bound reads no node's duals and no Farkas ray, and the
    cold LP at the end of `solve_mip` reads no duals either: over
    `solve_mip` on each triangle reading, with its root rows and without,
    each read of duals (`_duals`) is a root row's LP's (`_root_bound`),
    one per root row, and no certificate is read out as Fractions or read
    off a refuting row."""
    reads, roots = [], []
    duals, root_bound = solver._duals, solver._root_bound

    def reading(rows, t, objective, cost_scale):
        reads.append(len(roots))
        return duals(rows, t, objective, cost_scale)

    def bounding(rows, t, r):
        roots.append(r)
        return root_bound(rows, t, r)

    def unread(*args):
        raise AssertionError("a search read a certificate that nothing receives")

    monkeypatch.setattr(solver, "_duals", reading)
    monkeypatch.setattr(solver, "_root_bound", bounding)
    for name in ("_ray", "_fractions", "_answer"):
        monkeypatch.setattr(solver, name, unread)
    bound, readings = _triangle_readings()
    for name, model in readings.items():
        reads.clear()
        roots.clear()
        assert solve_mip(model, bound).status is SolveStatus.OPTIMAL, name
        assert roots and reads == list(range(1, len(roots) + 1)), name
        with _without_root_rows(monkeypatch):
            assert solve_mip(model, bound).status is SolveStatus.OPTIMAL, name
        assert reads == list(range(1, len(roots) + 1)), name


def test_triangle_points_do_not_depend_on_the_search(monkeypatch):
    """`solve_mip` returns the same point, capacities and flows, on each
    triangle reading whether its nodes are re-solved warm or each solved
    cold from its own model, whether the model's rows come in their order
    or permuted, and with or without root rows; each search stops at its
    own vertices, so only the canonical rule makes the points agree."""
    bound, readings = _triangle_readings()
    rng = random.Random(29)
    warm = {name: solve_mip(model, bound) for name, model in readings.items()}
    for name, model in readings.items():
        for _ in range(3):
            rows = list(model.constraints)
            rng.shuffle(rows)
            assert solve_mip(replace(model, constraints=tuple(rows)), bound).values == warm[name].values, name
    with _without_root_rows(monkeypatch):
        for name, model in readings.items():
            assert solve_mip(model, bound).values == warm[name].values, name

    resolve = solver._resolve

    def cold(rows, t, y, b, checks=None):
        if checks is None:  # not a node: the root's LP with no cost, or `solve_lp`'s
            return resolve(rows, t, y, b)
        node = _Rows(_node_model(rows, checks), ())
        return resolve(node, _tableau(node, 1, node.cost), (), _rhs(node, ())[1])

    monkeypatch.setattr(solver, "_resolve", cold)
    for name, model in readings.items():
        assert solve_mip(model, bound).values == warm[name].values, name


def _canonical_cases():
    """(model, bound) pairs in the style of acceptance criterion 7: small
    traffic on two-node and triangle networks under each reading, bounds 1
    and 2, with the default objective, whose optima tie now and then, with
    half-integral flow costs added, which take the two-search path, and
    with no objective, where every feasible vector ties.  The directed
    triangle is left at bound 1, so every box stays small."""
    rng = random.Random(23)
    for trial in range(12):
        bound = 1 + trial % 2
        builds = (build_undirected, build_bidirected, build_directed)
        if trial % 3 == 2:
            net, nodes, menu = Network(("1", "2"), (("1", "2"),)), ("1", "2"), rng.choice(((1,), (1, 3)))
        else:
            net, nodes, menu = triangle_network(), TRIANGLE_NODES, (1,)
            builds = builds[: 4 - bound]
        traffic = random_traffic(rng, nodes, max_numerator=3, denominators=(4,), zero_chance=0.5)
        inst = Instance(net, FacilityMenu(menu), traffic)
        for build in builds:
            model = build(inst)
            yield model, bound
            costs = {v: Fraction(rng.randint(0, 4), 2) for v in model.variables if v.kind == "flow"}
            yield model.with_objective({**model.objective, **costs}), bound
            yield model.with_objective({}), bound


def _lex_least_optimum(model, bound):
    """By brute force over the box, each vector's value the LP's with it
    pinned: (the lexicographically least optimal integer vector in model
    order, the optimum), or None when no vector is feasible."""
    integer = [v for v in model.variables if v in model.integer]
    best, ties = None, 0
    for vec in product(range(bound + 1), repeat=len(integer)):  # lexicographic order
        sol = solve_lp(model, fixed=dict(zip(integer, map(Fraction, vec))))
        if sol.status is SolveStatus.OPTIMAL:
            if best is None or sol.objective < best[1]:
                best, ties = (vec, sol.objective), 0
            ties += sol.objective == best[1]
    return best and (*best, ties)


def test_solve_mip_returns_the_canonical_optimum(monkeypatch):
    """`solve_mip` returns the lexicographically least optimal integer
    vector, as brute force finds it (`_lex_least_optimum`), with the point
    of `solve_lp` pinned at that vector, and the same point when the
    model's rows are permuted and when branch and bound adds no root rows.  Some cases tie, so that another optimal
    vector could have been returned.  An objective integral in the integer
    variables, an empty one included, takes one search; any other takes
    two."""
    searches = []
    inner = solver._branch_and_bound
    monkeypatch.setattr(solver, "_branch_and_bound", lambda model, bound: searches.append(model) or inner(model, bound))
    rng = random.Random(5)
    tied = empty = two_searches = 0
    for model, bound in _canonical_cases():
        integer = [v for v in model.variables if v in model.integer]
        expected = _lex_least_optimum(model, bound)
        searches.clear()
        res = solve_mip(model, bound)
        if expected is None:
            assert res.status is SolveStatus.INFEASIBLE
            continue
        vec, objective, ties = expected
        assert (res.status, res.objective) == (SolveStatus.OPTIMAL, objective)
        assert tuple(res.values.get(v, 0) for v in integer) == vec
        assert res.values == solve_lp(model, fixed=dict(zip(integer, map(Fraction, vec)))).values
        integral = all(v in model.integer and c.denominator == 1 for v, c in model.objective.items() if c)
        assert len(searches) == (1 if integral else 2)
        two_searches += len(searches) == 2
        rows = list(model.constraints)
        rng.shuffle(rows)
        assert solve_mip(replace(model, constraints=tuple(rows)), bound).values == res.values
        with _without_root_rows(monkeypatch):
            assert solve_mip(model, bound).values == res.values
        tied += ties > 1 and bool(model.objective)
        empty += not model.objective
    assert tied >= 5 and empty >= 10 and two_searches >= 10


def test_solve_lp_does_not_depend_on_the_row_order():
    """`solve_lp` gives one answer whatever the order of the model's rows,
    because the tableau takes them in a canonical order.  Cases: the
    criterion-1 draws' models, plain and with mirror-flow rows, with their
    capacities pinned at box vectors, and `_canonical_cases`, with their
    integer variables pinned at a box vector.  With the rows shuffled, the
    status, values and objective are the same, each row's dual or ray entry
    follows its row by name, and both answers certify."""
    rng = random.Random(31)
    cases = []
    for _, bound, plain in _criterion_1_draws(6):
        for model in (*plain, *map(add_flow_symmetry, plain)):
            refs = capacity_box(model, bound)
            cases += [(model, dict(zip(refs, vec))) for vec in list(graded_box(len(refs), bound))[::9]]
    for model, bound in _canonical_cases():
        cases.append((model, {v: Fraction(rng.randint(0, bound)) for v in model.variables if v in model.integer}))
    statuses = set()
    for model, fixed in cases:
        rows = list(model.constraints)
        rng.shuffle(rows)
        shuffled = replace(model, constraints=tuple(rows))
        answer, other = solve_lp(model, fixed=fixed), solve_lp(shuffled, fixed=fixed)
        assert (answer.status, answer.values, answer.objective) == (other.status, other.values, other.objective)
        names = [con.name for con in model.constraints]
        assert len(set(names)) == len(names)
        assert dict(zip(names, answer.duals)) == dict(zip((con.name for con in rows), other.duals))
        assert certify(model, answer) and certify(shuffled, other)
        statuses.add(answer.status)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def _record_root_rows(monkeypatch):
    """Rebind `solver._root_bound`, which minimizes a root row's beta at
    the root of branch and bound and rounds up the bound its duals prove,
    and `solver._duals`, which reads those duals, to keep, per root row,
    (its name, the bounded model's rows with every root row at rhs 0, the
    duals as Fractions, beta, the rounded bound, and the integer duals as
    (multipliers, scale, beta as `_proved_row` takes it))."""
    seen, read = [], []
    root_bound, duals = solver._root_bound, solver._duals

    def reading(rows, t, objective, cost_scale):
        read.append(duals(rows, t, objective, cost_scale) + (objective,))
        return read[-1][:2]

    def recording(rows, t, r):
        read.clear()
        least = root_bound(rows, t, r)
        (m, scale, objective), = read
        beta = {v: -c for v, c in rows.model.constraints[r].coeffs.items()}
        seen.append((rows.model.constraints[r].name, rows, solver._fractions(rows, m, scale), beta, least, read[0]))
        return least

    monkeypatch.setattr(solver, "_root_bound", recording)
    monkeypatch.setattr(solver, "_duals", reading)
    return seen


def test_root_rows_are_the_classical_cut_set_rows(monkeypatch):
    """On criterion-1 triangles, with one module size c and no existing
    capacity, each root row reads beta y >= r, beta the capacity crossing a
    node set S (leaving it, for arcs), and r, its LP bound rounded up, is
    the classical cut-set rhs: ceil((d+(S) + d-(S)) / c) undirected,
    ceil(max(d+(S), d-(S)) / c) bidirected and ceil(d+(S) / c) directed,
    d+(S) being the traffic leaving S and d-(S) the traffic entering it.
    So the undirected rows of T are the bidirected rows of 2T*, the
    paper's theorem row by row.  Each row's duals certify on the bounded
    relaxation that minimizes beta, and r is that LP's optimum rounded
    up."""
    roots = _record_root_rows(monkeypatch)
    classical = {
        ModelKind.UNDIRECTED: lambda out, into: out + into,
        ModelKind.BIDIRECTED: max,
        ModelKind.DIRECTED: lambda out, into: out,
    }
    for inst, bound, _ in _criterion_1_draws(10):
        (c,) = inst.facilities.capacities
        doubled = inst.with_traffic(scale_traffic(symmetric_counterpart(inst.traffic), 2))
        rhs = {}
        for case, model in (
            (inst, build_undirected(inst)),
            (inst, build_bidirected(inst)),
            (inst, build_directed(inst)),
            (doubled, build_bidirected(doubled)),
        ):
            roots.clear()
            assert solve_mip(model, bound).status is SolveStatus.OPTIMAL
            assert len(roots) == (6 if model.kind is ModelKind.DIRECTED else 3)
            for name, rows, duals, beta, least, _ in roots:
                side = set(name[len("root["):-1].split(","))
                crossing = {
                    v for v in model.integer
                    if (len(side & set(v.edge)) == 1 if v.edge else v.arc[0] in side and v.arc[1] not in side)
                }
                assert set(beta) == crossing and set(beta.values()) == {1}
                out = sum((t for (o, d), t in case.traffic.items() if o in side and d not in side), Fraction(0))
                into = sum((t for (o, d), t in case.traffic.items() if o not in side and d in side), Fraction(0))
                assert least == -(-classical[model.kind](out, into) // c), (name, model.kind)
                relaxed = replace(rows.model, integer=frozenset()).with_objective(beta)
                lp = solve_lp(relaxed)
                assert certify(relaxed, replace(lp, duals=duals)) and least == -(-lp.objective // 1)
            rhs[case is doubled, model.kind] = {name: least for name, _, _, _, least, _ in roots}
        assert rhs[False, ModelKind.UNDIRECTED] == rhs[True, ModelKind.BIDIRECTED]


def _doubled(m, checks):
    return [2 * x for x in m]


def _flipped(m, checks):
    """m with the first nonzero multiplier on a `<=` row negated."""
    r = next(r for r, (x, check) in enumerate(zip(m, checks)) if x and check[3] == "<=")
    return m[:r] + [-m[r]] + m[r + 1 :]


def test_root_row_duals_that_prove_nothing_raise(monkeypatch):
    """A root row's rhs comes only from duals that `_proved_row` accepts
    with beta as the objective.  Duals doubled past the optimum, or with
    the sign of a `<=` row's multiplier flipped, prove nothing, and
    `solve_mip` raises NetcapError when every root row's duals come back
    doubled, or flipped."""
    bound, readings = _triangle_readings()
    model = readings["undirected"]
    roots = _record_root_rows(monkeypatch)
    solved = solve_mip(model, bound)
    positive = [(rows, integral) for _, rows, _, _, least, integral in roots if least > 0]
    assert positive
    for rows, (m, scale, beta) in positive:
        assert solver._proved_row(rows, m, scale, (), beta) is not None
        for tamper in (_doubled, _flipped):
            assert solver._proved_row(rows, tamper(m, rows.checks), scale, (), beta) is None
    inner = solver._duals
    for tamper in (_doubled, _flipped):

        def tampered(rows, t, objective, cost_scale):
            m, scale = inner(rows, t, objective, cost_scale)
            return (m if objective is rows.objective else tamper(m, rows.checks)), scale

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_duals", tampered)
            with pytest.raises(NetcapError, match="root row"):
                solve_mip(model, bound)
    assert solved.status is SolveStatus.OPTIMAL


def test_root_rows_are_carried_once_per_merged_row(monkeypatch):
    """On the equalized directed triangle each arc pair's capacities tie
    into one column, so its six arc-keyed node sets give three distinct
    rows once merged (S and its complement cross the same pairs); branch
    and bound carries, and minimizes, only those three."""
    bound, readings = _triangle_readings()
    model = readings["directed/equalized"]
    assert len(solver._root_rows(model)) == 6
    roots = _record_root_rows(monkeypatch)
    assert solve_mip(model, bound).status is SolveStatus.OPTIMAL
    assert len({name for name, *_ in roots}) == 3
    for _, rows, *_ in roots:
        carried = [r for r, con in enumerate(rows.model.constraints) if con.name.startswith("root[")]
        assert len(carried) == 3 and len({tuple(sorted(rows.rows[r][0])) for r in carried}) == 3


def _ring(size):
    """A ring of `size` nodes, one module size 1, and traffic 1/2 from
    node 1 to node 2."""
    nodes = tuple(str(i + 1) for i in range(size))
    net = Network(nodes, tuple(edge_between(a, nodes[(i + 1) % size]) for i, a in enumerate(nodes)))
    return Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "2"): Fraction(1, 2)}))


def test_root_rows_stop_past_the_measured_node_count(monkeypatch):
    """On an n-node ring the root-row family has one row per bipartition
    on edge keys and one per proper node set on arc keys, 2^(n-1) - 1 and
    2^n - 2 rows, up to `_ROOT_ROW_NODES` nodes; one node more and it has
    none, so a search on a larger network carries no root row and solves no
    LP for one."""
    n = solver._ROOT_ROW_NODES
    for size, edge_rows, arc_rows in ((n, 2 ** (n - 1) - 1, 2**n - 2), (n + 1, 0, 0)):
        inst = _ring(size)
        assert len(solver._root_rows(build_undirected(inst))) == edge_rows
        assert len(solver._root_rows(build_bidirected(inst))) == edge_rows
        assert len(solver._root_rows(build_directed(inst))) == arc_rows
    roots = _record_root_rows(monkeypatch)
    inst = _ring(n + 1)
    assert solve_mip(build_directed(inst), capacity_bound(inst)).status is SolveStatus.OPTIMAL
    assert roots == []


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

def _row_key(model, con):
    """The key that orders the kernel's rows (`solver._canonical`): name,
    terms by variable position, rhs and sense, the coefficients and rhs
    times the lcm of their denominators."""
    own = lcm(*(x.denominator for x in (con.rhs, *con.coeffs.values())))
    return con.name, [(model.variables.index(v), c * own) for v, c in con.coeffs.items()], con.rhs * own, con.sense


def _rational_simplex(model, fixed, rhs=None):
    """Reference: the kernel's one LP path on a dense Fraction tableau,
    with the same row and column order, pivots and read-outs.  The model's
    merged ties are substituted (`_merged_ties`), and its rows taken in the
    canonical order of the model's own rows; a `>=` row enters negated,
    every inequality on a +1 slack and every `=` row on an artificial.
    Each artificial is driven out, dependent rows staying in place, and a
    dependent row with a nonzero rhs, or the row at which Bland's dual
    simplex with no cost row stops, refutes the LP with its row of B^-1
    at the starting columns; otherwise Bland's primal simplex runs phase
    2.  Returns (status, values, one multiplier per model row, the
    unbounded ray, the (leave, enter) pivots), put back on the model's
    variables and rows (`_tie_postsolve`): the multipliers are the duals
    when Optimal and the Farkas ray when Infeasible; values are the last
    basic point unless Infeasible.

    Given `rhs`, one right-hand side per model row, an Optimal solve is
    re-solved there from its final tableau, as a branch-and-bound node is
    from the kept one: each row's rhs becomes B^-1 b, read at the rows'
    starting columns, and the same path follows, the dual simplex on the
    kept reduced costs; the answer and the pivots are the re-solve's."""
    pivots = []

    def pivot(leave, enter):
        pivots.append((leave, enter))
        tab[leave] = prow = [c / tab[leave][enter] for c in tab[leave]]
        for row in tab + [red]:
            f = row[enter]
            if f and row is not prow:
                row[:] = [a - f * b for a, b in zip(row, prow)]
        basis[leave] = enter

    def simplex():
        """-1 at an optimum, else the entering column with no leaving row."""
        while True:
            enter = next((j for j in range(width) if red[j] < 0), -1)
            if enter < 0:
                return -1
            ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(tab) if row[enter] > 0]
            if not ratios:
                return enter
            pivot(min(ratios)[2], enter)

    def dual_simplex(priced):
        """-1 once every rhs is nonnegative, else the refuting row."""
        while True:
            negative = [i for i, row in enumerate(tab) if row[-1] < 0]
            if not negative:
                return -1
            leave = min(negative, key=basis.__getitem__)
            ratios = [(red[j] / -a if priced else 0, j) for j, a in enumerate(tab[leave][:width]) if a < 0]
            if not ratios:
                return leave
            pivot(leave, min(ratios)[1])

    def decide(priced):
        """(the refuting row or -1, the unbounded column or -1)."""
        leave = next((i for i, j in enumerate(basis) if j >= width and tab[i][-1]), -1)
        if leave < 0:
            leave = dual_simplex(priced)
        return leave, -1 if leave >= 0 else simplex()

    def pinned_rhs(new):
        """Each row's rhs less its pinned terms, `new` giving the rhs."""
        return [rhs - sum(c * fixed[v] for v, c in con.coeffs.items() if v in fixed) for rhs, con in zip(new, cons)]

    ties = _merged_ties(model, fixed)
    merged = _substituted(model, ties)
    cons = merged.constraints
    free = [v for v in merged.variables if v not in fixed]
    n = len(free)
    u = [Fraction(0)] * len(cons)
    b = pinned_rhs(con.rhs for con in cons)
    for r, con in enumerate(cons):
        if set(con.coeffs) <= set(fixed) and not LinearConstraint("constant", {}, con.sense, b[r]).satisfied_by({}):
            u[r] = Fraction(1 if b[r] > 0 else -1)
            return SolveStatus.INFEASIBLE, *_tie_postsolve(model, ties, SolveStatus.INFEASIBLE, {}, u, {}), pivots
    order = sorted(range(len(cons)), key=lambda r: _row_key(model, model.constraints[r]))
    rows = [(r, -1 if cons[r].sense == ">=" else 1) for r in order if set(cons[r].coeffs) - set(fixed)]
    inequalities = [r for r, _ in rows if cons[r].sense != "="]
    equalities = [r for r, _ in rows if cons[r].sense == "="]
    width = n + len(inequalities)
    total = width + len(equalities)
    tab, start = [], []
    for r, sign in rows:
        row = [Fraction(0)] * (total + 1)
        for v, c in cons[r].coeffs.items():
            if v not in fixed:
                row[free.index(v)] = sign * c
        row[-1] = sign * b[r]
        start.append(n + inequalities.index(r) if r in inequalities else width + equalities.index(r))
        row[start[-1]] = Fraction(1)
        tab.append(row)
    basis = list(start)
    red = [merged.objective.get(v, Fraction(0)) for v in free] + [Fraction(0)] * (total + 1 - n)
    for i in range(len(tab)):
        if basis[i] >= width:
            enter = next((j for j in range(width) if tab[i][j]), -1)
            if enter >= 0:
                pivot(i, enter)
    leave, unbounded = decide(False)
    if rhs is not None and leave < 0 and unbounded < 0:
        del pivots[:]
        b = pinned_rhs(rhs)
        for row in tab:
            row[-1] = sum(row[j] * sign * b[r] for (r, sign), j in zip(rows, start))
        leave, unbounded = decide(True)
    values, ray = {}, {}
    if leave >= 0:
        s = 1 if tab[leave][-1] > 0 else -1
        for (r, sign), j in zip(rows, start):
            u[r] = s * sign * tab[leave][j]
        status = SolveStatus.INFEASIBLE
    else:
        point = {free[j]: row[-1] for row, j in zip(tab, basis) if j < n} | dict(fixed)
        values = {v: point[v] for v in merged.variables if point.get(v)}
        if unbounded >= 0:
            ray = {free[j]: -row[unbounded] for row, j in zip(tab, basis) if j < n and row[unbounded]}
            if unbounded < n:
                ray[free[unbounded]] = Fraction(1)
            status, u = SolveStatus.UNBOUNDED, []
        else:
            for (r, sign), j in zip(rows, start):
                u[r] = -sign * red[j]
            status = SolveStatus.OPTIMAL
    return status, *_tie_postsolve(model, ties, status, values, u, ray), pivots


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
    # Some `=` rows combine the rows before them.  One that weighs only `=`
    # rows is left dependent by the drive-out, ahead of any later row that
    # pivots.
    for i in range(1, len(rows)):
        weights = draw(st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=i, max_size=i)))
        if weights is not None:
            combined = [sum(w * row[0][k] for w, row in zip(weights, rows)) for k in range(n)]
            rows[i] = combined, "=", sum(w * row[2] for w, row in zip(weights, rows))
    pins = draw(st.dictionaries(st.integers(0, n - 1), st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))))
    return _small_lp(rows, draw(coeffs), sorted(pins.items()))


def _kernel_run(solve):
    """The answer of `solve()`, an LP solve, with its (leave, enter) pivots,
    and the cells it pivoted on."""
    pivots, cells = [], []
    inner = solver._pivot

    def recording(t, leave, enter):
        pivots.append((leave, enter))
        cells.append(t.rows[leave][enter])
        inner(t, leave, enter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pivot", recording)
        sol = solve()
    return (sol, pivots), cells


# A drive-out pivot on a negative cell: x0 + x1 = 0 drives x0 in, which
# leaves -3 x1 in the row of x0 - 2 x1 = 0, no tie, so a row of the tableau.
NEGATIVE_DRIVE_OUT = _small_lp([((1, 1), "=", 0), ((1, -2), "=", 0), ((0, 1), "<=", 1)], (1, -1))
# A rational rhs and pin: the tableau's scale is 6 > 1.
RATIONAL_RHS = _small_lp([((1, 1), ">=", Fraction(5, 3)), ((1, -1), "<=", Fraction(4, 3))], (1, 2), [(1, Fraction(1, 2))])
# x <= -1 starts with rhs -1 and no negative cell in its row, so the dual
# simplex refutes the LP before any pivot, by that row alone.
REFUTED_AT_ONCE = _small_lp([((1,), "<=", -1), ((1,), ">=", Fraction(1, 2))], (0,))
# Row 0 (3 x0 = 2) is last touched by the first of three pivots, the
# drive-out's, before the dual simplex brings x1 in at d = 6 and phase 2
# brings x2 in; so its basic value 2/3 is read over a denominator, 3, that
# lags the final d.
LAGGING_ROW = _small_lp([((3, 0, 0), "=", 2), ((0, 2, 0), ">=", 1), ((0, 1, 1), "<=", 4)], (-1, 0, -1))
# Row 1 (2 x0 + 2 x1 = 2) is left dependent by the drive-out and stays in
# place, so the dual simplex leaves on row 2 (x0 <= 1/2, whose rhs is -1/2
# once x0 is basic), not on row 1 as it would with dependent rows last.
MIDDLE_DEPENDENT = _small_lp([((1, 1), "=", 1), ((2, 2), "=", 2), ((1, 0), "<=", Fraction(1, 2))], (-1, 0))
# Ties, a v - a w = 0 rows.  Two free columns merge, whatever a is.
FREE_PAIR = _small_lp([((1, 1), "=", 0), ((1, -1), "=", 0), ((0, 1), "<=", 1)], (1, -1))
# The merged column x0 + x1 is priced out by x2, so its tie's multiplier has
# a whole interval to lie in, and the kernel takes the top for x0.
SCALED_PAIR = _small_lp([((2, -2, 0), "=", 0), ((1, 1, 1), ">=", 1)], (1, 2, 1))
# x2 merges into x0, past x1; x1 - x2 = 0 shares x2 with that merge, so it
# stays a row.
CHAINED_TIES = _small_lp([((1, 0, -1), "=", 0), ((0, 1, -1), "=", 0), ((1, 1, 0), ">=", 2)], (1, 0, -1))
# x1 is pinned, so the tie is the row x0 = 1/2.
PINNED_TIE = _small_lp([((1, -1), "=", 0), ((1, 1), ">=", 1)], (1, 1), [(1, Fraction(1, 2))])
# Merged, x0 >= 1 and x1 <= 0 are one column's, which the dual simplex
# refutes; and x0 - x1 >= 1 is the failed constant row 0 >= 1.
INFEASIBLE_TIE = _small_lp([((1, -1), "=", 0), ((1, 0), ">=", 1), ((0, 1), "<=", 0)], (0, 1))
CONSTANT_TIE = _small_lp([((1, -1), "=", 0), ((1, -1), ">=", 1)], (1, 0))
UNBOUNDED_TIE = _small_lp([((1, -1), "=", 0), ((1, 0, 1), ">=", 1)], (-1, 0, 0))
TIES = (FREE_PAIR, SCALED_PAIR, CHAINED_TIES, PINNED_TIE, INFEASIBLE_TIE, CONSTANT_TIE, UNBOUNDED_TIE)
# The merged column's cost is 1/2 over a tie coefficient of 2: the tie's
# dual, 1/8, is no integer over the duals' scale, so the integer postsolve
# (`_tied`) scales every multiplier up first.
HALF_COST_TIE = _small_lp([((2, -2, 0), "=", 0), ((1, 1, 1), ">=", 1)], (Fraction(1, 2), 0, 1))


def test_kernel_examples_reach_their_cases():
    """Each example reaches the case it is named for: a drive-out pivot on
    a negative cell, a rational rhs, a refutation with no pivot, a basic
    row read over a lagging denominator, a dependent row before a row that
    pivots, and, among the ties, a failed constant row."""
    pivots, dens, tableaux = [], [], []
    pivot, simplex = solver._pivot, solver._bland_simplex

    def recording(t, leave, enter):
        pivots.append((t.basis[leave] >= t.width, t.rows[leave][enter]))  # (a drive-out pivot, its cell)
        pivot(t, leave, enter)
        dens.append(list(t.den))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_pivot", recording)
        mp.setattr(solver, "_bland_simplex", lambda t: tableaux.append(t) or simplex(t))
        solve_lp(NEGATIVE_DRIVE_OUT[0])
        assert any(out and cell < 0 for out, cell in pivots)
        pivots.clear()
        refuted = solve_lp(REFUTED_AT_ONCE[0])
        assert refuted.status is SolveStatus.INFEASIBLE and not pivots and refuted.duals == (-1, 0)
        dens.clear()
        sol = solve_lp(LAGGING_ROW[0])

    # LAGGING_ROW: a basic row that the last two pivots left alone is read
    # over its own denominator, which is not the final d
    final = tableaux[-1]
    assert len(dens) == 3 and len(final.rows) == len(dens[-1])
    lagging = [
        i for i, b in enumerate(final.basis)
        if b < len(LAGGING_ROW[0].variables) and final.den[i] != final.d and dens[-3][i] == final.den[i]
    ]
    assert lagging and sol.values[_LP_VARS[0]] == Fraction(2, 3)

    model, fixed = RATIONAL_RHS
    rows = _Rows(model, tuple(fixed))
    q, _, _ = _rhs(rows, tuple(fixed.values()))
    assert _tableau(rows, q, None).scale == 6

    (sol, pivots), _ = _kernel_run(lambda: solve_lp(MIDDLE_DEPENDENT[0]))
    assert _tableau(_Rows(MIDDLE_DEPENDENT[0], ()), 1, None).dependent == [1]
    assert pivots == [(0, 0), (2, 1)] and sol.values == {_LP_VARS[0]: Fraction(1, 2), _LP_VARS[1]: Fraction(1, 2)}

    # the tie examples: what merges, and how each ends
    merges = [len(_Rows(m, tuple(fixed)).ties) for m, fixed in TIES]
    assert merges == [1, 1, 1, 0, 1, 1, 1]
    assert [solve_lp(m, fixed=fixed).status.value for m, fixed in TIES] == [
        "optimal", "optimal", "optimal", "optimal", "infeasible", "infeasible", "unbounded"
    ]
    model, fixed = CONSTANT_TIE
    assert _rhs(_Rows(model, tuple(fixed)), tuple(fixed.values()))[2] is not None


def _merged_ties(model, fixed):
    """The ties the kernel merges, as (row, kept variable, merged variable):
    in the canonical row order (`_row_key`), each `=` row a v - a w = 0 of
    two unpinned variables that no earlier merge touches; the kept one
    comes first in the model."""
    ties, merged = [], set(fixed)
    for r, con in sorted(enumerate(model.constraints), key=lambda rc: _row_key(model, rc[1])):
        if con.sense == "=" and not con.rhs and len(con.coeffs) == 2 and not sum(con.coeffs.values()):
            v, w = sorted(con.coeffs, key=model.variables.index)
            if not {v, w} & merged:
                ties.append((r, v, w))
                merged |= {v, w}
    return ties


def _substituted(model, ties):
    """The model with each tie's merged variable written as its kept one,
    and, as the kernel does once ties merge, every zero term left out; the
    tie rows become 0 = 0."""
    if not ties:
        return model
    into = {w: v for _, v, w in ties}

    def substitute(coeffs):
        out = {}
        for x, c in coeffs.items():
            out[into.get(x, x)] = out.get(into.get(x, x), 0) + c
        return {x: c for x, c in out.items() if c}

    return MipModel(
        model.kind,
        tuple(v for v in model.variables if v not in into),
        frozenset(into.get(v, v) for v in model.integer),
        tuple(replace(con, coeffs=substitute(con.coeffs)) for con in model.constraints),
        substitute(model.objective),
    )


def _tie_postsolve(model, ties, status, values, multipliers, ray):
    """The reference's answer on the substituted model, put back on the
    model: w takes v's value and ray entry, and tie row a v - a w = 0 the
    multiplier with a lambda = c_v - g_v (duals) or -g_v (a ray), g_v
    being v's coefficient in the other rows' combination."""
    values = values | {w: values[v] for _, v, w in ties if v in values}
    ray = ray | {w: ray[v] for _, v, w in ties if v in ray}
    u = list(multipliers)
    for r, v, _ in ties if u else ():  # an Unbounded answer has no multipliers
        g = sum(x * con.coeffs.get(v, 0) for s, (x, con) in enumerate(zip(u, model.constraints)) if s != r)
        cost = model.objective.get(v, 0) if status is SolveStatus.OPTIMAL else 0
        u[r] = (cost - g) / model.constraints[r].coeffs[v]
    return values, tuple(u), ray


@settings(max_examples=300, deadline=None)
@given(_small_lps())
@example(NEGATIVE_DRIVE_OUT)
@example(RATIONAL_RHS)
@example(REFUTED_AT_ONCE)
@example(LAGGING_ROW)
@example(MIDDLE_DEPENDENT)
@example(FREE_PAIR)
@example(SCALED_PAIR)
@example(CHAINED_TIES)
@example(PINNED_TIE)
@example(INFEASIBLE_TIE)
@example(CONSTANT_TIE)
@example(UNBOUNDED_TIE)
@example(HALF_COST_TIE)
def test_integer_kernel_matches_rational_reference(lp):
    """Same status, pivots, values, model-row duals or Farkas ray, and
    unbounded ray as the Fraction tableau; every answer is certified.  A
    Farkas ray and an unbounded ray are compared up to a positive factor:
    the kernel reads a ray off B^-1 of the rows as scaled in
    (`_ray_like`), and steps a slack scaled in with its row.  The kernel
    merges ties, so the reference solves the model with each merged tie
    substituted, and its answer is put back on the model's variables and
    rows (`_tie_postsolve`)."""
    model, fixed = lp
    (sol, pivots), _ = _kernel_run(lambda: solve_lp(model, fixed=fixed))

    def unit(ray):
        return {v: c / sum(ray.values()) for v, c in ray.items()}

    status, values, duals, ray, reference_pivots = _rational_simplex(model, fixed)
    duals = _ray_like(sol, status, duals)
    assert (sol.status, dict(sol.values), sol.duals, unit(sol.ray), pivots) == (
        status, values, duals, unit(ray), reference_pivots
    )
    assert certify(model, sol)


def _ray_like(answer, status, multipliers):
    """The reference's multipliers, or, when both it and the kernel's
    `answer` are Infeasible, its Farkas ray times the positive factor that
    makes it the kernel's: the kernel reads the ray off B^-1 of the rows as
    scaled in, which is a positive multiple of the reference's row of B^-1
    (a failed constant row's ray is +-1 in both)."""
    if status is not SolveStatus.INFEASIBLE or answer.status is not SolveStatus.INFEASIBLE:
        return multipliers
    factor = next(u for u in answer.duals if u) / next(u for u in multipliers if u)
    assert factor > 0
    return tuple(u * factor for u in multipliers)


# The optimum of min x0 + 2 x1 under x0 + x1 >= 2 and x0 <= 3 is x = (2, 0),
# the second row's slack basic at 1.  With that row lowered by two the
# slack turns negative and the dual simplex pivots x1 in, to x = (1, 1);
# lowered by four, x0 <= -1, it pivots and then refutes the LP.  A shift of
# 0 re-solves with no pivot.
BOUND_ROW = _small_lp([((1, 1), ">=", 2), ((1, 0), "<=", 3)], (1, 2))


def _shifted(model, rows, shifts):
    """The model with each inequality row that keeps a free column moved by
    its shift, as a branch-and-bound node moves its bound rows."""
    constraints = zip(model.constraints, shifts, rows.rows)
    moved = [replace(con, rhs=con.rhs + d) if con.sense != "=" and free else con for con, d, (free, *_) in constraints]
    return replace(model, constraints=tuple(moved))


@settings(max_examples=300, deadline=None)
@given(_small_lps(), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
@example(BOUND_ROW, [0, 0, 0, 0])
@example(BOUND_ROW, [0, -2, 0, 0])
@example(BOUND_ROW, [0, -4, 0, 0])
@example(SCALED_PAIR, [0, 1, 0, 0])
def test_warm_resolve_matches_rational_reference(lp, shifts):
    """A re-solve from a kept optimal tableau (`_resolve`) at a shifted
    right-hand side takes the pivots of the Fraction tableau re-solved the
    same way (`_rational_simplex` given `rhs`), and returns its status,
    values, and duals or, up to a positive factor, Farkas ray
    (`_ray_like`), which certify against the shifted model.  Merged ties
    are substituted in the reference as for a cold solve, and the point is
    re-checked against the shifted rows."""
    model, fixed = lp
    refs, y = tuple(fixed), tuple(fixed.values())
    rows = _Rows(model, refs)
    q, b, ray = _rhs(rows, y)
    assume(ray is None)
    t = _tableau(rows, q, rows.cost)
    assume(solver._resolve(rows, t, y, b)[0] is SolveStatus.OPTIMAL)
    shifted = _shifted(model, rows, shifts)
    moved = _Rows(shifted, refs)
    (outcome, pivots), _ = _kernel_run(lambda: solver._resolve(rows, t, y, _rhs(moved, y)[1], moved.checks))
    sol = solver._answer(rows, t, y, outcome)
    rhs = [con.rhs for con in shifted.constraints]
    status, values, duals, _, reference_pivots = _rational_simplex(model, fixed, rhs)
    duals = _ray_like(sol, status, duals)
    assert (sol.status, dict(sol.values), sol.duals, pivots) == (status, values, duals, reference_pivots)
    assert certify(shifted, sol)


@settings(max_examples=200, deadline=None)
@given(_small_lps())
@example(NEGATIVE_DRIVE_OUT)
@example(LAGGING_ROW)
def test_mip_without_integer_variables_is_its_root_lp(lp):
    """Branch and bound on a model with no integer variables stops at its
    root: one node, `solve_lp`'s status and, at an optimum, its objective
    and point; other statuses carry no point."""
    model, _ = lp
    assert not model.integer
    mip, root = solve_mip(model, 0), solve_lp(model)
    assert (mip.status, mip.nodes) == (root.status, 1)
    if mip.status is SolveStatus.OPTIMAL:
        assert (mip.objective, mip.values) == (root.objective, root.values)
    else:
        assert (mip.objective, mip.values) == (None, {})


@settings(max_examples=300, deadline=None)
@given(_small_lps(), st.lists(_RATIONALS, min_size=4, max_size=4), st.integers(0, 4))
@example(LAGGING_ROW, [Fraction(2, 3), Fraction(1, 2), Fraction(7, 2), Fraction(0)], 1)  # every row holds
def test_integer_recheck_names_what_violations_names(lp, values, kept):
    """`_recheck` reads a point in integers as `model.violations` and
    `objective_value` read it in Fractions, with negative values, against
    the model's rows or against the checks it is given instead (a
    branch-and-bound node's carry the node's bounds)."""
    model, _ = lp
    point = values[: len(model.variables)]
    rows = _Rows(model, ())
    assignment = dict(zip(model.variables, point))
    head = replace(model, constraints=model.constraints[:kept])
    for checks, checked in ((None, model), (rows.checks[:kept], head)):
        bad, objective = solver._recheck(rows, point, checks)
        assert bad == checked.violations(assignment)
        assert objective == model.objective_value(assignment)


def test_node_point_is_checked_against_the_node_bounds():
    """A branch-and-bound node's point is re-checked against the rows with
    the node's own bounds: min x0 + 2 x1 under x0 + x1 >= 1, x integral in
    [0, 3], is re-solved at the node x0 <= 0, and a right-hand side that
    misses the node's bound, leaving x0 = 1, raises with the bound row's
    name."""
    lp, _ = _small_lp([((1, 1), ">=", 1)], (1, 2))
    model = replace(lp, integer=frozenset(lp.variables))
    rows = _Rows(model, (), 3)
    assert [c.name for c in rows.model.constraints[1:]] == [f"{end}[{v.name}]" for v in lp.variables for end in ("ub", "lb")]
    node = list(rows.checks)
    node[1] = node[1][:2] + (0,) + node[1][3:]  # ub[x0]: x0 <= 0
    root_b = [rhs for _, _, rhs, _ in rows.rows]
    node_b = root_b[:1] + [0] + root_b[2:]
    t = _tableau(rows, 1, rows.cost)
    assert solver._answer(rows, t, (), solver._resolve(rows, t, (), root_b)).values == {_LP_VARS[0]: 1}
    assert solver._answer(rows, t, (), solver._resolve(rows, t, (), node_b, node)).values == {_LP_VARS[1]: 1}
    with pytest.raises(NetcapError, match=rf"broken rows {re.escape(repr([rows.model.constraints[1].name]))}"):
        solver._resolve(rows, t, (), root_b, node)


def test_solve_lp_refuses_a_point_that_breaks_a_row(monkeypatch):
    """The point is checked against the model's own rows, not the tableau's,
    so a kernel that reads a wrong point, or scales a row wrongly, raises."""
    model, _ = _small_lp([((1, 1), "<=", 4), ((1, 0), ">=", 1)], (1, 1))
    assert solve_lp(model).values == {_LP_VARS[0]: 1}
    simplex = solver._bland_simplex

    def shifted(by):
        def wrong(t):
            out = simplex(t)
            for i, b in enumerate(t.basis):  # move every basic variable by `by`
                if b < len(model.variables):
                    t.rows[i][-1] += by * t.den[i]
            return out
        return wrong

    for by, names in ((10, ["r0"]), (-10, ["r1", _LP_VARS[0].name])):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_bland_simplex", shifted(by))
            with pytest.raises(NetcapError, match=rf"infeasible point; broken rows {re.escape(repr(names))}"):
                solve_lp(model)

    # a row scaled into the tableau with twice its rhs: x0 <= 2 is solved as x0 <= 4
    tight, _ = _small_lp([((1,), "<=", 2)], (-1,))
    split = solver._Rows.split

    def doubled(rows, con):
        free, pinned, rhs, sense = split(rows, con)
        return free, pinned, 2 * rhs, sense

    monkeypatch.setattr(solver._Rows, "split", doubled)
    with pytest.raises(NetcapError, match=r"broken rows \['r0'\]"):
        solve_lp(tight)
