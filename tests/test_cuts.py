"""Rounding cuts: coefficients, construction, translation, validity checks."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netcap import solver
from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix, load_instance
from netcap.cuts import (
    CutsetSpec,
    check_cut_validity,
    cut_arcs,
    cutset_inequality,
    mir_data,
    phi_minus,
    phi_plus,
    single_facility_cutset,
    translate_to_bidirected,
)
from netcap.enumeration import dominates, graded_box
from netcap.errors import InvalidCutError, NetcapError, PreconditionError, VacuousCutError
from netcap.formulate import LinearConstraint, ModelKind, VarRef, build, build_directed
from netcap.projlab import capacity_bound, capacity_box
from netcap.randgen import cut_check_instance, random_cutset_spec, triangle_network
from netcap.solver import (
    CapacitySweep,
    SolveStatus,
    build_for_feasibility,
    certify,
    solve_lp,
    solve_mip,
)


def _two_node(menu=(1,), t12=Fraction(3, 2), t21=Fraction(0), **kw):
    net = Network(("1", "2"), (("1", "2"),))
    return Instance(net, FacilityMenu(menu), TrafficMatrix({("1", "2"): t12, ("2", "1"): t21}), **kw)


def test_phi_values_module_three_remainder_one():
    r = Fraction(1)
    assert phi_plus(3, 3, r) == 1
    assert phi_plus(2, 3, r) == 1
    assert phi_plus(4, 3, r) == 2
    assert phi_minus(1, 3, r) == 1
    assert phi_minus(2, 3, r) == 2
    assert phi_plus(0, 3, r) == 0
    assert phi_minus(0, 3, r) == 0


def test_phi_argument_validation():
    with pytest.raises(PreconditionError):
        phi_plus(-1, 3, Fraction(1))
    with pytest.raises(PreconditionError):
        phi_plus(1, 0, Fraction(0))
    with pytest.raises(PreconditionError):
        phi_minus(1, 3, Fraction(3))
    with pytest.raises(PreconditionError):
        phi_minus(1, 3, Fraction(-1, 2))


def test_cut_arcs_partitions_crossing_arcs():
    net = triangle_network()
    forward, backward = cut_arcs(net, ("1",))
    assert set(forward) == {("1", "2"), ("1", "3")}
    assert set(backward) == {("2", "1"), ("3", "1")}


def test_mir_data_fractional_crossing():
    inst = _two_node()
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    data = mir_data(inst, spec)
    assert data.crossing == Fraction(3, 2)
    assert data.adjusted == Fraction(3, 2)
    assert data.remainder == Fraction(1, 2)
    assert data.levels == 2
    assert not data.flipped


def test_mir_data_existing_forward_capacity_shifts_crossing():
    inst = _two_node(existing_edge={("1", "2"): Fraction(1)})
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    data = mir_data(inst, spec)
    assert data.adjusted == Fraction(1, 2)
    assert data.levels == 1
    assert cutset_inequality(inst, spec).render() == "1/2 y[1|1>2] >= 1/2"


def test_mir_data_flips_negative_crossing():
    inst = _two_node()
    forward = CutsetSpec(side_u=("1",), commodities=(("1", "2"),))
    mirrored = CutsetSpec(side_u=("2",), commodities=(("1", "2"),))
    data = mir_data(inst, mirrored)
    assert data.flipped
    assert data.side_u == ("1",)
    assert data.crossing == Fraction(3, 2)
    assert cutset_inequality(inst, mirrored) == cutset_inequality(inst, forward)


def test_cuts_are_ge_rows():
    inst = _two_node()
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    for cut in (cutset_inequality(inst, spec), single_facility_cutset(inst, spec)):
        assert isinstance(cut, LinearConstraint)
        assert (cut.name, cut.sense) == ("cut", ">=")
        translated = translate_to_bidirected(cut)
        assert (translated.name, translated.sense, translated.rhs) == ("cut", ">=", cut.rhs)
    assert LinearConstraint("cut", {}, ">=", Fraction(1, 2)).render() == "0 >= 1/2"
    leading_minus = {VarRef.flow(("1", "2"), ("2", "1")): -1, VarRef.cap_arc(1, ("1", "2")): 2}
    assert LinearConstraint("cut", leading_minus, ">=", 0).render() == "- 1 x[1>2|2>1] + 2 y[1|1>2] >= 0"


def test_cutset_inequality_pinned_forms():
    inst = _two_node()
    capacity_form = CutsetSpec(
        side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),)
    )
    assert cutset_inequality(inst, capacity_form).render() == "1/2 y[1|1>2] >= 1"
    flow_form = CutsetSpec(side_u=("1",), commodities=(("1", "2"),))
    assert cutset_inequality(inst, flow_form).render() == "1 x[1>2|1>2] >= 1"


def test_vacuous_cut_raises_with_data():
    """Rounding data with remainder 0 yields no cut from either builder."""
    inst = _two_node(t12=Fraction(2))
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    assert mir_data(inst, spec).remainder == 0
    for builder in (cutset_inequality, single_facility_cutset):
        with pytest.raises(VacuousCutError):
            builder(inst, spec)


def test_cut_spec_validation():
    inst = _two_node()
    good_q = (("1", "2"),)
    cases = [
        CutsetSpec(side_u=("9",), commodities=good_q),
        CutsetSpec(side_u=(), commodities=good_q),
        CutsetSpec(side_u=("1", "2"), commodities=good_q),
        CutsetSpec(side_u=("1",), commodities=()),
        CutsetSpec(side_u=("1",), commodities=(("1", "9"),)),
        CutsetSpec(side_u=("1",), commodities=good_q, facility=2),
        CutsetSpec(side_u=("1",), commodities=good_q, s_plus=(("2", "1"),)),
        CutsetSpec(side_u=("1",), commodities=good_q, s_minus=(("1", "2"),)),
    ]
    for spec in cases:
        with pytest.raises(InvalidCutError):
            mir_data(inst, spec)


def test_backward_existing_capacity_lowers_rhs():
    """Existing capacity on chosen backward arcs must come off the rhs.

    With the plain remainder-times-levels rhs this cut would read >= 1 and
    the all-zero point would violate it.
    """
    net = Network(("1", "2"), (("1", "2"),))
    inst = Instance(
        net, FacilityMenu((2,)), TrafficMatrix({}), existing_arc={("2", "1"): Fraction(1)}
    )
    spec = CutsetSpec(
        side_u=("1",),
        commodities=(("1", "2"), ("2", "1")),
        s_minus=(("2", "1"),),
    )
    data = mir_data(inst, spec)
    assert data.crossing == 0
    assert data.adjusted == 1
    assert data.remainder == 1
    assert data.levels == 1
    assert data.backward_existing == 1
    ineq = cutset_inequality(inst, spec)
    assert ineq.rhs == 0
    report = check_cut_validity(inst, ineq, bound=2)
    assert report.valid

    unshifted = LinearConstraint("cut", ineq.coeffs, ">=", Fraction(1))
    bad = check_cut_validity(inst, unshifted, bound=2)
    assert not bad.valid
    vec, lhs = bad.violations[0]
    assert lhs < 1


def test_single_facility_matches_general_construction():
    rng = random.Random(47)
    hits = 0
    while hits < 8:
        inst = cut_check_instance(rng)
        if inst.facilities.capacities != (1,):
            continue
        spec = random_cutset_spec(rng, inst)
        try:
            general = cutset_inequality(inst, spec)
        except VacuousCutError:
            continue
        assert single_facility_cutset(inst, spec) == general
        hits += 1


def test_single_facility_requires_unit_menu():
    inst = _two_node(menu=(2,))
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),))
    with pytest.raises(PreconditionError):
        single_facility_cutset(inst, spec)


def test_translate_merges_orientations():
    net = triangle_network()
    inst = Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "2"): Fraction(1, 2)}))
    spec = CutsetSpec(
        side_u=("1",),
        commodities=(("1", "2"),),
        s_plus=(("1", "2"),),
        s_minus=(("2", "1"),),
    )
    ineq = cutset_inequality(inst, spec)
    forward = VarRef.cap_arc(1, ("1", "2"))
    backward = VarRef.cap_arc(1, ("2", "1"))
    assert forward in ineq.coeffs and backward in ineq.coeffs
    translated = translate_to_bidirected(ineq)
    merged = VarRef.cap_edge(1, ("1", "2"))
    assert translated.coeffs[merged] == ineq.coeffs[forward] + ineq.coeffs[backward]
    assert translated.rhs == ineq.rhs
    with pytest.raises(PreconditionError):
        translate_to_bidirected(translated)


def test_translate_is_pointwise_sound():
    """Evaluations agree whenever both orientations share the edge value."""
    rng = random.Random(53)
    net = triangle_network()
    inst = Instance(
        net, FacilityMenu((1, 3)), TrafficMatrix({("1", "2"): Fraction(5, 4)})
    )
    spec = CutsetSpec(
        side_u=("1",),
        commodities=(("1", "2"),),
        s_plus=(("1", "2"),),
        s_minus=(("2", "1"), ("3", "1")),
        facility=2,
    )
    ineq = cutset_inequality(inst, spec)
    translated = translate_to_bidirected(ineq)
    flows = [v for v in ineq.coeffs if v.kind == "flow"]
    for _ in range(50):
        arc_point = {v: Fraction(rng.randint(0, 6), 2) for v in flows}
        edge_point = dict(arc_point)
        for m in (1, 2):
            for e in net.edges:
                y = Fraction(rng.randint(0, 3))
                edge_point[VarRef.cap_edge(m, e)] = y
                arc_point[VarRef.cap_arc(m, e)] = y
                arc_point[VarRef.cap_arc(m, (e[1], e[0]))] = y
        assert ineq.lhs_value(arc_point) == translated.lhs_value(edge_point)


def test_check_cut_validity_pinned():
    inst = _two_node()
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    ineq = cutset_inequality(inst, spec)
    report = check_cut_validity(inst, ineq)
    assert report.valid
    assert report.points > 0
    assert report.describe() == f"valid on {report.points}/{report.points} enumerated points"

    # tightening the rhs past the true optimum must surface violations
    too_strong = LinearConstraint("cut", ineq.coeffs, ">=", Fraction(3, 2))
    bad = check_cut_validity(inst, too_strong)
    assert not bad.valid
    assert bad.describe().startswith(f"violated on {len(bad.violations)}/{bad.points} enumerated points\n")


def test_check_cut_validity_guards():
    inst = _two_node()
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    ineq = cutset_inequality(inst, spec)
    # arc-keyed y: both edge readings lack the cut's capacity variables
    for kind in (ModelKind.UNDIRECTED, ModelKind.BIDIRECTED):
        with pytest.raises(PreconditionError, match=f"missing from the {kind.value} model"):
            check_cut_validity(inst, ineq, kind=kind)

    stray_commodity = LinearConstraint(
        "cut", {VarRef.flow(("1", "9"), ("1", "2")): Fraction(1)}, ">=", Fraction(0)
    )
    with pytest.raises(PreconditionError):
        check_cut_validity(inst, stray_commodity)
    # the check minimizes the left-hand side, which proves nothing for <= or =
    for sense in ("<=", "="):
        with pytest.raises(PreconditionError):
            check_cut_validity(inst, LinearConstraint("cut", ineq.coeffs, sense, ineq.rhs))


def test_random_cuts_hold_on_both_models():
    rng = random.Random(59)
    checked = 0
    while checked < 6:
        inst = cut_check_instance(rng)
        spec = random_cutset_spec(rng, inst)
        try:
            ineq = cutset_inequality(inst, spec)
        except VacuousCutError:
            continue
        assert check_cut_validity(inst, ineq).valid, (inst, spec)
        translated = translate_to_bidirected(ineq)
        # the edge-keyed form serves both edge readings
        for kind in (ModelKind.BIDIRECTED, ModelKind.UNDIRECTED):
            assert check_cut_validity(inst, translated, kind=kind).valid
        checked += 1


@st.composite
def _small_cut_checks(draw):
    """A two-node or triangle instance, a cut-set inequality on it, maybe
    strengthened, the reading to check it on and a bound, with at most 81
    vectors in the box."""
    two_node = draw(st.booleans())
    net = Network(("1", "2"), (("1", "2"),)) if two_node else triangle_network()
    amounts = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(9, 4)])
    traffic = TrafficMatrix({(o, d): draw(amounts) for o in net.nodes for d in net.nodes if o != d})
    existing = {e: draw(st.sampled_from([Fraction(0), Fraction(1, 2)])) for e in net.edges}
    menu = draw(st.sampled_from([(1,), (2,), (1, 3)] if two_node else [(1,), (2,)]))
    inst = Instance(net, FacilityMenu(menu), traffic, {e: c for e, c in existing.items() if c})
    side = draw(st.sets(st.sampled_from(net.nodes), min_size=1, max_size=len(net.nodes) - 1))
    forward, backward = cut_arcs(net, side)
    spec = CutsetSpec(
        side,
        draw(st.sets(st.sampled_from(net.commodities), min_size=1)),
        draw(st.sets(st.sampled_from(forward))),
        draw(st.sets(st.sampled_from(backward))),
        draw(st.sampled_from(inst.facilities.indices)),
    )
    try:
        cut = cutset_inequality(inst, spec)
    except VacuousCutError:
        assume(False)
    # a strengthened copy is violated at some points, which a valid cut never is
    cut = replace(cut, rhs=cut.rhs + draw(st.sampled_from([0, Fraction(1, 2), 1])))
    # a translated (edge-keyed) cut serves both edge readings
    kind = draw(st.sampled_from([ModelKind.DIRECTED, ModelKind.BIDIRECTED, ModelKind.UNDIRECTED]))
    if kind is not ModelKind.DIRECTED:
        cut = translate_to_bidirected(cut)
    dims = len(net.edges) * len(menu) * (2 if kind is ModelKind.DIRECTED else 1)
    bound = draw(st.sampled_from([b for b in (1, 2, 3) if (b + 1) ** dims <= 81]))
    return inst, cut, kind, bound


def _per_vector_sweep(inst, cut, kind, bound, components):
    """The points and violations of a cut found by minimizing its flow part
    with solve_lp at every vector of the box, in graded order, on the full
    model: no dominance, no kept certificate and no commodity left out."""
    model = build(inst, kind).with_objective({v: c for v, c in cut.coeffs.items() if v.kind == "flow"})
    points, violations = 0, []
    for vec in sorted(product(range(bound + 1), repeat=len(components)), key=lambda v: (sum(v), v)):
        sol = solve_lp(model, fixed=dict(zip(components, vec)))
        if sol.status is SolveStatus.INFEASIBLE:
            continue
        assert sol.status is SolveStatus.OPTIMAL
        points += 1
        if not cut.satisfied_by(sol.values):
            violations.append((vec, cut.lhs_value(sol.values)))
    return points, tuple(violations)


@settings(max_examples=60, deadline=None)
@given(_small_cut_checks())
def test_cut_check_matches_a_per_vector_sweep(case):
    """Dominance, cached dual bounds and cached rays decide only vectors an
    LP decides the same way: the same points and violations as solve_lp run
    on every vector of the box."""
    inst, cut, kind, bound = case
    check = check_cut_validity(inst, cut, kind=kind, bound=bound)
    assert (check.points, check.violations) == _per_vector_sweep(inst, cut, kind, bound, check.components)


def _readme_cut():
    """The README's triangle and its cut 1 x[1>2|1>3] + 1/2 y[1|1>2] + 2 y[2|1>2] >= 1."""
    inst = load_instance(Path(__file__).resolve().parent / "data" / "instances" / "triangle.json")
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    return inst, cutset_inequality(inst, spec)


def test_cut_check_counts_cover_the_box():
    """Each vector is solved, refuted by a ray or, dominating a feasible
    one, proved by a dual bound; the counts repeat from run to run, and
    the three add up to the box, 2^12 vectors."""
    inst, cut = _readme_cut()
    check = check_cut_validity(inst, cut, bound=1)
    assert (check.points, check.lp_solved, check.ray_refuted, check.bound_proved) == (3000, 23, 1093, 2980)
    assert check.lp_solved + check.ray_refuted + check.bound_proved == 2**12
    rng = random.Random(71)
    checks = []
    while len(checks) < 8:
        inst = cut_check_instance(rng)
        spec = random_cutset_spec(rng, inst)
        try:
            cut = cutset_inequality(inst, spec)
        except VacuousCutError:
            continue
        for kind, row in ((ModelKind.DIRECTED, cut), (ModelKind.BIDIRECTED, translate_to_bidirected(cut))):
            check = check_cut_validity(inst, row, kind=kind)
            box = (check.bound + 1) ** len(check.components)
            assert check.lp_solved + check.ray_refuted + check.bound_proved == box
            assert check.bound_proved <= check.points <= check.bound_proved + check.lp_solved
            assert check_cut_validity(inst, row, kind=kind) == check
            checks.append(check)
    assert all(sum(getattr(c, name) for c in checks) for name in ("lp_solved", "ray_refuted", "bound_proved"))


def _optimal_answers(recorded):
    """Rebind `solver._resolve`, which decides each LP of a sweep, to keep
    in `recorded`, for each Optimal LP, (its rows, the answer `solve_lp`
    would return, its duals read off the tableau as the LP leaves it,
    `solver._answer`)."""
    resolve = solver._resolve

    def recording(rows, t, y, b, checks=None):
        outcome = resolve(rows, t, y, b, checks)
        if outcome is not None and outcome[0] is SolveStatus.OPTIMAL:
            recorded.append((rows, solver._answer(rows, t, y, outcome)))
        return outcome

    return recording


def _bound_answers(inst, cut):
    """The rows of a directed cut check's sweep, bound 1, whose model and
    refs are the sweep's, and each Optimal answer its LPs reach."""
    kept = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_resolve", _optimal_answers(kept))
        check_cut_validity(inst, cut, bound=1)
    return kept


def _with_dual(solution, r, u):
    return replace(solution, duals=solution.duals[:r] + (u,) + solution.duals[r + 1 :])


def test_dual_bound_cache_refuses_tampered_duals():
    """A dual that combines a row the wrong way, or that prices a free flow
    column below zero, bounds nothing, an answer found with other pins
    belongs to another sweep, and an Optimal answer read as Infeasible
    carries no Farkas ray: each raises and nothing is kept."""
    inst, cut = _readme_cut()
    cache, sol = next(
        (c, s)
        for c, s in _bound_answers(inst, cut)
        if any(u and con.sense != "=" for u, con in zip(s.duals, c.model.constraints))
    )
    model, box = cache.model, list(graded_box(len(cache.refs), 1))
    fresh = CapacitySweep(model, cache.refs, cut)
    fresh.learn(sol)
    proved = [fresh.proves(vec) for vec in box]
    assert any(proved)

    r = next(i for i, (u, con) in enumerate(zip(sol.duals, model.constraints)) if u and con.sense != "=")
    flipped = _with_dual(sol, r, -sol.duals[r])
    e = next(
        i
        for i, con in enumerate(model.constraints)
        if con.sense == "=" and any(c > 0 and v.kind == "flow" for v, c in con.coeffs.items())
    )
    underpriced = _with_dual(sol, e, sol.duals[e] + 1000)
    for bad in (flipped, underpriced):
        assert not certify(model, bad)
        with pytest.raises(NetcapError):
            fresh.learn(bad)
    with pytest.raises(PreconditionError):
        fresh.learn(replace(sol, fixed=dict(list(sol.fixed.items())[1:])))
    with pytest.raises(NetcapError, match="Farkas ray"):
        fresh.learn(replace(sol, status=SolveStatus.INFEASIBLE))
    assert [fresh.proves(vec) for vec in box] == proved
    assert not any(fresh.refutes(vec) for vec in box)
    # without a row, an Optimal answer gives no test
    with pytest.raises(PreconditionError):
        CapacitySweep(model, cache.refs).learn(sol)


def test_dual_bound_cache_checks_each_dual_once(monkeypatch):
    """A cut that fails is solved at most vectors of the box, yet its LPs
    reach the same few duals again and again; each is checked once, by
    the one integer check (`_proved_row`)."""
    inst, cut = _readme_cut()
    optimal, checked = [], []
    proved_row = solver._proved_row

    def counting(rows, m, scale, pinned, objective=None, y=(1, ())):
        if objective is not None:
            checked.append(solver._fractions(rows, m, scale))
        return proved_row(rows, m, scale, pinned, objective, y)

    monkeypatch.setattr(solver, "_resolve", _optimal_answers(optimal))
    monkeypatch.setattr(solver, "_proved_row", counting)
    check = check_cut_validity(inst, replace(cut, rhs=cut.rhs + 1), bound=1)
    learned = [sol.duals for _, sol in optimal]
    assert check.violations and len(learned) > 1000
    assert sorted(checked) == sorted(set(learned)) and len(checked) < 10


def test_row_sweep_reads_its_objective_off_the_row():
    """Given a row, the sweep minimizes the row's part off its refs, whatever
    the model's objective: a sweep of the plain feasibility model and one of
    a model that already minimizes the cut's flow part decide the README
    cut's box alike, on the cut and on a copy that fails.  The minimum
    proves nothing for a `<=` or `=` row, so the sweep refuses one."""
    inst, cut = _readme_cut()
    plain = build_for_feasibility(inst, ModelKind.DIRECTED)
    probe = plain.with_objective({v: c for v, c in cut.coeffs.items() if v.kind == "flow"})
    bound = 1
    refs = capacity_box(plain, bound)
    for row in (cut, replace(cut, rhs=cut.rhs + 1)):
        runs = []
        for model in (plain, probe):
            sweep = CapacitySweep(model, refs, row)
            assert sweep.model == probe
            decided = [sweep.decide(vec) for vec in graded_box(len(refs), bound)]
            runs.append((decided, sweep.violations, sweep.lp_solved, sweep.ray_refuted, sweep.bound_proved))
        assert runs[0] == runs[1]
    assert runs[0][1]  # the strengthened copy fails somewhere
    for sense in ("<=", "="):
        with pytest.raises(PreconditionError):
            CapacitySweep(plain, refs, replace(cut, sense=sense))


def test_infeasible_lp_at_a_dominating_vector_raises():
    """Feasibility is upward closed in the capacities, so an LP that finds a
    vector infeasible above a feasible one is refused, not believed."""
    inst = _two_node(t21=Fraction(1, 2))
    cut = cutset_inequality(inst, CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),)))
    feasible_at = []

    resolve = solver._resolve

    def lying(rows, t, vec, b, checks=None):
        if any(dominates(vec, f) for f in feasible_at):
            return SolveStatus.INFEASIBLE, 0, None, None  # row 0 refutes nothing
        outcome = resolve(rows, t, vec, b, checks)
        if outcome is not None and outcome[0] is SolveStatus.OPTIMAL:
            feasible_at.append(vec)
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_resolve", lying)
        mp.setattr(CapacitySweep, "proves", lambda self, vec: False)
        with pytest.raises(NetcapError, match="dominates a feasible"):
            check_cut_validity(inst, cut)
    assert feasible_at


def test_cut_is_a_row_the_directed_model_takes():
    """A valid cut leaves the directed model's integer optimum unchanged,
    can raise its LP bound, and the model carrying it round-trips through
    the LP text format."""
    rng = random.Random(61)
    added = tightened = 0
    while added < 8:
        inst = cut_check_instance(rng)
        spec = random_cutset_spec(rng, inst)
        try:
            cut = cutset_inequality(inst, spec)
        except VacuousCutError:
            continue
        model = build_directed(inst)
        with_cut = model.with_constraints([cut])
        bound = capacity_bound(inst)
        plain, cut_result = solve_mip(model, bound), solve_mip(with_cut, bound)
        assert plain.status is cut_result.status is SolveStatus.OPTIMAL
        assert cut_result.objective == plain.objective
        relaxed = [solve_lp(replace(m, integer=frozenset())).objective for m in (model, with_cut)]
        assert relaxed[0] <= relaxed[1] <= plain.objective
        tightened += relaxed[0] < relaxed[1]
        added += 1
    assert tightened
