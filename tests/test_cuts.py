"""Rounding cuts: coefficients, construction, translation, validity checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netcap import cuts
from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix
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
from netcap.errors import InvalidCutError, PreconditionError, VacuousCutError
from netcap.formulate import LinearConstraint, ModelKind, VarRef, build_directed, parse_model, render_model
from netcap.projlab import capacity_bound
from netcap.randgen import cut_check_instance, random_cutset_spec, triangle_network
from netcap.solver import SolveStatus, solve_lp, solve_mip


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
    inst = _two_node(t12=Fraction(2))
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    with pytest.raises(VacuousCutError) as info:
        cutset_inequality(inst, spec)
    assert info.value.data.remainder == 0


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
    assert "valid at all" in report.describe()

    # tightening the rhs past the true optimum must surface violations
    too_strong = LinearConstraint("cut", ineq.coeffs, ">=", Fraction(3, 2))
    bad = check_cut_validity(inst, too_strong)
    assert not bad.valid
    assert "violated at" in bad.describe()


def test_check_cut_validity_guards():
    inst = _two_node()
    spec = CutsetSpec(side_u=("1",), commodities=(("1", "2"),), s_plus=(("1", "2"),))
    ineq = cutset_inequality(inst, spec)
    with pytest.raises(PreconditionError):
        check_cut_validity(inst, ineq, kind=ModelKind.UNDIRECTED)
    with pytest.raises(PreconditionError):
        check_cut_validity(inst, ineq, kind=ModelKind.BIDIRECTED)  # arc-keyed y

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
        assert check_cut_validity(inst, translated, kind=ModelKind.BIDIRECTED).valid
        checked += 1


@st.composite
def _small_cut_checks(draw):
    """A two-node or triangle instance, a cut-set inequality on it, the
    reading to check it on and a bound, with at most 81 vectors in the box."""
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
    kind = draw(st.sampled_from([ModelKind.DIRECTED, ModelKind.BIDIRECTED]))
    if kind is ModelKind.BIDIRECTED:
        cut = translate_to_bidirected(cut)
    dims = len(net.edges) * len(menu) * (2 if kind is ModelKind.DIRECTED else 1)
    bound = draw(st.sampled_from([b for b in (1, 2, 3) if (b + 1) ** dims <= 81]))
    return inst, cut, kind, bound


class _NoRays:
    """Stands in for FarkasCache: refutes nothing and keeps nothing, so
    check_cut_validity solves an LP at every vector of the box."""

    def __init__(self, model, refs):
        pass

    def refutes(self, vec):
        return False

    def learn(self, solution):
        pass


@settings(max_examples=40, deadline=None)
@given(_small_cut_checks())
def test_cut_check_matches_a_per_vector_sweep(case):
    """Cached rays skip only vectors that an LP finds infeasible: the same
    points and violations as solve_lp run on every vector of the box."""
    inst, cut, kind, bound = case
    check = check_cut_validity(inst, cut, kind=kind, bound=bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "FarkasCache", _NoRays)
        sweep = check_cut_validity(inst, cut, kind=kind, bound=bound)
    assert (check.points, check.violations) == (sweep.points, sweep.violations)


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
        relaxed = [solve_lp(m, ignore_integrality=True).objective for m in (model, with_cut)]
        assert relaxed[0] <= relaxed[1] <= plain.objective
        tightened += relaxed[0] < relaxed[1]
        assert parse_model(render_model(with_cut)) == with_cut
        added += 1
    assert tightened
