"""Mixed-integer-rounding cut-set inequalities for the directed model.

A cut-set inequality is derived from a node bipartition, a bundle of
commodities that must cross it, and chosen subsets of the forward and
backward cut arcs whose capacity is folded into the rounding.  The
resulting inequality is valid for every feasible point of the directed
model, and it translates to the bidirected model by merging each arc's
capacity coefficients onto the shared edge variable.  The translated form
holds on the undirected model too, whose merged rows imply the
bidirected ones.  Cuts are `>=` rows (`formulate.LinearConstraint`), so a
model can take them as constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .core import Arc, Commodity, Instance, Network, Node, edge_between, parse_rational, render_rational
from .enumeration import graded_box
from .errors import InvalidCutError, PreconditionError, VacuousCutError
# fix_variables and solve_lp are not called here; the benchmark's tracer
# rebinds them on this module (perfbench/tracing.py PATCHES), so they must
# stay importable from it.
from .formulate import LinearConstraint, ModelKind, VarRef, build, fix_variables  # noqa: F401
from .projlab import capacity_bound, capacity_box, no_feasible_vector
from .solver import CapacitySweep, reduced_commodities
from .solver import solve_lp  # noqa: F401


def _arc_set(arcs: Iterable[Arc]) -> frozenset[Arc]:
    return frozenset((str(a), str(b)) for a, b in arcs)


@dataclass(frozen=True)
class CutsetSpec:
    """Ingredients of one cut: near-side nodes, commodity bundle, and the
    forward/backward arc subsets whose capacity enters the rounding."""

    side_u: frozenset[Node]
    commodities: frozenset[Commodity]
    s_plus: frozenset[Arc] = frozenset()
    s_minus: frozenset[Arc] = frozenset()
    facility: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_u", frozenset(str(n) for n in self.side_u))
        object.__setattr__(
            self, "commodities", frozenset((str(o), str(d)) for o, d in self.commodities)
        )
        object.__setattr__(self, "s_plus", _arc_set(self.s_plus))
        object.__setattr__(self, "s_minus", _arc_set(self.s_minus))


def cut_arcs(network: Network, side_u: Iterable[Node]) -> tuple[tuple[Arc, ...], tuple[Arc, ...]]:
    """Forward (leaving side_u) and backward (entering side_u) arcs."""
    u = set(side_u)
    stray = u - set(network.nodes)
    if stray:
        raise InvalidCutError(f"unknown nodes in cut side: {sorted(stray)!r}")
    forward = tuple(a for a in network.arcs if a[0] in u and a[1] not in u)
    backward = tuple(a for a in network.arcs if a[0] not in u and a[1] in u)
    return forward, backward


@dataclass(frozen=True)
class MirData:
    """Normalized rounding data for one cut-set inequality.

    The bipartition is flipped when the bundle's net crossing demand is
    negative, so `crossing` is always nonnegative and `side_u` names the
    side the demand leaves.
    """

    side_u: tuple[Node, ...]
    commodities: tuple[Commodity, ...]
    s_plus: tuple[Arc, ...]
    s_minus: tuple[Arc, ...]
    arcs_forward: tuple[Arc, ...]
    facility: int
    module: int
    crossing: Fraction
    adjusted: Fraction
    remainder: Fraction
    levels: int
    backward_existing: Fraction
    flipped: bool

    def describe(self) -> str:
        lines = [
            f"near side: {{{', '.join(self.side_u)}}}" + (" (flipped)" if self.flipped else ""),
            "bundle: " + ", ".join(f"{o}>{d}" for o, d in self.commodities),
            f"crossing demand: {render_rational(self.crossing)}",
            f"adjusted demand: {render_rational(self.adjusted)}",
            f"module size: {self.module} (facility {self.facility})",
            f"remainder: {render_rational(self.remainder)}, levels: {self.levels}",
        ]
        if self.backward_existing:
            lines.append(f"existing capacity on chosen return arcs: {render_rational(self.backward_existing)}")
        return "\n".join(lines)


def mir_data(inst: Instance, spec: CutsetSpec) -> MirData:
    """Validate a cut spec against an instance and compute its rounding data."""
    net = inst.network
    u = set(spec.side_u)
    forward, backward = cut_arcs(net, u)
    if not u or u == set(net.nodes):
        raise InvalidCutError("cut side must be a nonempty proper subset of the nodes")
    if not spec.commodities:
        raise InvalidCutError("commodity bundle is empty")
    known = set(net.commodities)
    bad = [k for k in spec.commodities if k not in known]
    if bad:
        raise InvalidCutError(f"unknown commodities in bundle: {sorted(bad)!r}")
    if spec.facility not in inst.facilities.indices:
        raise InvalidCutError(
            f"facility index {spec.facility} outside menu of {len(inst.facilities.capacities)}"
        )

    if not spec.s_plus <= set(forward):
        extra = sorted(spec.s_plus - set(forward))
        raise InvalidCutError(f"s_plus arcs not in the forward cut: {extra!r}")
    if not spec.s_minus <= set(backward):
        extra = sorted(spec.s_minus - set(backward))
        raise InvalidCutError(f"s_minus arcs not in the backward cut: {extra!r}")

    crossing = Fraction(0)
    for o, d in spec.commodities:
        t = inst.traffic.get(o, d)
        if d not in u and o in u:
            crossing += t
        elif o not in u and d in u:
            crossing -= t
    flipped = crossing < 0
    if flipped:
        u = set(net.nodes) - u
        forward = backward
        s_plus, s_minus = spec.s_minus, spec.s_plus
        crossing = -crossing
    else:
        s_plus, s_minus = spec.s_plus, spec.s_minus

    backward_existing = sum((inst.arc_capacity(a) for a in s_minus), Fraction(0))
    adjusted = crossing - sum((inst.arc_capacity(a) for a in s_plus), Fraction(0)) + backward_existing
    module = inst.facilities.capacity(spec.facility)
    whole = math.floor(adjusted / module)
    remainder = adjusted - whole * module
    levels = math.ceil(adjusted / module)
    return MirData(
        side_u=tuple(sorted(u)),
        commodities=tuple(sorted(spec.commodities)),
        s_plus=tuple(sorted(s_plus)),
        s_minus=tuple(sorted(s_minus)),
        arcs_forward=tuple(sorted(forward)),
        facility=spec.facility,
        module=module,
        crossing=crossing,
        adjusted=adjusted,
        remainder=remainder,
        levels=levels,
        backward_existing=backward_existing,
        flipped=flipped,
    )


def phi_plus(c: int | Fraction, module: int, remainder: Fraction) -> Fraction:
    """Rounding coefficient for capacities on the chosen forward arcs."""
    c, module, remainder = _phi_args(c, module, remainder)
    k, resid = divmod(c, module)
    if resid < remainder:
        return c - k * (module - remainder)
    return (k + 1) * remainder


def phi_minus(c: int | Fraction, module: int, remainder: Fraction) -> Fraction:
    """Rounding coefficient for capacities on the chosen backward arcs."""
    c, module, remainder = _phi_args(c, module, remainder)
    k, resid = divmod(c, module)
    if resid < module - remainder:
        return c - k * remainder
    return (k + 1) * (module - remainder)


def _phi_args(
    c: int | Fraction, module: int, remainder: Fraction
) -> tuple[Fraction, int, Fraction]:
    c = parse_rational(c)
    if c < 0:
        raise PreconditionError("capacity argument must be nonnegative")
    if not isinstance(module, int) or isinstance(module, bool) or module < 1:
        raise PreconditionError("module size must be a positive integer")
    r = parse_rational(remainder)
    if not 0 <= r < module:
        raise PreconditionError("remainder must lie in [0, module)")
    return c, module, r


def cutset_inequality(inst: Instance, spec: CutsetSpec) -> LinearConstraint:
    """Build the rounding cut for the directed model.

    Capacities on the chosen forward arcs enter with the phi-plus
    coefficient, the remaining forward arcs carry the bundle's raw flow,
    and the chosen backward arcs contribute rounded capacity minus the
    bundle's returning flow.  Existing capacity on the chosen backward
    arcs stays inside the rounding's continuous part, so it is subtracted
    from the right-hand side; without any, the rhs is the plain
    remainder-times-levels product.
    """
    data = mir_data(inst, spec)
    if data.remainder == 0:
        raise VacuousCutError(
            "adjusted crossing demand is a multiple of the module size; "
            "the rounding yields nothing",
        )
    coeffs: dict[VarRef, Fraction] = {}
    for m in inst.facilities.indices:
        size = inst.facilities.capacity(m)
        fp = phi_plus(size, data.module, data.remainder)
        for arc in data.s_plus:
            coeffs[VarRef.cap_arc(m, arc)] = fp
        fm = phi_minus(size, data.module, data.remainder)
        for arc in data.s_minus:
            coeffs[VarRef.cap_arc(m, arc)] = fm
    chosen = set(data.s_plus)
    for k in data.commodities:
        for arc in data.arcs_forward:
            if arc not in chosen:
                coeffs[VarRef.flow(k, arc)] = Fraction(1)
        for arc in data.s_minus:
            coeffs[VarRef.flow(k, arc)] = Fraction(-1)
    return LinearConstraint("cut", coeffs, ">=", data.remainder * data.levels - data.backward_existing)


def single_facility_cutset(inst: Instance, spec: CutsetSpec) -> LinearConstraint:
    """Direct construction for a menu holding one unit-size module.

    Forward chosen capacities get the fractional remainder, backward ones
    its complement; this is the general construction with every rounding
    coefficient written out.
    """
    if inst.facilities.capacities != (1,):
        raise PreconditionError(
            "single-facility form needs the menu (1,); use cutset_inequality instead"
        )
    data = mir_data(inst, spec)
    if data.remainder == 0:
        raise VacuousCutError(
            "crossing demand is an integer here, so the rounding yields nothing",
        )
    r = data.remainder
    coeffs: dict[VarRef, Fraction] = {}
    for arc in data.s_plus:
        coeffs[VarRef.cap_arc(1, arc)] = r
    for arc in data.s_minus:
        coeffs[VarRef.cap_arc(1, arc)] = 1 - r
    chosen = set(data.s_plus)
    for k in data.commodities:
        for arc in data.arcs_forward:
            if arc not in chosen:
                coeffs[VarRef.flow(k, arc)] = Fraction(1)
        for arc in data.s_minus:
            coeffs[VarRef.flow(k, arc)] = Fraction(-1)
    return LinearConstraint("cut", coeffs, ">=", r * data.levels - data.backward_existing)


def translate_to_bidirected(cut: LinearConstraint) -> LinearConstraint:
    """Rewrite arc-capacity terms onto shared edge-capacity variables.

    Both orientations of an edge map to one variable, so their
    coefficients add; flow terms, the name, the sense and the right-hand
    side are unchanged.
    """
    out: dict[VarRef, Fraction] = {}
    for v, c in cut.coeffs.items():
        if v.edge is not None:
            raise PreconditionError(f"{v.name} is already an edge-capacity variable")
        if v.kind == "capacity":
            v = VarRef.cap_edge(v.facility, edge_between(*v.arc))
        out[v] = out.get(v, Fraction(0)) + c
    return replace(cut, coeffs=out)


@dataclass(frozen=True)
class CutCheck:
    """Exhaustive validity report for one `>=` row over a capacity box.

    Each violating vector lists counts aligned with `components`, the
    model's capacity variables in `VarRef.sort_key` order.  The last three
    fields are the `CapacitySweep`'s counts of how the box's vectors were
    decided, and together they cover it: by an LP, refuted by a kept Farkas
    ray, or, being known feasible by dominance, proved by a kept dual bound.
    """

    components: tuple[VarRef, ...]
    bound: int
    points: int
    violations: tuple[tuple[tuple[int, ...], Fraction], ...]
    lp_solved: int
    ray_refuted: int
    bound_proved: int

    @property
    def valid(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        """The lines `netcap cut --check` prints for this check."""
        if not self.points:
            return no_feasible_vector(self.bound)
        if self.valid:
            return f"valid on {self.points}/{self.points} enumerated points"
        vec, lhs = self.violations[0]
        pairs = ", ".join(f"{ref.key}={n}" for ref, n in zip(self.components, vec))
        return (
            f"violated on {len(self.violations)}/{self.points} enumerated points\n"
            f"first counterexample: {pairs} (lhs {render_rational(lhs)})"
        )


def check_cut_validity(
    inst: Instance,
    cut: LinearConstraint,
    *,
    kind: ModelKind = ModelKind.DIRECTED,
    bound: int | None = None,
) -> CutCheck:
    """Test a `>=` row against every feasible point of the model.

    For each integer capacity vector in the box {0..bound}^components
    (`bound` defaults to `capacity_bound(inst)`), capacities are pinned and
    the left-hand side is minimized over the routing polytope; the cut is
    valid iff that minimum never drops below the right-hand side.  The box
    is swept in graded order by one `CapacitySweep` given the cut, which
    minimizes the cut's flow part and records the vectors where it fails:
    a vector above one found feasible where a kept dual bound proves the
    cut counts as a point, and one that a kept Farkas ray refutes is
    skipped, both without an LP; any other is minimized.  The sweep
    refuses a row that is not `>=`.  Any reading takes a row on its own
    variables: an edge-keyed (translated) cut serves both edge readings,
    and an arc-keyed one only the directed, since the others lack its
    capacity variables (PreconditionError).
    Commodities named by the cut are kept in the model even when they
    carry no traffic, since their circulations can reduce the cut's
    backward-flow terms; an unknown one raises PreconditionError.
    """
    ks = set(reduced_commodities(inst))
    for v in cut.coeffs:
        if v.kind == "flow":
            ks.add(v.commodity)
            ks.add((v.commodity[1], v.commodity[0]))
    model = build(inst, kind, commodities=ks)

    known = set(model.variables)
    stray = [v.name for v in cut.coeffs if v.kind == "capacity" and v not in known]
    if stray:
        raise PreconditionError(
            f"inequality names capacity variables missing from the {kind.value} model: {stray!r}"
        )
    b = capacity_bound(inst) if bound is None else bound
    refs = capacity_box(model, b)
    sweep = CapacitySweep(model, refs, cut)
    points = sum(sweep.decide(vec) for vec in graded_box(len(refs), b))
    return CutCheck(
        components=refs,
        bound=b,
        points=points,
        violations=tuple(sweep.violations),
        lp_solved=sweep.lp_solved,
        ray_refuted=sweep.ray_refuted,
        bound_proved=sweep.bound_proved,
    )
