"""Mixed-integer-rounding cut-set inequalities for the directed model.

A cut-set inequality is derived from a node bipartition, a bundle of
commodities that must cross it, and chosen subsets of the forward and
backward cut arcs whose capacity is folded into the rounding.  The
resulting inequality is valid for every feasible point of the directed
model, and it translates to the bidirected model by merging each arc's
capacity coefficients onto the shared edge variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .core import Arc, Commodity, Instance, Network, Node, render_rational
from .enumeration import check_box, graded_box
from .errors import InvalidCutError, NetcapError, PreconditionError, VacuousCutError
from .formulate import ModelKind, VarRef, fix_variables
from .projlab import capacity_bound
from .solver import SolveStatus, build_for_feasibility, reduced_commodities, solve_lp


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
    side_v: tuple[Node, ...]
    commodities: tuple[Commodity, ...]
    s_plus: tuple[Arc, ...]
    s_minus: tuple[Arc, ...]
    arcs_forward: tuple[Arc, ...]
    arcs_backward: tuple[Arc, ...]
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
    stray = u - set(net.nodes)
    if stray:
        raise InvalidCutError(f"unknown nodes in cut side: {sorted(stray)!r}")
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

    forward, backward = cut_arcs(net, u)
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
        forward, backward = backward, forward
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
        side_v=tuple(sorted(set(net.nodes) - u)),
        commodities=tuple(sorted(spec.commodities)),
        s_plus=tuple(sorted(s_plus)),
        s_minus=tuple(sorted(s_minus)),
        arcs_forward=tuple(sorted(forward)),
        arcs_backward=tuple(sorted(backward)),
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
    c = Fraction(c)
    if c < 0:
        raise PreconditionError("capacity argument must be nonnegative")
    if not isinstance(module, int) or isinstance(module, bool) or module < 1:
        raise PreconditionError("module size must be a positive integer")
    r = Fraction(remainder)
    if not 0 <= r < module:
        raise PreconditionError("remainder must lie in [0, module)")
    return c, module, r


@dataclass(frozen=True)
class LinearInequality:
    """A `sum of terms >= rhs` inequality over model variables."""

    coeffs: Mapping[VarRef, Fraction]
    rhs: Fraction
    _items: tuple[tuple[VarRef, Fraction], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        clean = {v: Fraction(c) for v, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "rhs", Fraction(self.rhs))
        object.__setattr__(
            self, "_items", tuple(sorted(clean.items(), key=lambda it: it[0].sort_key))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearInequality):
            return NotImplemented
        return self._items == other._items and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self._items, self.rhs))

    def lhs_value(self, values: Mapping[VarRef, Fraction]) -> Fraction:
        return sum((c * values.get(v, Fraction(0)) for v, c in self._items), Fraction(0))

    def satisfied_by(self, values: Mapping[VarRef, Fraction]) -> bool:
        return self.lhs_value(values) >= self.rhs

    def render(self) -> str:
        if not self._items:
            return f"0 >= {render_rational(self.rhs)}"
        parts = []
        for v, c in self._items:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {render_rational(abs(c))} {v.name}")
        body = " ".join(parts)
        if body.startswith("+ "):
            body = body[2:]
        return f"{body} >= {render_rational(self.rhs)}"


def cutset_inequality(inst: Instance, spec: CutsetSpec) -> LinearInequality:
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
            data=data,
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
    return LinearInequality(coeffs, data.remainder * data.levels - data.backward_existing)


def single_facility_cutset(inst: Instance, spec: CutsetSpec) -> LinearInequality:
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
            data=data,
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
    return LinearInequality(coeffs, r * data.levels - data.backward_existing)


def translate_to_bidirected(ineq: LinearInequality) -> LinearInequality:
    """Rewrite arc-capacity terms onto shared edge-capacity variables.

    Both orientations of an edge map to one variable, so their
    coefficients add; flow terms and the right-hand side are unchanged.
    """
    out: dict[VarRef, Fraction] = {}
    for v, c in ineq.coeffs.items():
        if v.kind == "flow":
            out[v] = out.get(v, Fraction(0)) + c
        elif v.edge is not None:
            raise PreconditionError(f"{v.name} is already an edge-capacity variable")
        else:
            i, j = v.arc
            key = VarRef.cap_edge(v.facility, (min(i, j), max(i, j)))
            out[key] = out.get(key, Fraction(0)) + c
    return LinearInequality(out, ineq.rhs)


@dataclass(frozen=True)
class CutCheck:
    """Exhaustive validity report for one inequality over a capacity box.

    Each violating vector lists counts aligned with `components`, the
    model's capacity variables in `VarRef.sort_key` order.
    """

    components: tuple[VarRef, ...]
    bound: int
    points: int
    violations: tuple[tuple[tuple[int, ...], Fraction], ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.valid:
            return f"valid at all {self.points} feasible capacity vectors (bound {self.bound})"
        vec, lhs = self.violations[0]
        return (
            f"violated at {len(self.violations)} of {self.points} points; "
            f"first: y={vec!r} with lhs {render_rational(lhs)}"
        )


def check_cut_validity(
    inst: Instance,
    ineq: LinearInequality,
    *,
    kind: ModelKind = ModelKind.DIRECTED,
    bound: int | None = None,
) -> CutCheck:
    """Test an inequality against every feasible point of the model.

    For each integer capacity vector in the box, capacities are pinned and
    the inequality's flow part is minimized over the routing polytope; the
    cut is valid iff that minimum never drops below the right-hand side.
    Commodities named by the inequality are kept in the model even when
    they carry no traffic, since their circulations can reduce the
    inequality's backward-flow terms.
    """
    if kind is ModelKind.UNDIRECTED:
        raise PreconditionError("cut checking targets the directed or bidirected model")
    ks = set(reduced_commodities(inst))
    known = set(inst.network.commodities)
    for v in ineq.coeffs:
        if v.kind != "flow":
            continue
        if v.commodity not in known:
            raise PreconditionError(f"{v.name} references an unknown commodity")
        ks.add(v.commodity)
        ks.add((v.commodity[1], v.commodity[0]))
    model = build_for_feasibility(inst, kind, commodities=sorted(ks))

    cap_vars = {v for v in model.variables if v.kind == "capacity"}
    stray = [v.name for v in ineq.coeffs if v.kind == "capacity" and v not in cap_vars]
    if stray:
        raise PreconditionError(
            f"inequality names capacity variables missing from the {kind.value} model: {stray!r}"
        )
    refs = tuple(sorted(cap_vars, key=lambda v: v.sort_key))
    b = capacity_bound(inst) if bound is None else bound
    if b < 0:
        raise PreconditionError("bound must be nonnegative")
    check_box(len(refs), b)

    flow_part = {v: c for v, c in ineq.coeffs.items() if v.kind == "flow"}
    probe = model.with_objective(flow_part)
    pos = {v: i for i, v in enumerate(refs)}
    cap_part = [(pos[v], c) for v, c in ineq.coeffs.items() if v.kind == "capacity"]
    points = 0
    violations: list[tuple[tuple[int, ...], Fraction]] = []
    for vec in graded_box(len(refs), b):
        fixed = fix_variables(probe, {v: Fraction(n) for v, n in zip(refs, vec)})
        if not fixed.consistent:
            continue
        sol = solve_lp(fixed.model)
        if sol.status is SolveStatus.INFEASIBLE:
            continue
        if sol.status is not SolveStatus.OPTIMAL:
            raise NetcapError(f"unexpected solver status {sol.status} during cut check")
        points += 1
        ypart = sum((c * vec[i] for i, c in cap_part), Fraction(0))
        lhs = ypart + sol.objective + fixed.offset
        if lhs < ineq.rhs:
            violations.append((vec, lhs))
    return CutCheck(components=refs, bound=b, points=points, violations=tuple(violations))
