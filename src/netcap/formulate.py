"""Mixed-integer models for the three capacity readings of an instance.

A model couples per-commodity arc flows with integer capacity variables.
`build(inst, kind)` writes all three readings from one rule: the flow on
each arc is bounded by the capacity installed on the arc's key plus the
existing capacity there.  The readings differ only in the key and in
merging rows:

* directed: capacity keyed by arc, one row per arc,
* bidirected: capacity keyed by edge, one row per arc, so an edge's two
  rows share its capacity variables,
* undirected: capacity keyed by edge, and an edge's two arc rows merged
  into one row over both directions.

Variable order is deterministic: flows sorted by (commodity, arc), then
capacity variables by (facility, edge or arc), all lexicographic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    MAX_DIGITS,
    Arc,
    Commodity,
    Edge,
    Instance,
    edge_between,
    parse_rational,
    render_rational,
)
from .errors import InvalidInstanceError, ParseError, PreconditionError


class ModelKind(Enum):
    UNDIRECTED = "undirected"
    BIDIRECTED = "bidirected"
    DIRECTED = "directed"


@dataclass(frozen=True)
class VarRef:
    """Typed reference to a flow variable x[k|a] or capacity variable y[m|e].

    Exactly one of `edge` / `arc` is set for capacity variables; flow
    variables carry a commodity and an arc.
    """

    kind: str  # "flow" or "capacity"
    commodity: Commodity | None = None
    arc: Arc | None = None
    facility: int | None = None
    edge: Edge | None = None

    @staticmethod
    def flow(commodity: Commodity, arc: Arc) -> VarRef:
        return VarRef(kind="flow", commodity=commodity, arc=arc)

    @staticmethod
    def cap_edge(facility: int, edge: Edge) -> VarRef:
        return VarRef(kind="capacity", facility=facility, edge=edge)

    @staticmethod
    def cap_arc(facility: int, arc: Arc) -> VarRef:
        return VarRef(kind="capacity", facility=facility, arc=arc)

    @property
    def key(self) -> str:
        """The text inside the brackets of `name`: `o>d|i>j` for a flow,
        `m|i-j` for an edge capacity, `m|i>j` for an arc capacity."""
        if self.kind == "flow":
            o, d = self.commodity
            i, j = self.arc
            return f"{o}>{d}|{i}>{j}"
        pair = f"{self.edge[0]}-{self.edge[1]}" if self.edge else f"{self.arc[0]}>{self.arc[1]}"
        return f"{self.facility}|{pair}"

    @property
    def name(self) -> str:
        return f"{'x' if self.kind == 'flow' else 'y'}[{self.key}]"

    @property
    def sort_key(self) -> tuple:
        if self.kind == "flow":
            return (0, self.commodity, self.arc)
        return (1, self.facility, self.edge or self.arc)

    def __repr__(self) -> str:  # compact: the canonical name is unambiguous
        return self.name


_VARNAME = re.compile(r"^([xy])\[([^|]+)\|([^|]+)\]$")


def parse_varref(name: str) -> VarRef:
    """Inverse of VarRef.name; edge endpoints are put in canonical order."""
    m = _VARNAME.match(name)
    if not m:
        raise ParseError(f"malformed variable name {name!r}")
    letter, first, second = m.groups()
    if letter == "x":
        if ">" not in first or ">" not in second:
            raise ParseError(f"malformed flow variable {name!r}")
        o, _, d = first.partition(">")
        i, _, j = second.partition(">")
        return VarRef.flow((o, d), (i, j))
    if not first.isdecimal() or len(first) > MAX_DIGITS:
        raise ParseError(f"malformed capacity variable {name!r}")
    facility = int(first)
    if ">" in second:
        i, _, j = second.partition(">")
        return VarRef.cap_arc(facility, (i, j))
    if "-" in second:
        i, _, j = second.partition("-")
        return VarRef.cap_edge(facility, edge_between(i, j))
    raise ParseError(f"malformed capacity variable {name!r}")


@dataclass(frozen=True)
class LinearConstraint:
    """A named row: sum(coeffs) <sense> rhs, with zero-free coefficients."""

    name: str
    coeffs: Mapping[VarRef, Fraction]
    sense: str  # one of "<=", "=", ">="
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.sense not in ("<=", "=", ">="):
            raise InvalidInstanceError(f"bad constraint sense {self.sense!r}")
        object.__setattr__(
            self, "coeffs", {v: Fraction(c) for v, c in self.coeffs.items() if c != 0}
        )
        object.__setattr__(self, "rhs", Fraction(self.rhs))

    def lhs_value(self, values: Mapping[VarRef, Fraction]) -> Fraction:
        return sum(
            (c * values.get(v, Fraction(0)) for v, c in self.coeffs.items()),
            Fraction(0),
        )

    def satisfied_by(self, values: Mapping[VarRef, Fraction]) -> bool:
        lhs = self.lhs_value(values)
        if self.sense == "<=":
            return lhs <= self.rhs
        if self.sense == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class MipModel:
    """Immutable minimization model over flow and capacity variables."""

    kind: ModelKind
    variables: tuple[VarRef, ...]
    integer: frozenset[VarRef]
    constraints: tuple[LinearConstraint, ...]
    objective: Mapping[VarRef, Fraction]

    def __post_init__(self) -> None:
        known = set(self.variables)
        if len(known) != len(self.variables):
            raise InvalidInstanceError("duplicate variable in model")
        if not self.integer <= known:
            raise InvalidInstanceError("integer flag on unknown variable")
        stray = set(self.objective) - known
        if stray:
            raise InvalidInstanceError(f"objective references unknown variables {sorted(stray, key=lambda v: v.sort_key)!r}")
        for con in self.constraints:
            missing = set(con.coeffs) - known
            if missing:
                raise InvalidInstanceError(f"constraint {con.name!r} references unknown variables")
        object.__setattr__(
            self, "objective", {v: Fraction(c) for v, c in self.objective.items() if c != 0}
        )

    def constraint_names(self) -> set[str]:
        return {c.name for c in self.constraints}

    def with_constraints(self, extra: Iterable[LinearConstraint]) -> MipModel:
        return replace(self, constraints=self.constraints + tuple(extra))

    def with_objective(self, objective: Mapping[VarRef, Fraction]) -> MipModel:
        return replace(self, objective=dict(objective))

    def objective_value(self, values: Mapping[VarRef, Fraction]) -> Fraction:
        return sum(
            (c * values.get(v, Fraction(0)) for v, c in self.objective.items()),
            Fraction(0),
        )

    def violations(self, values: Mapping[VarRef, Fraction]) -> list[str]:
        """Names of constraints the assignment breaks (missing vars read 0)."""
        bad = [c.name for c in self.constraints if not c.satisfied_by(values)]
        bad.extend(
            v.name for v in self.variables if values.get(v, Fraction(0)) < 0
        )
        return bad


@dataclass(frozen=True)
class FixResult:
    """Outcome of substituting fixed values into a model."""

    model: MipModel
    offset: Fraction
    consistent: bool


def pinned_values(model: MipModel, fixed: Mapping[VarRef, Fraction]) -> dict[VarRef, Fraction]:
    """Fixed values as Fractions, checked to be nonnegative and on model variables."""
    stray = set(fixed) - set(model.variables)
    if stray:
        raise PreconditionError(f"fixing unknown variables {sorted(stray, key=lambda v: v.sort_key)!r}")
    pinned = {v: Fraction(val) for v, val in fixed.items()}
    for v, val in pinned.items():
        if val < 0:
            raise PreconditionError(f"negative value for {v.name}")
    return pinned


def fix_variables(model: MipModel, fixed: Mapping[VarRef, Fraction]) -> FixResult:
    """Substitute the given variables out of the model.

    Rows whose variables are all fixed become constant checks; the first
    violated one marks the result inconsistent.  The objective contribution
    of fixed variables is returned as `offset`.  `solve_lp` and `feasible`
    pin values without this rewrite.
    """
    fixed = pinned_values(model, fixed)
    keep = tuple(v for v in model.variables if v not in fixed)
    consistent = True
    rows: list[LinearConstraint] = []
    for con in model.constraints:
        shift = sum(
            (c * fixed[v] for v, c in con.coeffs.items() if v in fixed),
            Fraction(0),
        )
        coeffs = {v: c for v, c in con.coeffs.items() if v not in fixed}
        row = LinearConstraint(con.name, coeffs, con.sense, con.rhs - shift)
        if not coeffs:
            if not row.satisfied_by({}):
                consistent = False
            continue
        rows.append(row)
    offset = sum(
        (c * fixed[v] for v, c in model.objective.items() if v in fixed),
        Fraction(0),
    )
    reduced = MipModel(
        kind=model.kind,
        variables=keep,
        integer=frozenset(v for v in model.integer if v not in fixed),
        constraints=tuple(rows),
        objective={v: c for v, c in model.objective.items() if v not in fixed},
    )
    return FixResult(model=reduced, offset=offset, consistent=consistent)


# -- builders ----------------------------------------------------------------

def _commodity_set(
    inst: Instance, commodities: Iterable[Commodity] | None
) -> tuple[Commodity, ...]:
    universe = inst.network.commodities
    if commodities is None:
        return universe
    chosen = sorted(set(commodities))
    known = set(universe)
    for k in chosen:
        if k not in known:
            raise PreconditionError(f"unknown commodity {k!r}")
        if (k[1], k[0]) not in set(chosen):
            raise PreconditionError(
                f"commodity subset must be closed under reversal: missing {(k[1], k[0])!r}"
            )
    uncovered = [k for k, t in inst.traffic.items() if t > 0 and k not in set(chosen)]
    if uncovered:
        raise PreconditionError(f"commodity subset drops positive traffic {uncovered!r}")
    return tuple(chosen)


def _balance_rows(
    inst: Instance, commodities: tuple[Commodity, ...]
) -> list[LinearConstraint]:
    # Row sense: outflow - inflow = +t at the origin, -t at the destination.
    rows = []
    net = inst.network
    for o, d in commodities:
        t = inst.traffic.get(o, d)
        for node in sorted(net.nodes):
            coeffs: dict[VarRef, Fraction] = {}
            for a in net.out_arcs(node):
                coeffs[VarRef.flow((o, d), a)] = Fraction(1)
            for a in net.in_arcs(node):
                coeffs[VarRef.flow((o, d), a)] = Fraction(-1)
            rhs = t if node == o else (-t if node == d else Fraction(0))
            rows.append(LinearConstraint(f"bal[{o}>{d}|{node}]", coeffs, "=", rhs))
    return rows


def build(
    inst: Instance,
    kind: ModelKind,
    *,
    objective: Mapping[VarRef, Fraction] | None = None,
    commodities: Iterable[Commodity] | None = None,
) -> MipModel:
    """The model of one capacity reading; the only place a kind picks a model.

    Every reading bounds the flow on each arc by the capacity installed on
    the arc's key plus the existing capacity there.  The directed reading
    keys capacity by arc; the bidirected and undirected readings key it by
    edge, and the undirected one merges an edge's two arc rows into one row
    over both directions.  Without `objective`, the cost is the total
    installed capacity.
    """
    directed = kind is ModelKind.DIRECTED
    if inst.existing_arc and not directed:
        raise PreconditionError(
            f"{kind.value} model takes edge-keyed existing capacities; "
            f"arc-keyed entries {sorted(inst.existing_arc)!r} supplied"
        )
    ks = _commodity_set(inst, commodities)
    if directed:
        keys, cap, existing = inst.network.arcs, VarRef.cap_arc, inst.arc_capacity
    else:
        keys, cap, existing = inst.network.edges, VarRef.cap_edge, inst.edge_capacity
    sizes = [(m, Fraction(inst.facilities.capacity(m))) for m in inst.facilities.indices]
    rows = _balance_rows(inst, ks)
    for key in keys:
        arcs = (key,) if directed else (key, key[::-1])
        if kind is ModelKind.UNDIRECTED:
            groups = [("{}-{}".format(*key), arcs)]
        else:
            groups = [("{}>{}".format(*a), (a,)) for a in arcs]
        for label, group in groups:
            coeffs = {VarRef.flow(k, a): Fraction(1) for k in ks for a in group}
            coeffs.update((cap(m, key), -size) for m, size in sizes)
            rows.append(LinearConstraint(f"cap[{label}]", coeffs, "<=", existing(key)))
    # Facility-major, which is also the default objective's term order.
    unit_cost = {cap(m, key): size for m, size in sizes for key in keys}
    flows = [VarRef.flow(k, a) for k in ks for a in inst.network.arcs]
    return MipModel(
        kind=kind,
        variables=tuple(sorted(flows + list(unit_cost), key=lambda v: v.sort_key)),
        integer=frozenset(unit_cost),
        constraints=tuple(rows),
        objective=dict(unit_cost if objective is None else objective),
    )


def build_undirected(
    inst: Instance,
    objective: Mapping[VarRef, Fraction] | None = None,
    commodities: Iterable[Commodity] | None = None,
) -> MipModel:
    """One capacity row per edge over the flows of both directions."""
    return build(inst, ModelKind.UNDIRECTED, objective=objective, commodities=commodities)


def build_bidirected(
    inst: Instance,
    objective: Mapping[VarRef, Fraction] | None = None,
    commodities: Iterable[Commodity] | None = None,
) -> MipModel:
    """One capacity row per arc, both of an edge's rows on its capacity."""
    return build(inst, ModelKind.BIDIRECTED, objective=objective, commodities=commodities)


def build_directed(
    inst: Instance,
    objective: Mapping[VarRef, Fraction] | None = None,
    commodities: Iterable[Commodity] | None = None,
) -> MipModel:
    """One capacity row per arc on the arc's own capacity; arc-keyed
    existing capacities override the edge-keyed ones."""
    return build(inst, ModelKind.DIRECTED, objective=objective, commodities=commodities)


def add_flow_symmetry(model: MipModel) -> MipModel:
    """Append x[(u,v),(i,j)] = x[(v,u),(j,i)] rows, once per unordered pair.

    Already-present rows are not duplicated, so the operation is idempotent.
    """
    flows = [v for v in model.variables if v.kind == "flow"]
    present = model.constraint_names()
    rows = []
    for v in flows:
        k, a = v.commodity, v.arc
        mirror = ((k[1], k[0]), (a[1], a[0]))
        if (k, a) > mirror:
            continue  # the mirrored variable emits this row
        name = f"sym[{k[0]}>{k[1]}|{a[0]}>{a[1]}]"
        if name in present:
            continue
        rows.append(
            LinearConstraint(
                name,
                {v: Fraction(1), VarRef.flow(*mirror): Fraction(-1)},
                "=",
                Fraction(0),
            )
        )
    return model.with_constraints(rows)


def equalize_directed(model: MipModel) -> MipModel:
    """Append y[m|(i,j)] = y[m|(j,i)] rows tying the two orientations."""
    if model.kind is not ModelKind.DIRECTED:
        raise PreconditionError(f"equalize_directed needs a directed model, got {model.kind.value}")
    present = model.constraint_names()
    rows = []
    for v in model.variables:
        if v.kind != "capacity" or v.arc is None:
            continue
        i, j = v.arc
        if i > j:
            continue
        name = f"eq[{v.facility}|{i}-{j}]"
        if name in present:
            continue
        rows.append(
            LinearConstraint(
                name,
                {v: Fraction(1), VarRef.cap_arc(v.facility, (j, i)): Fraction(-1)},
                "=",
                Fraction(0),
            )
        )
    return model.with_constraints(rows)


def is_arc_symmetric(cost: Mapping[VarRef, Fraction]) -> bool:
    """True when flow coefficients depend only on (edge, unordered commodity pair).

    For every edge {i,j} and commodity pair {(u,v),(v,u)} the four flow
    coefficients a[(u,v),(i,j)], a[(u,v),(j,i)], a[(v,u),(i,j)], a[(v,u),(j,i)]
    must agree; absent entries read as zero.  Capacity coefficients are free.
    """
    seen: set[tuple[Edge, Edge]] = set()
    for v in cost:
        if v.kind != "flow":
            continue
        e = edge_between(*v.arc)
        pair = edge_between(*v.commodity)
        if (e, pair) in seen:
            continue
        seen.add((e, pair))
        u1, u2 = pair
        values = {
            Fraction(cost.get(VarRef.flow(k, a), Fraction(0)))
            for k in ((u1, u2), (u2, u1))
            for a in (e, (e[1], e[0]))
        }
        if len(values) > 1:
            return False
    return True


# -- LP text format ----------------------------------------------------------

def render_model(model: MipModel) -> str:
    """Serialize a model to LP-style text with exact rational coefficients."""
    order = {v: i for i, v in enumerate(model.variables)}

    def terms(coeffs: Mapping[VarRef, Fraction]) -> str:
        parts = []
        for v in sorted(coeffs, key=lambda v: order[v]):
            c = coeffs[v]
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {render_rational(abs(c))} {v.name}")
        return " ".join(parts) if parts else "+ 0"

    lines = [f"\\ kind: {model.kind.value}", "minimize", f"  {terms(model.objective)}"]
    lines.append("subject to")
    for con in model.constraints:
        lines.append(f"  {con.name}: {terms(con.coeffs)} {con.sense} {render_rational(con.rhs)}")
    lines.append("bounds")
    for v in model.variables:
        lines.append(f"  {v.name} >= 0")
    lines.append("integers")
    for v in model.variables:
        if v in model.integer:
            lines.append(f"  {v.name}")
    lines.append("end")
    return "\n".join(lines) + "\n"


_TERM = re.compile(r"([+-])\s+(\S+)\s+(\S+)")


def _parse_terms(text: str, where: str) -> dict[VarRef, Fraction]:
    text = text.strip()
    if text == "+ 0":
        return {}
    coeffs: dict[VarRef, Fraction] = {}
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ParseError(f"malformed expression in {where}: {text!r}")
        pos = m.end() + 1 if m.end() < len(text) else m.end()
        sign, coef, name = m.groups()
        value = parse_rational(coef)
        if sign == "-":
            value = -value
        ref = parse_varref(name)
        if ref in coeffs:
            raise ParseError(f"variable {name} repeated in {where}")
        coeffs[ref] = value
    if pos != len(text):
        raise ParseError(f"malformed expression in {where}: {text!r}")
    return coeffs


def parse_model(text: str) -> MipModel:
    """Inverse of render_model."""
    kind: ModelKind | None = None
    section = None
    objective: dict[VarRef, Fraction] = {}
    constraints: list[LinearConstraint] = []
    variables: list[VarRef] = []
    integer: set[VarRef] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            comment = line[1:].strip()
            if comment.startswith("kind:"):
                label = comment.partition(":")[2].strip()
                try:
                    kind = ModelKind(label)
                except ValueError as exc:
                    raise ParseError(f"unknown model kind {label!r}") from exc
            continue
        if line in ("minimize", "subject to", "bounds", "integers", "end"):
            section = line
            continue
        if section == "minimize":
            objective = _parse_terms(line, "objective")
        elif section == "subject to":
            name, sep, rest = line.partition(":")
            if not sep:
                raise ParseError(f"constraint line without name: {line!r}")
            m = re.match(r"^(.*?)\s*(<=|>=|=)\s*(\S+)$", rest.strip())
            if not m:
                raise ParseError(f"malformed constraint: {line!r}")
            expr, sense, rhs = m.groups()
            constraints.append(
                LinearConstraint(name.strip(), _parse_terms(expr, name), sense, parse_rational(rhs))
            )
        elif section == "bounds":
            m = re.match(r"^(\S+)\s*>=\s*0$", line)
            if not m:
                raise ParseError(f"unsupported bound line: {line!r}")
            variables.append(parse_varref(m.group(1)))
        elif section == "integers":
            integer.add(parse_varref(line))
        else:
            raise ParseError(f"content outside any section: {line!r}")
    if kind is None:
        raise ParseError("missing '\\ kind:' header")
    if section != "end":
        raise ParseError("missing 'end' marker")
    return MipModel(
        kind=kind,
        variables=tuple(variables),
        integer=frozenset(integer),
        constraints=tuple(constraints),
        objective=objective,
    )
