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

Values are checked once, where they enter: a row or an objective takes a
`Fraction` as it is and reads anything else through `parse_rational`, the
one checker, and a model derived by `with_constraints` or `with_objective`
checks only what it adds.  A build makes one `VarRef` per variable, and
every row that names the variable holds that object, so a lookup keyed by
the model's variables hits each row's keys by identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    MAX_DIGITS,
    Arc,
    Commodity,
    Edge,
    Instance,
    Network,
    TrafficMatrix,
    edge_between,
    parse_rational,
    read_pair,
    render_rational,
)
from .errors import InvalidInstanceError, ParseError, PreconditionError


_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _exact(values: Mapping[VarRef, Fraction]) -> dict[VarRef, Fraction]:
    """The nonzero entries of `values`, each a Fraction: one is taken as it
    is, anything else is read by `parse_rational`, which refuses bools,
    floats and malformed text."""
    out = {}
    for v, c in values.items():
        if type(c) is not Fraction:
            c = parse_rational(c)
        if c:
            out[v] = c
    return out


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
        return VarRef.flow(read_pair(first, ">")[1], read_pair(second, ">")[1])
    if not first.isdecimal() or len(first) > MAX_DIGITS:
        raise ParseError(f"malformed capacity variable {name!r}")
    sep, pair = read_pair(second)
    return (VarRef.cap_arc if sep == ">" else VarRef.cap_edge)(int(first), pair)


def _render_terms(terms: Iterable[tuple[VarRef, Fraction]]) -> str:
    """`± c name` per term, space-separated; empty when there are no terms."""
    return " ".join(f"{'-' if c < 0 else '+'} {render_rational(abs(c))} {v.name}" for v, c in terms)


def holds(lhs: int | Fraction, sense: str, rhs: int | Fraction) -> bool:
    """Whether `lhs sense rhs` holds: the one statement of the three senses,
    read by every check of a row, in Fractions or in integers."""
    return lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs


@dataclass(frozen=True)
class LinearConstraint:
    """A named row: sum(coeffs) <sense> rhs, with zero-free coefficients.

    Model rows and cut-set inequalities alike; a cut is a `>=` row that a
    model can take with `with_constraints`.  The coefficients and the rhs
    are checked here, once: a Fraction is kept as it is, and any other
    value is read by `parse_rational`.
    """

    name: str
    coeffs: Mapping[VarRef, Fraction]
    sense: str  # one of "<=", "=", ">="
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.sense not in ("<=", "=", ">="):
            raise InvalidInstanceError(f"bad constraint sense {self.sense!r}")
        object.__setattr__(self, "coeffs", _exact(self.coeffs))
        if type(self.rhs) is not Fraction:
            object.__setattr__(self, "rhs", parse_rational(self.rhs))

    def __hash__(self) -> int:  # consistent with the generated __eq__, whatever the key order
        return hash((self.name, frozenset(self.coeffs.items()), self.sense, self.rhs))

    def lhs_value(self, values: Mapping[VarRef, Fraction]) -> Fraction:
        return sum(
            (c * values.get(v, Fraction(0)) for v, c in self.coeffs.items()),
            Fraction(0),
        )

    def satisfied_by(self, values: Mapping[VarRef, Fraction]) -> bool:
        return holds(self.lhs_value(values), self.sense, self.rhs)

    def render(self) -> str:
        """`lhs sense rhs`, terms in `VarRef.sort_key` order, no leading `+ `."""
        body = _render_terms(sorted(self.coeffs.items(), key=lambda it: it[0].sort_key))
        return f"{body.removeprefix('+ ') or '0'} {self.sense} {render_rational(self.rhs)}"


@dataclass(frozen=True)
class MipModel:
    """Immutable minimization model over flow and capacity variables.

    The constructor checks every member: distinct variables, integer marks
    and objective and row terms on them, objective values as
    `LinearConstraint` checks its own.  A model derived by
    `with_constraints` or `with_objective` shares the rest and checks only
    the rows or the objective it adds.
    """

    kind: ModelKind
    variables: tuple[VarRef, ...]
    integer: frozenset[VarRef]
    constraints: tuple[LinearConstraint, ...]
    objective: Mapping[VarRef, Fraction]

    def __post_init__(self) -> None:
        known = frozenset(self.variables)
        if len(known) != len(self.variables):
            raise InvalidInstanceError("duplicate variable in model")
        if not self.integer <= known:
            raise InvalidInstanceError("integer flag on unknown variable")
        object.__setattr__(self, "_known", known)  # kept, so a derived model checks against it
        self._check_objective(self.objective)
        self._check_rows(self.constraints)
        object.__setattr__(self, "objective", _exact(self.objective))

    def _check_objective(self, objective: Mapping[VarRef, Fraction]) -> None:
        stray = set(objective) - self._known
        if stray:
            raise InvalidInstanceError(f"objective references unknown variables {sorted(stray, key=lambda v: v.sort_key)!r}")

    def _check_rows(self, rows: Iterable[LinearConstraint]) -> None:
        for con in rows:
            if not self._known.issuperset(con.coeffs):
                raise InvalidInstanceError(f"constraint {con.name!r} references unknown variables")

    def _derived(self, **changes) -> MipModel:
        """This model with `changes`, which the caller has checked."""
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__, **changes)
        return model

    def with_constraints(self, extra: Iterable[LinearConstraint]) -> MipModel:
        extra = tuple(extra)
        self._check_rows(extra)
        return self._derived(constraints=self.constraints + extra)

    def with_objective(self, objective: Mapping[VarRef, Fraction]) -> MipModel:
        self._check_objective(objective)
        return self._derived(objective=_exact(objective))

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
    stray = set(fixed) - model._known
    if stray:
        raise PreconditionError(f"fixing unknown variables {sorted(stray, key=lambda v: v.sort_key)!r}")
    pinned = {v: parse_rational(val) for v, val in fixed.items()}
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
    picked = set(commodities)
    chosen = sorted(picked)
    known = set(universe)
    for k in chosen:
        if k not in known:
            raise PreconditionError(f"unknown commodity {k!r}")
        if (k[1], k[0]) not in picked:
            raise PreconditionError(
                f"commodity subset must be closed under reversal: missing {(k[1], k[0])!r}"
            )
    uncovered = [k for k, t in inst.traffic.items() if t > 0 and k not in picked]
    if uncovered:
        raise PreconditionError(f"commodity subset drops positive traffic {uncovered!r}")
    return tuple(chosen)


def _flow_vars(network: Network, commodities: Iterable[Commodity]) -> dict[Commodity, dict[Arc, VarRef]]:
    """One VarRef per flow variable, by commodity and then by arc."""
    return {k: {a: VarRef.flow(k, a) for a in network.arcs} for k in commodities}


def balance_rows(
    network: Network, traffic: TrafficMatrix, commodities: Iterable[Commodity]
) -> list[LinearConstraint]:
    """Flow balance, stated once for every model and transform: per commodity
    and node, `bal[o>d|n]`: outflow - inflow = +t at the origin, -t at the
    destination and 0 elsewhere, over the network's arcs.  The rows share
    one VarRef per flow variable."""
    return _balance_rows(network, traffic, _flow_vars(network, commodities))


def _balance_rows(
    network: Network, traffic: TrafficMatrix, flows: Mapping[Commodity, Mapping[Arc, VarRef]]
) -> list[LinearConstraint]:
    """`balance_rows` over the given flow variables (`_flow_vars`)."""
    rows = []
    nodes = sorted(network.nodes)
    for (o, d), x in flows.items():
        t = traffic.get(o, d)
        for node in nodes:
            coeffs = {x[a]: _ONE for a in network.out_arcs(node)}
            coeffs.update((x[a], _MINUS_ONE) for a in network.in_arcs(node))
            rhs = t if node == o else (-t if node == d else _ZERO)
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
    installed capacity.  The build makes one VarRef per variable, and
    every row that names the variable holds that object.
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
    x = _flow_vars(inst.network, ks)
    y = {(m, key): cap(m, key) for m, _ in sizes for key in keys}
    rows = _balance_rows(inst.network, inst.traffic, x)
    negated = [(m, -size) for m, size in sizes]
    for key in keys:
        arcs = (key,) if directed else (key, key[::-1])
        if kind is ModelKind.UNDIRECTED:
            groups = [("{}-{}".format(*key), arcs)]
        else:
            groups = [("{}>{}".format(*a), (a,)) for a in arcs]
        for label, group in groups:
            coeffs = {x[k][a]: _ONE for k in ks for a in group}
            coeffs.update((y[m, key], c) for m, c in negated)
            rows.append(LinearConstraint(f"cap[{label}]", coeffs, "<=", existing(key)))
    # Facility-major, which is also the default objective's term order.
    unit_cost = {y[m, key]: size for m, size in sizes for key in keys}
    flows = [v for on_k in x.values() for v in on_k.values()]
    return MipModel(
        kind=kind,
        variables=tuple(sorted(flows + list(unit_cost), key=lambda v: v.sort_key)),
        integer=frozenset(unit_cost),
        constraints=tuple(rows),
        objective=dict(unit_cost if objective is None else objective),
    )


def build_undirected(inst: Instance, objective: Mapping[VarRef, Fraction] | None = None) -> MipModel:
    """One capacity row per edge over the flows of both directions."""
    return build(inst, ModelKind.UNDIRECTED, objective=objective)


def build_bidirected(inst: Instance, objective: Mapping[VarRef, Fraction] | None = None) -> MipModel:
    """One capacity row per arc, both of an edge's rows on its capacity."""
    return build(inst, ModelKind.BIDIRECTED, objective=objective)


def build_directed(inst: Instance, objective: Mapping[VarRef, Fraction] | None = None) -> MipModel:
    """One capacity row per arc on the arc's own capacity; arc-keyed
    existing capacities override the edge-keyed ones."""
    return build(inst, ModelKind.DIRECTED, objective=objective)


def _with_ties(model: MipModel, ties: Iterable[tuple[str, VarRef, VarRef]]) -> MipModel:
    """Append a `name: v - w = 0` row for each tie whose name the model lacks."""
    present = {c.name for c in model.constraints}
    return model.with_constraints(
        LinearConstraint(name, {v: _ONE, w: _MINUS_ONE}, "=", _ZERO)
        for name, v, w in ties
        if name not in present
    )


def add_flow_symmetry(model: MipModel) -> MipModel:
    """Append x[(u,v),(i,j)] = x[(v,u),(j,i)] rows, once per unordered pair.

    Already-present rows are not duplicated, so the operation is idempotent.
    Each row holds the model's own VarRefs; a mirror the model lacks makes
    the row name an unknown variable, which `with_constraints` refuses.
    """
    flows = {(v.commodity, v.arc): v for v in model.variables if v.kind == "flow"}
    ties = []
    for ((o, d), (i, j)), v in flows.items():
        mirror = (d, o), (j, i)
        if ((o, d), (i, j)) <= mirror:  # else the mirrored variable ties this one
            ties.append((f"sym[{o}>{d}|{i}>{j}]", v, flows.get(mirror) or VarRef.flow(*mirror)))
    return _with_ties(model, ties)


def equalize_directed(model: MipModel) -> MipModel:
    """Append y[m|(i,j)] = y[m|(j,i)] rows tying the two orientations."""
    if model.kind is not ModelKind.DIRECTED:
        raise PreconditionError(f"equalize_directed needs a directed model, got {model.kind.value}")
    caps = {(v.facility, v.arc): v for v in model.variables if v.kind == "capacity" and v.arc is not None}
    ties = [
        (f"eq[{m}|{i}-{j}]", v, caps.get((m, (j, i))) or VarRef.cap_arc(m, (j, i)))
        for (m, (i, j)), v in caps.items()
        if i <= j
    ]
    return _with_ties(model, ties)


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
        return _render_terms(sorted(coeffs.items(), key=lambda it: order[it[0]])) or "+ 0"

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
