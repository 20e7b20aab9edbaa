"""Exact rational LP and MIP solving.

Two-phase primal simplex with Bland's rule for both the entering and
leaving choices, so no cycling and no tolerances.  The tableau is
integer-preserving (Edmonds 1967; Bareiss 1968): every cell is an integer
over one common denominator, the absolute basis determinant, each pivot
divides exactly, and every comparison is an integer sign test or a
cross-multiplication.  The LP enters scaled uniformly: free-column
coefficients and rhs by one lcm, the cost by its own, slacks and
artificials left at +-1.  That is a positive change of variables, so the
pivots are the rational tableau's.  Scaling row by row would re-weight the
phase-1 artificials and so change the pivots.  In the simplex, `Fraction`
appears only where data is scaled in and values and duals are read out.
Pinned variables move to the right-hand side of the equality form; no
reduced model is built.  Phase 1, the drive-out of leftover artificials
and phase 2 share one pivot routine.  An Optimal answer carries the duals
read off its final reduced-cost row, and `optimality_certificate` checks
them against the model rather than re-deriving them.  Integer models are
solved by depth-first branch and bound on the first fractional integer
variable in model order, pruning on exact bound comparisons.  Sized for
desk-scale models (a few hundred variables), which is all this package
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .core import Instance
from .errors import MissingBoundError, NetcapError, PreconditionError
from .formulate import (
    LinearConstraint,
    MipModel,
    ModelKind,
    VarRef,
    add_flow_symmetry,
    build,
    pinned_values,
)

# Not called here.  The benchmark's tracer rebinds these names on this module
# (perfbench/tracing.py PATCHES), so they must stay importable from it.
from .formulate import build_bidirected, build_directed, build_undirected, fix_variables  # noqa: F401

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NOTHING_FIXED: Mapping[VarRef, Fraction] = MappingProxyType({})


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    status: SolveStatus
    values: Mapping[VarRef, Fraction]
    objective: Fraction | None
    # One dual per row of the deterministic standardization; see
    # optimality_certificate.
    duals: tuple[Fraction, ...] = ()
    fixed: Mapping[VarRef, Fraction] = field(default_factory=dict)  # pinned in that standardization


@dataclass(frozen=True)
class MipResult:
    status: SolveStatus
    values: Mapping[VarRef, Fraction]
    objective: Fraction | None
    nodes: int = 0


@dataclass(frozen=True)
class _Standardized:
    """Equality form with nonnegative rhs: A z = b over free-variable+slack columns."""

    columns: tuple[VarRef, ...]
    n_cols: int
    cost: tuple[Fraction, ...]  # objective over free columns, then zero per slack
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]  # sparse (col, coef)
    rhs: tuple[Fraction, ...]
    needs_artificial: tuple[bool, ...]
    slack_of_row: tuple[int | None, ...]
    inconsistent: bool  # a constant row was violated


def _standardize(model: MipModel, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED) -> _Standardized:
    """Pinned variables' terms move to the right-hand side, so a row left
    with no free variable is a constant check; free columns keep model order."""
    pinned = pinned_values(model, fixed)
    columns = tuple(v for v in model.variables if v not in pinned)
    index = {v: j for j, v in enumerate(columns)}
    n = len(columns)
    cost = [model.objective.get(v, _ZERO) for v in columns]
    rows: list[tuple[tuple[int, Fraction], ...]] = []
    rhs: list[Fraction] = []
    needs_art: list[bool] = []
    slack_of_row: list[int | None] = []
    next_col = n
    for con in model.constraints:
        coeffs = sorted((index[v], c) for v, c in con.coeffs.items() if v not in pinned)
        b = con.rhs - sum((c * pinned[v] for v, c in con.coeffs.items() if v in pinned), _ZERO)
        sense = con.sense
        if not coeffs:
            ok = (b >= 0) if sense == "<=" else (b <= 0) if sense == ">=" else (b == 0)
            if not ok:
                return _Standardized(columns, n, tuple(cost), (), (), (), (), True)
            continue
        if b < 0:  # normalize to nonnegative rhs
            coeffs = [(j, -c) for j, c in coeffs]
            b = -b
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        if sense == "=":
            slack_of_row.append(None)
        else:
            coeffs.append((next_col, _ONE if sense == "<=" else -_ONE))
            slack_of_row.append(next_col)
            next_col += 1
        needs_art.append(sense != "<=")
        rows.append(tuple(coeffs))
        rhs.append(b)
    cost += [_ZERO] * (next_col - n)
    return _Standardized(
        columns, next_col, tuple(cost), tuple(rows), tuple(rhs), tuple(needs_art), tuple(slack_of_row), False
    )


class _Tableau:
    """Each cell of `rows` (rhs last) and of the reduced-cost rows `reds` is
    `d`, the absolute basis determinant, times its value.  Row r started with
    identity column `start[r]`; the rows were scaled in by `scale`, the cost
    by `cost_scale`."""

    __slots__ = ("rows", "reds", "basis", "start", "scale", "cost_scale", "d")

    def __init__(
        self, rows: list[list[int]], reds: list[list[int]], start: list[int], scale: int, cost_scale: int
    ):
        self.rows, self.reds, self.basis, self.start = rows, reds, list(start), start
        self.scale, self.cost_scale, self.d = scale, cost_scale, 1  # the starting basis is the identity


def _pivot(t: _Tableau, leave: int, enter: int) -> None:
    """Bareiss pivot of column `enter` into the basis at row `leave`.

    Each cell becomes (p*cell - f*prow[j]) // d, with p the pivot and f the
    row's cell in column `enter`; the division is exact, and p is the new d.
    A negative pivot (the drive-out can meet one) negates its row first, so
    d stays positive.  A row with f = 0 only scales by p/d, a no-op when p = d.
    """
    prow = t.rows[leave]
    p = prow[enter]
    if p < 0:
        t.rows[leave] = prow = [-c for c in prow]
        p = -p
    d = t.d
    support = [j for j, c in enumerate(prow) if c]
    for rows in (t.rows, t.reds):
        for i, row in enumerate(rows):
            if row is prow:
                continue
            f = row[enter]
            # Off the pivot row's support the cell is p*a // d; zeros stay zero.
            new = row if p == d else [a and p * a // d for a in row]
            if f:
                for j in support:
                    new[j] = (p * row[j] - f * prow[j]) // d
            rows[i] = new
    t.d = p
    t.basis[leave] = enter


def _bland_simplex(t: _Tableau, width: int) -> str:
    """Run simplex to completion on reduced-cost row `t.reds[0]` (minimization).

    Columns at index >= width are blocked from entering.  Returns "optimal"
    or "unbounded".  Later rows of `t.reds` are carried along.  Only signs
    and cross-multiplied ratios are compared, as every cell shares `t.d`.
    """
    while True:
        red = t.reds[0]
        enter = next((j for j in range(width) if red[j] < 0), -1)
        if enter < 0:
            return "optimal"
        leave, best_b, best_a = -1, 0, 1
        for i, row in enumerate(t.rows):
            a = row[enter]
            if a > 0:
                mine, best = row[-1] * best_a, best_b * a  # row[-1]/a against best_b/best_a
                if leave < 0 or mine < best or (mine == best and t.basis[i] < t.basis[leave]):
                    leave, best_b, best_a = i, row[-1], a
        if leave < 0:
            return "unbounded"
        _pivot(t, leave, enter)


def _phase1(std: _Standardized) -> _Tableau | None:
    """Phase 1 from the identity basis of slacks and artificials.

    Returns the tableau, scaled in uniformly, whose one reduced-cost row is
    phase 2's for the final basis, or None when infeasible.  It keeps the
    artificial columns, so B^-1 stays readable there.  Each artificial costs
    one in phase 1 and starts basic in its row, so the phase-1 row starts as
    minus the sum of the artificial rows; the starting basis costs zero in
    phase 2, so the phase-2 row starts as the cost vector.
    """
    if std.inconsistent:
        return None
    n_free = len(std.columns)
    total = std.n_cols + sum(std.needs_artificial)
    scale = lcm(*{c.denominator for coeffs in std.rows for _, c in coeffs}, *{b.denominator for b in std.rhs})
    cost_scale = lcm(*{c.denominator for c in std.cost})
    rows: list[list[int]] = []
    start: list[int] = []
    art_col = std.n_cols
    red1 = [0] * (total + 1)  # the last cell holds minus the artificials' total
    for coeffs, b, needs_art, slack in zip(std.rows, std.rhs, std.needs_artificial, std.slack_of_row):
        row = [0] * (total + 1)
        for j, c in coeffs:
            row[j] = c.numerator * (scale // c.denominator) if j < n_free else int(c)
        row[-1] = b.numerator * (scale // b.denominator)
        if needs_art:
            row[art_col] = 1
            start.append(art_col)
            art_col += 1
            for j, _ in coeffs:
                red1[j] -= row[j]
            red1[-1] -= row[-1]
        else:
            start.append(slack)
        rows.append(row)
    red2 = [c.numerator * (cost_scale // c.denominator) for c in std.cost] + [0] * (total + 1 - std.n_cols)
    t = _Tableau(rows, [red1, red2], start, scale, cost_scale)
    _bland_simplex(t, total)  # bounded below by 0, never unbounded
    return None if t.reds.pop(0)[-1] else t  # phase 1's row retires; its last cell is 0 iff feasible


def _solve_standardized(std: _Standardized) -> tuple[SolveStatus, list[Fraction], list[Fraction]]:
    """Two-phase simplex.  Returns (status, values of the free columns, duals).

    The duals carry one entry per standardized row: u[r] = -red[start[r]],
    read off the final phase-2 reduced-cost row at row r's identity column,
    whose phase-2 cost is zero, and scaled back to the rational model.
    """
    t = _phase1(std)
    if t is None:
        return SolveStatus.INFEASIBLE, [], []
    n = std.n_cols
    # Drive artificials still basic (at level zero) out of the basis.  A row
    # with no real column left is redundant and is dropped; its artificial
    # costs zero, so the reduced-cost row, and the duals, are unchanged.
    drop: list[int] = []
    for i in range(len(t.rows)):
        if t.basis[i] < n:
            continue
        enter = next((j for j in range(n) if t.rows[i][j]), -1)
        if enter < 0:
            drop.append(i)
        else:
            _pivot(t, i, enter)
    for i in reversed(drop):
        del t.rows[i]
        del t.basis[i]
    if _bland_simplex(t, n) == "unbounded":
        return SolveStatus.UNBOUNDED, [], []
    values = [_ZERO] * len(std.columns)
    for row, b in zip(t.rows, t.basis):
        if b < len(values):
            values[b] = Fraction(row[-1], t.d)
    red = t.reds[0]
    return SolveStatus.OPTIMAL, values, [Fraction(-red[j] * t.scale, t.d * t.cost_scale) for j in t.start]


def solve_lp(
    model: MipModel, *, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED, ignore_integrality: bool = False
) -> LpSolution:
    """Solve the model as a pure LP, exactly, with the `fixed` variables pinned.

    Integer variables left free are rejected unless `ignore_integrality` is
    set, in which case the continuous relaxation is solved.  Optimal points
    include the pinned values, count them in the objective, and are
    re-checked against every original constraint before being returned.
    """
    pinned = pinned_values(model, fixed)
    if not ignore_integrality and any(v not in pinned for v in model.integer):
        raise PreconditionError(
            "model has integer variables; use solve_mip or pass ignore_integrality=True"
        )
    std = _standardize(model, pinned)
    status, values, duals = _solve_standardized(std)
    if status is not SolveStatus.OPTIMAL:
        return LpSolution(status, {}, None)
    point = dict(zip(std.columns, values)) | pinned
    assignment = {v: point[v] for v in model.variables if point[v] != 0}
    bad = model.violations(assignment)
    if bad:
        raise NetcapError(f"solver returned an infeasible point; broken rows {bad!r}")
    objective = model.objective_value(assignment)
    return LpSolution(SolveStatus.OPTIMAL, assignment, objective, tuple(duals), pinned)


def feasible(model: MipModel, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED) -> bool:
    """Phase-1 feasibility of the continuous relaxation, `fixed` variables pinned."""
    return _phase1(_standardize(model, fixed)) is not None


def optimality_certificate(model: MipModel, solution: LpSolution) -> bool:
    """Check the duals an Optimal LP solution carries; no linear solve.

    Rebuilds the standardization A z = b, z >= 0 with the solution's `fixed`
    values pinned and checks that the duals u price every column
    nonnegatively (c_j - u A_j >= 0) and that u b plus the pinned cost equals
    the reported objective, which by weak duality no feasible point beats.
    The point itself must hold the pinned values, satisfy every row and
    attain that objective.  Exact throughout.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise PreconditionError("certificate requires an Optimal solution")
    std = _standardize(model, solution.fixed)
    u = solution.duals
    if std.inconsistent or len(u) != len(std.rows):
        return False
    reduced = list(std.cost)
    for ur, coeffs in zip(u, std.rows):
        if ur:
            for j, a in coeffs:
                reduced[j] -= ur * a
    if any(r < 0 for r in reduced):
        return False
    dual_value = sum((ur * b for ur, b in zip(u, std.rhs)), model.objective_value(solution.fixed))
    return (
        all(solution.values.get(v, _ZERO) == val for v, val in solution.fixed.items())
        and dual_value == solution.objective == model.objective_value(solution.values)
        and not model.violations(solution.values)
    )


def _bound_rows(model: MipModel, bounds: int | Mapping[VarRef, int]) -> list[LinearConstraint]:
    rows = []
    for v in model.variables:
        if v not in model.integer:
            continue
        if isinstance(bounds, int):
            ub = bounds
        else:
            if v not in bounds:
                raise MissingBoundError(f"no upper bound for integer variable {v.name}")
            ub = bounds[v]
        if not isinstance(ub, int) or ub < 0:
            raise MissingBoundError(f"bound for {v.name} must be a nonnegative integer: {ub!r}")
        rows.append(LinearConstraint(f"ub[{v.name}]", {v: _ONE}, "<=", Fraction(ub)))
    return rows


def solve_mip(model: MipModel, bounds: int | Mapping[VarRef, int]) -> MipResult:
    """Exact branch and bound over the model's integer variables.

    Every integer variable must come with a finite upper bound (a uniform
    int or a per-variable map); lower bounds are zero throughout.  Branching
    picks the first fractional integer variable in model order and explores
    the floor branch first; nodes are pruned when their LP bound cannot beat
    the incumbent, all by exact comparison.
    """
    if not model.integer:
        sol = solve_lp(model)
        return MipResult(sol.status, sol.values, sol.objective, nodes=1)
    base = model.with_constraints(_bound_rows(model, bounds))
    int_order = [v for v in base.variables if v in base.integer]
    incumbent: Mapping[VarRef, Fraction] | None = None
    incumbent_obj: Fraction | None = None
    nodes = 0
    stack: list[tuple[LinearConstraint, ...]] = [()]
    while stack:
        extra = stack.pop()
        nodes += 1
        sol = solve_lp(base.with_constraints(extra), ignore_integrality=True)
        if sol.status is SolveStatus.INFEASIBLE:
            continue
        if sol.status is SolveStatus.UNBOUNDED:
            # Integer variables are boxed, so the ray lives in continuous
            # variables and survives any further branching: the MIP is
            # unbounded iff it is feasible at all.
            probe = solve_mip(model.with_objective({}), bounds)
            if probe.status is SolveStatus.OPTIMAL:
                return MipResult(SolveStatus.UNBOUNDED, {}, None, nodes=nodes)
            return MipResult(SolveStatus.INFEASIBLE, {}, None, nodes=nodes)
        if incumbent_obj is not None and sol.objective >= incumbent_obj:
            continue
        frac = next(
            (v for v in int_order if sol.values.get(v, _ZERO).denominator != 1), None
        )
        if frac is None:
            incumbent = sol.values
            incumbent_obj = sol.objective
            continue
        value = sol.values.get(frac, _ZERO)
        floor = value.numerator // value.denominator
        up = LinearConstraint(f"br>=[{frac.name}]", {frac: _ONE}, ">=", Fraction(floor + 1))
        down = LinearConstraint(f"br<=[{frac.name}]", {frac: _ONE}, "<=", Fraction(floor))
        stack.append(extra + (up,))
        stack.append(extra + (down,))
    if incumbent is None:
        return MipResult(SolveStatus.INFEASIBLE, {}, None, nodes=nodes)
    return MipResult(SolveStatus.OPTIMAL, incumbent, incumbent_obj, nodes=nodes)


# -- feasibility of capacity vectors -----------------------------------------

def _as_cap_refs(
    model: MipModel, capacities: Mapping[VarRef, int | Fraction]
) -> Mapping[VarRef, int | Fraction]:
    """Check a capacity assignment names only the model's capacity variables,
    and all of them."""
    cap_vars = {v for v in model.variables if v.kind == "capacity"}
    for ref in capacities:
        if ref not in cap_vars:
            raise PreconditionError(f"capacity key {ref!r} matches no model variable")
    missing = cap_vars - set(capacities)
    if missing:
        names = sorted(v.name for v in missing)
        raise PreconditionError(f"capacity vector missing entries for {names!r}")
    return capacities


def feasible_with_capacity(model: MipModel, capacities: Mapping[VarRef, int | Fraction]) -> bool:
    """Phase-1 feasibility of the flow system once capacities are pinned."""
    return feasible(model, _as_cap_refs(model, capacities))


def reduced_commodities(inst: Instance) -> tuple:
    """Commodity pairs carrying any traffic, closed under reversal.

    Dropping both directions of an all-zero pair never changes feasibility:
    a feasible reduced flow extends by zeros, and symmetry rows only couple
    a commodity with its reverse.
    """
    active = set()
    for (o, d), t in inst.traffic.items():
        if t > 0:
            active.add((o, d))
            active.add((d, o))
    return tuple(sorted(active))


def build_for_feasibility(
    inst: Instance,
    kind: ModelKind,
    *,
    symmetrize_flows: bool = False,
    commodities: Iterable | None = None,
) -> MipModel:
    """Build the smallest model equivalent to `kind` for feasibility checks.

    `commodities` widens (or replaces) the reduced commodity set; it must
    stay closed under reversal and cover all positive traffic.
    """
    ks = reduced_commodities(inst) if commodities is None else tuple(commodities)
    model = build(inst, kind, commodities=ks)
    if symmetrize_flows:
        model = add_flow_symmetry(model)
    return model

