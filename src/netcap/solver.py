"""Exact rational LP and MIP solving.

Two-phase primal simplex on a dense Fraction tableau with Bland's rule for
both the entering and leaving choices, so no cycling and no tolerances:
every comparison is an exact rational comparison.  Pinned variables move
to the right-hand side of the equality form; no reduced model is built.
Phase 1, the drive-out of leftover artificials and phase 2 share one pivot
routine.  An Optimal answer carries the duals read off its final
reduced-cost row, and `optimality_certificate` checks them against the
model rather than re-deriving them.  Integer models are solved
by depth-first branch and bound on the first fractional integer variable in
model order, pruning on exact bound comparisons.  Sized for desk-scale
models (a few hundred variables), which is all this package needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
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
                return _Standardized(columns, n, (), (), (), (), True)
            continue
        if b < 0:  # normalize to nonnegative rhs
            coeffs = [(j, -c) for j, c in coeffs]
            b = -b
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        if sense == "<=":
            coeffs.append((next_col, _ONE))
            slack_of_row.append(next_col)
            needs_art.append(False)
            next_col += 1
        elif sense == ">=":
            coeffs.append((next_col, -_ONE))
            slack_of_row.append(next_col)
            needs_art.append(True)
            next_col += 1
        else:
            slack_of_row.append(None)
            needs_art.append(True)
        rows.append(tuple(coeffs))
        rhs.append(b)
    return _Standardized(
        columns=columns,
        n_cols=next_col,
        rows=tuple(rows),
        rhs=tuple(rhs),
        needs_artificial=tuple(needs_art),
        slack_of_row=tuple(slack_of_row),
        inconsistent=False,
    )


def _pivot(
    tab: list[list[Fraction]],
    basis: list[int],
    leave: int,
    enter: int,
    red: list[Fraction],
) -> None:
    """Pivot column `enter` into the basis at row `leave`, updating `red`.

    Zero cells of the pivot row are skipped, which matters because network
    tableaus stay sparse.
    """
    prow = tab[leave]
    piv = prow[enter]
    if piv != 1:
        inv = _ONE / piv
        tab[leave] = prow = [c * inv if c else c for c in prow]
    support = [j for j, p in enumerate(prow) if p]
    for i, row in enumerate(tab):
        f = row[enter]
        if f and i != leave:
            for j in support:
                row[j] -= f * prow[j]
    f = red[enter]
    if f:
        for j in support:
            red[j] -= f * prow[j]
    basis[leave] = enter


def _bland_simplex(
    tab: list[list[Fraction]],
    basis: list[int],
    red: list[Fraction],
    width: int,
) -> str:
    """Run simplex to completion on reduced-cost row `red` (minimization).

    Columns at index >= width are blocked from entering.  Returns "optimal"
    or "unbounded".  The reduced-cost row is updated in place.
    """
    while True:
        enter = -1
        for j in range(width):
            if red[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best: Fraction | None = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter, red)


def _reduced_costs(
    tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    red = list(cost)
    red.append(_ZERO)  # objective cell (negated value)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = tab[i]
            for j in range(len(red)):
                if row[j]:
                    red[j] -= cb * row[j]
    return red


def _phase1(
    std: _Standardized,
) -> tuple[list[list[Fraction]], list[int], list[int]] | None:
    """Phase 1 from the identity basis of slacks and artificials.

    Returns (tableau, basis, start) with `start[r]` the identity column row r
    started from (its slack or its artificial), or None when infeasible.
    The tableau keeps the artificial columns, so B^-1 stays readable there.
    """
    if std.inconsistent:
        return None
    n_art = sum(std.needs_artificial)
    total = std.n_cols + n_art
    tab: list[list[Fraction]] = []
    start: list[int] = []
    art_col = std.n_cols
    for r, coeffs in enumerate(std.rows):
        row = [_ZERO] * (total + 1)
        for j, c in coeffs:
            row[j] = c
        row[-1] = std.rhs[r]
        if std.needs_artificial[r]:
            row[art_col] = _ONE
            start.append(art_col)
            art_col += 1
        else:
            start.append(std.slack_of_row[r])
        tab.append(row)
    basis = list(start)
    red = _reduced_costs(tab, basis, [_ZERO] * std.n_cols + [_ONE] * n_art)
    _bland_simplex(tab, basis, red, total)  # bounded below by 0, never unbounded
    if red[-1] != 0:  # the cell holds minus the artificials' total
        return None
    return tab, basis, start


def _solve_standardized(
    std: _Standardized, objective_vec: list[Fraction]
) -> tuple[SolveStatus, list[Fraction], list[Fraction]]:
    """Two-phase simplex.  Returns (status, values, duals).

    The duals carry one entry per standardized row: u[r] = -red[start[r]],
    read off the final phase-2 reduced-cost row at row r's identity column,
    whose phase-2 cost is zero.
    """
    phase1 = _phase1(std)
    if phase1 is None:
        return SolveStatus.INFEASIBLE, [], []
    tab, basis, start = phase1
    n = std.n_cols
    # Phase-2 costs, padded across artificial columns so the reduced-cost
    # row stays aligned with the tableau.
    total = n + sum(std.needs_artificial)
    cost = objective_vec + [_ZERO] * (total - len(objective_vec))
    red = _reduced_costs(tab, basis, cost)
    # Drive artificials still basic (at level zero) out of the basis.  A row
    # with no real column left is redundant and is dropped; its artificial
    # costs zero, so the reduced-cost row, and the duals, are unchanged.
    drop: list[int] = []
    for i in range(len(tab)):
        if basis[i] < n:
            continue
        enter = next((j for j in range(n) if tab[i][j]), -1)
        if enter < 0:
            drop.append(i)
        else:
            _pivot(tab, basis, i, enter, red)
    for i in reversed(drop):
        del tab[i]
        del basis[i]
    if _bland_simplex(tab, basis, red, n) == "unbounded":
        return SolveStatus.UNBOUNDED, [], []
    values = [_ZERO] * n
    for i, b in enumerate(basis):
        values[b] = tab[i][-1]
    return SolveStatus.OPTIMAL, values, [-red[j] for j in start]


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
    objective_vec = [model.objective.get(v, _ZERO) for v in std.columns]
    status, values, duals = _solve_standardized(std, objective_vec)
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
    reduced = [model.objective.get(v, _ZERO) for v in std.columns]
    reduced += [_ZERO] * (std.n_cols - len(reduced))
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


def accommodates(
    inst: Instance,
    kind: ModelKind,
    capacities: Mapping[VarRef, int | Fraction],
    *,
    symmetrize_flows: bool = False,
) -> bool:
    """True when the integer capacity vector can route the instance's traffic.

    `capacities` maps each capacity VarRef to the installed module count; it
    must cover the model's capacity variables exactly.  With `symmetrize_flows`, feasibility additionally requires a
    direction-symmetric routing (traffic must then be symmetric to stand a
    chance).
    """
    model = build_for_feasibility(inst, kind, symmetrize_flows=symmetrize_flows)
    return feasible_with_capacity(model, capacities)
