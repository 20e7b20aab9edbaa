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
The model's rows go straight into the tableau: pinned variables move to
the right-hand side, rows left constant are checked there, and rows with
a negative rhs are negated; no reduced model or standard form is built
first.  Phase 1, the drive-out of leftover artificials and phase 2 share
one pivot routine.  Every answer carries a certificate in the model's own
terms, and each status has a checker that reads the model's rows alone,
without any of the simplex: an Optimal answer carries one dual per model
row, read off its final reduced-cost row and signed back to the row as
written (`optimality_certificate`); an Infeasible one a Farkas ray, one
multiplier per model row read off the final phase-1 row
(`infeasibility_certificate`); an Unbounded one a feasible point and a
direction of unbounded descent read off the column that entered with no
row to leave (`unboundedness_certificate`).  A Farkas ray found with the
capacities pinned is a capacity-only inequality valid for every capacity
vector, so `FarkasCache` keeps the checked ones and capacity sweeps test
each box vector against them before solving anything.  Integer models are
solved by depth-first branch and bound on the first fractional integer
variable in model order, pruning on exact bound comparisons.  Sized for
desk-scale models (a few hundred variables), which is all this package
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
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
    # One multiplier per model constraint, in model order, in the row's own
    # sign convention: the duals when Optimal (optimality_certificate), a
    # Farkas ray when Infeasible (infeasibility_certificate).
    duals: tuple[Fraction, ...] = ()
    fixed: Mapping[VarRef, Fraction] = field(default_factory=dict)  # pinned while solving
    # When Unbounded, a direction along which `values` stays feasible and the
    # cost falls without bound (unboundedness_certificate).
    ray: Mapping[VarRef, Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class MipResult:
    status: SolveStatus
    values: Mapping[VarRef, Fraction]
    objective: Fraction | None
    nodes: int = 0


class _Tableau:
    """Each cell of `rows` (rhs last) and of the reduced-cost rows `reds` is
    `d`, the absolute basis determinant, times its value.  Row r started with
    identity column `start[r]` and is model row `origin[r][0]` times the sign
    `origin[r][1]`; columns from `width` on are artificial.  The rows were
    scaled in by `scale`, the cost by `cost_scale`."""

    __slots__ = ("rows", "reds", "basis", "start", "origin", "width", "scale", "cost_scale", "d")

    def __init__(
        self,
        rows: list[list[int]],
        reds: list[list[int]],
        start: list[int],
        origin: list[tuple[int, int]],
        width: int,
        scale: int,
        cost_scale: int,
    ):
        self.rows, self.reds, self.basis, self.start, self.origin = rows, reds, list(start), start, origin
        self.width, self.scale, self.cost_scale, self.d = width, scale, cost_scale, 1  # identity basis


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


def _bland_simplex(t: _Tableau, width: int) -> int:
    """Run simplex to completion on reduced-cost row `t.reds[0]` (minimization).

    Columns at index >= width are blocked from entering.  Returns -1 at an
    optimum, or the entering column whose ratio test found no row when the
    cost is unbounded below.  Later rows of `t.reds` are carried along.  Only
    signs and cross-multiplied ratios are compared, as every cell shares `t.d`.
    """
    while True:
        red = t.reds[0]
        enter = next((j for j in range(width) if red[j] < 0), -1)
        if enter < 0:
            return -1
        leave, best_b, best_a = -1, 0, 1
        for i, row in enumerate(t.rows):
            a = row[enter]
            if a > 0:
                mine, best = row[-1] * best_a, best_b * a  # row[-1]/a against best_b/best_a
                if leave < 0 or mine < best or (mine == best and t.basis[i] < t.basis[leave]):
                    leave, best_b, best_a = i, row[-1], a
        if leave < 0:
            return enter
        _pivot(t, leave, enter)


def _phase1(model: MipModel, pinned: Mapping[VarRef, Fraction]) -> _Tableau | LpSolution:
    """Phase 1 of the model with the `pinned` values moved to the right-hand side.

    A row left with no free variable is a constant check; a row with a
    negative right-hand side is negated.  Columns are the free variables in
    model order, then a slack per inequality row, then an artificial per `=`
    or `>=` row, each in row order.  Returns the tableau, scaled in
    uniformly, whose one reduced-cost row is phase 2's for the final basis,
    or, when infeasible, the Infeasible answer with its Farkas ray.  It keeps
    the artificial columns, so B^-1 stays readable there.  Each artificial
    costs one in phase 1 and starts basic in its row, so the phase-1 row
    starts as minus the sum of the artificial rows; the starting basis costs
    zero in phase 2, so the phase-2 row starts as the cost vector.

    The ray is phase 1's optimal dual: at row r's starting column, whose
    phase-1 cost is 1 for an artificial and 0 for a slack, y_r = cost1 -
    red1.  It is the rational tableau's value (a uniform row scaling leaves
    the duals as they are), signed back to model row origin[r].  A failed
    constant row is a ray by itself: +-1 on that row, by the sign of its rhs.
    """
    ray = [_ZERO] * len(model.constraints)
    index = {v: j for j, v in enumerate(v for v in model.variables if v not in pinned)}
    kept = []  # (model row, sign, free terms, rhs, sense), rhs >= 0
    for r, con in enumerate(model.constraints):
        b, terms = con.rhs, []
        for v, c in con.coeffs.items():
            if v in pinned:
                b -= c * pinned[v]
            else:
                terms.append((index[v], c))
        sense = con.sense
        if not terms:
            if b < 0 if sense == "<=" else b > 0 if sense == ">=" else b:
                ray[r] = _ONE if b > 0 else -_ONE
                return LpSolution(SolveStatus.INFEASIBLE, {}, None, tuple(ray), pinned)
            continue
        if b < 0:
            kept.append((r, -1, terms, -b, {"<=": ">=", ">=": "<=", "=": "="}[sense]))
        else:
            kept.append((r, 1, terms, b, sense))
    n = len(index)
    slack = n
    art = width = n + sum(sense != "=" for *_, sense in kept)
    total = width + sum(sense != "<=" for *_, sense in kept)
    scale = lcm(
        *{c.denominator for _, _, terms, _, _ in kept for _, c in terms}, *{b.denominator for *_, b, _ in kept}
    )
    cost = [model.objective.get(v, _ZERO) for v in index]
    cost_scale = lcm(*{c.denominator for c in cost})
    rows: list[list[int]] = []
    start: list[int] = []
    red1 = [0] * (total + 1)  # the last cell holds minus the artificials' total
    for _, sign, terms, b, sense in kept:
        row = [0] * (total + 1)
        for j, c in terms:
            row[j] = sign * c.numerator * (scale // c.denominator)
        row[-1] = b.numerator * (scale // b.denominator)
        cols = [j for j, _ in terms]
        if sense != "=":
            row[slack] = 1 if sense == "<=" else -1
            cols.append(slack)
            slack += 1
        if sense == "<=":
            start.append(slack - 1)
        else:
            for j in cols:
                red1[j] -= row[j]
            red1[-1] -= row[-1]
            row[art] = 1
            start.append(art)
            art += 1
        rows.append(row)
    red2 = [c.numerator * (cost_scale // c.denominator) for c in cost] + [0] * (total + 1 - n)
    t = _Tableau(rows, [red1, red2], start, [(r, sign) for r, sign, *_ in kept], width, scale, cost_scale)
    _bland_simplex(t, total)  # bounded below by 0, never unbounded
    red1 = t.reds.pop(0)  # phase 1's row retires; its last cell is 0 iff feasible
    if not red1[-1]:
        return t
    for j, (r, sign) in zip(start, t.origin):
        ray[r] = Fraction(sign * ((t.d if j >= width else 0) - red1[j]), t.d)
    return LpSolution(SolveStatus.INFEASIBLE, {}, None, tuple(ray), pinned)


def solve_lp(
    model: MipModel, *, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED, ignore_integrality: bool = False
) -> LpSolution:
    """Solve the model as a pure LP, exactly, with the `fixed` variables pinned.

    Integer variables left free are rejected unless `ignore_integrality` is
    set, in which case the continuous relaxation is solved.  Optimal points
    include the pinned values, count them in the objective, and are
    re-checked against every original constraint before being returned.
    The duals are read off the final phase-2 reduced-cost row at each row's
    starting column, whose phase-2 cost is zero: u = -red[start[r]], scaled
    back to the rational model and signed back to model row origin[r].  An
    Infeasible answer carries phase 1's Farkas ray (see _phase1).  An
    Unbounded one carries the last basic point, checked like an optimum, and
    the ray along the column that entered with no row to leave: that column
    rises by one and each basic variable falls by its cell in it.
    """
    pinned = pinned_values(model, fixed)
    if not ignore_integrality and any(v not in pinned for v in model.integer):
        raise PreconditionError(
            "model has integer variables; use solve_mip or pass ignore_integrality=True"
        )
    t = _phase1(model, pinned)
    if isinstance(t, LpSolution):
        return t
    n = t.width
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
    unbounded = _bland_simplex(t, n)
    columns = [v for v in model.variables if v not in pinned]
    values = {columns[b]: Fraction(row[-1], t.d) for row, b in zip(t.rows, t.basis) if b < len(columns)}
    point = values | pinned
    assignment = {v: point[v] for v in model.variables if point.get(v)}
    bad = model.violations(assignment)
    if bad:
        raise NetcapError(f"solver returned an infeasible point; broken rows {bad!r}")
    if unbounded >= 0:
        ray = {
            columns[b]: Fraction(-row[unbounded], t.d)
            for row, b in zip(t.rows, t.basis)
            if b < len(columns) and row[unbounded]
        }
        if unbounded < len(columns):
            ray[columns[unbounded]] = _ONE
        return LpSolution(SolveStatus.UNBOUNDED, assignment, None, (), pinned, ray)
    red, duals = t.reds[0], [_ZERO] * len(model.constraints)
    for j, (r, sign) in zip(t.start, t.origin):
        duals[r] = Fraction(-sign * red[j] * t.scale, t.d * t.cost_scale)
    objective = model.objective_value(assignment)
    return LpSolution(SolveStatus.OPTIMAL, assignment, objective, tuple(duals), pinned)


def feasible(model: MipModel, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED) -> bool:
    """Phase-1 feasibility of the continuous relaxation, `fixed` variables pinned."""
    return isinstance(_phase1(model, pinned_values(model, fixed)), _Tableau)


def _combine(model: MipModel, solution: LpSolution) -> tuple[dict[VarRef, int], int, int] | None:
    """The row g x >= alpha with g = sum_r u_r a_r and alpha = sum_r u_r rhs_r,
    u being the solution's multipliers, as integers over one positive
    denominator: (that times g, times alpha, it).

    Every point of the model satisfies the row when each u_r combines its row
    the valid way: u_r <= 0 on `<=`, u_r >= 0 on `>=`, either sign on `=`.
    None when one does not, when u is not one multiplier per row, or when the
    solution pins a variable the model lacks.  The sums run in integers, u
    and the rows each scaled in by one lcm, as the kernel scales its tableau.
    """
    u = solution.duals
    if len(u) != len(model.constraints) or not set(solution.fixed) <= set(model.variables):
        return None
    rows = [(ur, con) for ur, con in zip(u, model.constraints) if ur]
    if any(ur > 0 and con.sense == "<=" or ur < 0 and con.sense == ">=" for ur, con in rows):
        return None
    u_scale = lcm(*(ur.denominator for ur, _ in rows))
    row_scale = lcm(*(c.denominator for _, con in rows for c in (con.rhs, *con.coeffs.values())))
    g: dict[VarRef, int] = {}
    alpha = 0
    for ur, con in rows:
        n = ur.numerator * (u_scale // ur.denominator)
        for v, a in con.coeffs.items():
            g[v] = g.get(v, 0) + n * a.numerator * (row_scale // a.denominator)
        alpha += n * con.rhs.numerator * (row_scale // con.rhs.denominator)
    return g, alpha, u_scale * row_scale


def optimality_certificate(model: MipModel, solution: LpSolution) -> bool:
    """Check the duals an Optimal LP solution carries against the model's
    rows alone; nothing is solved or standardized.

    With the solution's `fixed` values pinned, row r reads a_r x (sense) b_r,
    where b_r is its rhs less the pinned terms.  The duals u, one per row,
    must combine the rows validly (u_r <= 0 on `<=`, u_r >= 0 on `>=`), price
    every free variable nonnegatively (c_v - sum_r u_r a_rv >= 0), and give
    sum_r u_r b_r plus the pinned cost equal to the reported objective, which
    by weak duality no feasible point beats.  The point itself must hold the
    pinned values, satisfy every row and attain that objective.  Exact
    throughout.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise PreconditionError("certificate requires an Optimal solution")
    fixed = solution.fixed
    combined = _combine(model, solution)
    if combined is None:
        return False
    g, alpha, scale = combined
    dual_value = Fraction(alpha - sum(g.get(v, 0) * val for v, val in fixed.items()), scale)
    dual_value += model.objective_value(fixed)
    return (
        all(model.objective.get(v, _ZERO) * scale >= g.get(v, 0) for v in model.variables if v not in fixed)
        and all(solution.values.get(v, _ZERO) == val for v, val in fixed.items())
        and dual_value == solution.objective == model.objective_value(solution.values)
        and not model.violations(solution.values)
    )


def _farkas_row(model: MipModel, solution: LpSolution) -> tuple[dict[VarRef, int], int] | None:
    """The row g x >= alpha of an Infeasible answer's ray, times a positive
    integer, when the ray proves the model infeasible with `solution.fixed`
    pinned; else None.

    The row holds at every point of the model.  With g_v <= 0 on every free
    variable, its free part is at most zero for x >= 0, so no point has
    alpha - sum_pinned g_v y_v > 0, and the pinned y has just that.
    """
    fixed = solution.fixed
    combined = _combine(model, solution)
    if combined is None:
        return None
    g, alpha, _ = combined
    if any(c > 0 for v, c in g.items() if v not in fixed):
        return None
    if alpha - sum(g.get(v, 0) * val for v, val in fixed.items()) <= 0:
        return None
    return g, alpha


def infeasibility_certificate(model: MipModel, solution: LpSolution) -> bool:
    """Check the Farkas ray an Infeasible LP solution carries against the
    model's rows alone, by dot products; nothing is solved or standardized.

    With the solution's `fixed` values y pinned, b_r(y) is row r's rhs less
    its pinned terms.  The multipliers u, one per row, must have the sign
    their row's sense allows (u_r <= 0 on `<=`, u_r >= 0 on `>=`, free on
    `=`), give sum_r u_r a_rv <= 0 on every free variable v, and give
    sum_r u_r b_r(y) > 0.  A solution x >= 0 would then satisfy
    sum_r u_r a_r x >= sum_r u_r b_r(y) > 0 with a left side at most zero,
    so there is none.
    """
    if solution.status is not SolveStatus.INFEASIBLE:
        raise PreconditionError("certificate requires an Infeasible solution")
    return _farkas_row(model, solution) is not None


def unboundedness_certificate(model: MipModel, solution: LpSolution) -> bool:
    """Check the point and ray an Unbounded LP solution carries against the
    model's rows alone; nothing is solved or standardized.

    The point must hold the `fixed` values and satisfy every row.  The ray d
    must leave the pinned variables alone, be nonnegative, keep every row's
    sense (a_r d <= 0 on `<=`, >= 0 on `>=`, = 0 on `=`) and lower the cost
    (c d < 0): then the point plus t d is feasible for every t >= 0, and its
    cost falls without bound.
    """
    if solution.status is not SolveStatus.UNBOUNDED:
        raise PreconditionError("certificate requires an Unbounded solution")
    fixed, d = solution.fixed, solution.ray
    if not set(fixed) | set(d) <= set(model.variables) or set(fixed) & set(d):
        return False
    for con in model.constraints:
        ad = con.lhs_value(d)
        if ad > 0 and con.sense != ">=" or ad < 0 and con.sense != "<=":
            return False
    return (
        all(c >= 0 for c in d.values())
        and model.objective_value(d) < 0
        and all(solution.values.get(v, _ZERO) == val for v, val in fixed.items())
        and not model.violations(solution.values)
    )


def _bound_rows(model: MipModel, bounds: int | Mapping[VarRef, int]) -> list[LinearConstraint]:
    rows = []
    for v in model.variables:
        if v not in model.integer:
            continue
        if not isinstance(bounds, Mapping):
            ub = bounds
        elif v not in bounds:
            raise MissingBoundError(f"no upper bound for integer variable {v.name}")
        else:
            ub = bounds[v]
        if not isinstance(ub, int) or isinstance(ub, bool) or ub < 0:
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


class FarkasCache:
    """Capacity inequalities read off checked Farkas rays, for a sweep of
    capacity vectors over one model.

    Every vector of a sweep pins the same variables, `refs`.  A ray that
    proves one vector infeasible combines the rows into g x >= alpha with
    g_v <= 0 on every free variable, so beta y >= alpha, beta being g on
    `refs`, holds for every feasible capacity vector y (for the undirected
    model, a metric inequality), and refutes each y with beta y < alpha.
    `learn` checks each ray as `infeasibility_certificate` does before it
    keeps the inequality, as coprime integers, so that testing a vector is
    integer arithmetic; an inequality already kept is kept once.
    """

    def __init__(self, model: MipModel, refs: tuple[VarRef, ...]):
        self.model, self.refs = model, refs
        self._tests: dict[tuple[int, tuple[int, ...]], None] = {}  # (alpha, beta), in learning order

    def refutes(self, vec: tuple[int, ...]) -> bool:
        """Whether a kept inequality beta y >= alpha fails at y = vec."""
        return any(sum(map(mul, beta, vec)) < alpha for alpha, beta in self._tests)

    def learn(self, solution: LpSolution) -> None:
        """Keep the inequality of an Infeasible answer with `refs` pinned."""
        if set(solution.fixed) != set(self.refs):
            raise PreconditionError("the answer pins other variables than the sweep")
        row = _farkas_row(self.model, solution)
        if row is None:
            raise NetcapError("solver returned a Farkas ray that does not prove infeasibility")
        g, alpha = row
        ints = [alpha] + [g.get(v, 0) for v in self.refs]
        common = gcd(*ints)
        self._tests[ints[0] // common, tuple(c // common for c in ints[1:])] = None

    def feasible(self, vec: tuple[int, ...]) -> bool:
        """Whether the model is feasible with `refs` pinned to `vec`: no if a
        kept inequality refutes it, else phase 1 decides and an infeasible
        answer's ray is learned."""
        if self.refutes(vec):
            return False
        answer = _phase1(self.model, pinned_values(self.model, dict(zip(self.refs, vec))))
        if isinstance(answer, _Tableau):
            return True
        self.learn(answer)
        return False


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

