"""Exact rational LP and MIP solving.

A tableau is built with the `=` rows' artificials driven out of the
basis, once: no drive-out pivot reads the right-hand side, and a row
left with no real column is kept as a dependent row.  Every LP is then
decided by one routine (`_resolve`): the right-hand side is set to
B^-1 b, a dependent row with a nonzero rhs or a dual simplex with no
cost row (so that every basis is dual feasible) refutes the LP or
reaches a feasible basis, and the primal simplex (phase 2) follows on a
reduced-cost row priced at that basis.  Both simplex methods use Bland's
rule for the entering and the leaving choice, so there is no cycling and
no tolerance.  The tableau is integer-preserving (Edmonds 1967; Bareiss
1968): each row is an integer vector over its own denominator, the
absolute basis determinant at the last pivot that touched it.  A pivot
leaves alone every row whose cell in the entering column is zero, brings
only the pivot row to the current determinant, and divides exactly;
every comparison is an integer sign test or a cross-multiplication of
two cells of one row.  The LP enters scaled uniformly: free-column
coefficients and rhs by one lcm, the cost by its own, slacks and
artificials left at +-1.  That is a positive change of variables, so the
pivots are the rational tableau's, whatever the lcm.

A model's rows are turned into integers once (`_Checked`) and laid out
for the variables every solve pins (`_Rows`): a capacity sweep pins the
same capacities at each vector of its box, and branch and bound pins
nothing and lays its own rows out after the model's.  Per solve, the
pinned terms move to the right-hand side by one integer dot product per
row, and rows left constant are checked there; no reduced model or
standard form is built.  A row's sign in the tableau comes from its
sense alone, and the rows come in a canonical order, so the tableau's
layout depends on neither the pins nor the order of the model's rows.  Ties merge there too, a classical
presolve step (Andersen and Andersen 1995): an `=` row a v - a w = 0 of
two free variables, such as a mirror-flow `sym[...]` row, or an `eq[...]`
row when nothing is pinned, puts w's terms and cost on v's column and
leaves the row 0 = 0, so the tableau carries neither the row nor w.  Each
answer is postsolved onto the model's own rows: w takes v's value, and
its entry in an unbounded ray, and the tie row the multiplier under which
both columns price (duals) or both keep a nonpositive coefficient (a
ray).  A tableau carries only the reduced-cost row of the LP it is
solving, priced at the basis where that LP reaches phase 2 (`_priced`).

A point stays in integers from the tableau to its answer, one integer
per model variable over one common denominator, and is re-checked
against every model row in integers, each row scaled from the model's
own coefficients rather than read off the tableau (`_recheck`).  A
certificate stays in integers from the tableau to its check: the duals
are read off the final reduced-cost row (`_duals`), and a Farkas ray off
the row of B^-1 that refutes the LP (`_ray`) or off a failed constant
row (`_rhs`), as one integer multiplier per model row over one positive
scale, the merged ties' postsolved in integers (`_tied`).  Either combines the model's rows into
one row g x >= alpha that every point satisfies, and one check,
`_proved_row`, proves that row from the multipliers as they are.
`Fraction` appears only in answers returned to a caller, besides one
objective per LP: the values (`_values`), and the certificate that
`solve_lp` returns in the model's own terms, one dual or ray multiplier
per model row signed back to the row as written (`_fractions`), or, when
Unbounded, a feasible point and a direction of unbounded descent read
off the column that entered with no row to leave.
`certify` turns such multipliers into integers once and reads them
against the model's rows alone, without any of the simplex, by the same
`_proved_row`.

A capacity sweep (`CapacitySweep`) pins the same variables at every
vector of a box and keeps the rows it meets: a Farkas ray found with the
capacities pinned is a capacity-only inequality valid at every capacity
vector, and the duals of an Optimal LP bound the objective from below at
every feasible one (weak duality).  Each is read off the tableau in
integers and checked before it is kept, and no answer is built for it,
so the sweep refutes a vector, or proves a `>=` row at a vector known to
be feasible, with one integer dot product instead of an LP.  The sweep
builds one tableau and solves every vector's LP on it (`_resolve`): the
pins move only the right-hand side, refreshed as B^-1 b(y) from the kept
starting columns, and the Bland dual simplex (Lemke 1954) restores
feasibility, exactly, as Applegate, Cook, Dash and Espinoza (2007)
re-solve exact LPs from a kept basis: until an LP is feasible the tableau
has no cost row, and an optimal basis stays dual feasible.

Integer models are solved by depth-first branch and bound on the first
fractional integer variable in model order, pruning on exact bound
comparisons, the bound rounded up to the objective's step when every term
is integral.  `solve_mip` checks the model's rows once, and every search
lays its tableau out from those checks and its own rows, each written
directly as an integer check over the model's positions: v <= bound and
-v <= 0 per integer column, and on networks of at most six nodes the
paper's cut-set rows.  A node is a right-hand side too: it sets only the
bound rows' rhs, to hi and -lo, and every node is solved on the root's
tableau by the same `_resolve`, within the exact branch and bound of
Cook, Koch, Steffy and Wolter (2013).  Its point is re-checked against
the rows with the node's bounds, and it reads no certificate, since
nothing reads one: the search takes only its status, point and bound.
A cut-set row reads beta y >= r per node set S, beta the capacity
crossing S weighted from the model's own rows, in every reading alike:
each enters vacuous, as the slack row -beta y <= 0, and r is its LP
bound on beta, its duals checked by `_proved_row`, rounded up
(Chvatal-Gomory), so every integral point meets it (Bienstock and Gunluk
1996; Achterberg and Raack 2010).  A node can stop at another vertex of
a tied optimum, so `solve_mip` returns a canonical optimum, which
depends on the model alone: the lexicographically least optimal integer
vector, found through lexicographic weights, an integer objective, with
the flows of a cold LP at it, laid out from the same checks and read
with no certificate.  Sized for desk-scale models (a few hundred
variables), which is all this package needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Sequence

from .core import Instance
from .enumeration import dominates
from .errors import MissingBoundError, NetcapError, PreconditionError
from .formulate import (
    LinearConstraint,
    MipModel,
    ModelKind,
    VarRef,
    build,
    holds,
    pinned_values,
)

# Not called here.  The benchmark's tracer rebinds these names on this module
# (perfbench/tracing.py PATCHES), so they must stay importable from it.
from .formulate import add_flow_symmetry, build_bidirected, build_directed, build_undirected, fix_variables  # noqa: F401

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
    # sign convention: the duals when Optimal, a Farkas ray when Infeasible;
    # either combines the rows into the row that `certify` checks.
    duals: tuple[Fraction, ...] = ()
    fixed: Mapping[VarRef, Fraction] = field(default_factory=dict)  # pinned while solving
    # When Unbounded, a direction along which `values` stays feasible and the
    # cost falls without bound; `certify` checks it.
    ray: Mapping[VarRef, Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class MipResult:
    status: SolveStatus
    values: Mapping[VarRef, Fraction]
    objective: Fraction | None
    nodes: int = 0


class _Tableau:
    """Row i of `rows` (rhs last) holds `den[i]` times its values; `red`,
    the reduced-cost row of the LP being solved or None, holds `red_den`
    times its own.  Each denominator is the absolute basis determinant at
    the last pivot that touched its row, and `d` is the current one.  Row
    r started with identity column `start[r]` and is model row
    `origin[r][0]` times the sign `origin[r][1]`; columns from `width` on
    are the `=` rows' artificials.  The rows were scaled in by `scale`;
    `cost` is `_Rows.cost`, or None to ask feasibility alone.  `dependent`
    lists the rows that the drive-out (`_drive_out`) left dependent."""

    __slots__ = (
        "rows", "den", "red", "red_den", "basis", "start", "origin", "width", "scale", "cost", "d", "dependent",
    )

    def __init__(
        self,
        rows: list[list[int]],
        start: list[int],
        origin: list[tuple[int, int]],
        width: int,
        scale: int,
        cost: Mapping[int, int] | None,
    ):
        self.rows, self.basis, self.start, self.origin = rows, list(start), start, origin
        self.den, self.red, self.red_den, self.d = [1] * len(rows), None, 1, 1  # identity basis
        self.width, self.scale, self.cost, self.dependent = width, scale, cost, []


def _pivot(t: _Tableau, leave: int, enter: int) -> None:
    """Bareiss pivot of column `enter` into the basis at row `leave`.

    The pivot row is first brought to the current d, each cell a becoming
    a*d // den; its cell p in column `enter` is the new d, and a negative
    pivot (the drive-out can meet one) negates the row first, so d stays
    positive.  A row whose cell f in column `enter` is 0 is not touched and
    keeps its denominator.  Any other row, over its own denominator den,
    becomes (p*a - f*prow[j]) // den over p, which is p*a // den off the
    pivot row's support.  Every division is exact: a row over any earlier
    determinant is integral over the current one.  The reduced-cost row,
    if the tableau carries one, is updated as any other row.
    """
    prow, d, was = t.rows[leave], t.d, t.den[leave]
    if was != d:
        prow = [a and a * d // was for a in prow]
    p = prow[enter]
    if p < 0:
        prow = [-a for a in prow]
        p = -p
    t.rows[leave] = prow
    support = [j for j, a in enumerate(prow) if a]
    rows, den = t.rows, t.den
    for i, row in enumerate(rows):
        f = row[enter]
        if not f or row is prow:
            continue
        was = den[i]
        new = row if p == was else [a and p * a // was for a in row]
        for j in support:
            new[j] = (p * row[j] - f * prow[j]) // was
        rows[i], den[i] = new, p
    red = t.red
    if red is not None and red[enter]:
        f, was = red[enter], t.red_den
        new = red if p == was else [a and p * a // was for a in red]
        for j in support:
            new[j] = (p * red[j] - f * prow[j]) // was
        t.red, t.red_den = new, p
    den[leave] = t.d = p
    t.basis[leave] = enter


def _bland_simplex(t: _Tableau) -> int:
    """Run simplex to completion on the reduced-cost row `t.red` (minimization).

    Artificial columns never enter.  Returns -1 at an optimum, or the
    entering column whose ratio test found no row when the cost is
    unbounded below.  Only signs and cross-multiplied ratios are compared,
    and each ratio divides two cells of one row, so it does not depend on
    the row's denominator.
    """
    while True:
        red = t.red
        enter = next((j for j in range(t.width) if red[j] < 0), -1)
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


# A row as `_Checked.check` states it: (name, terms by variable position, rhs,
# sense, lcm), the coefficients and rhs times the lcm of their denominators.
_Check = tuple[str, list[tuple[int, int]], int, str, int]
# An objective as `_Checked.objective` states it: (scale, terms by variable
# position), the coefficients times the lcm of their denominators.
_Objective = tuple[int, list[tuple[int, int]]]
# A point as `_resolve` reads it: (common, xs), one integer per model
# variable over one positive common denominator, in lowest terms.
_Point = tuple[int, list[int]]


class _Checked:
    """A model's rows and objective in integers, each row checked once
    (`check`).  `checks` states each row on its own, from the model's
    coefficients times the row's own lcm, over positions in
    `model.variables`, and `objective` the objective likewise: these are
    what a returned point (`_recheck`) and a certificate (`_proved_row`)
    are checked against, and nothing there is read off the tableau.  Each
    term's position is looked up once, here; a built model's rows hold its
    own VarRefs, so each lookup finds its key by identity, and the values,
    exact already, are not checked again (`_scaled`).  Every layout of the
    model (`_Rows`) starts from these: `solve_mip` checks its model once
    for its searches and its cold LP.  `merges` are the ties that merge
    when nothing is pinned (`_merges`), found once: every search's, which
    `solve_mip` writes its own rows against."""

    __slots__ = ("model", "position", "checks", "objective", "merges")

    def __init__(self, model: MipModel):
        self.model, self.position = model, {v: i for i, v in enumerate(model.variables)}
        self.checks = [self.check(con) for con in model.constraints]
        obj_scale, obj = _scaled(list(model.objective.values()))
        self.objective = obj_scale, [(self.position[v], c) for v, c in zip(model.objective, obj)]
        self.merges = _merges(self.checks, [0] * len(model.variables))

    def check(self, con: LinearConstraint) -> _Check:
        """(name, terms by variable position, rhs, sense, lcm) of a row: its
        coefficients and rhs times `lcm`, the lcm of their denominators."""
        own, (rhs, *coeffs) = _scaled((con.rhs, *con.coeffs.values()))
        return con.name, [(self.position[v], c) for v, c in zip(con.coeffs, coeffs)], rhs, con.sense, own


class _Rows:
    """A checked model's rows (`_Checked`), followed by the `added` checks,
    laid out in integers for the variables `refs` that every solve pins,
    and `objective`, given as `_Checked.objective` is, or the model's when
    None: a sweep pins its capacities at each vector of a box, and branch
    and bound pins nothing and adds its own rows and objective.  `checks`
    and `objective` are what a point and a certificate are checked
    against.

    `rows` holds, per row, its free terms (column, coefficient), its pinned
    terms (index into `refs`, coefficient), its rhs and its sense, all
    times `scale`, one lcm over every row, taken from the row's check; so
    with integral pinned values, b(y) is one integer dot product per row.
    Columns are the free variables in model order, less the merged ones.
    `cost` is `objective`'s integer terms summed by column, over
    `objective`'s scale, its zero terms left out.

    A tie (`_merges`) among the model's rows, the same for every layout
    that pins nothing (`_Checked.merges`), merges w into v: `slot[w]` is
    v's column, so w's coefficients in every row and its cost add onto v's
    column, and the tie row itself becomes the constant row 0 = 0 (an
    integer mark needs nothing: w's value is v's, and the column has one
    pair of bound rows, not one per variable).  `ties` lists each merge as (tie row, v's
    position, w's position, a, v's other terms as (row, coefficient)), a
    and the coefficients read off the rows' checks, for the postsolve: w
    takes v's value and its entry in an unbounded ray, and the tie row the
    multiplier `_tied` gives it.
    """

    __slots__ = (
        "model", "refs", "position", "slot", "columns", "scale", "rows", "cost", "checks", "objective", "ties",
    )

    def __init__(
        self, base: _Checked, refs: tuple[VarRef, ...], added: Sequence[_Check] = (), objective: _Objective | None = None
    ):
        self.model, self.refs, self.position = base.model, refs, base.position
        self.checks, self.objective = [*base.checks, *added], objective or base.objective
        # per model variable: its free column j >= 0, or ~k for refs[k]
        self.slot = [0] * len(self.model.variables)
        for k, v in enumerate(refs):
            self.slot[self.position[v]] = ~k
        self.ties = self._ties(_merges(base.checks, self.slot) if refs else base.merges)
        absorbed = {w for _, _, w, _, _ in self.ties}
        self.columns = [i for i, s in enumerate(self.slot) if s >= 0 and i not in absorbed]
        for j, i in enumerate(self.columns):
            self.slot[i] = j
        for _, v, w, _, _ in self.ties:
            self.slot[w] = self.slot[v]
        self.scale = lcm(*(own for *_, own in self.checks))
        self.rows = [self.split(check) for check in self.checks]
        self.cost = dict(_summed((self.slot[i], c) for i, c in self.objective[1] if self.slot[i] >= 0))

    def _ties(self, merges: list) -> list[tuple[int, int, int, int, list[tuple[int, int]]]]:
        """Each merge with v's terms in the other rows' checks, the added
        rows included."""
        ties = [(r, v, w, a, []) for r, v, w, a in merges]
        if ties:
            kept = {v: (r, terms) for r, v, _, _, terms in ties}
            for s, (_, terms, *_) in enumerate(self.checks):
                for i, c in terms:
                    if i in kept and kept[i][0] != s:
                        kept[i][1].append((s, c))
        return ties

    def split(self, check: _Check) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int, str]:
        """(free terms, pinned terms, rhs, sense) of a row given by its
        check, times `scale`.  With ties merged, terms on one column add up,
        and a column whose terms cancel is left out."""
        _, terms, rhs, sense, own = check
        free, pinned, up, slot = [], [], self.scale // own, self.slot
        for i, c in terms:
            s = slot[i]
            if s >= 0:
                free.append((s, c * up))
            else:
                pinned.append((~s, c * up))
        if self.ties:
            free = _summed(free)
        return free, pinned, rhs * up, sense


def _summed(terms: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Terms (key, coefficient) summed by key, in the order each key first
    appears, the keys whose sum is zero left out."""
    summed: dict[int, int] = {}
    for k, c in terms:
        summed[k] = summed.get(k, 0) + c
    return [(k, c) for k, c in summed.items() if c]


def _merges(checks: Sequence[_Check], slot: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """The ties that merge, in the canonical row order (`_canonical`): an
    `=` row a v - a w = 0 of two free variables (slot >= 0) that no earlier
    merge touches, v the earlier of the two in model order, as (tie row,
    v's position, w's position, a).  A tie with a pinned side and a tie
    that shares a variable with an earlier merge stay rows."""
    merges, merged = [], set()
    for r in _canonical(checks):
        _, terms, rhs, sense, _ = checks[r]
        if len(terms) != 2 or sense != "=" or rhs:
            continue
        (i, a), (k, b) = terms
        if a + b or slot[i] < 0 or slot[k] < 0 or i in merged or k in merged:
            continue
        merges.append((r, i, k, a) if i < k else (r, k, i, b))
        merged.update((i, k))
    return merges


def _canonical(checks: Sequence[_Check]) -> list[int]:
    """The rows' indices in one canonical order, sorted by their checks
    (name, terms, rhs, sense), so that what is read in it does not depend
    on the order of the model's rows."""
    return sorted(range(len(checks)), key=lambda r: checks[r][:4])


def _scaled(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and each value times it: the
    values as integers over one positive denominator.  The values are exact
    already, so nothing is checked; integral ones, as most rows are, are
    read off their numerators."""
    dens = [x.denominator for x in values]
    scale = lcm(*dens)
    if scale == 1:
        return 1, [x.numerator for x in values]
    return scale, [x.numerator * (scale // d) for x, d in zip(values, dens)]


def _recheck(rows: _Rows, point: _Point, checks: Sequence[_Check] | None = None) -> tuple[list[str], Fraction]:
    """`model.violations` and `objective_value` of `point` in integers,
    against `checks`, `rows.checks` unless given (a branch-and-bound
    node's carry its own bounds): each row, scaled by its own lcm, is
    compared with its rhs by integer dot products."""
    common, xs = point
    bad = []
    for name, terms, rhs, sense, _ in rows.checks if checks is None else checks:
        if not holds(sum(c * xs[i] for i, c in terms), sense, rhs * common):
            bad.append(name)
    bad.extend(v.name for v, x in zip(rows.model.variables, xs) if x < 0)
    obj_scale, terms = rows.objective
    return bad, Fraction(sum(c * xs[i] for i, c in terms), obj_scale * common)


def _values(variables: Sequence[VarRef], point: _Point) -> dict[VarRef, Fraction]:
    """A point's nonzero values as Fractions, as a caller receives them."""
    common, xs = point
    return {v: Fraction(x, common) for v, x in zip(variables, xs) if x}


def _fractions(rows: _Rows, m: list[int], scale: int) -> tuple[Fraction, ...]:
    """Integer multipliers m on `rows.checks` over `scale` as one
    multiplier per model row in the row's own terms, u_r = m_r own_r /
    scale: the form a caller receives."""
    return tuple(Fraction(x * check[4], scale) if x else _ZERO for x, check in zip(m, rows.checks))


def _integral(rows: _Rows, u: Sequence[Fraction]) -> tuple[list[int], int]:
    """Multipliers u, one per model row in the row's own terms, as integers
    on `rows.checks` over one positive scale (`_fractions` undone)."""
    scale, m = _scaled([Fraction(x.numerator, x.denominator * check[4]) for x, check in zip(u, rows.checks)])
    return m, scale


def _tied(rows: _Rows, m: list[int], scale: int, objective: _Objective | None = None) -> tuple[list[int], int]:
    """Give each merged tie row its multiplier in m, integer multipliers on
    `rows.checks` over `scale`, once every other row has its own: duals
    priced against `objective`, given as `rows.objective` is, or a ray,
    given none.  Returns m and the scale, both multiplied by one positive
    factor when a division below is not exact, which leaves the
    certificate as it was.

    With g^rest the other rows' combination, the tie's multiplier lambda
    adds lambda a to g_v and takes it from g_w; the merged column saw
    g^rest_v + g^rest_w.  For duals, lambda a = c_v - g^rest_v, the top of
    [g^rest_w - c_w, c_v - g^rest_v], which is nonempty because the merged
    column prices nonnegatively; so both columns price.  For a ray, c = 0
    and lambda a = -g^rest_v, which leaves g_v = 0 and g_w = g^rest_v +
    g^rest_w <= 0.  In integers, a being v's coefficient in the tie's check
    and the objective over obj_scale, lambda = (c_v scale - obj_scale
    g^rest_v) / (obj_scale a).
    """
    if not rows.ties:
        return m, scale
    obj_scale, terms = objective or (1, ())
    cost = dict(terms)
    for r, v, _, a, rest in rows.ties:
        top = cost.get(v, 0) * scale - obj_scale * sum(m[s] * c for s, c in rest if m[s])
        divisor = obj_scale * a
        if top % divisor:
            k = abs(divisor) // gcd(top, divisor)
            m, scale, top = [x * k for x in m], scale * k, top * k
        m[r] = top // divisor
    return m, scale


def _infeasible(rows: _Rows, ray: tuple[list[int], int], y: tuple) -> LpSolution:
    """The Infeasible answer with `rows.refs` pinned to `y` whose Farkas ray
    is the integer `ray` (`_ray`, `_rhs`)."""
    return LpSolution(SolveStatus.INFEASIBLE, {}, None, _fractions(rows, *ray), dict(zip(rows.refs, map(Fraction, y))))


def _rhs(rows: _Rows, y: tuple) -> tuple[int, list[int], tuple[list[int], int] | None]:
    """(q, b(y), ray): the lcm q of the pinned values' denominators, and
    per model row its rhs less its pinned terms, times q; one dot product
    per row.  A row left with no free variable is a constant check, a
    merged tie's 0 = 0 among them, and the first that fails ends b and
    gives the Farkas ray, +-1 on that row alone by the sign of its rhs, in
    integers as `_ray` gives one; else the ray is None."""
    q, pins = _scaled(y)
    b = []
    for r, (free, pinned, rhs, sense) in enumerate(rows.rows):
        br = rhs * q - sum(c * pins[k] for k, c in pinned)
        b.append(br)
        if not free and not holds(0, sense, br):
            m = [0] * len(rows.checks)
            m[r] = 1 if br > 0 else -1
            return q, b, _tied(rows, m, rows.checks[r][4])
    return q, b, None


def _tableau(rows: _Rows, q: int, cost: Mapping[int, int] | None) -> _Tableau:
    """The tableau of the model for pinned values whose denominators have
    the lcm q (`_rhs`), for `cost` (`_Tableau`), with each `=` row's
    artificial driven out (`_drive_out`) and a zero right-hand side, which
    `_resolve` sets.

    Every row is scaled by q, and the tableau by `rows.scale` times q.
    Constant rows are left out, and the others come in the canonical order
    (`_canonical`), so that no answer depends on the order of the model's
    rows.  A row's sign comes from its sense alone: a `>=` row enters
    negated, so every inequality starts on a +1 slack, and only the `=`
    rows carry artificials.  Columns are `rows.columns`, then a slack per
    inequality row, then an artificial per `=` row, each in tableau row
    order; the artificial columns stay, so B^-1 stays readable at each
    row's starting column.  No reduced-cost row is built: an LP prices its
    own once its basis is feasible (`_resolve`).
    """
    kept = [r for r in _canonical(rows.checks) if rows.rows[r][0]]
    equal = sum(rows.rows[r][3] == "=" for r in kept)
    slack = len(rows.columns)
    art = width = slack + len(kept) - equal
    table: list[list[int]] = []
    start: list[int] = []
    origin: list[tuple[int, int]] = []
    for r in kept:
        free, _, _, sense = rows.rows[r]
        sign = -1 if sense == ">=" else 1
        row = [0] * (width + equal + 1)
        for j, c in free:
            row[j] = sign * q * c
        if sense == "=":
            j, art = art, art + 1
        else:
            j, slack = slack, slack + 1
        row[j] = 1
        table.append(row)
        start.append(j)
        origin.append((r, sign))
    t = _Tableau(table, start, origin, width, rows.scale * q, cost)
    _drive_out(t)
    return t


def _dual_simplex(t: _Tableau) -> int:
    """Bland's dual simplex (Lemke 1954) from a dual feasible basis: the
    reduced-cost row `t.red` nonnegative on every real column, or no cost
    row at all, so that every basis is dual feasible.

    While some row's rhs is negative, the one whose basic column comes first
    leaves, and among the real columns with a negative cell in it the one
    with the least ratio red_j / -a_j enters, ties going to the first
    column; so the pivots do not cycle.  Each ratio divides a reduced cost
    by a cell of the leaving row, so the two rows' denominators are common
    to every ratio and cancel when two are cross-multiplied.  Returns -1
    once no rhs is negative, or the leaving row when no cell in it is
    negative: over nonnegative variables its left-hand side cannot be
    negative, so the row refutes the LP.  Artificial columns never enter.
    """
    n = t.width
    while True:
        leave = -1
        for i, row in enumerate(t.rows):
            if row[-1] < 0 and (leave < 0 or t.basis[i] < t.basis[leave]):
                leave = i
        if leave < 0:
            return -1
        row, enter, red = t.rows[leave], -1, t.red
        if red is not None:
            for j in range(n):
                a = row[j]
                # red_j / -a_j < red_enter / -a_enter, cross-multiplied
                if a < 0 and (enter < 0 or red[j] * row[enter] > red[enter] * a):
                    enter = j
        else:
            enter = next((j for j in range(n) if row[j] < 0), -1)
        if enter < 0:
            return leave
        _pivot(t, leave, enter)


def _drive_out(t: _Tableau) -> None:
    """Drive each `=` row's artificial out of the basis, on the first real
    column with a nonzero cell in its row, through the one pivot routine;
    no choice reads the right-hand side.

    A row with no real column left is dependent, and `t.dependent` lists
    it: it stays where it is, its artificial basic, and no later pivot
    touches it, since its cell in every real column is zero, so that each
    right-hand side is checked against it (`_resolve`).
    """
    n = t.width
    for i, j in enumerate(t.basis):
        if j >= n:
            enter = next((k for k in range(n) if t.rows[i][k]), -1)
            if enter >= 0:
                _pivot(t, i, enter)
    t.dependent = [i for i, j in enumerate(t.basis) if j >= n]


def _ray(rows: _Rows, t: _Tableau, i: int) -> tuple[list[int], int]:
    """The Farkas ray of tableau row i, which refutes the LP (`_resolve`),
    as integer multipliers on `rows.checks` over a positive scale, the
    merged ties' last (`_tied`): the row of B^-1, read at each row's
    starting column over the row's denominator, signed back to model row
    origin[r] and negated when the rhs is negative, so that it combines the
    rows into g x >= alpha with g <= 0 on every free column and alpha > 0.
    Row r entered as sign_r times its check times scale / own_r, so s
    sign_r times its cell times scale / own_r, s the sign of the rhs, is
    its multiplier, over den times scale."""
    row, m, scale = t.rows[i], [0] * len(rows.checks), rows.scale
    s = 1 if row[-1] > 0 else -1
    for j, (r, sign) in zip(t.start, t.origin):
        if row[j]:
            m[r] = s * sign * row[j] * (scale // rows.checks[r][4])
    return _tied(rows, m, t.den[i] * scale)


def _duals(rows: _Rows, t: _Tableau, objective: _Objective) -> tuple[list[int], int]:
    """The duals of t's optimal reduced-cost row, of `objective` (given as
    `rows.objective` is), which entered the tableau as its integer terms
    by column, so times its scale, as integer multipliers on `rows.checks`
    over a positive scale, the merged ties' last (`_tied`): at row r's
    starting column, whose cost is zero, u = -red, signed back to model
    row origin[r].  The tableau is scaled by t.scale, so the cell times
    -sign_r t.scale / own_r is r's multiplier, over red_den times the
    objective's scale."""
    red, m = t.red, [0] * len(rows.checks)
    for j, (r, sign) in zip(t.start, t.origin):
        if red[j]:
            m[r] = -sign * red[j] * (t.scale // rows.checks[r][4])
    return _tied(rows, m, t.red_den * objective[0], objective)


# What `_resolve` decides: (status, refuting row or entering column, point, objective).
_Outcome = tuple[SolveStatus, int, _Point | None, Fraction | None]


def _resolve(rows: _Rows, t: _Tableau, y: tuple, b: list[int], checks: Sequence[_Check] | None = None) -> _Outcome | None:
    """Decide the LP of a tableau of `rows` at the right-hand side `b`, one
    integer per model row over the tableau's scale, with `rows.refs` pinned
    to `y`: the one routine for every LP, a cold one (`_solve`), a capacity
    sweep's, whose b is b(y) (`_rhs`), and every branch-and-bound node's,
    whose b differs from the root's in its bound rows alone (Applegate,
    Cook, Dash and Espinoza 2007 re-solve exact LPs from a kept basis the
    same way).

    Each row's rhs becomes B^-1 b: row r started as sign_r times model row
    r with identity column start[r], so that column now holds B^-1 e_r over
    each row's denominator, and the new rhs of row i is the integer dot
    product of row i at the starting columns with the signed b.  The
    basis, and so its reduced costs, are unchanged: a kept cost row was
    optimal and stays dual feasible, as every basis is without one.

    A dependent row (`_drive_out`) with a nonzero rhs, or a row at which
    the dual simplex stops (`_dual_simplex`), refutes the LP: the outcome
    is (INFEASIBLE, that row, None, None), and the callers that take its
    Farkas ray read it off that row (`_ray`).  Else a tableau with no cost
    (a projection's) returns None: the LP is feasible.  Otherwise phase 2
    runs, on the kept cost row or on one priced at the feasible basis, and
    the basic point, with the pins and each merged variable at its
    column's value, is re-checked against `checks` (`_recheck`): the
    outcome is (OPTIMAL, -1, point, objective), or (UNBOUNDED, the column
    that entered with no row to leave, point, objective).  No certificate
    is read here: `_answer` reads one for `solve_lp`, a sweep when it
    keeps a test, and a branch-and-bound node none.

    The point is (common, xs), one integer per model variable over one
    denominator, in lowest terms: over d q, d the current determinant and
    q the lcm of the pins' denominators, a basic value row[-1] / den is
    row[-1] d // den q, exact since a row is integral over any later
    determinant (`_pivot`), and a pin y_k = pins[k] / q is pins[k] d.
    The objective is the one Fraction built here.
    """
    signed = [(j, sign * b[r]) for j, (r, sign) in zip(t.start, t.origin) if b[r]]
    for row in t.rows:
        row[-1] = sum([row[j] * br for j, br in signed])
    leave = next((i for i in t.dependent if t.rows[i][-1]), -1)
    if leave < 0:
        leave = _dual_simplex(t)
    if leave >= 0:
        return SolveStatus.INFEASIBLE, leave, None, None
    if t.red is None:
        if t.cost is None:
            return None
        _priced(t, t.cost)
    unbounded = _bland_simplex(t)
    (q, pins), d, columns = _scaled(y), t.d, rows.columns
    xs = [0] * len(rows.slot)
    for k, i in enumerate(rows.slot):
        if i < 0:
            xs[k] = pins[~i] * d
    for row, i, den in zip(t.rows, t.basis, t.den):
        if i < len(columns):
            xs[columns[i]] = row[-1] * d // den * q
    for _, v, w, _, _ in rows.ties:
        xs[w] = xs[v]
    common = gcd(d * q, *xs)
    point = d * q // common, [x // common for x in xs]
    bad, objective = _recheck(rows, point, checks)
    if bad:
        raise NetcapError(f"solver returned an infeasible point; broken rows {bad!r}")
    return SolveStatus.UNBOUNDED if unbounded >= 0 else SolveStatus.OPTIMAL, unbounded, point, objective


def _answer(rows: _Rows, t: _Tableau, y: tuple, outcome: _Outcome | None) -> LpSolution | None:
    """The answer that `solve_lp` returns for `_resolve`'s outcome on t,
    read off t before any later LP moves it, its point (`_values`) and
    certificate as Fractions (`_fractions`): an Infeasible one's Farkas
    ray (`_ray`), an Optimal one's duals (`_duals`), and an Unbounded
    one's ray along the column that entered, which rises by one while each
    basic variable falls by its cell in it, a merged variable moving with
    the column it merged into.  None stays None."""
    if outcome is None:
        return None
    status, k, point, objective = outcome
    if status is SolveStatus.INFEASIBLE:
        return _infeasible(rows, _ray(rows, t, k), y)
    variables, columns = rows.model.variables, rows.columns
    assignment = _values(variables, point)
    fixed = dict(zip(rows.refs, map(Fraction, y)))
    if status is SolveStatus.UNBOUNDED:
        ray = {
            variables[columns[i]]: Fraction(-row[k], den)
            for row, i, den in zip(t.rows, t.basis, t.den)
            if i < len(columns) and row[k]
        }
        if k < len(columns):
            ray[variables[columns[k]]] = _ONE
        for _, v, w, _, _ in rows.ties:
            if variables[v] in ray:
                ray[variables[w]] = ray[variables[v]]
        return LpSolution(SolveStatus.UNBOUNDED, assignment, None, (), fixed, ray)
    duals = _fractions(rows, *_duals(rows, t, rows.objective))
    return LpSolution(SolveStatus.OPTIMAL, assignment, objective, duals, fixed)


def _solve(rows: _Rows, y: tuple, priced: bool = True) -> LpSolution | None:
    """The LP of the model with `rows.refs` pinned to `y`, from a fresh
    tableau (`_rhs`, `_tableau`, `_resolve`), as `solve_lp` answers it
    (`_answer`).  Unless `priced`, it has no cost, and a feasible LP
    returns None."""
    q, b, ray = _rhs(rows, y)
    if ray:
        return _infeasible(rows, ray, y)
    t = _tableau(rows, q, rows.cost if priced else None)
    return _answer(rows, t, y, _resolve(rows, t, y, b))


def solve_lp(model: MipModel, *, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED) -> LpSolution:
    """Solve the model as a pure LP, exactly, with the `fixed` variables pinned.

    Integer variables left free are rejected; the continuous relaxation is
    the model without integer marks, `replace(model, integer=frozenset())`.
    Optimal points include the pinned values, count them in the objective,
    and are re-checked in integers against every original constraint
    before being returned (`_recheck`).  The certificate is read off the
    final tableau (`_answer`): the duals off the reduced-cost row
    (`_duals`), an Infeasible answer's Farkas ray off one row of B^-1
    (`_ray`) or a failed constant row (`_rhs`), each signed back to the
    rows as written, a merged tie's multiplier postsolved (`_tied`); an
    Unbounded answer carries the last basic point, checked like an
    optimum, and the ray along the column that entered with no row to
    leave.
    """
    pinned = pinned_values(model, fixed)
    if any(v not in pinned for v in model.integer):
        raise PreconditionError(
            "model has integer variables; use solve_mip, pin them, or clear the model's integer marks"
        )
    return _solve(_Rows(_Checked(model), tuple(pinned)), tuple(pinned.values()))


def feasible(model: MipModel, fixed: Mapping[VarRef, Fraction] = _NOTHING_FIXED) -> bool:
    """Feasibility of the continuous relaxation, `fixed` variables pinned:
    `solve_lp`'s path with no cost (`_solve`), which stops at the first
    feasible basis."""
    pinned = pinned_values(model, fixed)
    return _solve(_Rows(_Checked(model), tuple(pinned)), tuple(pinned.values()), priced=False) is None


def _proved_row(
    rows: _Rows,
    m: Sequence[int],
    scale: int,
    pinned: Sequence[int],
    objective: _Objective | None = None,
    y: tuple[int, Sequence[int]] = (1, ()),
) -> tuple[list[int], int] | None:
    """The row g x >= alpha, times the positive `scale`, that the integer
    multipliers m, one per row of `rows.checks`, prove on `rows.model`, as
    (g by variable position, alpha); None when they prove nothing.  This is
    the one check of every certificate, a sweep's, a root row's and one
    given to `certify` alike.  With no `objective`, m is a Farkas ray found
    with the variables at positions `pinned` pinned to y, given as (q, the
    values times q); with one, given as `rows.objective` is (a scale and
    integer terms by variable position), m are duals that price it.

    Each multiplier must combine its row the valid way (m_r <= 0 on `<=`,
    m_r >= 0 on `>=`, either sign on `=`): then g = sum_r m_r a_r and alpha
    = sum_r m_r rhs_r, over the checks, hold at every point.  A ray must
    give g_v <= 0 on every free variable and alpha > g y, so no point has
    those pins; duals must price every free variable nonnegatively, c_v
    scale >= g_v, so the objective's free part is at least (alpha - g y) /
    scale at every point (weak duality).
    """
    g = [0] * len(rows.position)
    alpha = 0
    for x, (_, terms, rhs, sense, _) in zip(m, rows.checks):
        if x:
            if x > 0 and sense == "<=" or x < 0 and sense == ">=":
                return None
            for i, c in terms:
                g[i] += x * c
            alpha += x * rhs
    skip = set(pinned)
    free = [(i, c) for i, c in enumerate(g) if i not in skip]
    if objective is None:
        q, ys = y
        if any(c > 0 for _, c in free) or alpha * q <= sum(map(mul, (g[i] for i in pinned), ys)):
            return None
    else:
        obj_scale, terms = objective
        cost = [0] * len(g)
        for i, c in terms:
            cost[i] = c
        if any(cost[i] * scale < c * obj_scale for i, c in free):
            return None
    return g, alpha


def certify(model: MipModel, answer: LpSolution) -> bool:
    """Whether an LP answer's certificate proves its status, read against
    the model's rows alone; nothing is solved.

    Infeasible: the ray, turned into integers once (`_integral`), proves a
    row (`_proved_row`).  Optimal: the duals prove one, and its bound,
    (alpha - g y) / scale plus the pinned cost, equals the reported
    objective and the point's.  Unbounded: the ray d leaves the pins alone,
    is nonnegative, keeps every row's sense (a_r d <= 0 on `<=`, >= 0 on
    `>=`, = 0 on `=`) and lowers the cost (c d < 0).  Optimal and
    Unbounded: the point names only model variables, holds the pins and
    satisfies every row.  An answer relabelled with another status does
    not certify.
    """
    fixed = answer.fixed
    if answer.status is SolveStatus.UNBOUNDED:
        d = answer.ray
        if not set(fixed) | set(d) <= set(model.variables) or set(fixed) & set(d):
            return False
        if not all(holds(con.lhs_value(d), con.sense, 0) for con in model.constraints):
            return False
        if any(c < 0 for c in d.values()) or model.objective_value(d) >= 0:
            return False
    else:
        rows = _Rows(_Checked(model), ())
        pinned = [rows.position.get(v, -1) for v in fixed]
        if len(answer.duals) != len(rows.checks) or -1 in pinned:
            return False
        m, scale = _integral(rows, answer.duals)
        if answer.status is SolveStatus.INFEASIBLE:
            return _proved_row(rows, m, scale, pinned, y=_scaled(list(fixed.values()))) is not None
        proved = _proved_row(rows, m, scale, pinned, rows.objective)
        if proved is None:
            return False
        g, alpha = proved
        dual_value = Fraction(alpha - sum(g[i] * val for i, val in zip(pinned, fixed.values())), scale)
        if not dual_value + model.objective_value(fixed) == answer.objective == model.objective_value(answer.values):
            return False
    on_model = set(answer.values) <= set(model.variables)
    pins_kept = all(answer.values.get(v, _ZERO) == val for v, val in fixed.items())
    return on_model and pins_kept and not model.violations(answer.values)


def _bound_rows(base: _Checked, bound: int, into: Mapping[int, int]) -> list[_Check]:
    """The checks of an `ub[...]` row, v <= bound, and an `lb[...]` row,
    -v <= 0, per integer column, in model order: a variable that a tie
    merges into another (`into`, w's position to v's) shares that one's
    column, and the column's rows name the first integer variable on it.
    A branch-and-bound node moves only these rows' right-hand sides, to hi
    and -lo."""
    rows, seen = [], set()
    for i, v in enumerate(base.model.variables):
        if v in base.model.integer and into.get(i, i) not in seen:
            seen.add(into.get(i, i))
            rows += (f"ub[{v.name}]", [(i, 1)], bound, "<=", 1), (f"lb[{v.name}]", [(i, -1)], 0, "<=", 1)
    return rows


def _objective_step(objective: _Objective, integer: Collection[int]) -> int:
    """The gcd of the coefficients of `objective`, given as
    `_Checked.objective` is, when every term is on an integer position and
    integral, so every integral point costs a multiple of it, 1 when there
    is no term; else 0."""
    scale, terms = objective
    if not all(i in integer and c % scale == 0 for i, c in terms):
        return 0
    return gcd(*(c // scale for _, c in terms)) or 1


def _lexicographic(objective: _Objective, integer: Sequence[int], bound: int, step: int) -> _Objective:
    """The objective M c / step + sum_i (bound + 1)^(n-1-i) y_i over the n
    integer positions y_i in model order, M = (bound + 1)^n and c the given
    `objective`, or the second sum alone when `step` is 0, as integers over
    scale 1.  Each y_i lies in [0, bound], so the sum reads y as a number in
    base bound + 1 and ranks the integer vectors lexicographically, below
    M; and with step > 0, M c / step is a multiple of M at every integral
    point, so the least value has the least c first."""
    base, n = bound + 1, len(integer)
    weights = {i: base ** (n - 1 - k) for k, i in enumerate(integer)}
    scale, terms = objective if step else (1, [])
    for i, c in terms:
        weights[i] += base**n * c // (scale * step)
    return 1, list(weights.items())


# The most network nodes that get root rows: there are 2^n - 2 node sets,
# each a tableau row and an LP at every search's root, and past six nodes
# that cost outgrew what the rows saved (ROADMAP item 6).
_ROOT_ROW_NODES = 6


def _root_rows(base: _Checked, into: Mapping[int, int]) -> list[_Check]:
    """The cut-set rows that branch and bound adds at its root, each the
    check of `root[S]: -beta y <= 0` over the model's positions, one per
    node subset S that the model's integer capacity variables cross.

    beta sums the edge-keyed variables with one end in S and the arc-keyed
    ones leaving S, each weighted ceil(c_v / c_min): c_v is v's largest
    coefficient magnitude in the model's own rows, a facility's size in a
    capacity row, and c_min the least nonzero c_v, both read off the checks
    brought to one scale; a variable in no row weighs 1.  A subset whose
    beta equals an earlier one's once each merged variable's term is put on
    the variable it merges into (`into`, w's position to v's) adds no row,
    nor does one that no variable crosses: an edge-keyed model has one row
    per bipartition, and a subset's complement crosses the same merged
    pairs as it does.  A model whose variables touch more than
    `_ROOT_ROW_NODES` nodes gets no rows: the family doubles with each
    node, and its cost at the root outgrows what it saves in the search.
    Each row is vacuous as written; `_branch_and_bound` raises its rhs to
    minus the rounded LP bound on beta (`_root_bound`).  beta is integral
    on integer variables, so every such bound, rounded up, holds at every
    integral point: the weights and the subsets set the rows' strength,
    never their validity.  In every reading these are the cut-set rows of
    Bienstock and Gunluk (1996), rounded Chvatal-Gomory style from the
    model's own rows.
    """
    caps = [(i, v) for i, v in enumerate(base.model.variables) if v in base.model.integer and v.kind == "capacity"]
    nodes = sorted({end for _, v in caps for end in v.edge or v.arc})
    if len(nodes) > _ROOT_ROW_NODES:
        return []
    scale = lcm(*(own for *_, own in base.checks))
    largest = {i: 0 for i, _ in caps}
    for _, terms, _, _, own in base.checks:
        for i, c in terms:
            if i in largest:
                largest[i] = max(largest[i], abs(c) * (scale // own))
    least = min(filter(None, largest.values()), default=1)
    weight = {i: -(-c // least) or 1 for i, c in largest.items()}
    rows, seen = [], set()
    for mask in range(1, 2 ** len(nodes) - 1):
        side = {node for k, node in enumerate(nodes) if mask >> k & 1}
        beta = [
            (i, -weight[i])
            for i, v in caps
            if ((v.edge[0] in side) != (v.edge[1] in side) if v.edge else v.arc[0] in side and v.arc[1] not in side)
        ]
        if beta and (key := frozenset(_summed((into.get(i, i), c) for i, c in beta))) not in seen:
            seen.add(key)
            rows.append((f"root[{','.join(sorted(side))}]", beta, 0, "<=", 1))
    return rows


def _priced(t: _Tableau, cost: Mapping[int, int]) -> None:
    """Give t the reduced-cost row, over t.d, of the integer `cost` by
    column at t's basis: c_j - sum_i c_basis(i) a_ij, each row i brought
    from its own denominator to t.d, exactly.  Every reduced-cost row is
    written here: phase 2's and each root row's."""
    d = t.d
    red = [0] * (len(t.rows[0]) if t.rows else t.width + 1)
    for j, c in cost.items():
        red[j] = c * d
    for row, den, j in zip(t.rows, t.den, t.basis):
        c = cost.get(j)
        if c:
            for k, a in enumerate(row):
                if a:
                    red[k] -= c * (a * d // den)
    t.red, t.red_den = red, d


def _root_bound(rows: _Rows, t: _Tableau, r: int) -> int:
    """Minimize root row r's beta y (`_root_rows`) over the search's
    relaxation, its bound rows included, from t's feasible basis, by the
    primal simplex on beta's reduced-cost row, priced at that basis
    (`_priced`), and return the optimum that the LP's duals prove
    (`_duals`, `_proved_row` given beta as the objective), rounded up;
    NetcapError when they prove none.  beta >= 0 on nonnegative
    variables, so the LP is bounded."""
    _, terms, _, _, own = rows.checks[r]
    beta = own, [(i, -c) for i, c in terms]
    _priced(t, {j: -c * own // rows.scale for j, c in rows.rows[r][0]})
    _bland_simplex(t)
    m, scale = _duals(rows, t, beta)
    proved = _proved_row(rows, m, scale, (), beta)
    if proved is None:
        raise NetcapError("the duals of a root row's LP do not bound its left-hand side")
    return -(-proved[1] // scale)


def _branch_and_bound(
    base: _Checked, objective: _Objective, roots: list[_Check], bounds: list[_Check], optimum: Sequence[_Check] = ()
) -> MipResult:
    """Depth-first branch and bound of `objective`, given as
    `_Checked.objective` is, over the integer variables of the checked
    model, each in [0, bound] by its bound rows: its optimal integral point
    as the search first reaches it, and the number of nodes.

    The search lays out one `_Rows`: the model's checks, then the
    `optimum` row if given, the root rows (`_root_rows`) and the bound
    rows (`_bound_rows`), which `solve_mip` writes once for all its
    searches.  The root LP with no cost finds a feasible basis
    (`_resolve`); from it each root row's beta is minimized in turn
    (`_root_bound`, not a node), and the row's rhs set to minus the rounded
    bound, so that every node's LP holds beta y >= ceil(LP bound), which
    every integral point of the box satisfies.  Phase 2 on the objective
    follows, its reduced-cost row priced at the basis the root rows' LPs
    end at, and its tableau is kept: every node, the root included,
    differs from it only in the right-hand sides of the root rows, set
    once, and of the bound rows, hi and -lo per integer column, so each is
    re-solved from the kept tableau by `_resolve`, its point re-checked
    against the rows with those right-hand sides.  Branching picks the
    first fractional integer variable in model order and explores the
    floor branch first; nodes are pruned when their LP bound, rounded up
    to the objective's step (`_objective_step`) when it has one, cannot
    beat the incumbent, all by exact comparison.  When the root's phase 2
    is unbounded, a search of the same rows with no objective settles
    whether any integral point exists: the answer is Unbounded if one
    does and Infeasible if not, its nodes the root plus the search's.
    """
    rows = _Rows(base, (), [*optimum, *roots, *bounds], objective)
    first = len(rows.checks) - len(bounds)
    fixed_b, fixed_checks = [rhs for _, _, rhs, _ in rows.rows[:first]], rows.checks[:first]
    # each bound pair's column, from its `ub` row's one term, and each integer variable's pair
    column = {rows.slot[terms[0][0]]: k for k, (_, terms, *_) in enumerate(bounds[::2])}
    int_order = [(i, column[rows.slot[i]]) for i, v in enumerate(base.model.variables) if v in base.model.integer]
    step = _objective_step(objective, {i for i, _ in int_order})
    _, root_b, ray = _rhs(rows, ())
    t = _tableau(rows, 1, None)
    if ray or _resolve(rows, t, (), root_b) is not None:
        return MipResult(SolveStatus.INFEASIBLE, {}, None, nodes=1)
    t.cost = rows.cost
    for r in range(first - len(roots), first):
        least = _root_bound(rows, t, r)
        name, terms, _, sense, own = fixed_checks[r]
        fixed_b[r], fixed_checks[r] = -least * rows.scale, (name, terms, -least, sense, own)
    _priced(t, t.cost)
    if _bland_simplex(t) >= 0:
        # Integer variables are boxed, so the ray lives in continuous
        # variables, and every node, which moves only right-hand sides,
        # keeps it: the MIP is unbounded iff it is feasible at all, which a
        # search with no objective settles at its first integral node.
        probe = _branch_and_bound(base, (1, []), roots, bounds, optimum)
        status = SolveStatus.UNBOUNDED if probe.status is SolveStatus.OPTIMAL else SolveStatus.INFEASIBLE
        return MipResult(status, {}, None, nodes=1 + probe.nodes)
    incumbent: _Point = (1, [])
    incumbent_obj: Fraction | None = None
    nodes = 0
    stack = [tuple(rhs for _, _, rhs, _, _ in bounds)]  # (hi, -lo) per column
    while stack:
        ends = stack.pop()
        nodes += 1
        b = fixed_b + [rows.scale * end for end in ends]
        checks = fixed_checks + [
            (name, terms, end, sense, own) for (name, terms, _, sense, own), end in zip(bounds, ends)
        ]
        status, _, point, value = _resolve(rows, t, (), b, checks)
        if status is SolveStatus.INFEASIBLE:
            continue
        node_bound = -(-value.numerator // (value.denominator * step)) * step if step else value
        if incumbent_obj is not None and node_bound >= incumbent_obj:
            continue
        common, xs = point
        branch = next(((k, x) for i, k in int_order if (x := xs[i]) % common), None)
        if branch is None:
            incumbent, incumbent_obj = point, value
            continue
        k, x = branch
        floor = x // common
        up, down = list(ends), list(ends)
        up[2 * k + 1], down[2 * k] = -(floor + 1), floor
        stack += tuple(up), tuple(down)
    if incumbent_obj is None:
        return MipResult(SolveStatus.INFEASIBLE, {}, None, nodes=nodes)
    return MipResult(SolveStatus.OPTIMAL, _values(rows.model.variables, incumbent), incumbent_obj, nodes=nodes)


def solve_mip(model: MipModel, bound: int) -> MipResult:
    """Exact branch and bound over the model's integer variables, returning
    the canonical optimum: the lexicographically least integer vector, in
    model order, among the optima, with the flows of a cold `solve_lp` at
    that vector.

    Every integer variable lies in [0, bound], `bound` being one
    nonnegative int; any other bound raises MissingBoundError.  The
    model's rows are checked once (`_Checked`), and its root and bound
    rows written once, for every search (`_branch_and_bound`) and the cold
    LP.  Each search re-solves its nodes from one kept tableau, so the
    vertex it stops at on a tied optimum depends on the search; the
    canonical rule makes the answer depend on the model alone, and so not
    on the cut-set rows that each search adds at its root (`_root_rows`),
    which every integral point of the box meets.  When the objective c is
    integral in the integer variables (`_objective_step` gives a step > 0,
    an empty objective included), one search finds the vector, with the
    objective of `_lexicographic`.  Otherwise a first search minimizes c,
    to z*, and a second minimizes the lexicographic weights alone under
    the added row `optimum`, c x <= z*.  `nodes` counts the nodes of every
    search; neither the root rows' LPs nor the cold LP at the end is one.
    That LP carries no root row, and it must reach c at the search's
    point, or NetcapError is raised.  A model with no integer variables is
    its root LP, in one node.  An Unbounded result carries no point
    (`values` is empty), whether or not the model has integer variables.
    """
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise MissingBoundError(f"the bound on integer variables must be a nonnegative integer: {bound!r}")
    base = _Checked(model)
    integer = [i for i, v in enumerate(model.variables) if v in model.integer]
    if not integer:
        return _cold(base, {}, 1)
    step = _objective_step(base.objective, set(integer))
    into = {w: v for _, v, w, _ in base.merges}
    roots, bounds = _root_rows(base, into), _bound_rows(base, bound, into)
    if step:
        found = _branch_and_bound(base, _lexicographic(base.objective, integer, bound, step), roots, bounds)
    else:
        found = _branch_and_bound(base, base.objective, roots, bounds)
        if found.status is SolveStatus.OPTIMAL:
            (scale, terms), z = base.objective, found.objective
            own = lcm(scale, z.denominator)
            at_most = "optimum", [(i, c * own // scale) for i, c in terms], z.numerator * own // z.denominator, "<=", own
            least = _branch_and_bound(base, _lexicographic(base.objective, integer, bound, 0), roots, bounds, [at_most])
            found = replace(least, nodes=found.nodes + least.nodes)
    if found.status is not SolveStatus.OPTIMAL:
        return found
    answer = _cold(base, {v: found.values.get(v, _ZERO) for v in model.variables if v in model.integer}, found.nodes)
    if answer.objective != model.objective_value(found.values):
        raise NetcapError("the LP at the optimal integer vector does not reach the optimum")
    return answer


def _cold(base: _Checked, fixed: Mapping[VarRef, Fraction], nodes: int) -> MipResult:
    """The status of `solve_lp` of the checked model with `fixed` pinned
    and, at an optimum, its point and objective, read with no certificate,
    with `nodes`: the LPs of `solve_mip` outside its searches."""
    rows, y = _Rows(base, tuple(fixed)), tuple(fixed.values())
    q, b, ray = _rhs(rows, y)
    if ray:
        return MipResult(SolveStatus.INFEASIBLE, {}, None, nodes)
    status, _, point, objective = _resolve(rows, _tableau(rows, q, rows.cost), y, b)
    if status is not SolveStatus.OPTIMAL:
        return MipResult(status, {}, None, nodes)
    return MipResult(status, _values(rows.model.variables, point), objective, nodes)


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
    """Feasibility of the flow system once capacities are pinned (`feasible`)."""
    return feasible(model, _as_cap_refs(model, capacities))


class CapacitySweep:
    """Decides the capacity vectors of a box, swept in graded order over one
    model, by dominance, by a checked certificate kept from an earlier
    vector, or by an LP.

    Every vector pins the same variables, `refs`, and feasibility is upward
    closed in them (more capacity never hurts), so in a graded sweep every
    vector found feasible while undominated is minimal (`minimal`).

    A Farkas ray that proves one vector infeasible combines the rows into
    g x >= alpha with g_v <= 0 on every free variable, so beta y >= alpha,
    beta being g on `refs`, holds at every feasible y (for the undirected
    model, a metric inequality) and refutes each y with beta y < alpha.

    Given a `>=` row, the sweep also asks whether the row holds at each
    feasible vector.  Its model then minimizes the row's part off `refs`,
    which replaces the model's objective, and each vector where an LP finds
    the row broken is recorded with the row's least left-hand side there,
    as (vec, lhs), in `violations`.  The dual feasible set does not depend
    on y, so the row g x >= alpha (times `scale`) that an Optimal LP's
    duals prove bounds the objective at every feasible y from below by
    (alpha - g y) / scale: weak duality, a Benders optimality cut.  The row
    holds at y when that bound plus the row's terms on `refs` reaches its
    rhs, one test B y <= A.

    The sweep builds one tableau, at its first LP, and solves every LP on
    it (`_resolve`): the pins move only the right-hand side, so a Bland
    dual simplex (Lemke 1954) takes the kept basis to the new vector's
    answer.  The basis is dual feasible: the tableau has no cost row until
    an LP with a row is first feasible, and then an optimal one.  An
    Infeasible LP's ray is read off the row that refutes it (`_ray`), and
    an Optimal one's point is re-checked (`_recheck`) and its duals read
    (`_duals`), both as integer multipliers; no answer is built.  The kept
    tableau keeps its dependent rows and checks each new right-hand side
    against them: at some pins they may refute the LP.

    Each certificate is checked by the row it proves (`_proved_row`), as
    `certify` checks one, before its test is kept, as coprime integers, so
    that testing a vector is one integer dot product; a test already kept
    is kept once.  `lp_solved`, `ray_refuted` and `bound_proved` count how
    vectors were decided.  The model's integer rows are built once, for
    the whole sweep.
    """

    def __init__(self, model: MipModel, refs: tuple[VarRef, ...], row: LinearConstraint | None = None):
        self.model, self.refs, self.row = model, refs, row
        self.minimal: list[tuple[int, ...]] = []
        self.violations: list[tuple[tuple[int, ...], Fraction]] = []
        self.lp_solved = self.ray_refuted = self.bound_proved = 0
        # (alpha, beta) and (A, B), in learning order
        self._rays: dict[tuple[int, tuple[int, ...]], None] = {}
        self._bounds: dict[tuple[int, tuple[int, ...]], None] = {}
        self._learned: set[tuple[int, tuple[int, ...]]] = set()  # coprime (scale, duals) whose test is kept
        self._kept: _Tableau | None = None  # the one tableau, built at the first LP
        pinned_values(model, dict.fromkeys(refs, 0))  # refs are the model's variables
        if row is not None:
            if row.sense != ">=":
                raise PreconditionError(
                    f"the sweep minimizes the row's left-hand side, so it needs a '>=' row, not {row.sense!r}"
                )
            self.model = model.with_objective({v: c for v, c in row.coeffs.items() if v not in refs})
            on_refs = [row.coeffs.get(v, _ZERO) for v in refs]
            self._row_scale, (self._rhs, *self._on_refs) = _scaled((row.rhs, *on_refs))
        self._rows = _Rows(_Checked(self.model), refs)
        self._ref_positions = [self._rows.position[v] for v in refs]

    def decide(self, vec: tuple[int, ...]) -> bool:
        """Whether the model is feasible with `refs` pinned to `vec`.

        A vector that dominates a recorded one is feasible, and without a row
        that settles it; with one, a kept dual test may prove the row there.
        An undominated vector that a kept ray refutes is infeasible.  Any
        other is solved (`_solve_at`), and the LP's certificate is kept
        (`_keep`); with a row, an Optimal LP whose least left-hand side,
        its objective plus the row's terms on `refs`, is below the rhs adds
        (vec, lhs) to `violations`.  An Infeasible LP at a dominating vector
        raises, since monotonicity has broken.
        """
        dominated = any(dominates(vec, m) for m in self.minimal)
        if dominated and self.row is None:
            return True
        if dominated and self.proves(vec):
            self.bound_proved += 1
            return True
        if not dominated and self.refutes(vec):
            self.ray_refuted += 1
            return False
        self.lp_solved += 1
        status, objective, ray = self._solve_at(vec)
        if status is None:  # feasible, without a row
            self.minimal.append(vec)
            return True
        if status is SolveStatus.INFEASIBLE:
            if dominated:
                raise NetcapError(f"y={vec!r} is infeasible but dominates a feasible capacity vector")
            self._keep(*ray, (1, vec))
            return False
        self._keep(*_duals(self._rows, self._kept, self._rows.objective))
        if not dominated:
            self.minimal.append(vec)
        lhs = objective + Fraction(sum(map(mul, self._on_refs, vec)), self._row_scale)
        if lhs < self.row.rhs:
            self.violations.append((vec, lhs))
        return True

    def _solve_at(self, vec: tuple[int, ...]) -> tuple[SolveStatus | None, Fraction | None, tuple | None]:
        """The LP at `vec`, solved on the sweep's one tableau, built at its
        first LP, as (status, objective, ray): the status None when the LP
        is feasible and the sweep has no row, the objective when it is
        Optimal, and when it is Infeasible its Farkas ray (`_ray`,
        `_rhs`)."""
        rows = self._rows
        q, b, ray = _rhs(rows, vec)
        if ray:
            return SolveStatus.INFEASIBLE, None, ray
        if self._kept is None:
            self._kept = _tableau(rows, q, None if self.row is None else rows.cost)
        outcome = _resolve(rows, self._kept, vec, b)
        if outcome is None:
            return None, None, None
        status, k, _, objective = outcome
        if status is SolveStatus.INFEASIBLE:
            return status, None, _ray(rows, self._kept, k)
        return status, objective, None

    def refutes(self, vec: tuple[int, ...]) -> bool:
        """Whether a kept ray test beta y >= alpha fails at y = vec."""
        return any(sum(map(mul, beta, vec)) < alpha for alpha, beta in self._rays)

    def proves(self, vec: tuple[int, ...]) -> bool:
        """Whether a kept dual test B y <= A holds at y = vec."""
        return any(sum(map(mul, b, vec)) <= a for a, b in self._bounds)

    def _keep(self, m: list[int], scale: int, pins: tuple[int, list[int]] | None = None) -> None:
        """Check integer multipliers m on the rows' checks, over `scale`, by
        the row they prove (`_proved_row`), and keep their test: a Farkas
        ray's, found with `refs` pinned to `pins`, given as (q, the values
        times q), or, with no pins, the duals'.  Duals already learned, up to
        a positive factor, give the same test, so they are neither checked
        nor combined again: a sweep over a failing row, where nearly every
        vector is solved, meets the same few duals over and over."""
        rows, optimal = self._rows, pins is None
        if optimal:
            key = _coprime([scale, *m])
            if key in self._learned:
                return
            proved = _proved_row(rows, m, scale, self._ref_positions, rows.objective)
        else:
            proved = _proved_row(rows, m, scale, self._ref_positions, y=pins)
        if proved is None:
            raise NetcapError(
                "solver returned duals that do not bound the objective"
                if optimal
                else "solver returned a Farkas ray that does not prove infeasibility"
            )
        g, alpha = proved
        beta = [g[i] for i in self._ref_positions]
        if not optimal:
            self._rays[_coprime([alpha, *beta])] = None
            return
        # Times row_scale * scale > 0: (alpha - g y) row_scale + scale (cap y - rhs) >= 0.
        test = [alpha * self._row_scale - scale * self._rhs]
        test += [b * self._row_scale - scale * c for b, c in zip(beta, self._on_refs)]
        self._bounds[_coprime(test)] = None
        self._learned.add(key)


def _coprime(ints: list[int]) -> tuple[int, tuple[int, ...]]:
    """A test (rhs, coefficients), given as [rhs, *coefficients], divided by
    their gcd."""
    common = gcd(*ints) or 1
    return ints[0] // common, tuple(c // common for c in ints[1:])


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


def build_for_feasibility(inst: Instance, kind: ModelKind) -> MipModel:
    """Build the smallest model equivalent to `kind` for feasibility checks:
    `build` over `reduced_commodities`.  A variant's tie rows
    (`add_flow_symmetry`, `equalize_directed`) are added by the caller, and
    a caller that needs more commodities calls `build` with them.
    """
    return build(inst, kind, commodities=reduced_commodities(inst))

