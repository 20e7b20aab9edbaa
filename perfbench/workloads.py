"""The three benchmark workloads: case generation, timed execution, checks.

Every workload is a closed loop with one caller: a unit (one generated
instance) starts when the previous one has returned.  Set-up draws the
instances from `netcap.randgen` in generator order and renders each one to
instance JSON; the timed region of a unit starts at `core.parse_instance`.

Draws are kept by a fixed quota per stratum, so every seed yields the same
mix of instance sizes and only their contents differ.  Without quotas the
sum over a short case list moves with the share of large boxes a seed
happens to draw, by far more than any timing noise.  Draws in a full or
unlisted stratum are passed over; the unlisted ones are the large boxes
whose single cases run for seconds (see NOTES.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

MAX_DRAWS = 10_000

# Stratum -> number of draws kept.  A stratum is (capacity bound, number of
# commodities with traffic), after the network shape and menu size for cut
# checks; the commodity count sets the LP size, and with it most of a case's
# cost at a given bound.
COROLLARY_QUOTA = {
    (1, 2): 1, (1, 4): 1, (1, 6): 1, (2, 2): 1, (2, 4): 2, (2, 6): 2, (3, 4): 3, (3, 6): 4,
}
# Branch-and-bound work varies widely between instances, so the mip mix
# takes many cheap bound-1 units besides the bound-2 ones.
MIP_QUOTA = {(1, 4): 5, (1, 6): 5, (2, 6): 6}
CUTCHECK_QUOTA = {
    ("triangle", 1, 1, 2): 12,
    ("triangle", 1, 1, 4): 16,
    **{("two-node", menu, bound, 2): menu for menu in (1, 2) for bound in (1, 2, 3, 4)},
}

# Readings solved per mip instance, in order.  The first four are the
# pure-capacity readings whose optima must agree.
MIP_READINGS = ("undirected", "averaged", "averaged/mirror-flows", "bidirected/doubled-averaged",
                "bidirected", "directed")
MIP_AGREEING = 4


@dataclass
class Unit:
    """One generated instance and everything its timed region needs."""

    text: str
    spec: object = None  # CutsetSpec for cutcheck units


def _stratified(draw: Callable[[], object], key: Callable[[object], object], quota: dict) -> list:
    taken = dict.fromkeys(quota, 0)
    kept = []
    for _ in range(MAX_DRAWS):
        item = draw()
        k = key(item)
        if k in quota and taken[k] < quota[k]:
            taken[k] += 1
            kept.append(item)
            if taken == quota:
                return kept
    raise RuntimeError(f"quota {quota} not filled within {MAX_DRAWS} draws")


def generate(lib, workload: str, seed: int) -> list[Unit]:
    """The unit list of one workload for one seed (set-up, not timed)."""
    rng = random.Random(seed)
    randgen, projlab = lib.randgen, lib.projlab
    render = lib.core.render_instance

    def size(inst):
        return projlab.capacity_bound(inst), len(lib.solver.reduced_commodities(inst))

    if workload in ("corollary", "mip"):
        quota = COROLLARY_QUOTA if workload == "corollary" else MIP_QUOTA
        insts = _stratified(lambda: randgen.triangle_corollary_instance(rng), size, quota)
        return [Unit(render(inst)) for inst in insts]
    if workload == "cutcheck":
        def draw():
            while True:
                inst = randgen.cut_check_instance(rng)
                spec = randgen.random_cutset_spec(rng, inst)
                try:
                    lib.cuts.cutset_inequality(inst, spec)
                except lib.errors.VacuousCutError:
                    continue
                return inst, spec

        def key(pair):
            inst, _ = pair
            shape = "two-node" if len(inst.network.nodes) == 2 else "triangle"
            return (shape, len(inst.facilities), *size(inst))

        return [Unit(render(inst), spec) for inst, spec in _stratified(draw, key, CUTCHECK_QUOTA)]
    raise ValueError(f"unknown workload {workload!r}")


# -- timed units ---------------------------------------------------------------
#
# Each runner does the unit's library calls and nothing else; the checks run
# afterwards, outside the timed region.  `cases` receives the latency of each
# case (one project, check_cut_validity or solve_mip call).


def run_corollary(lib, unit: Unit, cases: list[float]):
    # verify_corollary calls `project` through its module global, so each
    # case is timed by rebinding that name for the length of the unit.
    projlab = lib.projlab
    inner = projlab.project

    def project(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            cases.append(time.perf_counter() - t)

    projlab.project = project
    try:
        inst = lib.core.parse_instance(unit.text)
        return projlab.verify_corollary(inst)
    finally:
        projlab.project = inner


def run_cutcheck(lib, unit: Unit, cases: list[float]):
    cuts = lib.cuts
    inst = lib.core.parse_instance(unit.text)
    ineq = cuts.cutset_inequality(inst, unit.spec)
    t = time.perf_counter()
    directed = cuts.check_cut_validity(inst, ineq)
    cases.append(time.perf_counter() - t)
    translated = cuts.translate_to_bidirected(ineq)
    t = time.perf_counter()
    bidirected = cuts.check_cut_validity(inst, translated, kind=lib.formulate.ModelKind.BIDIRECTED)
    cases.append(time.perf_counter() - t)
    return directed, bidirected


def run_mip(lib, unit: Unit, cases: list[float]):
    core, formulate, transform = lib.core, lib.formulate, lib.transform
    inst = core.parse_instance(unit.text)
    bound = lib.projlab.capacity_bound(inst)
    tstar = core.symmetric_counterpart(inst.traffic)
    star = inst.with_traffic(tstar)
    doubled = inst.with_traffic(core.scale_traffic(tstar, 2))
    builds = (
        lambda: formulate.build_undirected(inst),
        lambda: formulate.build_undirected(star),
        lambda: formulate.add_flow_symmetry(formulate.build_undirected(star)),
        lambda: formulate.build_bidirected(doubled),
        lambda: formulate.build_bidirected(inst),
        lambda: formulate.build_directed(inst),
    )
    solved = []
    for build in builds:
        model = build()
        t = time.perf_counter()
        result = lib.solver.solve_mip(model, bound)
        cases.append(time.perf_counter() - t)
        rendered = None
        if result.status is lib.solver.SolveStatus.OPTIMAL:
            rendered = transform.render_point(transform.result_point(result.values))
        solved.append((model, result, rendered))
    return bound, solved


RUNNERS = {"corollary": run_corollary, "cutcheck": run_cutcheck, "mip": run_mip}
CASES_PER_UNIT = {"corollary": 5, "cutcheck": 2, "mip": len(MIP_READINGS)}


# -- checks --------------------------------------------------------------------
#
# `outputs` returns the exact outputs compared against a reference file;
# `self_check` returns the paper's own identities that hold for every seed.
# Both work per case, so a wrong case counts once toward failed_frac.


def outputs(workload: str, result) -> list:
    if workload == "corollary":
        return [sorted(list(v) for v in entry.minimal) for _, entry in result.entries]
    if workload == "cutcheck":
        return [[check.valid, check.points] for check in result]
    _, solved = result
    return [
        [res.status.value, None if res.objective is None else str(res.objective)]
        for _, res, _ in solved
    ]


def self_check(lib, workload: str, result) -> list[str | None]:
    """One entry per case: None when the case passes, else the reason."""
    if workload == "corollary":
        base = result.entries[0][1].minimal
        return [
            None if entry.minimal == base else f"{label} differs from {result.entries[0][0]}"
            for label, entry in result.entries
        ]
    if workload == "cutcheck":
        return [None if check.valid else f"cut violated: {check.describe()}" for check in result]
    bound, solved = result
    optimal = lib.solver.SolveStatus.OPTIMAL
    base = solved[0][1].objective
    verdicts: list[str | None] = []
    for i, (model, res, rendered) in enumerate(solved):
        reading = MIP_READINGS[i]
        if res.status is not optimal:
            verdicts.append(f"{reading}: status {res.status.value}")
            continue
        broken = model.violations(res.values)
        if broken:
            verdicts.append(f"{reading}: point breaks {broken[:3]!r}")
            continue
        capacities = [res.values.get(v, Fraction(0)) for v in model.integer]
        if any(c.denominator != 1 or not 0 <= c <= bound for c in capacities):
            verdicts.append(f"{reading}: capacity not integral within the bound")
            continue
        if i < MIP_AGREEING and res.objective != base:
            verdicts.append(f"{reading}: optimum {res.objective} differs from {MIP_READINGS[0]} {base}")
            continue
        if not rendered:
            verdicts.append(f"{reading}: empty rendered point")
            continue
        verdicts.append(None)
    return verdicts
