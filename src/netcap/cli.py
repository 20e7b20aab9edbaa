"""Command-line entry point.

Subcommands: build (model export), solve (exact branch and bound),
transform (flow surgeries between models), cut (rounding inequalities),
project (capacity projections), verify (exhaustive structural checks).
`build`, `solve` and `project` read the model that `--model` and
`--variant` pick; `project` builds it with `solver.build_for_feasibility`.

Exit codes: 0 on success or full agreement, 1 when a verification fails,
`verify corollary`, `cut --check` or `project` finds no feasible capacity
vector in its box, a solve ends without an optimal point, no capacity can
route the traffic (a network whose components it crosses), or a requested
cut is vacuous, 2 on usage and input errors, and 141, with no message,
when the reader of standard output closes it early.  All numbers print as
exact rationals.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from itertools import combinations
from typing import Callable, Sequence

from .core import (
    Instance,
    Node,
    edge_between,
    load_instance,
    parse_json,
    parse_traffic,
    read_pair,
    read_text,
    render_rational,
    write_text,
)
from .cuts import (
    CutCheck,
    CutsetSpec,
    check_cut_validity,
    cutset_inequality,
    mir_data,
    translate_to_bidirected,
)
from .errors import NetcapError, NoRoutingError, PreconditionError, VacuousCutError
from .formulate import (
    MipModel,
    ModelKind,
    add_flow_symmetry,
    build,
    equalize_directed,
    render_model,
)
from .projlab import (
    capacity_bound,
    project,
    triangle_bidirected_projection,
    verify_corollary,
    verify_triangle_remark,
)
from .randgen import (
    TRIANGLE_NODES,
    four_node_corollary_instance,
    triangle_corollary_instance,
    triangle_remark_traffic,
)
from .solver import SolveStatus, build_for_feasibility, solve_mip
from .transform import (
    ModelPoint,
    drop_to_undirected,
    lift_to_bidirected,
    load_point,
    redistribute,
    render_point,
    require_capacity_keys,
    result_point,
    save_point,
    symmetrize,
)

_MODEL_CHOICES = sorted(kind.value for kind in ModelKind)

# The rows each `--variant` adds to the model it reads.
_VARIANTS: dict[str, Callable[[MipModel], MipModel]] = {
    "plain": lambda model: model,
    "symmetrized-flows": add_flow_symmetry,
    "equalized": equalize_directed,
}


def _model_from_args(inst: Instance, args: argparse.Namespace, base: Callable = build) -> MipModel:
    return _VARIANTS[args.variant](base(inst, ModelKind(args.model)))


def _emit(text: str, output: str | None) -> None:
    if output:
        write_text(output, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_build(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    text = render_model(_model_from_args(inst, args))
    _emit(text, args.output)
    return 0


def _box_bound(inst: Instance, bound: int | None) -> int | None:
    """`bound`, or if None the instance's default box bound (`capacity_bound`);
    None, the reason printed, when no capacity routes the traffic: exit 1."""
    try:
        return capacity_bound(inst) if bound is None else bound
    except NoRoutingError as exc:
        print(f"status: infeasible\nnote: {exc}")
        return None


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    model = _model_from_args(inst, args)
    if (bound := _box_bound(inst, args.bound)) is None:
        return 1
    result = solve_mip(model, bound)
    print(f"status: {result.status.value}")
    print(f"nodes: {result.nodes}")
    if result.status is not SolveStatus.OPTIMAL:
        return 1
    print(f"objective: {render_rational(result.objective)}")
    if args.output:
        save_point(result_point(result.values), args.output)
        print(f"point written to {args.output}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    point = load_point(args.point)
    if args.op in ("redistribute", "symmetrize"):
        require_capacity_keys(point, inst)
    if args.op == "redistribute":
        target = parse_traffic(parse_json(read_text(args.target)))
        out = ModelPoint(redistribute(point.flow, inst.traffic, target, inst.network), point.capacity)
    elif args.op == "symmetrize":
        out = ModelPoint(symmetrize(point.flow, inst.traffic, inst.network), point.capacity)
    elif args.op == "lift":
        out = lift_to_bidirected(point, inst)
    else:
        out = drop_to_undirected(point, inst)
    if args.output:
        save_point(out, args.output)
        print(f"point written to {args.output}")
    else:
        print(render_point(out), end="")
    return 0


def _tokens(raw: str) -> list[str]:
    """The non-empty items of a comma-separated list."""
    return [token for token in map(str.strip, raw.split(",")) if token]


def _pairs(raw: str) -> frozenset[tuple[Node, Node]]:
    """The `i>j` pairs (arcs or commodities) of a comma-separated list."""
    return frozenset(read_pair(token, ">")[1] for token in _tokens(raw))


def _report_check(label: str, report: CutCheck) -> bool:
    for line in report.describe().splitlines():
        print(f"{label}: {line}")
    return report.valid and report.points > 0


def cmd_cut(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    spec = CutsetSpec(
        side_u=frozenset(_tokens(args.side_u)),
        commodities=inst.network.commodities if args.commodities == "all" else _pairs(args.commodities),
        s_plus=_pairs(args.splus),
        s_minus=_pairs(args.sminus),
        facility=args.facility,
    )
    data = mir_data(inst, spec)
    print(data.describe())
    ineq = cutset_inequality(inst, spec)
    print(f"cut: {ineq.render()}")
    translated = translate_to_bidirected(ineq) if args.translate else None
    if translated is not None:
        print(f"translated: {translated.render()}")
    if not args.check:
        return 0
    if (bound := _box_bound(inst, args.bound)) is None:
        return 1
    ok = _report_check("directed", check_cut_validity(inst, ineq, bound=bound))
    if translated is not None:
        bidirected = check_cut_validity(inst, translated, kind=ModelKind.BIDIRECTED, bound=bound)
        ok = _report_check("bidirected", bidirected) and ok
    return 0 if ok else 1


def cmd_project(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    model = _model_from_args(inst, args, build_for_feasibility)
    if (bound := _box_bound(inst, args.bound)) is None:
        return 1
    result = project(model, bound)
    print(result.describe())
    return 0 if result.minimal else 1


def _triangle_nodes(inst: Instance) -> tuple[Node, ...]:
    """The triangle that `verify triangle` checks an instance on: the
    network's nodes when it has three, else the nodes the traffic names.
    The check reads the complete triangle with the menu [1] and no existing
    capacity, so any other instance raises PreconditionError."""
    if inst.facilities.capacities != (1,):
        raise PreconditionError(f"verify triangle needs the menu [1], not {list(inst.facilities.capacities)}")
    if inst.existing_edge or inst.existing_arc:
        raise PreconditionError("verify triangle needs an instance without existing capacity")
    network_nodes = inst.network.nodes if len(inst.network.nodes) == 3 else None
    nodes = triangle_bidirected_projection(inst.traffic, network_nodes).nodes
    for i, j in combinations(nodes, 2):
        if edge_between(i, j) not in inst.network.edges:
            raise PreconditionError(f"verify triangle needs the complete triangle; the network lacks edge {i}-{j}")
    return nodes


def cmd_verify(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = empty = total = 0
    if args.what == "corollary":
        if args.instance:
            cases = [("instance", load_instance(args.instance))]
        else:
            gen = (
                four_node_corollary_instance
                if args.shape == "four-node"
                else triangle_corollary_instance
            )
            cases = [(f"trial {i}", gen(rng)) for i in range(args.trials)]
        for label, inst in cases:
            if (bound := _box_bound(inst, args.bound)) is None:
                return 1
            rep = verify_corollary(inst, bound=bound)
            print(f"{label}: {rep.describe()}")
            empty += rep.equal and not rep.minimal_count
            failures += 0 if rep.equal else 1
            total += 1
    else:
        if args.instance:
            inst = load_instance(args.instance)
            traffics = [("instance", inst.traffic, _triangle_nodes(inst))]
        else:
            traffics = [(f"trial {i}", triangle_remark_traffic(rng), TRIANGLE_NODES) for i in range(args.trials)]
        for label, traffic, nodes in traffics:
            rep = verify_triangle_remark(traffic, args.bound, nodes)
            print(f"{label}: {rep.describe()}")
            empty += rep.passed and not rep.minimal_count
            total += 1
            failures += 0 if rep.passed else 1
    if failures:
        print(f"FAILED: {failures} of {total} checks disagree")
    if failures or empty:
        return 1
    print("all checks agree")
    return 0


def _at_least(floor: int) -> Callable[[str], int]:
    """An argparse type that reads an integer no less than `floor`, 0 or 1."""
    word = "positive" if floor else "nonnegative"

    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be a {word} integer: {text!r}")
        return value

    return read


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcap",
        description="Exact capacity-model toolkit: build, solve, transform, cut, project, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
        variants = "symmetrized-flows adds mirror-flow rows; equalized ties both orientations (directed only)"
        p.add_argument("--variant", choices=tuple(_VARIANTS), default="plain", help=variants)

    p_build = sub.add_parser("build", help="export a model as LP text")
    p_build.add_argument("instance")
    add_model_flags(p_build)
    p_build.add_argument("-o", "--output")
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", help="solve the capacity installation problem exactly")
    p_solve.add_argument("instance")
    add_model_flags(p_solve)
    p_solve.add_argument("--bound", type=_at_least(0), help="box bound for integer capacities")
    p_solve.add_argument("-o", "--output", help="write the optimal point here")
    p_solve.set_defaults(func=cmd_solve)

    p_tr = sub.add_parser("transform", help="apply a flow transform to a point file")
    tsub = p_tr.add_subparsers(dest="op", required=True)
    for op, blurb in (
        ("redistribute", "reroute onto a pair-preserving target traffic"),
        ("symmetrize", "average a flow with its reversal"),
        ("lift", "undirected point for T to bidirected point for 2T"),
        ("drop", "bidirected point for 2T back to undirected for T"),
    ):
        p_op = tsub.add_parser(op, help=blurb)
        p_op.add_argument("instance")
        p_op.add_argument("--point", required=True)
        if op == "redistribute":
            p_op.add_argument("--target", required=True, help="file with a 'traffic' array")
        p_op.add_argument("-o", "--output")
        p_op.set_defaults(func=cmd_transform)

    p_cut = sub.add_parser("cut", help="build a rounding cut-set inequality")
    p_cut.add_argument("instance")
    p_cut.add_argument("--side-u", required=True, help="comma-separated near-side nodes")
    p_cut.add_argument("--commodities", default="all", help="'all' or comma list like 1>2,1>3")
    p_cut.add_argument("--splus", default="", help="forward arcs folded into the rounding")
    p_cut.add_argument("--sminus", default="", help="backward arcs folded into the rounding")
    p_cut.add_argument("--facility", type=int, default=1)
    p_cut.add_argument("--translate", action="store_true", help="also emit the edge-capacity form")
    p_cut.add_argument("--check", action="store_true", help="enumerate feasible points and verify")
    p_cut.add_argument("--bound", type=_at_least(0), help="box bound for the validity check")
    p_cut.set_defaults(func=cmd_cut)

    p_proj = sub.add_parser("project", help="minimal capacity vectors of a model's projection")
    p_proj.add_argument("instance")
    add_model_flags(p_proj)
    p_proj.add_argument("--bound", type=_at_least(0))
    p_proj.set_defaults(func=cmd_project)

    p_ver = sub.add_parser("verify", help="run exhaustive structural checks")
    vsub = p_ver.add_subparsers(dest="what", required=True)
    p_cor = vsub.add_parser("corollary", help="five-way projection equality")
    p_cor.add_argument("instance", nargs="?")
    p_cor.add_argument("--bound", type=_at_least(0))
    p_cor.add_argument("--trials", type=_at_least(1), default=5)
    p_cor.add_argument("--seed", type=int, default=0)
    p_cor.add_argument("--shape", choices=("triangle", "four-node"), default="triangle")
    p_cor.set_defaults(func=cmd_verify)
    p_tri = vsub.add_parser("triangle", help="triangle closed form vs enumeration")
    p_tri.add_argument("instance", nargs="?")
    p_tri.add_argument("--bound", type=_at_least(0), default=3)
    p_tri.add_argument("--trials", type=_at_least(1), default=5)
    p_tri.add_argument("--seed", type=int, default=0)
    p_tri.set_defaults(func=cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early.  Point stdout at devnull so the flush at
        # exit stays quiet, and exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except VacuousCutError as exc:
        print(f"vacuous cut: {exc}", file=sys.stderr)
        return 1
    except NetcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # Print in UTF-8, the encoding files are read and written in, whatever
    # the locale; each stream keeps its error handler.
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
