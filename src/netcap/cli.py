"""Command-line entry point.

Subcommands: build (model export), solve (exact branch and bound),
transform (flow surgeries between models), cut (rounding inequalities),
project (capacity projections), verify (exhaustive structural checks).

Exit codes: 0 on success or full agreement, 1 when a verification fails,
a solve ends without an optimal point, or a requested cut is vacuous,
2 on usage and input errors.  All numbers print as exact rationals.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import (
    Arc,
    Commodity,
    Instance,
    TrafficMatrix,
    load_instance,
    parse_json,
    parse_rational,
    render_rational,
)
from .cuts import (
    CutCheck,
    CutsetSpec,
    check_cut_validity,
    cutset_inequality,
    mir_data,
    translate_to_bidirected,
)
from .errors import NetcapError, NoRoutingError, ParseError, VacuousCutError
from .formulate import (
    MipModel,
    ModelKind,
    add_flow_symmetry,
    build,
    equalize_directed,
    render_model,
)
from .projlab import VARIANTS, capacity_bound, project, verify_corollary, verify_triangle_remark
from .randgen import (
    four_node_corollary_instance,
    triangle_corollary_instance,
    triangle_remark_traffic,
)
from .solver import SolveStatus, solve_mip
from .transform import (
    ModelPoint,
    drop_to_undirected,
    lift_to_bidirected,
    load_point,
    redistribute,
    render_point,
    result_point,
    save_point,
    symmetrize,
)

_MODEL_CHOICES = sorted(kind.value for kind in ModelKind)


def _model_from_args(inst: Instance, args: argparse.Namespace) -> MipModel:
    model = build(inst, ModelKind(args.model))
    if getattr(args, "symmetrize_flows", False):
        model = add_flow_symmetry(model)
    if getattr(args, "equalize", False):
        model = equalize_directed(model)
    return model


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_build(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    text = render_model(_model_from_args(inst, args))
    _emit(text, args.output)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    model = _model_from_args(inst, args)
    if args.bound is not None:
        bound = args.bound
    else:
        try:
            bound = capacity_bound(inst)
        except NoRoutingError as exc:
            print("status: infeasible")
            print(f"note: {exc}")
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


def _traffic_from_file(path: str) -> TrafficMatrix:
    try:
        doc = parse_json(Path(path).read_text())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("traffic"), list):
        raise ParseError(f"{path}: expected an object with a 'traffic' array")
    entries: dict[Commodity, Fraction] = {}
    for row in doc["traffic"]:
        if not isinstance(row, dict) or not {"from", "to", "amount"} <= row.keys():
            raise ParseError(f"{path}: traffic rows need 'from', 'to' and 'amount'")
        key = (str(row["from"]), str(row["to"]))
        if key in entries:
            raise ParseError(f"{path}: duplicate traffic entry for {key[0]}>{key[1]}")
        entries[key] = parse_rational(row["amount"])
    return TrafficMatrix(entries)


def cmd_transform(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    point = load_point(args.point)
    if args.op == "redistribute":
        target = _traffic_from_file(args.target)
        flow = redistribute(point.flow, inst.traffic, target, inst.network)
        out = ModelPoint(flow, point.capacity_edge, point.capacity_arc)
    elif args.op == "symmetrize":
        flow = symmetrize(point.flow, inst.traffic, inst.network)
        out = ModelPoint(flow, point.capacity_edge, point.capacity_arc)
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


def _parse_commodities(raw: str, inst: Instance) -> frozenset[Commodity]:
    if raw == "all":
        return frozenset(inst.network.commodities)
    out = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if ">" in token:
            o, _, d = token.partition(">")
        elif len(token) == 2:
            o, d = token[0], token[1]
        else:
            raise ParseError(
                f"cannot read commodity {token!r}; use o>d, or two single-character node ids"
            )
        out.add((o, d))
    if not out:
        raise ParseError("empty commodity list")
    return frozenset(out)


def _parse_arcs(raw: str) -> frozenset[Arc]:
    out = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if ">" not in token:
            raise ParseError(f"cannot read arc {token!r}; use tail>head")
        i, _, j = token.partition(">")
        out.add((i, j))
    return frozenset(out)


def _report_check(label: str, report: CutCheck) -> bool:
    if report.valid:
        print(f"{label}: valid on {report.points}/{report.points} enumerated points")
        return True
    print(f"{label}: violated on {len(report.violations)}/{report.points} enumerated points")
    vec, lhs = report.violations[0]
    sep = ">" if label == "directed" else "-"
    pairs = ", ".join(
        f"{m}|{p[0]}{sep}{p[1]}={n}" for (m, p), n in zip(report.components, vec)
    )
    print(f"{label}: first counterexample: {pairs} (lhs {render_rational(lhs)})")
    return False


def cmd_cut(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    spec = CutsetSpec(
        side_u=frozenset(t.strip() for t in args.side_u.split(",") if t.strip()),
        commodities=_parse_commodities(args.commodities, inst),
        s_plus=_parse_arcs(args.splus),
        s_minus=_parse_arcs(args.sminus),
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
    ok = _report_check(
        "directed", check_cut_validity(inst, ineq, bound=args.bound)
    )
    if translated is not None:
        ok = (
            _report_check(
                "bidirected",
                check_cut_validity(
                    inst, translated, kind=ModelKind.BIDIRECTED, bound=args.bound
                ),
            )
            and ok
        )
    return 0 if ok else 1


def cmd_project(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    result = project(inst, ModelKind(args.model), variant=args.variant, bound=args.bound)
    print(f"bound: {result.bound}")
    vectors = result.minimal_vectors()
    print(f"minimal vectors: {len(vectors)}")
    for vec in vectors:
        print(f"  {vec.render(directed=(args.model == 'directed'))}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = total = 0
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
            rep = verify_corollary(inst, bound=args.bound)
            print(f"{label}: {rep.describe()}")
            total += 1
            failures += 0 if rep.equal else 1
    else:
        if args.instance:
            traffics = [("instance", load_instance(args.instance).traffic)]
        else:
            traffics = [(f"trial {i}", triangle_remark_traffic(rng)) for i in range(args.trials)]
        for label, traffic in traffics:
            rep = verify_triangle_remark(traffic, args.bound)
            print(f"{label}: {rep.describe()}")
            total += 1
            failures += 0 if rep.passed else 1
    if failures:
        print(f"FAILED: {failures} of {total} checks disagree")
        return 1
    print("all checks agree")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcap",
        description="Exact capacity-model toolkit: build, solve, transform, cut, project, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
        p.add_argument("--symmetrize-flows", action="store_true", help="add mirror-flow rows")
        p.add_argument("--equalize", action="store_true", help="tie both orientations (directed only)")

    p_build = sub.add_parser("build", help="export a model as LP text")
    p_build.add_argument("instance")
    add_model_flags(p_build)
    p_build.add_argument("-o", "--output")
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", help="solve the capacity installation problem exactly")
    p_solve.add_argument("instance")
    add_model_flags(p_solve)
    p_solve.add_argument("--bound", type=int, help="box bound for integer capacities")
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
    p_cut.add_argument("--bound", type=int, help="box bound for the validity check")
    p_cut.set_defaults(func=cmd_cut)

    p_proj = sub.add_parser("project", help="minimal capacity vectors of a model's projection")
    p_proj.add_argument("instance")
    p_proj.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p_proj.add_argument("--variant", choices=VARIANTS, default="plain")
    p_proj.add_argument("--bound", type=int)
    p_proj.set_defaults(func=cmd_project)

    p_ver = sub.add_parser("verify", help="run exhaustive structural checks")
    vsub = p_ver.add_subparsers(dest="what", required=True)
    p_cor = vsub.add_parser("corollary", help="five-way projection equality")
    p_cor.add_argument("instance", nargs="?")
    p_cor.add_argument("--bound", type=int)
    p_cor.add_argument("--trials", type=int, default=5)
    p_cor.add_argument("--seed", type=int, default=0)
    p_cor.add_argument("--shape", choices=("triangle", "four-node"), default="triangle")
    p_cor.set_defaults(func=cmd_verify)
    p_tri = vsub.add_parser("triangle", help="triangle closed form vs enumeration")
    p_tri.add_argument("instance", nargs="?")
    p_tri.add_argument("--bound", type=int, default=3)
    p_tri.add_argument("--trials", type=int, default=5)
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
        return args.func(args)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
