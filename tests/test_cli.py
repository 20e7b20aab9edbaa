"""End-to-end command-line behavior: outputs, files, exit codes."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import netcap
from netcap import cli
from netcap.cli import run
from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    load_instance,
    render_instance,
    save_instance,
)
from netcap.cuts import CutCheck
from netcap.formulate import ModelKind, VarRef, build, equalize_directed, render_model
from netcap.projlab import CorollaryReport, ProjectionSet, project
from netcap.randgen import triangle_network, triangle_remark_traffic
from netcap.solver import build_for_feasibility
from netcap.transform import balance_violations, load_point


@pytest.fixture
def tri(tmp_path):
    inst = Instance(
        triangle_network(),
        FacilityMenu((1,)),
        TrafficMatrix(
            {("1", "2"): Fraction(3, 2), ("2", "1"): Fraction(1, 2), ("1", "3"): Fraction(1)}
        ),
    )
    path = tmp_path / "tri.json"
    save_instance(inst, path)
    return inst, str(path)


@pytest.fixture
def tri_sym(tmp_path):
    inst = Instance(
        triangle_network(),
        FacilityMenu((1,)),
        TrafficMatrix(
            {
                ("1", "2"): Fraction(1),
                ("2", "1"): Fraction(1),
                ("1", "3"): Fraction(1, 2),
                ("3", "1"): Fraction(1, 2),
            }
        ),
    )
    path = tmp_path / "tri-sym.json"
    save_instance(inst, path)
    return inst, str(path)


def test_build_round_trips(tri, capsys):
    inst, path = tri
    assert run(["build", path, "--model", "undirected"]) == 0
    assert capsys.readouterr().out == render_model(build(inst, ModelKind.UNDIRECTED))


def test_build_writes_file(tri, tmp_path, capsys):
    inst, path = tri
    out = tmp_path / "model.lp"
    assert run(["build", path, "--model", "directed", "--variant", "equalized", "-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == render_model(equalize_directed(build(inst, ModelKind.DIRECTED)))


def test_build_equalize_needs_directed(tri, capsys):
    _, path = tri
    assert run(["build", path, "--model", "undirected", "--variant", "equalized"]) == 2
    assert "directed" in capsys.readouterr().err


def test_solve_writes_a_feasible_point(tri, tmp_path, capsys):
    inst, path = tri
    out = tmp_path / "point.json"
    assert run(["solve", path, "--model", "undirected", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "status: optimal" in text
    assert "objective: 3" in text
    point = load_point(str(out))
    assert balance_violations(point.flow, inst.traffic, inst.network) == []
    assert sum(point.capacity.values()) == 3
    assert all(ref.edge is not None for ref in point.capacity)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "flags, recorded",
    [
        (["--model", "undirected"], "triangle-undirected.json"),
        (["--model", "undirected", "--variant", "symmetrized-flows"], None),
        (["--model", "bidirected"], "triangle-bidirected.json"),
        (["--model", "directed"], "triangle-directed.json"),
        (["--model", "directed", "--variant", "equalized"], "triangle-directed-equalized.json"),
    ],
    ids=["undirected", "undirected-symmetrized", "bidirected", "directed", "directed-equalized"],
)
def test_solve_points_match_recorded(tmp_path, capsys, flags, recorded):
    """`netcap solve -o` on tests/data/instances/triangle.json writes the
    point files under tests/data/solutions/ byte for byte.  Its traffic is
    not symmetric, so mirror-flow rows leave it infeasible and no file."""
    out = tmp_path / "point.json"
    status = run(["solve", str(DATA / "instances" / "triangle.json"), *flags, "-o", str(out)])
    text = capsys.readouterr().out
    if recorded is None:
        assert status == 1 and "status: infeasible" in text and not out.exists()
    else:
        assert status == 0 and out.read_bytes() == (DATA / "solutions" / recorded).read_bytes()


@pytest.mark.parametrize("model, bound", [("undirected", 2), ("bidirected", 2), ("directed", 1)])
def test_project_prints_recorded_projection(capsys, model, bound):
    """`netcap project` on tests/data/instances/triangle.json prints the
    files under tests/data/projections/ byte for byte: the minimal vectors,
    which no change to how the sweep decides a vector may move."""
    status = run(["project", str(DATA / "instances" / "triangle.json"), "--model", model, "--bound", str(bound)])
    recorded = (DATA / "projections" / f"triangle-{model}.txt").read_bytes()
    assert status == 0 and capsys.readouterr().out.encode("utf-8") == recorded


def test_solve_infeasible_exits_one(tmp_path, capsys):
    inst = Instance(
        Network(("1", "2", "3"), (("1", "2"),)),
        FacilityMenu((1,)),
        TrafficMatrix({("1", "3"): Fraction(1)}),
    )
    path = tmp_path / "cutoff.json"
    save_instance(inst, path)
    assert run(["solve", str(path), "--model", "undirected"]) == 1
    assert "status: infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("model", [kind.value for kind in ModelKind])
def test_solve_with_no_edges_and_no_traffic(tmp_path, capsys, model):
    """A model with no integer variables is solved at its root, in one node."""
    path = tmp_path / "empty.json"
    save_instance(Instance(Network(("1", "2"), ()), FacilityMenu((1,)), TrafficMatrix({})), path)
    assert run(["solve", str(path), "--model", model]) == 0
    assert capsys.readouterr().out == "status: optimal\nnodes: 1\nobjective: 0\n"


def test_transform_redistribute(tri, tmp_path, capsys):
    inst, path = tri
    point_file = tmp_path / "point.json"
    run(["solve", path, "--model", "undirected", "-o", str(point_file)])
    target = {
        "traffic": [
            {"from": "1", "to": "2", "amount": "1/4"},
            {"from": "2", "to": "1", "amount": "3/2"},
            {"from": "1", "to": "3", "amount": "1"},
            {"from": "1", "to": "2", "amount": "1/4"},  # a repeated pair adds up
        ]
    }
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps(target))
    out_file = tmp_path / "redist.json"
    capsys.readouterr()
    assert run(
        [
            "transform",
            "redistribute",
            path,
            "--point",
            str(point_file),
            "--target",
            str(target_file),
            "-o",
            str(out_file),
        ]
    ) == 0
    moved = load_point(str(out_file))
    want = TrafficMatrix(
        {("1", "2"): Fraction(1, 2), ("2", "1"): Fraction(3, 2), ("1", "3"): Fraction(1)}
    )
    assert balance_violations(moved.flow, want, inst.network) == []
    assert moved.capacity == load_point(str(point_file)).capacity


def test_transform_lift_drop_round_trip(tri_sym, tmp_path, capsys):
    _, path = tri_sym
    point_file = tmp_path / "point.json"
    run(["solve", path, "--model", "undirected", "--variant", "symmetrized-flows", "-o", str(point_file)])
    lifted_file = tmp_path / "lifted.json"
    assert run(
        ["transform", "lift", path, "--point", str(point_file), "-o", str(lifted_file)]
    ) == 0
    back_file = tmp_path / "back.json"
    assert run(
        ["transform", "drop", path, "--point", str(lifted_file), "-o", str(back_file)]
    ) == 0
    capsys.readouterr()
    assert load_point(str(back_file)) == load_point(str(point_file))


def test_transform_symmetrize(tri_sym, tmp_path, capsys):
    _, path = tri_sym
    point_file = tmp_path / "point.json"
    run(["solve", path, "--model", "undirected", "-o", str(point_file)])
    capsys.readouterr()
    assert run(["transform", "symmetrize", path, "--point", str(point_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"flow", "capacity"}


def _path_network_files(tmp_path):
    """The path 1-2-3 with symmetric traffic between its ends, and a point
    that routes it through 2 but also puts flow on 1>3, which is no edge."""
    inst = Instance(
        Network(("1", "2", "3"), (("1", "2"), ("2", "3"))),
        FacilityMenu((1,)),
        TrafficMatrix({("1", "3"): Fraction(1), ("3", "1"): Fraction(1)}),
    )
    save_instance(inst, tmp_path / "path.json")
    flow = {"1>3|1>2": "1", "1>3|2>3": "1", "3>1|3>2": "1", "3>1|2>1": "1", "1>3|1>3": "1"}
    (tmp_path / "point.json").write_text(json.dumps({"flow": flow, "capacity": {}}))
    (tmp_path / "target.json").write_text(render_instance(inst))
    return str(tmp_path / "path.json"), str(tmp_path / "point.json"), str(tmp_path / "target.json")


@pytest.mark.parametrize("op", ["symmetrize", "redistribute", "lift"])
def test_transforms_refuse_a_flow_off_the_network(tmp_path, capsys, op):
    path, point, target = _path_network_files(tmp_path)
    argv = ["transform", op, path, "--point", point]
    argv += ["--target", target] if op == "redistribute" else []
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x[1>3|1>3]" in err


@pytest.mark.parametrize("key", ["1|1-9", "7|1>2"], ids=["unknown-node", "unknown-facility"])
@pytest.mark.parametrize("op", ["symmetrize", "redistribute"])
def test_flow_transforms_refuse_capacity_keys_off_the_instance(tri_sym, tmp_path, capsys, op, key):
    """A capacity key must name a facility of the menu on an edge or arc of
    the network, or the point is not copied through."""
    _, path = tri_sym
    point_file = tmp_path / "point.json"
    assert run(["solve", path, "--model", "undirected", "-o", str(point_file)]) == 0
    doc = json.loads(point_file.read_text())
    doc["capacity"][key] = 2
    point_file.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["transform", op, path, "--point", str(point_file)]
    argv += ["--target", path] if op == "redistribute" else []
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"y[{key}]" in err


@pytest.mark.parametrize("where", ["instance", "target"])
def test_traffic_endpoints_must_be_strings(tri, tmp_path, capsys, where):
    inst, path = tri
    point_file = tmp_path / "point.json"
    run(["solve", path, "--model", "undirected", "-o", str(point_file)])
    docs = {name: json.loads(render_instance(inst)) for name in ("instance", "target")}
    docs[where]["traffic"][0]["from"] = int(docs[where]["traffic"][0]["from"])
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["transform", "redistribute", str(tmp_path / "instance.json")]
    argv += ["--point", str(point_file), "--target", str(tmp_path / "target.json")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be strings" in err


@pytest.mark.parametrize("flag, value", [("--splus", "1>"), ("--sminus", ">1"), ("--commodities", "1>")])
def test_cut_refuses_an_empty_end(tri, capsys, flag, value):
    _, path = tri
    argv = ["cut", path, "--side-u", "1", "--commodities", "1>2", "--facility", "1", flag, value]
    assert run(argv) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cut_pinned_output(tmp_path, capsys):
    inst = Instance(
        Network(("1", "2"), (("1", "2"),)),
        FacilityMenu((1,)),
        TrafficMatrix({("1", "2"): Fraction(3, 2)}),
    )
    path = tmp_path / "pair.json"
    save_instance(inst, path)
    code = run(
        [
            "cut",
            str(path),
            "--side-u",
            "1",
            "--commodities",
            "1>2",
            "--splus",
            "1>2",
            "--translate",
            "--check",
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "cut: 1/2 y[1|1>2] >= 1" in text
    assert "translated: 1/2 y[1|1-2] >= 1" in text
    assert "directed: valid on" in text
    assert "bidirected: valid on" in text


@pytest.mark.parametrize("value, message", [("12", "cannot read '12' as i>j"), (",", "commodity bundle is empty")])
def test_cut_refuses_commodities_that_are_not_o_d_pairs(tri, capsys, value, message):
    """A commodity is read as o>d only, so `12` does not name the pair 1>2;
    and the bundle must not be empty."""
    _, path = tri
    assert run(["cut", path, "--side-u", "1", "--commodities", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cut_check_with_no_feasible_vector_exits_one(capsys):
    """A box too small to route the traffic holds no point to check the cut
    at; the check says so, names the bound, and claims no validity."""
    argv = ["cut", str(DATA / "instances" / "triangle.json"), "--side-u", "1", "--commodities", "1>2"]
    assert run(argv + ["--check", "--bound", "0"]) == 1
    out = capsys.readouterr().out
    assert "directed: no capacity vector in the box is feasible (bound 0)" in out.splitlines()
    assert "valid" not in out


def test_cut_vacuous_exits_one(tri, capsys):
    _, path = tri
    assert run(["cut", path, "--side-u", "1", "--commodities", "all"]) == 1
    assert "vacuous" in capsys.readouterr().err.lower()


def test_cut_reports_a_counterexample_and_exits_one(tri, monkeypatch, capsys):
    """A check that finds the cut broken prints its first counterexample on
    each model it checks, and the command exits 1."""
    _, path = tri
    refs = (VarRef.cap_arc(1, ("1", "2")), VarRef.cap_arc(1, ("2", "1")))
    broken = CutCheck(refs, 2, 5, (((0, 1), Fraction(1, 2)), ((0, 2), Fraction(3, 4))), 5, 0, 0)
    monkeypatch.setattr(cli, "check_cut_validity", lambda *args, **kwargs: broken)
    argv = ["cut", path, "--side-u", "1", "--commodities", "1>2", "--translate", "--check"]
    assert run(argv) == 1
    tail = capsys.readouterr().out.splitlines()[-4:]
    assert tail == [
        f"{label}: {line}"
        for label in ("directed", "bidirected")
        for line in ("violated on 2/5 enumerated points", "first counterexample: 1|1>2=0, 1|2>1=1 (lhs 1/2)")
    ]


def test_cut_unknown_node_exits_two(tri, capsys):
    _, path = tri
    assert run(["cut", path, "--side-u", "9", "--commodities", "1>2"]) == 2
    assert capsys.readouterr().err


def test_project_output_is_deterministic(tri, capsys):
    _, path = tri
    assert run(["project", path, "--model", "undirected"]) == 0
    first = capsys.readouterr().out
    assert "bound: 3" in first
    assert "minimal vectors: 4" in first
    assert "1|1-2=2 1|1-3=1 1|2-3=0" in first
    assert run(["project", path, "--model", "undirected"]) == 0
    assert capsys.readouterr().out == first


def test_project_directed_uses_arc_separator(tri, capsys):
    _, path = tri
    assert run(["project", path, "--model", "directed", "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "1|1>2=" in out


def test_project_equalized_prints_the_equalized_projection(capsys):
    """`project --variant equalized` sweeps the directed feasibility model
    with both orientations of each edge tied."""
    path = DATA / "instances" / "triangle.json"
    assert run(["project", str(path), "--model", "directed", "--variant", "equalized", "--bound", "1"]) == 0
    proj = project(equalize_directed(build_for_feasibility(load_instance(path), ModelKind.DIRECTED)), 1)
    lines = [" ".join(f"{ref.key}={n}" for ref, n in zip(proj.components, vec)) for vec in proj.minimal_vectors()]
    assert len(lines) == 5
    assert capsys.readouterr().out == "".join(
        line + "\n" for line in ["bound: 1", f"minimal vectors: {len(lines)}", *("  " + v for v in lines)]
    )


@pytest.mark.parametrize(
    "flags, bound",
    [(["--model", "undirected", "--variant", "symmetrized-flows"], 2), (["--model", "directed", "--bound", "0"], 0)],
    ids=["mirror-flows", "bound-zero"],
)
def test_project_with_no_feasible_vector_exits_one(flags, bound, capsys):
    """Mirror-flow rows make triangle.json's asymmetric traffic unroutable,
    and with `--bound 0` its existing capacity alone cannot route it: the
    projection is empty, as `verify corollary` and `cut --check` say, and
    the command exits 1."""
    assert run(["project", str(DATA / "instances" / "triangle.json"), *flags]) == 1
    assert capsys.readouterr().out == f"no capacity vector in the box is feasible (bound {bound})\n"


_ACROSS = "status: infeasible\nnote: some commodity's endpoints lie in different components; no capacity level can route it\n"
_CUT_LINES = "cut: 1 x[1>3|1>2] >= 1/2\n"


@pytest.mark.parametrize("bound", [[], ["--bound", "1"]], ids=["default-bound", "bound-1"])
@pytest.mark.parametrize(
    "command, flags, tail",
    [
        (["project"], ["--model", "undirected"], "no capacity vector in the box is feasible (bound 1)\n"),
        (["verify", "corollary"], [], "instance: no capacity vector in the box is feasible (bound 1)\n"),
        (["solve"], ["--model", "undirected"], "status: infeasible\nnodes: 1\n"),
        (
            ["cut"],
            ["--side-u", "1", "--commodities", "1>3", "--check"],
            "directed: no capacity vector in the box is feasible (bound 1)\n",
        ),
    ],
    ids=["project", "verify-corollary", "solve", "cut-check"],
)
def test_traffic_across_components_exits_one(tmp_path, capsys, command, flags, tail, bound):
    """Traffic from 1 to 3 on a network whose edges 1-2 and 3-4 leave them
    in different components: no capacity routes it, so every command exits
    1, with or without `--bound`.  Without one, the default bound says why
    (`capacity_bound` raises), in the one way for every command; with one,
    the box holds no feasible vector."""
    path = tmp_path / "apart.json"
    net = Network(("1", "2", "3", "4"), (("1", "2"), ("3", "4")))
    save_instance(Instance(net, FacilityMenu((1,)), TrafficMatrix({("1", "3"): Fraction(1, 2)})), path)
    assert run([*command, str(path), *flags, *bound]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith(tail if bound else _ACROSS)
    if command == ["cut"]:
        assert _CUT_LINES in captured.out


@pytest.mark.parametrize(
    "flags",
    [["--model", "undirected", "--variant", "equalized"], ["--model", "directed", "--variant", "sideways"]],
    ids=["equalized-undirected", "unknown"],
)
def test_project_refuses_a_variant_it_cannot_read(tri, flags, capsys):
    _, path = tri
    assert run(["project", path, *flags, "--bound", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err


def test_verify_corollary_trials(capsys):
    assert run(["verify", "corollary", "--trials", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "projections identical" in out
    assert "all checks agree" in out


def test_verify_corollary_four_node(capsys):
    assert run(["verify", "corollary", "--shape", "four-node", "--trials", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "projections identical" in out
    assert out.endswith("all checks agree\n")


def test_verify_corollary_with_no_feasible_vector_exits_one(capsys):
    """Five empty projections are equal, but over nothing: no agreement."""
    assert run(["verify", "corollary", "--trials", "1", "--seed", "1", "--bound", "0"]) == 1
    assert capsys.readouterr().out == "trial 0: no capacity vector in the box is feasible (bound 0)\n"


def test_verify_triangle_with_no_feasible_vector_exits_one(capsys):
    """The closed form and LP membership agree on every vector of a box
    that holds no feasible one, but over nothing: no agreement."""
    assert run(["verify", "triangle", "--trials", "1", "--seed", "1", "--bound", "0"]) == 1
    assert capsys.readouterr().out == "trial 0: no capacity vector in the box is feasible (bound 0)\n"


def test_verify_triangle_trials_deterministic(capsys):
    argv = ["verify", "triangle", "--trials", "2", "--seed", "1"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert "closed form agrees" in first
    assert run(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("what", ["corollary", "triangle"])
@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_verify_refuses_nonpositive_trials(what, trials, capsys):
    assert run(["verify", what, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err and "positive integer" in captured.err
    assert "all checks agree" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{path}", "--model", "directed"],
        ["cut", "{path}", "--side-u", "1", "--commodities", "1>2", "--check"],
        ["project", "{path}", "--model", "undirected"],
        ["verify", "corollary"],
        ["verify", "triangle"],
    ],
    ids=["solve", "cut", "project", "verify-corollary", "verify-triangle"],
)
def test_negative_bound_exits_two_before_any_output(tri, argv, capsys):
    _, path = tri
    assert run([arg.format(path=path) for arg in argv] + ["--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound" in captured.err and "nonnegative integer" in captured.err


def test_verify_reports_how_many_checks_disagree(monkeypatch, capsys):
    refs = (VarRef.cap_edge(1, ("1", "2")),)

    def report(*minimal_sets):
        entries = tuple((f"p{i}", ProjectionSet(refs, 2, frozenset(m))) for i, m in enumerate(minimal_sets))
        return CorollaryReport(entries, bound=2)

    reports = iter([report({(1,)}, {(1,)}), report({(1,)}, {(2,)})])
    monkeypatch.setattr(cli, "verify_corollary", lambda inst, bound: next(reports))
    assert run(["verify", "corollary", "--trials", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "trial 0: 2 projections identical; 1 minimal vectors (bound 2)",
        "trial 1: projection mismatch: p1 differs from p0: only in first [(1,)], only in second [(2,)]",
        "FAILED: 1 of 2 checks disagree",
    ]


def test_verify_triangle_instance_file(tri, capsys):
    _, path = tri
    assert run(["verify", "triangle", path]) == 0
    assert "all checks agree" in capsys.readouterr().out


def test_verify_triangle_two_node_draw(tmp_path, capsys):
    """A generated traffic matrix can name only two of the triangle's nodes;
    the trial still runs on the triangle, as does an instance file with it."""
    traffic = triangle_remark_traffic(random.Random(15))  # trial 0 of --seed 15
    assert {n for (o, d), t in traffic.items() if t for n in (o, d)} == {"2", "3"}
    assert run(["verify", "triangle", "--trials", "1", "--seed", "15"]) == 0
    assert "all checks agree" in capsys.readouterr().out
    path = tmp_path / "two-node.json"
    save_instance(Instance(triangle_network(), FacilityMenu((1,)), traffic), path)
    assert run(["verify", "triangle", str(path)]) == 0
    assert "all checks agree" in capsys.readouterr().out


def test_verify_triangle_instance_on_a_larger_network(tmp_path, capsys):
    """An instance whose network is not a triangle is checked on the
    triangle its traffic names."""
    net = Network(("1", "2", "3", "4"), (("1", "2"), ("1", "3"), ("2", "3"), ("3", "4")))
    traffic = TrafficMatrix({("1", "2"): Fraction(1), ("2", "3"): Fraction(1, 2), ("3", "1"): Fraction(3, 2)})
    path = tmp_path / "four-node.json"
    save_instance(Instance(net, FacilityMenu((1,)), traffic), path)
    assert run(["verify", "triangle", str(path), "--bound", "2"]) == 0
    assert "all checks agree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"facilities": FacilityMenu((2,))}, "needs the menu [1], not [2]"),
        ({"existing_edge": {("1", "3"): Fraction(1)}}, "without existing capacity"),
        ({"network": Network(("1", "2", "3"), (("1", "2"), ("2", "3")))}, "the network lacks edge 1-3"),
    ],
    ids=["menu-2", "existing-capacity", "path"],
)
def test_verify_triangle_refuses_an_instance_it_does_not_check(tri, tmp_path, change, reason, capsys):
    """`verify triangle` reads the complete triangle with the menu [1] and
    no existing capacity; any other instance exits 2 before any output,
    naming the reason, rather than checking that triangle in its place."""
    inst, _ = tri
    path = tmp_path / "other.json"
    save_instance(replace(inst, **change), path)
    assert run(["verify", "triangle", str(path), "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


def test_closed_stdout_exits_quietly(tri, monkeypatch, capsys):
    """A reader that closes the pipe early ends the run with 141 and no
    message, and stdout then goes to devnull, so flushing it stays quiet."""
    _, path = tri
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        with pytest.raises(BrokenPipeError):
            print("x", flush=True)
        assert run(["project", path, "--model", "undirected"]) == 141
        print("more", flush=True)
    assert capsys.readouterr().err == ""


def _netcap_in_ascii_locale(*args, cwd):
    """Run the console entry point in a subprocess whose locale encoding is
    ASCII: the C locale, with neither UTF-8 mode nor locale coercion."""
    src = str(Path(netcap.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    command = [sys.executable, "-c", "from netcap.cli import main; main()", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, check=False)


def test_output_is_utf8_in_an_ascii_locale(tmp_path):
    """Files are read as UTF-8, so they are written and printed as UTF-8 too,
    whatever the locale: a node named é reaches an LP file and stdout."""
    inst = Instance(Network(("b", "é"), (("b", "é"),)), FacilityMenu((1,)), TrafficMatrix({("é", "b"): Fraction(1)}))
    save_instance(inst, tmp_path / "inst.json")
    built = _netcap_in_ascii_locale("build", "inst.json", "--model", "undirected", "-o", "m.lp", cwd=tmp_path)
    assert built.returncode == 0, built.stderr
    assert "+ 1 y[1|b-é]" in (tmp_path / "m.lp").read_bytes().decode("utf-8")
    projected = _netcap_in_ascii_locale("project", "inst.json", "--model", "undirected", cwd=tmp_path)
    assert projected.returncode == 0, projected.stderr
    assert projected.stdout.decode("utf-8").endswith("  1|b-é=1\n")


# Stands in for an integer literal too long for json.loads (and json.dumps):
# the test writes it into the file text directly.
LONG_INT = "long-int-literal"


@pytest.mark.parametrize(
    "target, bad, message",
    [
        ("instance", {"existing": "1-2"}, "'existing' must be an object"),
        ("instance", {"existing": ["1-2", "1"]}, "'existing' must be an object"),
        ("point", {"flow": []}, "point document needs 'flow' and 'capacity' maps"),
        ("point", {"capacity": "1|1-2"}, "point document needs 'flow' and 'capacity' maps"),
        ("traffic", {"traffic": [1]}, "traffic rows need 'from', 'to' and 'amount'"),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": LONG_INT}]}, "number '999"),
        ("point", {"flow": {"1>2|1>2": LONG_INT}}, "number '999"),
        ("traffic", {"traffic": [{"from": "1", "to": "2", "amount": LONG_INT}]}, "number '999"),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": "1e5000"}]}, "number '1e5000' has more than"),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": "1e10000000"}]}, "number '1e10000000' has more than"),
        ("point", {"flow": {"1>2|1>2": "1e-5000"}}, "number '1e-5000' has more than"),
        ("instance", b"\xff\xfe", "instance.json: not UTF-8 text"),
        ("point", b"\xff\xfe", "point.json: not UTF-8 text"),
        ("traffic", b"\xff\xfe", "traffic.json: not UTF-8 text"),
        ("instance", {"nodes": ["1", "2", "3", "\ud800"]}, "node id '\\ud800' cannot be written as UTF-8"),
    ],
    ids=[
        "existing-string",
        "existing-list",
        "flow-list",
        "capacity-string",
        "traffic-row-int",
        "instance-long-int",
        "point-long-int",
        "traffic-long-int",
        "instance-huge-exponent",
        "instance-vast-exponent",
        "point-huge-exponent",
        "instance-not-utf8",
        "point-not-utf8",
        "traffic-not-utf8",
        "node-not-utf8",
    ],
)
def test_malformed_input_exits_two(tri, tmp_path, capsys, target, bad, message):
    """Each fault exits 2 with its own message: the same files without it
    (the point routes tri's traffic, the target repeats it) go through."""
    inst, _ = tri
    instance = json.loads(render_instance(inst))
    routed = {"1>2|1>2": "3/2", "2>1|2>1": "1/2", "1>3|1>3": "1"}
    docs = {
        "instance": instance,
        "point": {"flow": routed, "capacity": {}},
        "traffic": {"traffic": instance["traffic"]},
    }

    def redistribute(docs, prefix):
        paths = {}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            text = json.dumps(doc).replace(f'"{LONG_INT}"', "9" * 5000)
            paths[name].write_bytes(prefix.get(name, b"") + text.encode())
        argv = ["transform", "redistribute", str(paths["instance"])]
        argv += ["--point", str(paths["point"]), "--target", str(paths["traffic"])]
        return run(argv)

    assert redistribute(docs, {}) == 0
    capsys.readouterr()
    # bytes are written ahead of the target's JSON, anything else updates it
    prefix = {target: bad} if isinstance(bad, bytes) else {}
    if not prefix:
        docs[target] = {**docs[target], **bad}
    assert redistribute(docs, prefix) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"nodes": "123"}, "'nodes' must be an array"),
        ({"nodes": {"1": 0, "2": 0, "3": 0}}, "'nodes' must be an array"),
        ({"edges": ["12", "13", "23"]}, "edge '12' must be a two-element array"),
        ({"edges": [["1", "2", "3"]]}, "must be a two-element array"),
        ({"facilities": "1"}, "'facilities' must be an array"),
        ({"traffic": {}}, "'traffic' must be an array"),
        ({"nodes": ["a b", "c"], "edges": [["a b", "c"]], "traffic": []}, "reserved separator [' ']"),
    ],
    ids=["nodes-string", "nodes-object", "edges-strings", "edge-triple", "facilities-string",
         "traffic-object", "node-with-space"],
)
def test_instance_shape_errors_exit_two(tri, tmp_path, capsys, bad, message):
    inst, _ = tri
    doc = json.loads(render_instance(inst))
    doc.update(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["build", str(path), "--model", "undirected"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "solve"])
def test_huge_number_exits_two_before_any_work(tri, tmp_path, capsys, command):
    inst, _ = tri
    doc = json.loads(render_instance(inst))
    doc["traffic"][0]["amount"] = "1e5000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path), "--model", "undirected"]) == 2
    err = capsys.readouterr().err
    assert "more than" in err and "digits" in err
    assert "Traceback" not in err


def test_missing_file_exits_two(capsys):
    assert run(["solve", "no-such-file.json", "--model", "undirected"]) == 2
    assert capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert run(["solve", "--nonsense"]) == 2
    capsys.readouterr()
