"""End-to-end command-line behavior: outputs, files, exit codes."""

import json
from fractions import Fraction

import pytest

from netcap.cli import run
from netcap.core import (
    FacilityMenu,
    Instance,
    Network,
    TrafficMatrix,
    render_instance,
    save_instance,
)
from netcap.formulate import ModelKind, parse_model
from netcap.randgen import triangle_network
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
    _, path = tri
    assert run(["build", path, "--model", "undirected"]) == 0
    model = parse_model(capsys.readouterr().out)
    assert model.kind is ModelKind.UNDIRECTED
    assert any(v.kind == "capacity" for v in model.variables)


def test_build_writes_file(tri, tmp_path, capsys):
    _, path = tri
    out = tmp_path / "model.lp"
    assert run(["build", path, "--model", "directed", "--equalize", "-o", str(out)]) == 0
    capsys.readouterr()
    model = parse_model(out.read_text())
    assert any(c.name.startswith("eq[") for c in model.constraints)


def test_build_equalize_needs_directed(tri, capsys):
    _, path = tri
    assert run(["build", path, "--model", "undirected", "--equalize"]) == 2
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


def test_transform_redistribute(tri, tmp_path, capsys):
    inst, path = tri
    point_file = tmp_path / "point.json"
    run(["solve", path, "--model", "undirected", "-o", str(point_file)])
    target = {
        "traffic": [
            {"from": "1", "to": "2", "amount": "1/2"},
            {"from": "2", "to": "1", "amount": "3/2"},
            {"from": "1", "to": "3", "amount": "1"},
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
    run(["solve", path, "--model", "undirected", "--symmetrize-flows", "-o", str(point_file)])
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


def test_cut_vacuous_exits_one(tri, capsys):
    _, path = tri
    assert run(["cut", path, "--side-u", "1", "--commodities", "all"]) == 1
    assert "vacuous" in capsys.readouterr().err.lower()


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


def test_verify_corollary_trials(capsys):
    assert run(["verify", "corollary", "--trials", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "projections identical" in out
    assert "all checks agree" in out


def test_verify_triangle_trials_deterministic(capsys):
    argv = ["verify", "triangle", "--trials", "2", "--seed", "1"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert "closed form agrees" in first
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_triangle_instance_file(tri, capsys):
    _, path = tri
    assert run(["verify", "triangle", path]) == 0
    assert "all checks agree" in capsys.readouterr().out


# Stands in for an integer literal too long for json.loads (and json.dumps):
# the test writes it into the file text directly.
LONG_INT = "long-int-literal"


@pytest.mark.parametrize(
    "target, bad",
    [
        ("instance", {"existing": "1-2"}),
        ("instance", {"existing": ["1-2", "1"]}),
        ("point", {"flow": []}),
        ("point", {"capacity": "1|1-2"}),
        ("traffic", {"traffic": [1]}),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": LONG_INT}]}),
        ("point", {"flow": {"1>2|1>2": LONG_INT}}),
        ("traffic", {"traffic": [{"from": "1", "to": "2", "amount": LONG_INT}]}),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": "1e5000"}]}),
        ("instance", {"traffic": [{"from": "1", "to": "2", "amount": "1e10000000"}]}),
        ("point", {"flow": {"1>2|1>2": "1e-5000"}}),
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
    ],
)
def test_malformed_input_exits_two(tri, tmp_path, capsys, target, bad):
    inst, _ = tri
    docs = {
        "instance": json.loads(render_instance(inst)),
        "point": {"flow": {}, "capacity": {}},
        "traffic": {"traffic": []},
    }
    docs[target].update(bad)
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc).replace(f'"{LONG_INT}"', "9" * 5000))
    argv = ["transform", "redistribute", str(paths["instance"])]
    argv += ["--point", str(paths["point"]), "--target", str(paths["traffic"])]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
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
