"""Built models match their recorded LP text and term order byte for byte.

The files under tests/data/models/ pin every builder's output: each
`.lp` file the variable order, row order, integer set and objective, and
each `.order.json` file the order in which every row's terms were
inserted, which the LP text does not show (it lists a row's terms in
variable order) but the solver reads.  After an intended change to
model text or term order, rewrite them with

    PYTHONPATH=src python3 tests/test_model_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from netcap.core import FacilityMenu, Instance, Network, TrafficMatrix
from netcap.formulate import (
    ModelKind,
    add_flow_symmetry,
    build_bidirected,
    build_directed,
    build_undirected,
    equalize_directed,
    render_model,
)
from netcap.solver import build_for_feasibility

DATA = Path(__file__).resolve().parent / "data" / "models"

TRIANGLE = Instance(
    Network(("1", "2", "3"), (("1", "2"), ("1", "3"), ("2", "3"))),
    FacilityMenu((1, 3)),
    TrafficMatrix(
        {
            ("1", "2"): Fraction(3, 2),
            ("2", "1"): Fraction(1, 2),
            ("1", "3"): Fraction(1),
        }
    ),
    existing_edge={("1", "3"): Fraction(1, 2)},
)

TWO_NODE_ARC_EXISTING = Instance(
    Network(("1", "2"), (("1", "2"),)),
    FacilityMenu((1, 2)),
    TrafficMatrix({("1", "2"): Fraction(5, 2), ("2", "1"): Fraction(1)}),
    existing_edge={("1", "2"): Fraction(1, 3)},
    existing_arc={("2", "1"): Fraction(2)},
)

MODELS = {
    "triangle-undirected": lambda: build_undirected(TRIANGLE),
    "triangle-bidirected": lambda: build_bidirected(TRIANGLE),
    "triangle-directed": lambda: build_directed(TRIANGLE),
    "two-node-arc-existing-directed": lambda: build_directed(TWO_NODE_ARC_EXISTING),
    "triangle-feasibility-bidirected-mirror-flows": lambda: add_flow_symmetry(
        build_for_feasibility(TRIANGLE, ModelKind.BIDIRECTED)
    ),
    "triangle-directed-equalized": lambda: equalize_directed(build_directed(TRIANGLE)),
}


def term_order(model) -> str:
    """Each row's name and its terms' variable names, in insertion order,
    as JSON, one row per line."""
    rows = [json.dumps([con.name, [v.name for v in con.coeffs]]) for con in model.constraints]
    return "[\n" + ",\n".join(rows) + "\n]\n"


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_text_matches_recorded(name):
    model = MODELS[name]()
    assert render_model(model) == (DATA / f"{name}.lp").read_text()
    assert term_order(model) == (DATA / f"{name}.order.json").read_text()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, make in sorted(MODELS.items()):
        model = make()
        (DATA / f"{name}.lp").write_text(render_model(model))
        (DATA / f"{name}.order.json").write_text(term_order(model))
        print(f"wrote {DATA / name}.lp and {name}.order.json")
