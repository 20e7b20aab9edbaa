"""Built models match their recorded LP text byte for byte.

The files under tests/data/models/ pin every builder's output: variable
order, row order, coefficient order within each row, integer set and
objective.  After an intended change to model text, rewrite them with

    PYTHONPATH=src python3 tests/test_model_golden.py
"""

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


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_text_matches_recorded(name):
    recorded = (DATA / f"{name}.lp").read_text()
    assert render_model(MODELS[name]()) == recorded


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, make in sorted(MODELS.items()):
        (DATA / f"{name}.lp").write_text(render_model(make()))
        print(f"wrote {DATA / name}.lp")
