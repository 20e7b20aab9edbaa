"""Graded box enumeration and the dominance rule of capacity sweeps."""

import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from netcap.core import load_instance
from netcap.enumeration import (
    DEFAULT_MAX_BOX,
    box_size,
    check_box,
    dominates,
    graded_box,
    max_box_limit,
)
from netcap.errors import BoxTooLargeError
from netcap.formulate import ModelKind
from netcap.projlab import capacity_bound, capacity_box, project
from netcap.solver import CapacitySweep, build_for_feasibility, feasible_with_capacity


def test_graded_box_order_and_coverage():
    vectors = list(graded_box(3, 2))
    assert len(vectors) == 27
    assert len(set(vectors)) == 27
    totals = [sum(v) for v in vectors]
    assert totals == sorted(totals)
    for a, b in zip(vectors, vectors[1:]):
        if sum(a) == sum(b):
            assert a < b
    assert vectors[0] == (0, 0, 0)
    assert vectors[-1] == (2, 2, 2)


def test_graded_box_equals_the_sorted_product():
    for dimensions in range(5):
        for bound in range(4):
            want = sorted(product(range(bound + 1), repeat=dimensions), key=lambda v: (sum(v), v))
            assert list(graded_box(dimensions, bound)) == want


def test_graded_box_yields_before_building_the_box():
    # 2**20 vectors, about the default NETCAP_MAX_BOX cap
    assert box_size(20, 1) > DEFAULT_MAX_BOX
    tracemalloc.start()
    try:
        box = graded_box(20, 1)
        first, second = next(box), next(box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (0,) * 20
    assert second == (0,) * 19 + (1,)
    assert peak < 100_000


def test_box_size_and_check(monkeypatch):
    assert box_size(3, 2) == 27
    assert box_size(0, 5) == 1
    monkeypatch.setenv("NETCAP_MAX_BOX", "27")
    check_box(3, 2)
    monkeypatch.setenv("NETCAP_MAX_BOX", "26")
    with pytest.raises(BoxTooLargeError):
        check_box(3, 2)


def test_max_box_limit_env(monkeypatch):
    monkeypatch.delenv("NETCAP_MAX_BOX", raising=False)
    default = max_box_limit()
    monkeypatch.setenv("NETCAP_MAX_BOX", "123")
    assert max_box_limit() == 123
    monkeypatch.setenv("NETCAP_MAX_BOX", "zero")
    with pytest.raises(BoxTooLargeError):
        max_box_limit()
    monkeypatch.setenv("NETCAP_MAX_BOX", "-3")
    with pytest.raises(BoxTooLargeError):
        max_box_limit()
    monkeypatch.delenv("NETCAP_MAX_BOX")
    assert max_box_limit() == default


def test_dominates():
    assert dominates((2, 1), (1, 1))
    assert dominates((1, 1), (1, 1))
    assert not dominates((1, 2), (2, 1))


def _triangle_sweep(bound):
    inst = load_instance(Path(__file__).resolve().parent / "data" / "instances" / "triangle.json")
    model = build_for_feasibility(inst, ModelKind.UNDIRECTED)
    b = capacity_bound(inst) if bound is None else bound
    return model, capacity_box(model, b), b


def test_monotone_cache_finds_minimal_set():
    """A graded sweep's dominance cache keeps exactly the minimal feasible
    vectors that phase 1 at every box vector finds, with fewer LPs than the
    box has vectors."""
    model, refs, b = _triangle_sweep(3)
    feas = [v for v in product(range(b + 1), repeat=len(refs)) if feasible_with_capacity(model, dict(zip(refs, v)))]
    brute = {v for v in feas if not any(w != v and dominates(v, w) for w in feas)}
    sweep = CapacitySweep(model, refs)
    for vec in graded_box(len(refs), b):
        assert sweep.decide(vec) == (vec in feas)
    assert brute and set(sweep.minimal) == brute
    assert sweep.lp_solved < box_size(len(refs), b)


def test_sweep_solves_no_vector_above_a_recorded_one():
    """The README's undirected projection: a vector that dominates one
    recorded feasible is decided without an LP, so the sweep solves a pinned
    number of LPs and never one above a recorded vector."""
    model, refs, b = _triangle_sweep(None)
    sweep = CapacitySweep(model, refs)
    for vec in graded_box(len(refs), b):
        recorded, solved = list(sweep.minimal), sweep.lp_solved
        feasible = sweep.decide(vec)
        if any(dominates(vec, m) for m in recorded):
            assert feasible is True and sweep.lp_solved == solved
    assert (sweep.lp_solved, sweep.ray_refuted, sweep.bound_proved) == (11, 47, 0)
    assert frozenset(sweep.minimal) == project(model, b).minimal
