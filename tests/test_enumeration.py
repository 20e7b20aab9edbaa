"""Graded box enumeration and monotone dominance caching."""

import tracemalloc
from itertools import product

import pytest

from netcap.enumeration import (
    DEFAULT_MAX_BOX,
    MonotoneFeasibility,
    box_size,
    check_box,
    dominates,
    graded_box,
    max_box_limit,
)
from netcap.errors import BoxTooLargeError


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


def _brute_minimal(oracle, bound, dims):
    feas = [v for v in product(range(bound + 1), repeat=dims) if oracle(v)]
    return {
        v
        for v in feas
        if not any(w != v and dominates(v, w) for w in feas)
    }


def test_monotone_cache_finds_minimal_set():
    def oracle(vec):
        a, b, c = vec
        return 2 * a + b + c >= 3

    cache = MonotoneFeasibility(oracle)
    for vec in graded_box(3, 3):
        cache.feasible(vec)
    assert set(cache.minimal) == _brute_minimal(oracle, 3, 3)
    assert cache.oracle_calls < box_size(3, 3)


def test_monotone_cache_skips_dominating_vectors():
    calls = []

    def oracle(vec):
        calls.append(vec)
        return sum(vec) >= 1

    cache = MonotoneFeasibility(oracle)
    assert not cache.feasible((0, 0))
    assert cache.feasible((0, 1))
    assert cache.feasible((2, 2))  # dominated answer needs no oracle call
    assert calls == [(0, 0), (0, 1)]
