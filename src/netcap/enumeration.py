"""Box enumeration over integer capacity vectors, with dominance caching.

Feasibility of a capacity vector is monotone (more capacity never hurts), so
sweeps iterate the box in graded order (by total, then lexicographic) and
skip any vector that dominates a known-feasible one.  A vector found
feasible while undominated is a minimal element of the feasible set.
"""

from __future__ import annotations

import os
from itertools import product
from typing import Callable, Iterable, Iterator

from .errors import BoxTooLargeError

DEFAULT_MAX_BOX = 1_000_000
_ENV_VAR = "NETCAP_MAX_BOX"


def max_box_limit() -> int:
    """Box-size cap: NETCAP_MAX_BOX, else the default."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_BOX
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise BoxTooLargeError(f"{_ENV_VAR} must be a positive integer, got {raw!r}") from None
    return value


def box_size(dimensions: int, bound: int) -> int:
    return (bound + 1) ** dimensions


def check_box(dimensions: int, bound: int) -> None:
    cap = max_box_limit()
    size = box_size(dimensions, bound)
    if size > cap:
        raise BoxTooLargeError(
            f"enumeration box has {size} vectors ({dimensions} components, "
            f"bound {bound}), over the limit of {cap}; raise {_ENV_VAR} to override"
        )


def graded_box(dimensions: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All vectors in {0..bound}^dimensions ordered by (total, lex)."""
    vectors = sorted(product(range(bound + 1), repeat=dimensions), key=lambda v: (sum(v), v))
    return iter(vectors)


def dominates(big: Iterable[int], small: Iterable[int]) -> bool:
    return all(a >= b for a, b in zip(big, small))


class MonotoneFeasibility:
    """Memoized feasibility of an upward-closed set over box vectors.

    The oracle is consulted only for vectors not dominating any known
    feasible minimal element; in graded-order sweeps every oracle hit that
    comes back feasible is therefore minimal.
    """

    def __init__(self, oracle: Callable[[tuple[int, ...]], bool]):
        self._oracle = oracle
        self.minimal: list[tuple[int, ...]] = []
        self.oracle_calls = 0

    def feasible(self, vector: tuple[int, ...]) -> bool:
        if any(dominates(vector, m) for m in self.minimal):
            return True
        self.oracle_calls += 1
        if self._oracle(vector):
            self.minimal.append(vector)
            return True
        return False
