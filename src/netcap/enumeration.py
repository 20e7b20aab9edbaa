"""Box enumeration over integer capacity vectors, with dominance caching.

Feasibility of a capacity vector is monotone (more capacity never hurts), so
sweeps iterate the box in graded order (by total, then lexicographic) and
skip any vector that dominates a known-feasible one.  A vector found
feasible while undominated is a minimal element of the feasible set.
"""

from __future__ import annotations

import os
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
    """All vectors in {0..bound}^dimensions ordered by (total, lex).

    Lazy: for each total, the vectors with that sum are stepped through in
    lexicographic order, so nothing is built ahead of the one yielded.
    """
    if dimensions == 0:
        yield ()
        return
    for total in range(dimensions * bound + 1):
        vec = [0] * dimensions
        _fill_right(vec, 0, total, bound)
        while True:
            yield tuple(vec)
            # Lexicographic successor with the same total: raise the rightmost
            # entry that can grow while its suffix can give up one unit, then
            # refill that suffix as right-heavy (lex-smallest) as it goes.
            rest = vec[-1]
            for i in range(dimensions - 2, -1, -1):
                if vec[i] < bound and rest > 0:
                    break
                rest += vec[i]
            else:
                break
            vec[i] += 1
            _fill_right(vec, i + 1, rest - 1, bound)


def _fill_right(vec: list[int], start: int, amount: int, bound: int) -> None:
    """Spread `amount` over vec[start:], filling from the right end."""
    for j in range(len(vec) - 1, start - 1, -1):
        vec[j] = min(bound, amount)
        amount -= vec[j]


def dominates(big: Iterable[int], small: Iterable[int]) -> bool:
    return all(a >= b for a, b in zip(big, small))


class MonotoneFeasibility:
    """Memoized feasibility of an upward-closed set over box vectors.

    The oracle is consulted only for vectors not dominating any known
    feasible minimal element; in graded-order sweeps every oracle hit that
    comes back feasible is therefore minimal.  A sweep that decides vectors
    itself leaves out the oracle and calls `dominated` and `record` instead.
    """

    def __init__(self, oracle: Callable[[tuple[int, ...]], bool] | None = None):
        self._oracle = oracle
        self.minimal: list[tuple[int, ...]] = []
        self.oracle_calls = 0

    def dominated(self, vector: tuple[int, ...]) -> bool:
        """Whether `vector` dominates a recorded feasible one, so is feasible."""
        return any(dominates(vector, m) for m in self.minimal)

    def record(self, vector: tuple[int, ...]) -> None:
        """Note a feasible vector that dominates none recorded."""
        self.minimal.append(vector)

    def feasible(self, vector: tuple[int, ...]) -> bool:
        if self.dominated(vector):
            return True
        self.oracle_calls += 1
        if self._oracle(vector):
            self.record(vector)
            return True
        return False
