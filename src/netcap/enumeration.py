"""Box enumeration over integer capacity vectors.

Feasibility of a capacity vector is monotone (more capacity never hurts), so
sweeps (`solver.CapacitySweep`) iterate the box in graded order (by total,
then lexicographic) and take any vector that dominates a known-feasible one
as feasible.  A vector found feasible while undominated is then a minimal
element of the feasible set.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

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
