"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Order 0 is the map itself by convention.  One loop builds both towers: the
total derivative, then the first-block partial derivative once per further
order, with no recursion, so any order works.  The caches hold whole
``(f, order)`` results; a call does not look up the orders below it.

The two towers are exchanged by the linear transpose in the covector/second
slot; the ``stable`` law suite checks that exchange (the transpose bridge)
and the first-order compatibility it rests on (the stable rule).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .combinators import forward_derivative, partial_forward, partial_reverse, reverse_derivative
from .maps import PolyMap


def _tower(f: PolyMap, order: int, first: Callable[[PolyMap], PolyMap],
           step: Callable[[PolyMap, int], PolyMap]) -> PolyMap:
    """Order 0 is f; order 1 is ``first(f)``; each further order applies
    ``step`` to the one below it in its first block."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    t = first(f)
    for _ in range(order - 1):
        t = step(t, 1)
    return t


@lru_cache(maxsize=4096)
def reverse_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial reverse derivative (order 0 = f)."""
    return _tower(f, order, reverse_derivative, partial_reverse)


@lru_cache(maxsize=4096)
def forward_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial forward derivative (order 0 = f)."""
    return _tower(f, order, forward_derivative, partial_forward)
