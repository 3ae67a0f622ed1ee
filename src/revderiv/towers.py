"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Order 0 is the map itself by convention.  Each tower is a
:func:`functools.lru_cache` of 4,096 ``(map, order)`` entries, and a miss
is one call of the derivative kernel of :mod:`revderiv.combinators` at that
order on the map: it emits only the order-k terms, with no recursion, so any
order works and no other order is built.

The two towers are exchanged by the linear transpose in the covector/second
slot; the ``stable`` law suite checks that exchange (the transpose bridge)
and the first-order compatibility it rests on (the stable rule).
"""

from __future__ import annotations

from functools import lru_cache

from .combinators import _partial, _require_single_block
from .maps import PolyMap


def _tower(f: PolyMap, order: int, reverse: bool) -> PolyMap:
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    _require_single_block(f, f"the total {'reverse' if reverse else 'forward'} derivative")
    return _partial(f, 1, reverse, order)


@lru_cache(maxsize=4096)
def reverse_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial reverse derivative (order 0 = f)."""
    return _tower(f, order, True)


@lru_cache(maxsize=4096)
def forward_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial forward derivative (order 0 = f)."""
    return _tower(f, order, False)
