"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Each tower is a :func:`functools.lru_cache` of 4,096 ``(map, order)``
entries, and a miss is one call of the derivative kernel of
:mod:`revderiv.combinators` at that order on the map, which decides order 0
and emits only the order-k terms; a positive order needs a single-block map.

The two towers are exchanged by the linear transpose in the covector/second
slot; the ``stable`` law suite checks that exchange (the transpose bridge)
and the first-order compatibility it rests on (the stable rule).
"""

from __future__ import annotations

from functools import lru_cache

from .combinators import _partial, _require_single_block
from .maps import PolyMap


def _tower(f: PolyMap, order: int, reverse: bool) -> PolyMap:
    if order > 0:
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
