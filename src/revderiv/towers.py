"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Order 0 is the map itself by convention.  An order-k tower is one call of
the derivative kernel of :mod:`revderiv.combinators` at order k, which emits
only the order-k terms, with no recursion, so any order works.  Each tower's
cache holds the orders that were asked for, grouped by map.  A call for an
order that is not cached is one kernel call of the remaining order on the
highest cached order of the same map below it, or on the map itself.  No
order in between is built, which keeps the memory of one deep call that of
its result.

The two towers are exchanged by the linear transpose in the covector/second
slot; the ``stable`` law suite checks that exchange (the transpose bridge)
and the first-order compatibility it rests on (the stable rule).
"""

from __future__ import annotations

from collections import namedtuple

from .combinators import _partial, _require_single_block
from .maps import PolyMap

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


_MAXSIZE = 4096  # orders kept per tower cache


def _climb(f: PolyMap, order: int, cached: dict[int, PolyMap], reverse: bool) -> PolyMap:
    """The order-``order`` tower of f: one kernel call of the remaining order
    on the highest order of f in ``cached`` between 1 and ``order``, or on f."""
    if order == 0:
        return f
    below = max((k for k in cached if 0 < k < order), default=0)
    if not below:
        _require_single_block(f, f"the total {'reverse' if reverse else 'forward'} derivative")
    return _partial(cached[below] if below else f, 1, reverse, order - below)


class _TowerCache:
    """A tower as a function of ``(f, order)``, with ``cache_info()`` and
    ``cache_clear()`` as :func:`functools.lru_cache` has them.

    Every call is one lookup, a hit or a miss.  At most ``_MAXSIZE`` orders
    are kept, grouped by map; past that, the map cached first loses all its
    orders, whether or not it was looked up since.
    """

    def __init__(self, name: str, reverse: bool, doc: str) -> None:
        self.__name__, self.__doc__ = name, doc
        self.reverse = reverse
        self.cache_clear()

    def cache_clear(self) -> None:
        self._orders: dict[PolyMap, dict[int, PolyMap]] = {}
        self._hits = self._misses = self._size = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, _MAXSIZE, self._size)

    def __call__(self, f: PolyMap, order: int) -> PolyMap:
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        orders = self._orders.setdefault(f, {})  # the one hash of f
        if order in orders:
            self._hits += 1
            return orders[order]
        self._misses += 1
        t = orders[order] = _climb(f, order, orders, self.reverse)
        self._size += 1
        while self._size > _MAXSIZE:
            self._size -= len(self._orders.pop(next(iter(self._orders))))
        return t


reverse_tower = _TowerCache("reverse_tower", True,
                            "Iterated first-block partial reverse derivative (order 0 = f).")
forward_tower = _TowerCache("forward_tower", False,
                            "Iterated first-block partial forward derivative (order 0 = f).")
