"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Order 0 is the map itself by convention.  One loop builds both towers: the
total derivative, then the first-block partial derivative once per further
order, with no recursion, so any order works.  Each tower's cache holds the
orders that were asked for, grouped by map.  A call for an order that is not
cached climbs from the highest cached order of the same map below it, so
asking for orders 1, ..., n in turn takes n kernel steps, not n(n+1)/2.  The
orders climbed through are not kept, which keeps the memory of one deep call
that of its result.

The two towers are exchanged by the linear transpose in the covector/second
slot; the ``stable`` law suite checks that exchange (the transpose bridge)
and the first-order compatibility it rests on (the stable rule).
"""

from __future__ import annotations

from collections import namedtuple

from .combinators import forward_derivative, partial_forward, partial_reverse, reverse_derivative
from .maps import PolyMap

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


_MAXSIZE = 4096  # orders kept per tower cache


def _climb(f: PolyMap, order: int, cached: dict[int, PolyMap], reverse: bool) -> PolyMap:
    """The order-``order`` tower of f, climbed from the highest order of f in
    ``cached`` between 1 and ``order``, or from the total derivative of f.
    The kernels are read from the module's globals at each call, so a
    wrapper installed there sees every step."""
    if order == 0:
        return f
    below = max((k for k in cached if 0 < k < order), default=None)
    t = cached.get(below)
    if t is None:
        t, below = (reverse_derivative(f) if reverse else forward_derivative(f)), 1
    step = partial_reverse if reverse else partial_forward
    for _ in range(order - below):
        t = step(t, 1)
    return t


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
