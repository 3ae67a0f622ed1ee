"""Memoized total derivatives of any order, for the partition sums.

Each tower is a :func:`functools.lru_cache` of 4,096 ``(map, order)``
entries over one call of the total derivative of
:mod:`revderiv.combinators` at that order.  The summands of the partition
sums of :mod:`revderiv.faa_di_bruno` ask for the same orders of f and g across
partitions, and read them here; everything else, the partition sums' oracle
included, calls the total derivative.
"""

from __future__ import annotations

from functools import lru_cache

from .combinators import forward_derivative, reverse_derivative
from .maps import PolyMap


@lru_cache(maxsize=4096)
def reverse_tower(f: PolyMap, order: int) -> PolyMap:
    """``reverse_derivative(f, order)``, memoized (order 0 = f)."""
    return reverse_derivative(f, order)


@lru_cache(maxsize=4096)
def forward_tower(f: PolyMap, order: int) -> PolyMap:
    """``forward_derivative(f, order)``, memoized (order 0 = f)."""
    return forward_derivative(f, order)
