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
slot; ``check_dagger_bridge`` verifies that exchange and
``check_stable_rule`` verifies the first-order compatibility it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .combinators import (
    dagger,
    forward_derivative,
    partial_forward,
    partial_reverse,
    reverse_derivative,
)
from .maps import ArityProfile, PolyMap, precompose_blocks


@dataclass(frozen=True)
class LawCheck:
    """Outcome of a symbolic identity check, with both sides as witnesses."""

    ok: bool
    lhs: PolyMap
    rhs: PolyMap

    def __bool__(self) -> bool:
        return self.ok


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


def check_stable_rule(f: PolyMap, j: int = 1) -> LawCheck:
    """Deriving f in block j forward and then in reverse agrees, up to swapping
    the last two argument blocks, with deriving it in block j twice in reverse.

    j = 1 of a one-block map is the first-order compatibility of the towers;
    j = 2 of (C1, A, C2) is the same rule with context blocks on both sides.
    """
    blocks = f.domain.blocks
    nb = len(blocks)
    lhs_raw = partial_reverse(partial_forward(f, j), j)  # blocks + (a, m) -> a
    src = ArityProfile(blocks + (f.codomain_dim, blocks[j - 1]))
    placement = {t: t for t in range(1, nb + 1)} | {nb + 1: nb + 2, nb + 2: nb + 1}
    lhs = precompose_blocks(lhs_raw, src, placement)
    rhs = partial_reverse(partial_reverse(f, j), j)  # blocks + (m, a) -> a
    return LawCheck(lhs == rhs, lhs, rhs)


def check_dagger_bridge(f: PolyMap, order: int) -> LawCheck:
    """The linear transpose of the forward tower in its second block equals
    the reverse tower of the same order."""
    if order < 1:
        raise ValueError("the transpose bridge needs order >= 1")
    lhs = dagger(forward_tower(f, order), 2)
    rhs = reverse_tower(f, order)
    return LawCheck(lhs == rhs, lhs, rhs)
