"""Higher-order reverse and forward derivatives.

Iterating the full reverse derivative doubles up information (the transpose
of each stage is already determined), so the higher-order towers iterate only
the partial derivative in the first argument block:

* reverse tower, order k:  (A, B, A, ..., A) -> A  with k-1 trailing A blocks,
* forward tower, order k:  (A, A, ..., A) -> B     with k trailing A blocks.

Order 0 is the map itself by convention.  The two towers are exchanged by the
linear transpose in the covector/second slot; ``check_dagger_bridge``
verifies that exchange and ``check_stable_rule`` verifies the first-order
compatibility it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=4096)
def reverse_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial reverse derivative (order 0 = f)."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    if order == 1:
        return reverse_derivative(f)
    return partial_reverse(reverse_tower(f, order - 1), 1)


@lru_cache(maxsize=4096)
def forward_tower(f: PolyMap, order: int) -> PolyMap:
    """Iterated first-block partial forward derivative (order 0 = f)."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    if order == 1:
        return forward_derivative(f)
    return partial_forward(forward_tower(f, order - 1), 1)


def check_stable_rule(f: PolyMap) -> LawCheck:
    """Reverse-deriving the forward derivative in its base argument agrees,
    up to swapping the last two argument blocks, with reverse-deriving the
    reverse derivative in its base argument."""
    n = f.domain.total
    m = f.codomain_dim
    lhs_raw = partial_reverse(forward_derivative(f), 1)  # (n, n, m) -> n
    src = ArityProfile((n, m, n))
    lhs = precompose_blocks(lhs_raw, src, {1: 1, 2: 3, 3: 2})
    rhs = partial_reverse(reverse_derivative(f), 1)  # (n, m, n) -> n
    return LawCheck(lhs == rhs, lhs, rhs)


def check_stable_rule_in_context(f: PolyMap) -> LawCheck:
    """The same compatibility for a map with context blocks on both sides.

    ``f`` must have a three-block domain (C1, A, C2); both derivatives are
    taken in the middle block.
    """
    if f.domain.block_count != 3:
        raise ValueError("the context form expects a three-block domain (C1, A, C2)")
    c1, a, c2 = f.domain.blocks
    m = f.codomain_dim
    lhs_raw = partial_reverse(partial_forward(f, 2), 2)  # (c1,a,c2,a,m) -> a
    src = ArityProfile((c1, a, c2, m, a))
    lhs = precompose_blocks(lhs_raw, src, {1: 1, 2: 2, 3: 3, 4: 5, 5: 4})
    rhs = partial_reverse(partial_reverse(f, 2), 2)  # (c1,a,c2,m,a) -> a
    return LawCheck(lhs == rhs, lhs, rhs)


def check_dagger_bridge(f: PolyMap, order: int) -> LawCheck:
    """The linear transpose of the forward tower in its second block equals
    the reverse tower of the same order."""
    if order < 1:
        raise ValueError("the transpose bridge needs order >= 1")
    lhs = dagger(forward_tower(f, order), 2)
    rhs = reverse_tower(f, order)
    return LawCheck(lhs == rhs, lhs, rhs)
