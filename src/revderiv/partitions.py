"""Set partitions of {1, ..., n} in a canonical deterministic order.

Partitions are enumerated through restricted growth strings: position i of
the string names the block element i+1 belongs to, and a new block label may
exceed the running maximum by at most one.  Blocks are therefore ordered by
their minimum element, with the block containing 1 first.  The enumeration
walks label choices from high to low, which lists finer partitions before
coarser ones (all singletons first, the one-block partition last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty sorted blocks covering {1, ..., n}, ordered by minimum."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in a set partition")
            if tuple(sorted(block)) != block:
                raise ValueError(f"block {block} is not sorted")
            if seen & set(block):
                raise ValueError("blocks of a set partition must be disjoint")
            seen.update(block)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n} exactly")
        mins = [block[0] for block in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be ordered by their minimum element")

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(str(i) for i in block) + "}" for block in self.blocks)


def _from_growth_string(labels: Sequence[int]) -> SetPartition:
    """The partition a restricted growth string names.  Its blocks are
    nonempty, sorted, disjoint, cover 1..n and are ordered by minimum by
    construction, so it skips the checks of ``SetPartition.__post_init__``,
    which would take most of the time of an enumeration."""
    count = max(labels) + 1
    blocks: list[list[int]] = [[] for _ in range(count)]
    for i, label in enumerate(labels):
        blocks[label].append(i + 1)
    part = object.__new__(SetPartition)
    object.__setattr__(part, "blocks", tuple(tuple(b) for b in blocks))
    return part


def _walk(labels: list[int], i: int, top: int, out: list[SetPartition]) -> None:
    """Fill positions i.. of the growth string, high labels first.  A module
    function, not a closure: a nested function that calls itself is a
    reference cycle, which would keep ``out`` alive until the next garbage
    collection."""
    if i == len(labels):
        out.append(_from_growth_string(labels))
        return
    for label in range(top + 1, -1, -1):
        labels[i] = label
        _walk(labels, i + 1, max(top, label), out)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All set partitions of {1, ..., n}, each exactly once, finest first.

    ``n = 0`` yields the empty list by convention.
    """
    if n < 0:
        raise ValueError("cannot partition a negative-size set")
    if n == 0:
        return []
    out: list[SetPartition] = []
    _walk([0] * n, 1, 0, out)
    return out

