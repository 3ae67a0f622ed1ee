"""Set partitions of {1, ..., n} in a canonical deterministic order.

The partitions of {1, ..., x} are built from those of {1, ..., x-1}, in their
order: element x first opens a block of its own, then joins each existing
block, from the last block to the first.  Element x is the largest so far and
opens a block only at the end, so every block stays sorted and the blocks
stay ordered by their minimum, with the block containing 1 first.  The list
is thus ordered by the choices of elements 2, 3, ..., n, compared in that
order, each ranked from a new block down to the first block: finer
partitions come before coarser ones, all singletons first and the one-block
partition last.
"""

from __future__ import annotations

from ._records import FrozenRecord


class SetPartition(FrozenRecord):
    """Disjoint nonempty sorted blocks covering {1, ..., n}, ordered by minimum."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        seen: set[int] = set()
        for block in blocks:
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
        mins = [block[0] for block in blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be ordered by their minimum element")
        self._init(blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.blocks))

    def __str__(self) -> str:
        return "|".join(["{" + ",".join(map(str, block)) + "}" for block in self.blocks])


def _built(blocks: tuple[tuple[int, ...], ...]) -> SetPartition:
    """A partition the enumeration built.  Its blocks are nonempty, sorted,
    disjoint, cover 1..n and are ordered by minimum by construction, so it
    skips the checks of ``SetPartition.__init__``, which would take most
    of the time of an enumeration."""
    part = object.__new__(SetPartition)
    object.__setattr__(part, "blocks", blocks)
    return part


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All set partitions of {1, ..., n}, each exactly once, finest first.

    ``n = 0`` yields the empty list by convention.
    """
    if n < 0:
        raise ValueError("cannot partition a negative-size set")
    if n == 0:
        return []
    level: list[tuple[tuple[int, ...], ...]] = [((1,),)]
    for x in range(2, n + 1):
        grown = []
        for blocks in level:
            grown.append(blocks + ((x,),))
            for i in range(len(blocks) - 1, -1, -1):
                grown.append(blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:])
        level = grown
    return [_built(blocks) for blocks in level]
