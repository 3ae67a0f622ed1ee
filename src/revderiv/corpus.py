"""Seeded random polynomial maps for the law suites.

Polynomial identities are checked symbolically, so small shapes suffice:
blocks of dimension up to 3, degree up to 3, and coefficients drawn from
{-3, ..., 3} (ints) plus 1/2 (a ``Fraction``).  Everything is driven by an
explicit ``random.Random`` so a seed reproduces a run byte-for-byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._records import FrozenRecord
from .maps import ArityProfile, PolyMap
from .poly import Coefficient, Polynomial, _accumulate

COEFF_POOL = tuple(range(-3, 4)) + (Fraction(1, 2),)
MAX_BLOCKS = 3  # blocks in a random profile
MAX_TERMS = 4  # terms drawn per random polynomial


class CorpusConfig(FrozenRecord):
    """Bounds of the random maps: block dimension, degree, derivative order."""

    __slots__ = ("max_dim", "max_degree", "max_order")

    def __init__(self, max_dim: int = 3, max_degree: int = 3, max_order: int = 3) -> None:
        self._init(max_dim, max_degree, max_order)


def random_monomial(rng: random.Random, dim: int, max_degree: int) -> tuple[int, ...]:
    exps = [0] * dim
    if dim:
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
    return tuple(exps)


def random_polynomial(rng: random.Random, dim: int, max_degree: int) -> Polynomial:
    # a seed fixes the corpus only while each term draws its monomial, then its coefficient
    return _accumulate(dim, ((random_monomial(rng, dim, max_degree), rng.choice(COEFF_POOL))
                             for _ in range(rng.randint(1, MAX_TERMS))))


def random_map(rng: random.Random, profile: ArityProfile, codomain_dim: int,
               max_degree: int) -> PolyMap:
    dim = profile.total
    return PolyMap(
        profile,
        tuple(random_polynomial(rng, dim, max_degree) for _ in range(codomain_dim)),
    )


def random_profile(rng: random.Random, cfg: CorpusConfig) -> ArityProfile:
    count = rng.randint(1, MAX_BLOCKS)
    return ArityProfile(tuple(rng.randint(1, cfg.max_dim) for _ in range(count)))


def random_single_block_map(rng: random.Random, cfg: CorpusConfig,
                            dim: int | None = None, codomain_dim: int | None = None) -> PolyMap:
    if dim is None:
        dim = rng.randint(1, cfg.max_dim)
    if codomain_dim is None:
        codomain_dim = rng.randint(1, cfg.max_dim)
    return random_map(rng, ArityProfile((dim,)), codomain_dim, cfg.max_degree)


def random_context_map(rng: random.Random, cfg: CorpusConfig,
                       codomain_dim: int | None = None) -> PolyMap:
    """A map with a three-block domain (C1, A, C2), every block nonzero."""
    profile = ArityProfile(tuple(rng.randint(1, cfg.max_dim) for _ in range(3)))
    if codomain_dim is None:
        codomain_dim = rng.randint(1, cfg.max_dim)
    return random_map(rng, profile, codomain_dim, cfg.max_degree)


def random_dlinear_map(rng: random.Random, profile: ArityProfile, j: int,
                       codomain_dim: int, cfg: CorpusConfig) -> PolyMap:
    """A map linear in block j: each coordinate is a sum of block-j variables
    with coefficients polynomial in the other blocks."""
    dim = profile.total
    block = profile.block_range(j)
    others = [i for i in range(dim) if i not in block]
    coords = []
    for _ in range(codomain_dim):
        terms = []
        for i in block:
            # x_i times a coefficient monomial over the other coordinates only
            for _ in range(rng.randint(0, MAX_TERMS - 1)):
                exps = [0] * dim
                exps[i] = 1
                for _ in range(rng.randint(0, cfg.max_degree - 1)):
                    if others:
                        exps[rng.choice(others)] += 1
                terms.append((tuple(exps), rng.choice(COEFF_POOL)))
        coords.append(_accumulate(dim, terms))
    return PolyMap(profile, tuple(coords))


def random_composable_pair(rng: random.Random, cfg: CorpusConfig) -> tuple[PolyMap, PolyMap]:
    """Single-block f : A -> B and g : B -> C that compose."""
    a, b, c = (rng.randint(1, cfg.max_dim) for _ in range(3))
    f = random_map(rng, ArityProfile((a,)), b, cfg.max_degree)
    g = random_map(rng, ArityProfile((b,)), c, cfg.max_degree)
    return f, g


def random_scalar(rng: random.Random) -> Coefficient:
    return rng.choice(COEFF_POOL)
