"""Shared fixtures and random-structure helpers."""

import functools
import itertools
import random

import pytest

from slcong.core import (
    SemilatticeTable,
    _bits,
    attach_above,
    extend_below,
    from_covers,
    named,
    validate,
)
from slcong.enumeration import _extend_checked, enumerate_semilattices

NAMED_POOL = ("chain_1", "chain_2", "chain_4", "chain_6", "b4", "n5", "m3", "f", "n6", "grid2x3")


@functools.cache
def classes(n: int) -> tuple[SemilatticeTable, ...]:
    """The canonical n-element classes, walked once for the whole session."""
    return tuple(enumerate_semilattices(n))


def random_semilattice(rng: random.Random, n: int) -> SemilatticeTable:
    """A random labeled meet semilattice grown by random down-set extensions."""
    S = validate([[0]])
    while S.n < n:
        sub = rng.randrange(1 << (S.n - 1)) if S.n > 1 else 0
        mask = (sub << 1) | 1
        for x in list(_bits(mask)):
            mask |= S.below_mask[x]
        child = _extend_checked(S, mask)
        if child is not None:
            S = child
    return S


def join_closed_by_mask(nbits: int, clauses) -> list[int]:
    """Oracle for the scan kernels: each mask in [0, 2^nbits) tested against
    each clause on its own, ascending."""
    found = []
    for mask in range(1 << nbits):
        if all(mask & need != need or mask & join for need, join in clauses):
            found.append(mask)
    return found


def random_tree(rng: random.Random, n: int) -> SemilatticeTable:
    """A random tree semilattice: each new element covers one existing element."""
    S = validate([[0]])
    while S.n < n:
        x = rng.randrange(S.n)
        S = _extend_checked(S, S.below_mask[x])
    return S


def triangle_square() -> SemilatticeTable:
    """Atoms 1-7 and maximal elements 8-14 above the edges of a triangle
    (8-10) and a square (11-14), with |Aut| = 48.  Color refinement cannot
    tell the triangle's edges from the square's."""
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    return from_covers([[]] + [[0]] * 7 + [list(e) for e in edges])


def three_b4() -> SemilatticeTable:
    """Three copies of b4 sharing their least element, with |Aut| = 48."""
    return from_covers([[], [0], [0], [1, 2], [0], [0], [4, 5], [0], [0], [7, 8]])


def grown(rng: random.Random, S: SemilatticeTable, n: int) -> SemilatticeTable:
    """S with a chain hung below its least element and chains attached above
    random elements, up to n elements, then relabeled at random with 0 kept
    least.  The growth keeps the UBTA family; the relabeling scatters it."""
    S = extend_below(S, rng.randint(1, 3))
    while S.n < n:
        k = min(rng.randint(1, 4), n - S.n)
        S = attach_above(S, rng.randrange(S.n), named(f"chain_{k}"))
    perm = list(range(1, n))
    rng.shuffle(perm)
    return S.relabel([0] + perm)


def star(k: int) -> SemilatticeTable:
    """k atoms above 0, with |Aut| = k!."""
    return from_covers([[]] + [[0]] * k)


def automorphisms(S: SemilatticeTable) -> list[tuple[int, ...]]:
    """Every automorphism of S, each a tuple g with g[x] the image of x, by
    brute force over the permutations that keep each (down-set size, up-set
    size) pool, and so fix 0, checked against every meet."""
    n = S.n
    pools: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        key = (S.below_mask[x].bit_count(), S.above_mask[x].bit_count())
        pools.setdefault(key, []).append(x)
    meet = S.meet
    found = []
    for images in itertools.product(*(itertools.permutations(p) for p in pools.values())):
        g = [0] * n
        for pool, image in zip(pools.values(), images):
            for x, y in zip(pool, image):
                g[x] = y
        if all(g[meet[x][y]] == meet[g[x]][g[y]] for x in range(n) for y in range(x + 1, n)):
            found.append(tuple(g))
    return found


def span_order(n: int, generators) -> int:
    """Order of the permutation group the generators span, by closure."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        h = todo.pop()
        for g in generators:
            gh = tuple(g[y] for y in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return len(group)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
