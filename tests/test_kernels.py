"""Kernel semantics: each kernel against its definition or an oracle."""

import itertools

from conftest import NAMED_POOL, classes, join_closed_by_mask, random_semilattice
from slcong import kernels
from slcong.congruences import all_meet_congruences_bruteforce
from slcong.core import named
from slcong.enumeration import _Parent
from slcong.joinsub import PartialJoinStructure


def random_clauses(rng, nbits, t):
    """t clauses on nbits bits: needs of 1-2 bits and joins of 1-2 bits,
    which may meet the need, with duplicates."""
    clauses = []
    for _ in range(t):
        if clauses and rng.random() < 0.1:
            clauses.append(rng.choice(clauses))
            continue
        need = sum(1 << b for b in rng.sample(range(nbits), min(nbits, rng.randint(1, 2))))
        join = sum(1 << rng.randrange(nbits) for _ in range(rng.randint(1, 2)))
        clauses.append((need, join))
    return clauses


def test_selected_implementation_exposed():
    assert kernels.IMPLEMENTATION == "pure"


def test_pure_scan_against_itertools(rng):
    # nbits up to 15 spans 1 to 8 blocks of 2^BLOCK_BITS masks
    assert kernels.BLOCK_BITS == 12
    for nbits in range(16):
        for t in (0, 1, 3, 8):
            if nbits == 0 and t:
                continue
            clauses = random_clauses(rng, nbits, t)
            expected = join_closed_by_mask(nbits, clauses)
            assert kernels.scan_join_closed(nbits, clauses) == len(expected), (nbits, clauses)
            assert kernels.list_join_closed(nbits, clauses) == expected, (nbits, clauses)


def test_listing_ascends_across_block_boundaries():
    assert kernels.list_join_closed(14, []) == list(range(1 << 14))
    # each clause straddles the low and the high bits of a 14-bit mask
    clauses = [((1 << 11) | (1 << 12), 1 << 13), (1 << 13, 1), ((1 << 12) | 2, 1 << 5)]
    expected = join_closed_by_mask(14, clauses)
    listed = kernels.list_join_closed(14, clauses)
    assert listed == expected and listed[0] == 0 and len(listed) < 1 << 14
    assert kernels.scan_join_closed(14, clauses) == len(expected)


def test_scans_match_the_oracle_on_the_walks_ideal_clauses():
    # the clauses the enumeration walk lists its ideals with, on every class
    # with n <= 8: the join-closed pass, narrowed by the down-set clauses
    tables = [S for n in range(1, 9) for S in classes(n)]
    for S in tables:
        nbits = S.n - 1
        ubtas = PartialJoinStructure(S).clauses
        needs = [(1 << (x - 1), 1 << (c - 1)) for c, x in S.covers if c]
        parent = _Parent(S)
        assert kernels._listed(parent.alive) == join_closed_by_mask(nbits, ubtas)
        listed = join_closed_by_mask(nbits, needs + list(ubtas))
        assert parent.ideals() == [(mask << 1) | 1 for mask in listed], S.meet
        assert kernels.list_join_closed(nbits, needs + list(ubtas)) == listed
        assert kernels.scan_join_closed(nbits, needs + list(ubtas)) == len(listed)
    assert len(tables) == 1377


def test_narrowing_a_pass_matches_one_pass_over_all_clauses(rng):
    # _kept narrows the blocks of a pass by more clauses, on one block or
    # several, among them pairs with an empty join, as the walk's new pairs
    for nbits in (0, 1, 5, 12, 13, 14):
        for _ in range(4):
            first = random_clauses(rng, nbits, rng.randint(0, 4)) if nbits else []
            more = random_clauses(rng, nbits, rng.randint(0, 2)) if nbits else []
            for _ in range(rng.randint(0, 3) if nbits > 1 else 0):
                more.append((sum(1 << b for b in rng.sample(range(nbits), 2)), 0))
            blocks = list(kernels._alive_blocks(nbits, first))
            narrowed = kernels._listed(kernels._kept(nbits, blocks, more))
            assert narrowed == join_closed_by_mask(nbits, first + more), (nbits, first, more)


def test_op_compatible_against_definition(rng):
    for _ in range(300):
        S = random_semilattice(rng, rng.randrange(1, 8))
        # random_semilattice adds each element above earlier ones, so the
        # last label is maximal; shuffle labels so that any element can be last
        S = S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))
        k = rng.randrange(1, S.n + 1)
        remap = {}
        ids = [remap.setdefault(rng.randrange(k), len(remap)) for _ in range(S.n)]
        compatible = all(
            ids[S.meet[x][z]] == ids[S.meet[y][z]]
            for x, y in itertools.combinations(range(S.n), 2)
            if ids[x] == ids[y]
            for z in range(S.n)
        )
        assert kernels.op_compatible(S.meet, ids) == compatible


def test_closure_is_least_congruence_containing_pairs():
    for name in NAMED_POOL:
        S = named(name)
        if S.n > 6:
            continue
        cons = all_meet_congruences_bruteforce(S)
        for x, y in itertools.combinations(range(S.n), 2):
            ids = kernels.congruence_closure(S.meet, [(x, y)])
            containing = [P for P in cons if P.block_id[x] == P.block_id[y]]
            assert any(P.block_id == ids for P in containing)
            # least: every containing congruence is coarser
            for P in containing:
                for a, b in itertools.combinations(range(S.n), 2):
                    if ids[a] == ids[b]:
                        assert P.block_id[a] == P.block_id[b]


def test_closure_block_ids_dense_first_occurrence(rng):
    for _ in range(20):
        S = random_semilattice(rng, rng.randrange(1, 7))
        ids = kernels.congruence_closure(S.meet, [])
        assert ids == tuple(range(S.n))
