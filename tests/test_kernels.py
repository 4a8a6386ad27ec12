"""Kernel semantics: each kernel against its definition or an oracle."""

import itertools

from conftest import NAMED_POOL, classes, join_closed_by_mask, random_semilattice
from slcong import kernels
from slcong.congruences import all_meet_congruences_bruteforce
from slcong.core import named
from slcong.enumeration import _joinclosed_downset_masks


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


def test_scans_match_the_oracle_on_the_walks_ideal_clauses(monkeypatch):
    # the clauses the enumeration walk lists its ideals with, on every class
    # with n <= 8
    seen = []
    list_join_closed = kernels.list_join_closed

    def checked(nbits, clauses):
        listed = list_join_closed(nbits, clauses)
        assert listed == join_closed_by_mask(nbits, clauses), clauses
        assert kernels.scan_join_closed(nbits, clauses) == len(listed)
        seen.append(nbits)
        return listed

    tables = [S for n in range(1, 9) for S in classes(n)]
    monkeypatch.setattr(kernels, "list_join_closed", checked)
    for S in tables:
        _joinclosed_downset_masks(S)
    assert len(seen) == len(tables) == 1377


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
        singletons = [(x,) for x in range(S.n)]
        for x, y in itertools.combinations(range(S.n), 2):
            ids = kernels.congruence_closure(S.meet, tuple(range(S.n)), singletons, [(x, y)])
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
        ids = kernels.congruence_closure(S.meet, tuple(range(S.n)), [(x,) for x in range(S.n)], [])
        assert ids == tuple(range(S.n))
