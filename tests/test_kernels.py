"""Kernel semantics: each kernel against its definition or an oracle."""

import itertools

from conftest import NAMED_POOL, random_semilattice
from slcong import kernels
from slcong.congruences import all_meet_congruences_bruteforce
from slcong.core import named


def random_constraints(rng, nbits, t):
    pair_masks, join_masks = [], []
    for _ in range(t):
        a, b, v = rng.sample(range(nbits), 3)
        pair_masks.append((1 << a) | (1 << b))
        join_masks.append(1 << v)
    return pair_masks, join_masks


def test_selected_implementation_exposed():
    assert kernels.IMPLEMENTATION == "pure"


def test_pure_scan_against_itertools(rng):
    for _ in range(20):
        nbits = rng.randrange(1, 13)
        pm, jm = random_constraints(rng, max(nbits, 3), rng.randrange(0, 8))
        pm = [m & ((1 << nbits) - 1) for m in pm]
        jm = [m & ((1 << nbits) - 1) for m in jm]
        naive = sum(
            1
            for mask in range(1 << nbits)
            if all(not (mask & p == p and not mask & j) for p, j in zip(pm, jm))
        )
        assert kernels.scan_join_closed(nbits, pm, jm) == naive
        listed = kernels.list_join_closed(nbits, pm, jm)
        assert len(listed) == naive and listed == sorted(listed)


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
        assert kernels.op_compatible(S.n, S.meet_flat, ids) == compatible


def test_closure_is_least_congruence_containing_pairs():
    for name in NAMED_POOL:
        S = named(name)
        if S.n > 6:
            continue
        cons = all_meet_congruences_bruteforce(S)
        for x, y in itertools.combinations(range(S.n), 2):
            ids = tuple(kernels.congruence_closure(S.n, S.meet_flat, [x, y]))
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
        ids = kernels.congruence_closure(S.n, S.meet_flat, [])
        assert ids == list(range(S.n))
