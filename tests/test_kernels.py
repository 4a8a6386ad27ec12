"""Kernel semantics: each kernel against its definition or an oracle."""

import itertools

from conftest import NAMED_POOL, random_semilattice
from slcong import kernels
from slcong.congruences import all_meet_congruences_bruteforce
from slcong.core import named


def random_clauses(rng, nbits, t):
    clauses = []
    for _ in range(t):
        a, b, v = rng.sample(range(nbits), 3)
        clauses.append(((1 << a) | (1 << b), 1 << v))
    return clauses


def test_selected_implementation_exposed():
    assert kernels.IMPLEMENTATION == "pure"


def test_pure_scan_against_itertools(rng):
    for _ in range(20):
        nbits = rng.randrange(1, 13)
        full = (1 << nbits) - 1
        clauses = random_clauses(rng, max(nbits, 3), rng.randrange(0, 8))
        clauses = [(need & full, join & full) for need, join in clauses]
        naive = sum(
            1
            for mask in range(1 << nbits)
            if all(not (mask & need == need and not mask & join) for need, join in clauses)
        )
        assert kernels.scan_join_closed(nbits, clauses) == naive
        listed = kernels.list_join_closed(nbits, clauses)
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
