import functools
import random
import re

import pytest

from conftest import NAMED_POOL, classes
from slcong import kernels
from slcong.congruences import (
    Partition,
    _block_pairs,
    _joined_labels,
    _set_partition_ids,
    all_lattice_congruences,
    all_meet_congruences,
    all_meet_congruences_bruteforce,
    congruence_generated,
    count_interval_block_equivalences,
    is_lattice,
    is_meet_congruence,
    join_table,
    quotient,
)
from slcong.core import are_isomorphic, named
from slcong.errors import NotACongruence, NotALattice, SizeMismatch, TooLarge
from slcong.joinsub import PartialJoinStructure
from slcong.structure import tree_congruence


def partial_join_table(S):
    """The join table read off ``partial_join`` on S+, with 0 as the identity."""
    rng = range(S.n)
    return tuple(tuple(S.partial_join(x, y) if x and y else x or y for y in rng) for x in rng)


def _join_equivalences(block_id, num_blocks, pairs):
    """The join as dense block ids, read off the enumeration's label map."""
    label, blocks = _joined_labels(block_id, num_blocks, pairs)
    joined = tuple(map(label.__getitem__, block_id))
    assert blocks == max(joined, default=-1) + 1
    return joined


def lattice_congruences_oracle(S):
    """Bell scan filtered by compatibility with both operations."""
    join = partial_join_table(S)
    return [
        ids
        for ids in _set_partition_ids(S.n)
        if kernels.op_compatible(S.meet, ids) and kernels.op_compatible(join, ids)
    ]


# --- Partition ---------------------------------------------------------------


def test_partition_normal_form():
    P = Partition.from_blocks(4, [[3, 1], [2, 0]])
    assert P.blocks == ((0, 2), (1, 3))
    assert P.block_id == (0, 1, 0, 1)
    assert Partition.from_block_id(P.block_id).blocks == P.blocks
    Q = Partition.from_block_id([5, 3, 5, 7])
    assert Q.block_id == (0, 1, 0, 2) and Q.blocks == ((0, 2), (1,), (3,))
    assert (Q.n, Q.num_blocks) == (4, 3)
    for blocks in ([[3, 1], [2, 0]], [[2], [0, 3], [1]], [[0, 1, 2, 3]], [[3], [2], [1], [0]]):
        R = Partition.from_blocks(4, blocks)
        same = Partition.from_block_id(R.block_id)
        assert same == R and hash(same) == hash(R)
        assert Partition.from_blocks(4, R.blocks) == R
        assert sorted(map(sorted, blocks)) == sorted(map(list, R.blocks))
    relabeled = Partition.from_block_id("abab")
    assert relabeled == P and hash(relabeled) == hash(P)
    assert Partition.from_block_id([]).blocks == () and Partition.identity(0).num_blocks == 0


def test_partition_from_blocks_errors():
    with pytest.raises(SizeMismatch):
        Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(SizeMismatch):
        Partition.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(SizeMismatch, match="empty block"):
        Partition.from_blocks(3, [[0, 1, 2], []])


def test_partition_refines():
    fine = Partition.identity(4)
    coarse = Partition.single_block(4)
    mid = Partition.from_blocks(4, [[0, 1], [2], [3]])
    assert fine.refines(mid) and mid.refines(coarse)
    assert not coarse.refines(mid)


def test_partition_refines_matches_the_definition():
    # every ordered pair of the 52 partitions of a 5-set, congruences or not
    parts = [Partition(ids) for ids in _set_partition_ids(5)]
    assert len(parts) == 52
    for P in parts:
        for Q in parts:
            inside = all(len({Q.block_id[x] for x in block}) == 1 for block in P.blocks)
            assert P.refines(Q) == inside, (P, Q)


def test_partition_json():
    P = Partition.from_blocks(3, [[1, 2], [0]])
    assert P.to_obj() == {"blocks": [[0], [1, 2]]}


# --- recognition ---------------------------------------------------------------


def test_identity_and_full_are_congruences():
    for name in NAMED_POOL:
        S = named(name)
        assert is_meet_congruence(S, Partition.identity(S.n))
        assert is_meet_congruence(S, Partition.single_block(S.n))


def test_b4_two_block_congruence():
    b4 = named("b4")
    P = Partition.from_blocks(4, [[1, 3], [0, 2]])
    assert is_meet_congruence(b4, P)
    Q = Partition.from_blocks(4, [[1, 2], [0, 3]])
    assert not is_meet_congruence(b4, Q)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        is_meet_congruence(named("b4"), Partition.identity(3))


# --- enumeration of congruences -------------------------------------------------


@pytest.mark.parametrize(
    "name,count", [("chain_4", 8), ("b4", 7), ("m3", 12), ("n5", 13), ("f", 25), ("n6", 25)]
)
def test_congruence_counts(name, count):
    assert len(all_meet_congruences(named(name))) == count


def test_fast_path_matches_bell_oracle(rng):
    # the listing's order comes from the block counts it carries, so a
    # random relabeling of each small class (0 kept least) checks it too
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 8):
        pool += classes(n)
    pool += [
        S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for n in range(1, 7) for S in classes(n)
    ]
    for S in pool:
        fast = all_meet_congruences(S)
        slow = all_meet_congruences_bruteforce(S)
        assert [P.blocks for P in fast] == [P.blocks for P in slow]


def test_listed_congruences_are_closure_fixpoints_without_duplicates():
    for n in range(1, 8):
        for S in classes(n):
            cons = all_meet_congruences(S)
            assert len({P.blocks for P in cons}) == len(cons)
            for P in cons:
                assert kernels.op_compatible(S.meet, P.block_id)


def test_join_pair_matches_closure_from_scratch():
    # every Bell-scan congruence P joined with every pair x < y, against the
    # least Bell-scan congruence above P relating x and y
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 7):
        pool += classes(n)
    for S in pool:
        cons = all_meet_congruences_bruteforce(S)
        for P in cons:
            above = [Q for Q in cons if P.refines(Q)]
            for x in range(S.n):
                for y in range(x + 1, S.n):
                    containing = [Q for Q in above if Q.relates(x, y)]
                    least = max(containing, key=lambda Q: Q.num_blocks)
                    assert all(least.refines(Q) for Q in containing)
                    joined = congruence_generated(S, _block_pairs(P.block_id) + [(x, y)]).block_id
                    assert joined == least.block_id, (S.meet, P, x, y)


def test_equivalence_join_with_a_cover_congruence_is_its_closure(rng):
    # the join in Con(S) is the join in Eq(S): every Bell-scan congruence P
    # joined as an equivalence with each cover congruence Cg(a, b) is the
    # closure of P and (a, b) through the meet.  Canonical labels follow a
    # linear extension, so a relabeled copy of each table also makes the
    # union-find merge a block into one with a smaller label.
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 7):
        pool += classes(n)
    pool += [S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for S in pool]
    for S in pool:
        generators = [(a, b, congruence_generated(S, [(a, b)]).block_id) for a, b in S.covers]
        for P in all_meet_congruences_bruteforce(S):
            for a, b, cg in generators:
                joined = _join_equivalences(P.block_id, P.num_blocks, _block_pairs(cg))
                closed = congruence_generated(S, _block_pairs(P.block_id) + [(a, b)]).block_id
                assert joined == closed, (S.meet, P, a, b)


def test_eight_element_congruences_match_join_closed_subset_counts():
    # |Con S| = |Sub(S+)| (the duality), counted by the subset scan, on all
    # 1078 classes with n = 8.  Close-by-One keeps no set of found
    # congruences; only its canonicity test keeps it from listing one twice
    tables = classes(8)
    assert len(tables) == 1078
    for S in tables:
        cons = all_meet_congruences(S)
        assert len({P.block_id for P in cons}) == len(cons)
        assert len(cons) == PartialJoinStructure(S).count_bruteforce()
        for P in cons:
            assert kernels.op_compatible(S.meet, P.block_id)


def test_listing_commutes_with_relabeling(rng):
    # relabeling reorders S.covers and so the cover congruences that
    # Close-by-One adds in order, and with them every canonicity test: too
    # weak a test lists a congruence twice, too strong a one misses some
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 7):
        pool += classes(n)
    for S in pool:
        cons = all_meet_congruences(S)
        for _ in range(2):
            perm = [0] + rng.sample(range(1, S.n), S.n - 1)
            old = [0] * S.n  # old[perm[x]] = x
            for x, y in enumerate(perm):
                old[y] = x
            moved = {Partition.from_block_id([P.block_id[x] for x in old]) for P in cons}
            listed = all_meet_congruences(S.relabel(perm))
            assert len(listed) == len(cons) and set(listed) == moved, (S.meet, perm)


def test_chain_congruence_counts_powers():
    for n in range(2, 11):
        assert len(all_meet_congruences(named(f"chain_{n}"))) == 1 << (n - 1)


def test_too_large():
    with pytest.raises(TooLarge):
        all_meet_congruences(named("chain_11"))
    with pytest.raises(TooLarge):
        all_meet_congruences_bruteforce(named("chain_9"))


def test_blocks_convex_and_meet_closed():
    # every block of every congruence, all semilattices with n <= 7
    for n in range(1, 8):
        for S in classes(n):
            for P in all_meet_congruences(S):
                for block in P.blocks:
                    assert S.is_convex_subsemilattice(block)


def test_chain_congruences_are_interval_partitions():
    # on chains: congruence iff every block is an interval
    chain = named("chain_5")
    for ids in _set_partition_ids(5):
        P = Partition.from_block_id(ids)
        intervals = all(
            block == tuple(range(block[0], block[-1] + 1)) for block in P.blocks
        )
        assert is_meet_congruence(chain, P) == intervals


# --- generated congruences -------------------------------------------------------


def test_generated_empty():
    assert congruence_generated(named("b4"), []).is_identity()


@pytest.mark.parametrize("pair", [(0, 4), (-1, 0)])
def test_generated_refuses_a_pair_out_of_range(pair):
    with pytest.raises(SizeMismatch, match=re.escape(f"pair ({pair[0]},{pair[1]}) out of range")):
        congruence_generated(named("b4"), [(1, 3), pair])


def test_generated_chain_collapse():
    P = congruence_generated(named("chain_3"), [(0, 2)])
    assert P.blocks == ((0, 1, 2),)


def test_generated_b4_pair():
    P = congruence_generated(named("b4"), [(1, 3)])
    assert P.blocks == ((0, 2), (1, 3))


def test_generated_is_least_containing():
    for n in range(2, 7):
        for S in classes(n):
            cons = all_meet_congruences_bruteforce(S)
            for x in range(S.n):
                for y in range(x + 1, S.n):
                    P = congruence_generated(S, [(x, y)])
                    containing = [Q for Q in cons if Q.relates(x, y)]
                    assert any(P.blocks == Q.blocks for Q in containing)
                    assert all(P.refines(Q) for Q in containing)


# --- quotients -------------------------------------------------------------------


def test_quotient_by_identity():
    S = named("n5")
    Q, blocks = quotient(S, Partition.identity(S.n))
    assert are_isomorphic(Q, S)
    assert blocks == tuple((x,) for x in range(S.n))


def test_quotient_by_full():
    Q, _ = quotient(named("b4"), Partition.single_block(4))
    assert Q.n == 1


def test_quotient_n5_tree_congruence():
    S = named("n5")
    Q, _ = quotient(S, tree_congruence(S))
    assert Q.n == 1


def test_quotient_rejects_non_congruence():
    with pytest.raises(NotACongruence):
        quotient(named("b4"), Partition.from_blocks(4, [[1, 2], [0, 3]]))


def test_quotient_meet_is_blockwise():
    S = named("grid2x3")
    P = tree_congruence(S)
    Q, blocks = quotient(S, P)
    bid = P.block_id
    for x in range(S.n):
        for y in range(S.n):
            assert Q.meet[bid[x]][bid[y]] == bid[S.meet[x][y]]


# --- lattice congruences -----------------------------------------------------------


def test_is_lattice():
    assert is_lattice(named("b4"))
    assert is_lattice(named("chain_3"))
    assert not is_lattice(named("f"))
    vee = named("chain_1")
    assert is_lattice(vee)


def test_lattice_congruences_counts():
    assert len(all_lattice_congruences(named("b4"))) == 4
    assert len(all_lattice_congruences(named("n5"))) == 5
    for n in range(2, 7):
        assert len(all_lattice_congruences(named(f"chain_{n}"))) == 1 << (n - 1)


def test_lattice_congruences_match_oracle():
    for name in ("b4", "n5", "m3", "grid2x3", "chain_4", "n6"):
        S = named(name)
        impl = [P.block_id for P in all_lattice_congruences(S)]
        assert sorted(impl) == sorted(lattice_congruences_oracle(S))


def test_join_table_matches_partial_join_on_small_lattices():
    rng = random.Random(6)
    lattices = 0
    for n in range(1, 9):
        for S in filter(is_lattice, classes(n)):
            perm = list(range(1, n))
            rng.shuffle(perm)
            for T in (S, S.relabel([0] + perm)):
                assert join_table(T) == partial_join_table(T), T.meet
            lattices += 1
    assert lattices == 1 + 1 + 1 + 2 + 5 + 15 + 53 + 222  # OEIS A006966


def test_lattice_congruences_need_top():
    with pytest.raises(NotALattice):
        all_lattice_congruences(named("f"))


# --- interval-block equivalences -----------------------------------------------------


def test_interval_block_counts():
    assert count_interval_block_equivalences(named("grid2x3")) == 34
    assert count_interval_block_equivalences(named("chain_6")) == 32
    assert count_interval_block_equivalences(named("chain_1")) == 1


def test_interval_block_count_matches_the_definition(rng):
    # every set partition whose blocks are each the interval from the
    # block's meet to one of its members, counted on each table and on a
    # random relabeling (0 kept least) of it
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 7):
        pool += classes(n)
    pool += [S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for S in pool]
    for S in pool:
        above, below, meet = S.above_mask, S.below_mask, S.meet

        def is_interval(block):
            mask = sum(1 << x for x in block)
            a = functools.reduce(lambda x, y: meet[x][y], block)
            return any(above[a] & below[b] == mask for b in block)

        expected = 0
        for ids in _set_partition_ids(S.n):
            blocks = {}
            for x, k in enumerate(ids):
                blocks.setdefault(k, []).append(x)
            expected += all(map(is_interval, blocks.values()))
        assert count_interval_block_equivalences(S) == expected, S.meet


def test_interval_block_bound():
    with pytest.raises(TooLarge):
        count_interval_block_equivalences(named("chain_11"))
