import json
import random
from collections import Counter

import pytest

from conftest import NAMED_POOL, classes, grown, join_closed_by_mask, random_semilattice, three_b4
from slcong import joinsub, kernels, verify
from slcong.cli import main
from slcong.congruences import Partition, all_meet_congruences
from slcong.core import extend_below, from_covers, named
from slcong.errors import (
    ContainsZero,
    DualityViolation,
    InternalInconsistency,
    InvalidTable,
    NotJoinClosed,
    SizeMismatch,
    TooLarge,
    TooManyUbtas,
)
from slcong.joinsub import PartialJoinStructure, _method, verify_duality
from slcong.structure import tree_congruence


def naive_join_closed_count(S):
    """Oracle: test every subset of S+ elementwise against partial_join."""
    count = 0
    elems = list(range(1, S.n))
    for mask in range(1 << len(elems)):
        members = {elems[i] for i in range(len(elems)) if mask >> i & 1}
        ok = True
        for x in members:
            for y in members:
                v = S.partial_join(x, y)
                if v is not None and v not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def fan(k):
    """k atoms below one top: one component of k + 1 elements, t = C(k, 2)."""
    return from_covers([[]] + [[0]] * k + [list(range(1, k + 1))])


# --- membership -------------------------------------------------------------


def test_empty_set_is_join_closed():
    for name in NAMED_POOL:
        assert PartialJoinStructure(named(name)).is_join_closed([])


def test_b4_examples():
    pj = PartialJoinStructure(named("b4"))
    assert not pj.is_join_closed([1, 2])
    assert pj.is_join_closed([1, 2, 3])
    assert pj.is_join_closed([1])


def test_contains_zero():
    pj = PartialJoinStructure(named("b4"))
    with pytest.raises(ContainsZero):
        pj.is_join_closed([0, 1])


@pytest.mark.parametrize("element", [7, -1])
def test_element_out_of_range_is_size_mismatch(element):
    pj = PartialJoinStructure(named("b4"))
    with pytest.raises(SizeMismatch, match=f"element {element} out of range"):
        pj.is_join_closed([element])
    with pytest.raises(SizeMismatch):
        pj.dual_congruence([1, element])


# --- counting ----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,count",
    [("chain_2", 2), ("chain_5", 16), ("b4", 7), ("n5", 13), ("f", 25), ("n6", 25), ("m3", 12)],
)
def test_bruteforce_counts(name, count):
    assert PartialJoinStructure(named(name)).count_bruteforce() == count


@pytest.mark.parametrize(
    "name,count", [("b4", 7), ("n5", 13), ("f", 25), ("n6", 25), ("chain_6", 32)]
)
def test_inclusion_exclusion_counts(name, count):
    assert PartialJoinStructure(named(name)).count_inclusion_exclusion() == count


def test_counts_match_naive_oracle():
    for name in NAMED_POOL:
        S = named(name)
        pj = PartialJoinStructure(S)
        expected = naive_join_closed_count(S)
        assert pj.count_bruteforce() == expected
        assert pj.count_inclusion_exclusion() == expected


def test_routes_agree_exhaustively():
    for n in range(1, 9):
        for S in classes(n):
            pj = PartialJoinStructure(S)
            assert pj.count_bruteforce() == pj.count_inclusion_exclusion()


def test_routes_agree_on_random_fixtures(rng):
    done = 0
    while done < 500:
        S = random_semilattice(rng, rng.randrange(9, 13))
        pj = PartialJoinStructure(S)
        if S.ubtas.t > 12:
            continue
        assert pj.count_bruteforce() == pj.count_inclusion_exclusion()
        done += 1


def test_extend_below_scales_counts():
    for name in NAMED_POOL:
        S = named(name)
        base = PartialJoinStructure(S).count()
        for k in (1, 2, 3):
            assert PartialJoinStructure(extend_below(S, k)).count() == base << k


def test_bruteforce_bound():
    pj = PartialJoinStructure(named("chain_26"))
    with pytest.raises(TooLarge):
        pj.count_bruteforce()
    with pytest.raises(TooLarge, match="n=26 exceeds bound 25"):
        pj.join_closed_masks()


def test_too_many_ubtas():
    # a fan of 7 atoms below one top has C(7,2) = 21 > 20 UBTAs
    pj = PartialJoinStructure(fan(7))
    assert pj.host.ubtas.t == 21
    with pytest.raises(TooManyUbtas):
        pj.count_inclusion_exclusion()
    assert pj.count() == pj.count_bruteforce()


# --- the default route: a product over clause components ------------------------


def block_product(S):
    """|Con S| on the congruence side: 2^(k-1) * prod |Con B_i| over the k
    tree-congruence blocks B_i, each counted by congruence enumeration."""
    blocks = tree_congruence(S).blocks
    product = 1 << (len(blocks) - 1)
    for block in blocks:
        product *= len(all_meet_congruences(S.subsemilattice(block)[0]))
    return product


def test_default_route_matches_the_scan_exhaustively():
    # each class with n <= 8, and a relabeling that scatters its components'
    # bits over S+, extended below to n = 14, beyond one scan block, where
    # count() splits the clauses into components
    rng = random.Random(8)
    for n in range(1, 9):
        for S in classes(n):
            expected = len(join_closed_by_mask(n - 1, PartialJoinStructure(S).clauses))
            perm = list(range(1, n))
            rng.shuffle(perm)
            for T in (S, S.relabel([0] + perm)):
                pj = PartialJoinStructure(extend_below(T, 14 - n))
                assert pj.route() == ("components" if S.ubtas.t else "incl-excl")
                assert pj.count() == expected << (14 - n), T.meet


def test_catalog_tables_do_not_split():
    for name in NAMED_POOL + ("chain_30",):
        assert PartialJoinStructure(named(name)).route() != "components", name


@pytest.mark.parametrize(
    "name,route",
    [
        ("b4", "incl-excl"),
        ("n5", "subsets"),
        ("f", "subsets"),
        ("n6", "subsets"),
        ("grid2x3", "subsets"),
    ],
)
def test_one_block_tables_are_counted_whole(name, route):
    # n - 1 <= BLOCK_BITS: one scan block, cheaper than splitting the clauses
    assert PartialJoinStructure(named(name)).route() == route


@pytest.mark.parametrize(
    "nbits,t,method",
    [
        # on random clauses (Python 3.11, 2 cores) the terms took 126 ms
        # against the scan's 6.0 ms at (24, 16), 9.4 against 8.5 at
        # (24, 12) and 7.0 against 0.39 at (20, 12)
        (24, 16, "subsets"),
        (24, 12, "subsets"),
        (20, 12, "subsets"),
        (24, 11, "incl-excl"),
        (20, 7, "incl-excl"),
        (12, 1, "incl-excl"),
        (12, 2, "subsets"),
        (25, 20, "incl-excl"),
        (25, 21, None),
    ],
)
def test_method_follows_the_measured_costs(nbits, t, method):
    assert _method(nbits, t) == method


def test_bowtie_chain_is_scanned_whole(capsys):
    # nine atoms, each two neighbours under one element and each two atoms
    # two apart under another: n = 24, t = 14, one component over all of S+
    S = from_covers(
        [[]] + [[0]] * 9 + [[i, i + 1] for i in range(1, 9)] + [[i, i + 2] for i in range(1, 7)]
    )
    pj = PartialJoinStructure(S)
    assert (S.n, S.ubtas.t, len(pj.components[0]), pj.components[1]) == (24, 14, 1, 0)
    assert pj.route() == "subsets"
    assert pj.count() == pj.count_bruteforce() == pj.count_inclusion_exclusion() == 2070463
    assert main(["count", json.dumps(S.to_obj())]) == 0
    assert capsys.readouterr().out.startswith("subsets: 2070463 ")


def test_three_b4_counts_as_a_product():
    pj = PartialJoinStructure(extend_below(three_b4(), 4))
    assert pj.components == (((3, ((0b011, 0b100),)),) * 3, 4)
    assert pj.route() == "components"
    assert pj.count() == 5488 == 7**3 * 16
    assert PartialJoinStructure(extend_below(three_b4(), 2)).components[1] == 2
    # ten elements fit in one scan block, so three_b4 itself is scanned whole
    pj = PartialJoinStructure(three_b4())
    assert pj.route() == "subsets" and pj.count() == 343


def test_wide_scan_counts_a_fan_under_a_chain(capsys):
    # n = 25, t = 45: the 2^24-mask scan runs over 4,096 blocks
    S = extend_below(fan(10), 13)
    pj = PartialJoinStructure(S)
    assert (S.n, pj.host.ubtas.t) == (25, 45)
    assert pj.count_bruteforce() == pj.count() == 8478720
    assert main(["count", json.dumps(S.to_obj()), "--method", "subsets", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {"subsets": 8478720}


# b4 stacked on b4 through one chain element: two nonsingleton blocks
STACKED_B4 = [[], [0], [0], [1, 2], [3], [4], [4], [5, 6]]


@pytest.mark.parametrize(
    "base",
    [fan(7), three_b4(), named("grid2x3"), from_covers(STACKED_B4)],
    ids=["fan7", "three_b4", "grid2x3", "stacked_b4"],
)
def test_grown_tables_count_as_their_blocks_predict(capsys, base):
    rng = random.Random(base.n)
    for n in (26, 28, 30):
        S = grown(rng, base, n)
        expected = block_product(S)
        pj = PartialJoinStructure(S)
        assert pj.route() == "components"
        assert pj.count() == expected
        assert main(["classify", json.dumps(S.to_obj()), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["congruence_count"] == expected


@pytest.mark.parametrize("below", [0, 1], ids=["whole", "component"])
def test_refusal_comes_before_any_scan(capsys, below):
    # 24 atoms under one top: one component of 25 elements with t = 276,
    # out of both bounds, alone or beside a free element
    S = extend_below(fan(24), below)
    pj = PartialJoinStructure(S)
    assert pj.host.ubtas.t == 276
    with pytest.raises(TooLarge):
        pj.route()
    with pytest.raises(TooLarge):
        pj.count()
    assert main(["count", json.dumps(S.to_obj())]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "both counting bounds" in err


# --- dual map ------------------------------------------------------------------


def test_dual_of_empty_is_full_block():
    pj = PartialJoinStructure(named("n5"))
    assert pj.dual_congruence([]).blocks == ((0, 1, 2, 3, 4),)


def test_dual_chain3():
    pj = PartialJoinStructure(named("chain_3"))
    assert pj.dual_congruence([1, 2]).is_identity()


def test_dual_b4_single():
    pj = PartialJoinStructure(named("b4"))
    assert pj.dual_congruence([1]).blocks == ((0, 2), (1, 3))


def test_dual_rejects_open_subset():
    pj = PartialJoinStructure(named("b4"))
    with pytest.raises(NotJoinClosed):
        pj.dual_congruence([1, 2])


def test_dual_lands_in_congruences():
    for name in NAMED_POOL:
        S = named(name)
        pj = PartialJoinStructure(S)
        keys = {P.blocks for P in all_meet_congruences(S)}
        for mask in pj.join_closed_masks():
            assert Partition(pj._dual_ids(mask)).blocks in keys


# --- full duality ----------------------------------------------------------------


def test_verify_duality_b4():
    report = verify_duality(named("b4"))
    assert report.subalgebra_count == report.congruence_count == 7


def test_verify_duality_chain5():
    report = verify_duality(named("chain_5"))
    assert report.subalgebra_count == report.congruence_count == 16


def test_verify_duality_all_six_element():
    tables = classes(6)
    assert len(tables) == 53
    for S in tables:
        report = verify_duality(S)
        assert report.subalgebra_count == report.congruence_count


def test_verify_duality_bound():
    with pytest.raises(TooLarge):
        verify_duality(named("chain_11"))


@pytest.mark.parametrize("name", ["chain_3", "b4", "n5"])
def test_verify_duality_detects_broken_reversal(monkeypatch, name):
    # swapping the duals of the empty and the full subset keeps a bijection
    # onto the congruences but makes the map order-preserving at its ends
    S = named(name)
    full = (1 << (S.n - 1)) - 1
    dual_ids = PartialJoinStructure._dual_ids

    def swapped(self, mask):
        return dual_ids(self, mask ^ full if mask in (0, full) else mask)

    monkeypatch.setattr(PartialJoinStructure, "_dual_ids", swapped)
    with pytest.raises(DualityViolation, match="not reversed refinement"):
        verify_duality(S)


def test_verify_duality_rejects_a_dual_twisted_by_an_automorphism(monkeypatch):
    # composing the dual with the swap of b4's atoms 1 and 2 (S+ bits 0 and 1)
    # is still an order anti-isomorphism onto the congruences, but not the dual
    dual_ids = PartialJoinStructure._dual_ids

    def twisted(self, mask):
        swapped = mask & ~0b11 | (mask & 1) << 1 | (mask >> 1) & 1
        return dual_ids(self, swapped)

    monkeypatch.setattr(PartialJoinStructure, "_dual_ids", twisted)
    with pytest.raises(DualityViolation):
        verify_duality(named("b4"))


def test_verify_duality_rejects_swapped_duals_by_their_block_minima(monkeypatch):
    # on chain_3 the duals of {1} and {2} are {0}{1, 2} and {0, 1}{2};
    # swapped, every step still refines and both are congruences, but each
    # has the other's block minima
    dual_ids = PartialJoinStructure._dual_ids

    def swapped(self, mask):
        return dual_ids(self, {0b01: 0b10, 0b10: 0b01}.get(mask, mask))

    monkeypatch.setattr(PartialJoinStructure, "_dual_ids", swapped)
    with pytest.raises(DualityViolation, match="not the set of block minima"):
        verify_duality(named("chain_3"))


def test_verify_duality_rejects_a_dual_that_is_no_congruence(monkeypatch):
    # {0, 2}{1} lies between the duals of the empty set and of {1, 2}, and
    # its block minima are {1}, so only the congruence check sees that it
    # is not convex
    dual_ids = PartialJoinStructure._dual_ids

    def broken(self, mask):
        return (0, 1, 0) if mask == 0b01 else dual_ids(self, mask)

    monkeypatch.setattr(PartialJoinStructure, "_dual_ids", broken)
    with pytest.raises(DualityViolation, match="is not a congruence"):
        verify_duality(named("chain_3"))


def test_verify_duality_rejects_a_listing_that_misses_a_congruence(monkeypatch):
    listing = joinsub.all_meet_congruences
    monkeypatch.setattr(joinsub, "all_meet_congruences", lambda S: listing(S)[1:])
    with pytest.raises(DualityViolation, match="dual image differs"):
        verify_duality(named("b4"))


def test_verify_duality_checks_every_dual_against_one_listing(monkeypatch):
    # one compatibility check per join-closed subset, one listing per table
    calls = Counter()
    op_compatible = kernels.op_compatible
    listing = joinsub.all_meet_congruences

    def counted_op_compatible(op, block_id):
        calls["op_compatible"] += 1
        return op_compatible(op, block_id)

    def counted_listing(S):
        calls["all_meet_congruences"] += 1
        return listing(S)

    monkeypatch.setattr(kernels, "op_compatible", counted_op_compatible)
    monkeypatch.setattr(joinsub, "all_meet_congruences", counted_listing)
    pool = [named(name) for name in ("b4", "n5", "grid2x3")]
    pool += [S for n in range(1, 6) for S in classes(n)]
    for S in pool:
        calls.clear()
        report = verify_duality(S)
        subsets = len(PartialJoinStructure(S).join_closed_masks())
        assert report.subalgebra_count == subsets
        assert calls == {"op_compatible": subsets, "all_meet_congruences": 1}, S.meet


def test_duality_claim_skips_inclusion_exclusion_beyond_its_bound(monkeypatch):
    # one class with n = 9 has t = 21 UBTAs, beyond the sum's bound of 20;
    # with the bound lowered to 2, some of the 77 classes with n <= 6 stand in
    assert "skipped" not in verify.claim_duality(6)
    monkeypatch.setattr(joinsub, "INCLUSION_EXCLUSION_MAX_T", 2)
    beyond = sum(S.ubtas.t > 2 for n in range(1, 7) for S in classes(n))
    assert 0 < beyond < 77
    assert verify.claim_duality(6).endswith(
        f"duality bijective; inclusion-exclusion skipped on {beyond} with t > 2"
    )


def test_duality_violation_is_an_internal_inconsistency():
    # a failed duality check is a bug in the package, never bad input
    assert issubclass(DualityViolation, InternalInconsistency)
    assert not issubclass(DualityViolation, InvalidTable)


def test_dual_reverses_inclusion_pairwise():
    # the exhaustive comparison: X <= Y iff dual(Y) refines dual(X)
    tables = [S for n in range(1, 8) for S in classes(n)]
    tables += [named(name) for name in NAMED_POOL]
    for S in tables:
        pj = PartialJoinStructure(S)
        duals = [(m, Partition(pj._dual_ids(m))) for m in pj.join_closed_masks()]
        for x, dx in duals:
            for y, dy in duals:
                assert (x & ~y == 0) == dy.refines(dx), (S.meet, x, y)
