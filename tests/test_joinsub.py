import pytest

from conftest import NAMED_POOL, random_semilattice
from slcong.congruences import all_meet_congruences
from slcong.core import extend_below, from_covers, named
from slcong.enumeration import enumerate_semilattices
from slcong.errors import (
    ContainsZero,
    DualityViolation,
    NotJoinClosed,
    SizeMismatch,
    TooLarge,
    TooManyUbtas,
)
from slcong.joinsub import PartialJoinStructure, verify_duality


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


def test_join_agrees_with_host():
    for name in NAMED_POOL:
        S = named(name)
        pj = PartialJoinStructure(S)
        for x in range(1, S.n):
            for y in range(1, S.n):
                assert pj.join(x, y) == S.partial_join(x, y)


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
        for S in enumerate_semilattices(n):
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
    with pytest.raises(TooLarge):
        PartialJoinStructure(named("chain_26")).count_bruteforce()


def test_too_many_ubtas():
    # a fan of 7 atoms below one top has C(7,2) = 21 > 20 UBTAs
    fan = from_covers([[]] + [[0]] * 7 + [list(range(1, 8))])
    pj = PartialJoinStructure(fan)
    assert pj.host.ubtas.t == 21
    with pytest.raises(TooManyUbtas):
        pj.count_inclusion_exclusion()
    assert pj.count() == pj.count_bruteforce()


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
            assert pj._dual_of_mask(mask).blocks in keys


# --- full duality ----------------------------------------------------------------


def test_verify_duality_b4():
    report = verify_duality(named("b4"))
    assert report.subalgebra_count == report.congruence_count == 7
    assert report.bijective and report.order_reversing


def test_verify_duality_chain5():
    report = verify_duality(named("chain_5"))
    assert report.subalgebra_count == report.congruence_count == 16


def test_verify_duality_all_six_element():
    tables = enumerate_semilattices(6)
    assert len(tables) == 53
    for S in tables:
        report = verify_duality(S)
        assert report.subalgebra_count == report.congruence_count


def test_verify_duality_bound():
    with pytest.raises(TooLarge):
        verify_duality(named("chain_9"))


@pytest.mark.parametrize("name", ["chain_3", "b4", "n5"])
def test_verify_duality_detects_broken_reversal(monkeypatch, name):
    # swapping the duals of the empty and the full subset keeps a bijection
    # onto the congruences but makes the map order-preserving at its ends
    S = named(name)
    full = (1 << (S.n - 1)) - 1
    dual_of_mask = PartialJoinStructure._dual_of_mask

    def swapped(self, mask):
        return dual_of_mask(self, mask ^ full if mask in (0, full) else mask)

    monkeypatch.setattr(PartialJoinStructure, "_dual_of_mask", swapped)
    with pytest.raises(DualityViolation, match="not reversed refinement"):
        verify_duality(S)
