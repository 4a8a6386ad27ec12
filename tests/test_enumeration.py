import hashlib
import json

import pytest

from conftest import NAMED_POOL, automorphisms, classes, span_order, triangle_square
from slcong import enumeration, verify
from slcong.congruences import is_lattice
from slcong.core import (
    _refine,
    are_isomorphic,
    canonical_form,
    canonical_with_perm,
    named,
    validate,
)
from slcong.enumeration import (
    WITNESS_CAP,
    _accepted_canonical,
    _extend,
    _extend_checked,
    _joinclosed_downset_masks,
    enumerate_semilattices,
    enumerate_semilattices_bruteforce,
    spectrum,
    top_values,
    walk,
)
from slcong.errors import InternalInconsistency, NotEnoughValues, TooLarge
from slcong.joinsub import congruence_count


EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 53, 7: 222}


def test_counts_against_oracle():
    for n in range(1, 7):
        fast = classes(n)
        slow = enumerate_semilattices_bruteforce(n)
        assert len(fast) == len(slow) == EXPECTED_COUNTS[n]
        assert {S.meet for S in fast} == {canonical_form(S).meet for S in slow}


def test_walk_yields_each_class_once():
    levels = {n: [] for n in range(1, 9)}
    for S in walk(8):
        levels[S.n].append(S.meet)
    assert [len(level) for level in levels.values()] == [1, 1, 2, 5, 15, 53, 222, 1078]
    assert len({meet for level in levels.values() for meet in level}) == 1377
    for n, level in levels.items():
        assert [S.meet for S in classes(n)] == sorted(level)


def test_walk_refuses_a_duplicated_class(monkeypatch):
    # both 3-element classes are reported as the first one kept
    real = enumeration._accepted_canonical
    kept = []

    def accepted(child):
        found = real(child)
        if found is not None and child.n == 3:
            kept.append(found)
            return kept[0]
        return found

    monkeypatch.setattr(enumeration, "_accepted_canonical", accepted)
    with pytest.raises(InternalInconsistency, match="duplicate"):
        list(walk(3))
    assert len(kept) == 2


def test_eight_element_count():
    # n-element semilattices with 0 are the (n+1)-element lattices: OEIS A006966
    assert len(classes(8)) == 1078


def test_eight_element_canonical_forms_are_pinned():
    # the sha256 of every canonical meet table at n = 8, in output order, as
    # the walk produced them before tables carried their masks
    rows = json.dumps([S.meet for S in classes(8)]).encode()
    assert (
        hashlib.sha256(rows).hexdigest()
        == "f3a33609c75ff282f2954eee89e926d30d41951f9a11d2c819c8670cc56c0d3e"
    )


def _masks_by_definition(T):
    """(down-sets, up-sets) as bitmasks, read off the meet table."""
    rng_n = range(T.n)
    below = tuple(sum(1 << z for z in rng_n if T.meet[z][x] == z) for x in rng_n)
    above = tuple(sum(1 << z for z in rng_n if T.meet[x][z] == x) for x in rng_n)
    return below, above


def test_walk_tables_carry_their_masks(rng):
    # each class with n <= 7 and a relabeling, every child _extend builds from
    # them, kept or not, and each canonical form hold their definitions' masks
    checked = 0
    for n in range(1, 8):
        for S in classes(n):
            assert (S.below_mask, S.above_mask) == _masks_by_definition(S)
            for T in (S, S.relabel([0] + rng.sample(range(1, n), n - 1))):
                for mask in _joinclosed_downset_masks(T):
                    child = _extend(T, mask)
                    assert child == _extend_checked(T, mask)
                    assert (child.below_mask, child.above_mask) == _masks_by_definition(child)
                    K = canonical_with_perm(child)[0]
                    assert (K.below_mask, K.above_mask) == _masks_by_definition(K), child.meet
                    checked += 1
    assert checked > 2 * 1078


def test_extend_refuses_an_ideal_that_is_not_join_closed():
    # {0, 1, 2} in b4 misses 1 v 2 = 3, so it meets the down-set of 3 in no
    # principal down-set
    with pytest.raises(InternalInconsistency, match=r"ideal \{0, 1, 2\}"):
        _extend(named("b4"), 0b0111)


def _refine_by_pairs(T):
    """The refinement colors by their definition: seeded with (down-set size,
    up-set size), refined by the sorted (color(z), color(x^z)) pairs until no
    class splits."""
    meet = T.meet
    rng_n = range(T.n)
    keys = [
        (sum(meet[z][x] == z for z in rng_n), sum(meet[x][z] == x for z in rng_n))
        for x in rng_n
    ]
    while True:
        uniq = sorted(set(keys))
        color = [uniq.index(k) for k in keys]
        keys = [
            (color[x], tuple(sorted((color[z], color[meet[x][z]]) for z in rng_n)))
            for x in rng_n
        ]
        if len(set(keys)) == len(uniq):
            return color


def test_refine_matches_the_pair_definition(rng):
    for n in range(1, 8):
        for S in classes(n):
            for T in (S, S.relabel([0] + rng.sample(range(1, n), n - 1))):
                assert _refine(T) == _refine_by_pairs(T), T.meet


def test_enumeration_oracle_claim_fails_on_a_duplicated_class(monkeypatch):
    # the walk repeats the first 5-element class in place of the last one,
    # so the class counts still agree and only the pairing can notice
    real = verify.walk

    def duplicated(max_n):
        tables = list(real(max_n))
        fives = [i for i, S in enumerate(tables) if S.n == 5]
        tables[fives[-1]] = tables[fives[0]]
        return iter(tables)

    assert sum(S.n == 5 for S in duplicated(5)) == len(classes(5))
    monkeypatch.setattr(verify, "walk", duplicated)
    with pytest.raises(AssertionError, match="matches no unpaired oracle class at n=5"):
        verify.claim_enumeration_oracle(5)


def test_accepted_canonical_keeps_one_brute_force_orbit(rng):
    # each maximal element of S is made the new one under random relabelings;
    # the kept ones must form exactly one orbit of Aut(S), found by brute
    # force, whatever the labelling
    moved = 0
    for n in range(2, 8):
        for S in classes(n):
            group = automorphisms(S)
            decisions = {}
            for top in S.maximal_elements:
                for _ in range(3):
                    rest = [x for x in range(1, n) if x != top]
                    order = [0] + rng.sample(rest, len(rest)) + [top]
                    perm = [0] * n
                    for i, x in enumerate(order):
                        perm[x] = i
                    child = S.relabel(perm)
                    accepted = _accepted_canonical(child)
                    decisions.setdefault(top, set()).add(accepted is not None)
                    if accepted is not None:
                        K, generators = accepted
                        assert K.meet == S.meet
                        assert span_order(n, generators) == len(group)
                        # coverage only: the orbit test, not the placement, decided
                        moved += canonical_with_perm(child)[1][n - 1] != n - 1
            assert all(len(d) == 1 for d in decisions.values()), (S.meet, decisions)
            kept = {top for top, d in decisions.items() if True in d}
            assert kept and kept == {g[min(kept)] for g in group}, (S.meet, kept)
    assert moved > 0


def _ideals_by_definition(T):
    """Every subset X of T holding 0 that is a down-set and holds the join of
    each upper-bounded incomparable pair inside it, as ascending bitmasks."""
    out = []
    for X in range(1, 1 << T.n, 2):
        members = [x for x in range(T.n) if X >> x & 1]
        if any(T.below_mask[x] & ~X for x in members):
            continue
        if any(
            not X >> T.partial_join(a, b) & 1
            for a in members
            for b in members
            if not T.leq(a, b) and not T.leq(b, a) and T.upper_bound_mask(a, b)
        ):
            continue
        out.append(X)
    return out


def test_ideals_match_definition(rng):
    tables = [named(name) for name in NAMED_POOL]
    tables += [S for n in range(1, 8) for S in classes(n)]
    for S in tables:
        for T in (S, S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))):
            assert _joinclosed_downset_masks(T) == _ideals_by_definition(T), T.meet


def test_size_pretest_rejects_only_children_the_color_test_rejects(monkeypatch, rng):
    refined = []
    real = enumeration._refine

    def refine(S):
        refined.append(S)
        return real(S)

    tables = [S for n in range(1, 7) for S in classes(n)]
    monkeypatch.setattr(enumeration, "_refine", refine)
    skipped = 0
    for S in tables:
        for T in (S, S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))):
            for mask in _joinclosed_downset_masks(T):
                child = _extend(T, mask)
                refined.clear()
                accepted = _accepted_canonical(child)
                if not refined:
                    skipped += 1
                    colors = real(child)
                    assert accepted is None and colors[T.n] != max(colors), child.meet
    assert skipped > 0


def test_accepted_canonical_separates_orbits_of_one_color():
    # color refinement cannot tell the triangle's edges from the square's,
    # so only the orbit test decides
    S = triangle_square()
    n = S.n
    accepted = []
    for new in (8, 11):  # a triangle edge, a square edge
        perm = list(range(n))
        perm[new], perm[n - 1] = n - 1, new
        child = S.relabel(perm)
        colors = _refine(child)
        assert colors[n - 1] == max(colors)
        accepted.append(_accepted_canonical(child) is not None)
    assert sorted(accepted) == [False, True]


def test_three_element_classes():
    chain, vee = None, None
    for S in classes(3):
        if S.ubtas.t == 0 and S.has_top():
            chain = S
        elif S.ubtas.t == 0:
            vee = S
    assert chain is not None and vee is not None
    assert are_isomorphic(chain, named("chain_3"))


def test_seven_element_count_against_oracle():
    fast = classes(7)
    slow = enumerate_semilattices_bruteforce(7)
    assert len(fast) == len(slow) == EXPECTED_COUNTS[7]
    assert {S.meet for S in fast} == {canonical_form(S).meet for S in slow}


def test_outputs_canonical_sorted_valid():
    for n in range(1, 9):
        tables = enumerate_semilattices(n)
        assert tables == sorted(tables, key=lambda S: S.meet)
        for S in tables:
            assert canonical_form(S).meet == S.meet
            assert validate([list(r) for r in S.meet]).meet == S.meet


def test_no_isomorphic_duplicates():
    for n in range(1, 6):
        tables = classes(n)
        for i, S in enumerate(tables):
            for T in tables[i + 1 :]:
                assert not are_isomorphic(S, T)


def test_lattice_correspondence():
    # n-element semilattices match (n+1)-element semilattices with a top;
    # at n = 8 this exercises the full n = 9 level of the generator
    for n in range(1, 9):
        here = len(classes(n))
        above = sum(1 for T in classes(n + 1) if is_lattice(T))
        assert here == above


def test_deterministic():
    a = enumerate_semilattices(5)
    b = enumerate_semilattices(5)
    assert [S.meet for S in a] == [S.meet for S in b]


def test_enumeration_bound():
    with pytest.raises(TooLarge):
        enumerate_semilattices(10)
    with pytest.raises(TooLarge):
        enumerate_semilattices(0)
    assert len(enumerate_semilattices(4, max_n=4)) == 5
    with pytest.raises(TooLarge):
        enumerate_semilattices(5, max_n=4)


def test_oracle_bound():
    with pytest.raises(TooLarge):
        enumerate_semilattices_bruteforce(8)


# --- spectrum -------------------------------------------------------------------


def test_spectrum_small_values():
    assert spectrum(2).values == (2,)
    assert spectrum(3).values == (4,)
    assert spectrum(4).values == (7, 8)
    assert spectrum(5).values == (12, 13, 14, 16)


def test_spectrum_witnesses_recount():
    sp = spectrum(5)
    assert sum(sp.witness_totals.values()) == 15
    for value, tables in sp.witnesses.items():
        assert len(tables) <= WITNESS_CAP
        assert len(tables) <= sp.witness_totals[value]
        for S in tables:
            assert congruence_count(S) == value


def test_spectrum_m3_witnesses_twelve():
    sp = spectrum(5)
    assert any(are_isomorphic(S, named("m3")) for S in sp.witnesses[12])


def test_spectrum_json_shape():
    obj = spectrum(4).to_obj()
    assert obj["values"] == [7, 8]
    assert obj["witness_totals"] == {"7": 1, "8": 4}
    assert len(obj["witnesses"]["7"]) == 1


# --- top values -----------------------------------------------------------------


def test_top_values_n6():
    top = top_values(spectrum(6, top=4), 4)
    assert [(v, sorted(c.value for c in classes)) for v, classes in top] == [
        (32, ["Tree"]),
        (28, ["NucleusB4"]),
        (26, ["NucleusN5"]),
        (25, ["NucleusF", "NucleusN6"]),
    ]


def test_top_values_n8():
    top = top_values(spectrum(8, top=4), 4)
    assert [(v, sorted(c.value for c in classes)) for v, classes in top] == [
        (128, ["Tree"]),
        (112, ["NucleusB4"]),
        (104, ["NucleusN5"]),
        (100, ["NucleusF", "NucleusN6"]),
    ]


def test_top_values_n5():
    top = top_values(spectrum(5, top=4), 4)
    assert [(v, {c.value for c in classes}) for v, classes in top] == [
        (16, {"Tree"}),
        (14, {"NucleusB4"}),
        (13, {"NucleusN5"}),
        (12, {"Other"}),
    ]


def test_top_values_not_enough():
    with pytest.raises(NotEnoughValues):
        top_values(spectrum(3), 4)
    with pytest.raises(NotEnoughValues):
        top_values(spectrum(4), 3)
