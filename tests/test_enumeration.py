import hashlib
import json

import pytest

from conftest import (
    NAMED_POOL,
    automorphisms,
    classes,
    grown,
    span_order,
    triangle_square,
)
from slcong import enumeration, kernels, verify
from slcong.congruences import all_meet_congruences, is_lattice
from slcong.core import (
    _bits,
    _colors,
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
    _Parent,
    _table,
    enumerate_semilattices,
    enumerate_semilattices_bruteforce,
    spectrum,
    top_values,
    walk,
)
from slcong.errors import InternalInconsistency, NotEnoughValues, TooLarge
from slcong.joinsub import PartialJoinStructure, congruence_count


EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 53, 7: 222}


def test_counts_against_oracle():
    for n in range(1, 7):
        fast = classes(n)
        slow = enumerate_semilattices_bruteforce(n)
        assert len(fast) == len(slow) == EXPECTED_COUNTS[n]
        assert {S.meet for S in fast} == {canonical_form(S).meet for S in slow}


def test_walk_yields_each_class_once():
    levels = {n: [] for n in range(1, 9)}
    for key, S, _ in walk(8):
        levels[S.n].append(key)
    assert [len(level) for level in levels.values()] == [1, 1, 2, 5, 15, 53, 222, 1078]
    assert len({key for level in levels.values() for key in level}) == 1377
    for n, level in levels.items():
        assert [S.meet for S in classes(n)] == [_table(key, n).meet for key in sorted(level)]


def test_walk_pairs_each_key_with_the_class_it_built(rng):
    # S is the walk's own labelling of the class, with the masks it took
    # from its parent; key is its canonical form's
    relabeled = 0
    for key, S, _ in walk(8):
        assert (S.below_mask, S.above_mask) == _masks_by_definition(S)
        assert canonical_form(S).meet == _table(key, S.n).meet
        relabeled += _table(key, S.n) != S
        # the deletion target, placed last, is maximal in any labelling
        T = S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))
        assert canonical_with_perm(T)[1].index(S.n - 1) in T.maximal_elements, T.meet
    assert relabeled > 0


def test_walk_counts_each_class_by_the_recurrence():
    # the count the walk carries down to each class is the one count() and
    # the congruence listing give
    for key, S, k in walk(8):
        assert k == congruence_count(S) == len(all_meet_congruences(S)), key


def test_child_count_is_count_of_the_child(rng):
    # on every join-closed ideal of every class with n <= 7, and of a
    # relabelling; a child whose ideal holds no new pair has exactly twice
    # its parent's count
    doubled = added = 0
    for n in range(1, 8):
        for S in classes(n):
            for T in (S, S.relabel([0] + rng.sample(range(1, n), n - 1))):
                parent = _Parent(T)
                assert parent.count == congruence_count(T)
                above = T.above_mask
                for mask in parent.ideals():
                    k = parent.child_count(mask)
                    assert k == congruence_count(_extend(T, mask)), (T.meet, mask)
                    ideal = list(_bits(mask & ~1))
                    new = any(not above[a] & above[b] for a in ideal for b in ideal)
                    assert (k == 2 * parent.count) == (not new), (T.meet, mask)
                    doubled += not new
                    added += new
    assert doubled > 0 and added > 0


def test_child_count_on_parents_wider_than_one_block(rng):
    # 13 and 14 bits of S+: two and four blocks of the pass, on one path
    for S in (grown(rng, named("n5"), 14), grown(rng, named("b4"), 15), triangle_square()):
        parent = _Parent(S)
        assert len(parent.alive) == 1 << (S.n - 1 - kernels.BLOCK_BITS)
        assert parent.count == congruence_count(S)
        for mask in parent.ideals():
            assert parent.child_count(mask) == congruence_count(_extend(S, mask)), (S.meet, mask)


def test_spectrum_counts_no_class_from_scratch(monkeypatch):
    calls = []
    real = PartialJoinStructure.count

    def counted(self):
        calls.append(self.host)
        return real(self)

    monkeypatch.setattr(PartialJoinStructure, "count", counted)
    assert len(spectrum(8, jobs=1).values) == 40
    assert calls == []


def test_walk_refuses_a_count_its_own_pass_contradicts(monkeypatch):
    # a class that is extended is counted by its own pass too
    real = _Parent.child_count
    monkeypatch.setattr(_Parent, "child_count", lambda self, ideal: real(self, ideal) + 1)
    message = "a class with 2 elements has 2 join-closed subsets, its parent's recurrence gave 3"
    with pytest.raises(InternalInconsistency, match=message):
        spectrum(3, jobs=1)


def _passes_size_pretest(child):
    sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(child.below_mask, child.above_mask)]
    return sizes[-1] == max(sizes)


def test_walk_extends_only_by_ideals_that_pass_the_size_pretest(monkeypatch):
    # the pretest is read off the parent and the ideal before _extend, so
    # every child built passes it: 1,468 children in walk(8), not 2,677
    built = []
    real = enumeration._extend

    def extend(S, mask):
        built.append(real(S, mask))
        return built[-1]

    monkeypatch.setattr(enumeration, "_extend", extend)
    assert sum(1 for _ in walk(8)) == 1377
    assert len(built) == 1468
    assert all(map(_passes_size_pretest, built))


def test_sized_ideals_are_the_ideals_whose_child_passes_the_size_pretest(rng):
    for n in range(1, 8):
        for S in classes(n):
            for T in (S, S.relabel([0] + rng.sample(range(1, n), n - 1))):
                assert _Parent(T).sized_ideals() == [
                    mask
                    for mask in _Parent(T).ideals()
                    if _passes_size_pretest(_extend(T, mask))
                ], T.meet


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
    with pytest.raises(InternalInconsistency, match="the walk reported a class twice"):
        enumerate_semilattices(3)
    assert len(kept) == 2


def test_eight_element_count():
    # n-element semilattices with 0 are the (n+1)-element lattices: OEIS A006966
    assert len(classes(8)) == 1078


def test_eight_element_canonical_forms_are_pinned():
    # the sha256 of every canonical meet table at n = 8, in output order:
    # the least certificates over the labelings that order the elements by
    # their (down-set size, up-set size) pairs
    rows = json.dumps([S.meet for S in classes(8)]).encode()
    assert (
        hashlib.sha256(rows).hexdigest()
        == "b77ce910e05b1eef312b3f96fdf75a5a3b77ee2e3725156badfaacbe801a6f25"
    )


def test_canonical_search_generators_are_pinned():
    # the sha256 of the automorphism generators canonical_with_perm returns
    # for every class with n <= 8, in output order; which leaves the search
    # visits, and so which generators it records, follows from every orbit
    # skip and backjump
    generators = [canonical_with_perm(S)[2] for n in range(1, 9) for S in classes(n)]
    assert sum(map(len, generators)) == 1274
    assert (
        hashlib.sha256(json.dumps(generators).encode()).hexdigest()
        == "016639a76a48d102eff275d7254f4d37635e8a2a760916d5884ce6e679e10d43"
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
                for mask in _Parent(T).ideals():
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


def test_enumeration_oracle_claim_fails_on_a_duplicated_class():
    # the tally repeats the first 5-element class in place of the last one,
    # so the class counts still agree: only the pairing can notice
    tallies, _ = verify._tally({"enumeration_oracle": 5}, walk(5))
    tally = tallies["enumeration_oracle"]
    assert verify.claim_enumeration_oracle(5, [tally])
    assert len(tally[5]) == len(classes(5))
    tally[5][-1] = tally[5][0]
    with pytest.raises(AssertionError, match="matches no unpaired oracle class at n=5"):
        verify.claim_enumeration_oracle(5, [tally])


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
            assert _Parent(T).ideals() == _ideals_by_definition(T), T.meet


def test_size_pretest_rejects_only_children_the_color_test_rejects(rng):
    # the colors are the (down-set size, up-set size) pairs and the deletion
    # target has the largest, so every child that fails the pretest, were
    # one built, is rejected anyway; and every child the walk builds has its
    # new element in the largest color class, so no color test is needed
    tables = [S for n in range(1, 7) for S in classes(n)]
    failed = 0
    for S in tables:
        for T in (S, S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))):
            sized = _Parent(T).sized_ideals()
            for mask in _Parent(T).ideals():
                child = _extend(T, mask)
                colors = _colors(child)
                if not _passes_size_pretest(child):
                    failed += 1
                    assert _accepted_canonical(child) is None, child.meet
                    assert colors[T.n] != max(colors), child.meet
                if mask in sized:
                    assert colors[T.n] == max(colors), child.meet
    assert failed > 0


def test_accepted_canonical_separates_orbits_of_one_color():
    # the colors cannot tell the triangle's edges from the square's, so
    # only the orbit test decides
    S = triangle_square()
    n = S.n
    accepted = []
    for new in (8, 11):  # a triangle edge, a square edge
        perm = list(range(n))
        perm[new], perm[n - 1] = n - 1, new
        child = S.relabel(perm)
        colors = _colors(child)
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


@pytest.mark.parametrize("n", [1, 0, -1])
def test_spectrum_refuses_n_below_two_before_walking(monkeypatch, n):
    # NCsl(n) is defined for n >= 2; n is checked before top and the bound
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before n was checked")

    monkeypatch.setattr(enumeration, "_in_shares", no_walk)
    for top in (None, 0, 1):
        with pytest.raises(TooLarge, match=f"n must be at least 2, got {n}"):
            spectrum(n, top=top, max_n=0)


@pytest.mark.parametrize("top", [0, -1])
def test_spectrum_refuses_a_top_below_one_before_walking(monkeypatch, top):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked before top was checked")

    monkeypatch.setattr(enumeration, "_in_shares", no_walk)
    message = f"top count must be at least 1, got {top}"
    for n in (3, 5, 10):  # 10 is above the enumeration bound
        with pytest.raises(TooLarge, match=message):
            spectrum(n, top=top)


@pytest.mark.parametrize("count", [0, -1])
def test_top_values_refuses_a_count_below_one(count):
    with pytest.raises(TooLarge, match=f"top count must be at least 1, got {count}"):
        top_values(spectrum(5, top=4), count)


def test_top_values_not_enough():
    with pytest.raises(NotEnoughValues):
        top_values(spectrum(3), 4)
    with pytest.raises(NotEnoughValues):
        top_values(spectrum(4), 3)
