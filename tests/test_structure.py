import itertools
from collections import Counter

import pytest

from conftest import NAMED_POOL, classes, grown
from slcong import enumeration, structure, verify
from slcong.congruences import (
    Partition,
    all_meet_congruences_bruteforce,
    is_meet_congruence,
    quotient,
)
from slcong.core import _bits, are_isomorphic, attach_above, extend_below, from_covers, named, validate
from slcong.errors import (
    InternalInconsistency,
    NotConvexSubsemilattice,
    NotQuasiTree,
    SemilatticeError,
)
from slcong.structure import (
    SemilatticeClass,
    classify,
    convex_block_congruence_check,
    is_quasi_tree,
    is_tree,
    nucleus,
    nucleus_table,
    scaled_threshold,
    skeleton,
    tree_congruence,
)


# --- tree congruence ----------------------------------------------------------


VEE = validate([[0, 0, 0], [0, 1, 0], [0, 0, 2]])


def test_tree_congruence_of_trees_is_identity():
    for S in (named("chain_1"), named("chain_7"), VEE):
        assert tree_congruence(S).is_identity()


def test_tree_congruence_b4():
    assert tree_congruence(named("b4")).blocks == ((0, 1, 2, 3),)


def test_tree_congruence_n5():
    assert tree_congruence(named("n5")).blocks == ((0, 1, 2, 3, 4),)


def _ubta_pairs(S):
    """(a^b, a v b) for every incomparable a, b with an upper bound, from the
    meet table alone."""
    meet = S.meet
    pairs = []
    for a in range(S.n):
        for b in range(a + 1, S.n):
            if meet[a][b] in (a, b):
                continue
            bounds = [z for z in range(S.n) if meet[a][z] == a and meet[b][z] == b]
            joins = [u for u in bounds if all(meet[u][z] == u for z in bounds)]
            if joins:
                pairs.append((meet[a][b], joins[0]))
    return pairs


def test_tree_congruence_is_least_bell_congruence_relating_ubtas(rng):
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 8):
        for S in classes(n):
            pool += [S, S.relabel([0] + rng.sample(range(1, n), n - 1))]
    for S in pool:
        pairs = _ubta_pairs(S)
        containing = [
            P for P in all_meet_congruences_bruteforce(S) if all(P.relates(x, y) for x, y in pairs)
        ]
        least = max(containing, key=lambda P: P.num_blocks)
        assert all(least.refines(P) for P in containing)
        assert tree_congruence(S) == least, S.meet


def test_tcon_not_minimal_tree_quotient():
    # b4 has a strictly smaller congruence whose quotient is still a tree
    b4 = named("b4")
    tcon = tree_congruence(b4)
    P = Partition.from_blocks(4, [[1, 3], [0, 2]])
    assert is_meet_congruence(b4, P)
    assert P.refines(tcon) and P.blocks != tcon.blocks
    assert is_tree(quotient(b4, P)[0])


def test_tree_congruence_joins_the_ubta_intervals_on_grown_tables(rng):
    # grown tables reach sizes no Bell scan does
    for name in ("b4", "n5", "f", "n6"):
        for n in (12, 30, 60, 120):
            S = grown(rng, named(name), n)
            assert tree_congruence(S) == verify._ubta_intervals(S), (name, n)


def test_tree_quotient_claim_fails_on_a_one_block_tree_congruence(monkeypatch):
    # the quotient by the one-block partition is the one-element tree, so
    # only the comparison with the UBTA intervals catches this
    monkeypatch.setattr(verify, "tree_congruence", lambda S: Partition.single_block(S.n))
    with pytest.raises(AssertionError, match="differs from the UBTA intervals"):
        verify.claim_tree_quotient(7)


# --- tree / quasi-tree predicates ------------------------------------------------


def test_is_tree():
    assert is_tree(named("chain_7"))
    assert is_tree(VEE)
    assert not is_tree(named("b4"))


def test_quasi_tree_b4():
    b4 = named("b4")
    assert is_quasi_tree(b4)
    assert nucleus(b4) == (0, 1, 2, 3)
    assert skeleton(b4).n == 1


def test_chain_not_quasi_tree():
    assert not is_quasi_tree(named("chain_5"))
    with pytest.raises(NotQuasiTree):
        nucleus(named("chain_5"))
    with pytest.raises(NotQuasiTree):
        skeleton(named("chain_5"))


def test_quasi_tree_big_n5():
    S = extend_below(named("n5"), 7)
    assert S.n == 12 and is_quasi_tree(S)
    assert are_isomorphic(nucleus_table(S), named("n5"))
    sk = skeleton(S)
    assert sk.n == 8 and is_tree(sk)


def test_skeleton_always_tree_small():
    for n in range(1, 7):
        for S in classes(n):
            if is_quasi_tree(S):
                assert is_tree(skeleton(S))


# --- convex-block criterion --------------------------------------------------------


def test_convex_block_n5_cases():
    n5 = named("n5")
    assert convex_block_congruence_check(n5, [1, 3]) == (True, True)
    assert convex_block_congruence_check(n5, [3, 4]) == (False, False)
    assert convex_block_congruence_check(n5, range(5)) == (True, True)


def test_convex_block_rejects():
    with pytest.raises(NotConvexSubsemilattice):
        convex_block_congruence_check(named("n5"), [1])
    with pytest.raises(NotConvexSubsemilattice):
        convex_block_congruence_check(named("n5"), [1, 2])


def test_convex_listing_equals_the_definition(monkeypatch, rng):
    # canonical labels are a linear extension, so u has the least index in
    # the filter of u; a random relabeling (0 kept least) of each table
    # fails a listing that assumes it
    pool = [named(name) for name in NAMED_POOL]
    for n in range(1, 7):
        pool += classes(n)
    pool += [S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for S in pool]
    listed = []
    check = verify.convex_block_congruence_check

    def spy(S, members):
        listed.append(tuple(members))
        return check(S, members)

    monkeypatch.setattr(verify, "convex_block_congruence_check", spy)
    for S in pool:
        listed.clear()
        verify._check_convex_block(None, S, None, Counter())
        subsets = (tuple(_bits(mask)) for mask in range(1 << S.n) if mask.bit_count() >= 2)
        expected = [X for X in subsets if S.is_convex_subsemilattice(X)]
        # sorted lists, so a duplicate or a missing subset fails
        assert sorted(listed) == sorted(expected), S.meet


# --- classifier ----------------------------------------------------------------------


def test_scaled_threshold():
    assert scaled_threshold(28, 4) == 7
    assert scaled_threshold(28, 6) == 28
    assert scaled_threshold(26, 5) == 13
    assert scaled_threshold(32, 9) == 256
    with pytest.raises(SemilatticeError):
        scaled_threshold(25, 5)


def test_classify_m3():
    report = classify(named("m3"))
    assert report.semilattice_class == SemilatticeClass.OTHER
    assert report.congruence_count == 12
    assert report.predicted_count is None
    assert report.nucleus == (0, 1, 2, 3, 4)  # quasi-tree, just not an extremal one


def test_classify_f():
    report = classify(named("f"))
    assert report.semilattice_class == SemilatticeClass.NUCLEUS_F
    assert report.congruence_count == report.predicted_count == 25


def test_classify_chain9():
    report = classify(named("chain_9"))
    assert report.semilattice_class == SemilatticeClass.TREE
    assert report.congruence_count == 256
    assert report.nucleus is None and report.skeleton is None


def test_classify_twelve_element_n5():
    report = classify(extend_below(named("n5"), 7))
    assert report.semilattice_class == SemilatticeClass.NUCLEUS_N5
    assert report.congruence_count == 1664


def test_classify_b4_fixtures():
    for S in (named("b4"), extend_below(named("b4"), 1), attach_above(named("b4"), 3, named("chain_1"))):
        report = classify(S)
        assert report.semilattice_class == SemilatticeClass.NUCLEUS_B4
        assert report.congruence_count == scaled_threshold(28, S.n)


def test_classify_requires_two_elements():
    with pytest.raises(SemilatticeError):
        classify(named("chain_1"))


@pytest.mark.parametrize(
    "name, cls",
    [
        ("b4", SemilatticeClass.NUCLEUS_B4),
        ("n5", SemilatticeClass.NUCLEUS_N5),
        ("f", SemilatticeClass.NUCLEUS_F),
        ("n6", SemilatticeClass.NUCLEUS_N6),
    ],
)
def test_every_relabeling_gets_its_class_through_the_nucleus_cache(monkeypatch, name, cls):
    # a quasi-tree whose nucleus sits above an element, so the nucleus is
    # relabeled from 0 up; each labelled nucleus table is searched once
    structure._nucleus_class.cache_clear()
    searched = []
    real = structure.canonical_key
    monkeypatch.setattr(structure, "canonical_key", lambda T: searched.append(T.meet) or real(T))
    S = extend_below(named(name), 1)
    nuclei = set()
    for order in itertools.permutations(range(1, S.n)):
        T = S.relabel((0,) + order)
        report = classify(T)
        assert report.semilattice_class == cls, T.meet
        nuclei.add(T.subsemilattice(report.nucleus)[0].meet)
    assert sorted(searched) == sorted(nuclei)
    assert structure._nucleus_class.cache_info().currsize == len(nuclei) > 1


def test_a_count_that_contradicts_the_class_is_refused(monkeypatch):
    # classify and the spectrum's classification of the top values both keep
    # the check of the count against the class's prediction
    monkeypatch.setattr(structure, "congruence_count", lambda S: 27)
    with pytest.raises(InternalInconsistency, match="NucleusB4 predicts 28 congruences, counted 27"):
        classify(extend_below(named("b4"), 2))
    # the walk carries one congruence too many to each 6-element class,
    # which it does not extend, so only the classification can see it
    real = enumeration._Parent.child_count

    def miscounted(parent, ideal):
        return real(parent, ideal) + (parent.S.n == 5)

    monkeypatch.setattr(enumeration._Parent, "child_count", miscounted)
    with pytest.raises(InternalInconsistency, match=r"predicts \d+ congruences, counted"):
        enumeration.spectrum(6, top=4, jobs=1)


def test_classify_report_invariants():
    for n in range(2, 7):
        for S in classes(n):
            report = classify(S)
            assert (report.nucleus is not None) == is_quasi_tree(S)
            assert (report.skeleton is not None) == is_quasi_tree(S)
            if report.nucleus is not None:
                assert report.nucleus == nucleus(S)
                assert report.skeleton == skeleton(S)
            if report.semilattice_class != SemilatticeClass.OTHER:
                assert report.congruence_count == report.predicted_count
            assert report.ubta_count == S.ubtas.t


def test_report_skeleton_round_trips_through_its_covers():
    for n in range(2, 8):
        for S in classes(n):
            report = classify(S)
            if report.skeleton is not None:
                skel = report.to_obj()["skeleton"]
                assert from_covers(skel["covers"]) == report.skeleton
                # a tree: one lower cover per element above 0
                assert sum(map(len, skel["covers"])) == skel["n"] - 1


def test_report_json_shape():
    obj = classify(named("n5")).to_obj()
    assert obj["class"] == "NucleusN5"
    assert obj["congruence_count"] == 13
    assert obj["nucleus"] == [0, 1, 2, 3, 4]
    assert obj["skeleton"] == {"n": 1, "covers": [[]]}


# --- structural facts about UBTA patterns ----------------------------------------


def test_single_ubta_means_b4_nucleus():
    for n in range(2, 8):
        for S in classes(n):
            if S.ubtas.t == 1:
                assert is_quasi_tree(S)
                assert are_isomorphic(nucleus_table(S), named("b4"))


def test_two_ubtas_shared_leg_comparable_others_means_n5():
    for n in range(2, 8):
        for S in classes(n):
            if S.ubtas.t != 2:
                continue
            (a1, b1, v1), (a2, b2, v2) = S.ubtas
            shared = {a1, b1} & {a2, b2}
            others = ({a1, b1} | {a2, b2}) - shared
            if len(shared) == 1 and v1 == v2:
                x, y = sorted(others)
                if S.leq(x, y) or S.leq(y, x):
                    assert are_isomorphic(nucleus_table(S), named("n5"))


def test_bowtie_ubtas_mean_f():
    for n in range(2, 8):
        for S in classes(n):
            if S.ubtas.t != 2:
                continue
            (a1, b1, v1), (a2, b2, v2) = S.ubtas
            if len({a1, b1} & {a2, b2}) == 1 and not S.leq(v1, v2) and not S.leq(v2, v1):
                assert are_isomorphic(nucleus_table(S), named("f"))


def test_three_ubtas_common_leg_and_join_mean_n6():
    for n in range(2, 8):
        for S in classes(n):
            if S.ubtas.t != 3:
                continue
            pairs = [{u.a, u.b} for u in S.ubtas]
            joins = {u.v for u in S.ubtas}
            common = pairs[0] & pairs[1] & pairs[2]
            if len(common) == 1 and len(joins) == 1:
                rest = sorted(set().union(*pairs) - common)
                chain = all(
                    S.leq(x, y) or S.leq(y, x)
                    for i, x in enumerate(rest)
                    for y in rest[i + 1 :]
                )
                if chain:
                    assert are_isomorphic(nucleus_table(S), named("n6"))
