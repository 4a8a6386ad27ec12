import gc
import itertools
import random

import pytest

from conftest import (
    NAMED_POOL,
    automorphisms,
    classes,
    grown,
    random_semilattice,
    random_tree,
    span_order,
    star,
    three_b4,
    triangle_square,
)
from slcong.congruences import (
    BELL_SCAN_MAX_N,
    all_meet_congruences_bruteforce,
    count_interval_block_equivalences,
)
from slcong.core import (
    attach_above,
    are_isomorphic,
    canonical_form,
    canonical_with_perm,
    extend_below,
    from_covers,
    isomorphism_witness,
    named,
    validate,
)
from slcong.errors import (
    ArgumentIsZero,
    MalformedTable,
    NoLeastAtZero,
    NotAssociative,
    NotCommutative,
    NotComparable,
    NotIdempotent,
    SemilatticeError,
    TooLarge,
    UnknownName,
)
from slcong.joinsub import congruence_count


def chain_table(k):
    return [[min(i, j) for j in range(k)] for i in range(k)]


# --- validate ---------------------------------------------------------------


def test_validate_chain():
    assert validate(chain_table(3)).n == 3


def test_validate_b4_table():
    table = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    assert validate(table).meet == named("b4").meet


def test_validate_not_idempotent():
    table = chain_table(3)
    table[1][1] = 0
    with pytest.raises(NotIdempotent) as exc:
        validate(table)
    assert exc.value.element == 1


def test_validate_not_commutative():
    table = [[0, 0, 0], [0, 1, 0], [0, 1, 2]]
    with pytest.raises(NotCommutative) as exc:
        validate(table)
    assert exc.value.pair == (1, 2)


def test_validate_not_associative():
    table = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 3]]
    with pytest.raises(NotAssociative) as exc:
        validate(table)
    assert exc.value.triple == (1, 2, 3)


def test_validate_no_least_at_zero():
    # max operation of a 2-chain: associative and commutative, but 0 is not least
    table = [[0, 1], [1, 1]]
    with pytest.raises(NoLeastAtZero) as exc:
        validate(table)
    assert exc.value.element == 1


def test_validate_malformed():
    with pytest.raises(MalformedTable):
        validate([])
    with pytest.raises(MalformedTable):
        validate([[0, 0], [0]])
    with pytest.raises(MalformedTable):
        validate([[0, 2], [2, 1]])


def test_nontopological_labels_accepted():
    # chain 0 < 2 < 1: labels need not be a linear extension
    table = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    S = validate(table)
    assert S.leq(2, 1) and not S.leq(1, 2)


def _scan_validate(table):
    """Reference checker for idempotent commutative tables: the full
    row-major associativity scan, then the least-element check."""
    rng = range(len(table))
    for x in rng:
        for y in rng:
            for z in rng:
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return NotAssociative(x, y, z)
    for x in rng:
        if table[0][x] != 0:
            return NoLeastAtZero(x)
    return None


def _idempotent_commutative(n, entries):
    table = [[x if x == y else None for y in range(n)] for x in range(n)]
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for (x, y), v in zip(pairs, entries):
        table[x][y] = table[y][x] = v
    return table


def _assert_validate_matches_scan(table):
    expected = _scan_validate(table)
    if expected is None:
        assert validate(table).meet == tuple(map(tuple, table))
        return
    with pytest.raises(type(expected)) as exc:
        validate(table)
    assert exc.value.args == expected.args
    assert getattr(exc.value, "triple", None) == getattr(expected, "triple", None)
    assert getattr(exc.value, "element", None) == getattr(expected, "element", None)


def test_validate_matches_triple_scan_exhaustive():
    accepted = 0
    for n in range(1, 5):
        for entries in itertools.product(range(n), repeat=n * (n - 1) // 2):
            table = _idempotent_commutative(n, entries)
            _assert_validate_matches_scan(table)
            accepted += _scan_validate(table) is None
    # below n = 5 every labeled poset on 1..n-1 with 0 added below is a meet
    # semilattice: 1 + 1 + 3 + 19 labeled posets on 0, 1, 2, 3 elements
    assert accepted == 24


def test_validate_matches_triple_scan_random():
    rng = random.Random(0xA55C)
    for n in range(5, 8):
        for _ in range(2000):
            entries = [rng.randrange(n) for _ in range(n * (n - 1) // 2)]
            _assert_validate_matches_scan(_idempotent_commutative(n, entries))


def test_validate_accepts_relabeled_semilattices():
    rng = random.Random(0x0BAD)
    for n in range(1, 8):
        for S in classes(n):
            rest = list(range(1, n))
            rng.shuffle(rest)
            T = S.relabel([0] + rest)
            assert validate([list(row) for row in T.meet]).meet == T.meet
            # moving 0 as well is still associative, so the scan names the
            # same least-element violation
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_validate_matches_scan([list(row) for row in S.relabel(perm).meet])


def test_below_mask_reads_the_same_down_sets_off_rows_and_columns(rng):
    for n in range(1, 8):
        for S in classes(n):
            for T in (S, S.relabel([0] + rng.sample(range(1, n), n - 1))):
                columns = [sum(1 << z for z in range(n) if T.meet[z][x] == z) for x in range(n)]
                assert list(T.below_mask) == columns
                assert validate(T.meet).below_mask == T.below_mask


# --- order, joins, ubtas ----------------------------------------------------


def test_leq_examples():
    chain3 = named("chain_3")
    assert chain3.leq(0, 2)
    b4 = named("b4")
    assert not b4.leq(1, 2)
    for S in map(named, NAMED_POOL):
        assert all(S.leq(x, x) for x in range(S.n))


def test_partial_join_b4():
    assert named("b4").partial_join(1, 2) == 3


def test_partial_join_absent():
    vee = validate([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert vee.partial_join(1, 2) is None


def test_partial_join_n5():
    # oracle: scan the upper-bound set and take its meet
    n5 = named("n5")
    ubs = [z for z in range(5) if n5.leq(1, z) and n5.leq(2, z)]
    assert ubs == [4]
    assert n5.partial_join(1, 2) == 4


def test_partial_join_rejects_zero():
    with pytest.raises(ArgumentIsZero):
        named("b4").partial_join(0, 1)


def test_partial_join_exists_iff_upper_bound():
    for name in NAMED_POOL:
        S = named(name)
        for x in range(1, S.n):
            for y in range(1, S.n):
                has_ub = bool(S.upper_bound_mask(x, y))
                assert (S.partial_join(x, y) is not None) == has_ub


def test_ubtas_chain_empty():
    assert named("chain_7").ubtas.t == 0


def test_ubtas_n5():
    fam = named("n5").ubtas
    assert [(u.a, u.b) for u in fam] == [(1, 2), (2, 3)]
    assert all(u.v == 4 for u in fam)


def test_ubtas_n6():
    fam = named("n6").ubtas
    assert [(u.a, u.b) for u in fam] == [(1, 4), (2, 4), (3, 4)]
    assert all(u.v == 5 for u in fam)


def test_ubtas_complete_and_sound(rng):
    # every class with n <= 7, a relabeling of each, the catalog and grown
    # tables; the oracle reads leq and partial_join off the meet table
    tables = [named(name) for name in NAMED_POOL]
    tables += [grown(rng, named(name), named(name).n + 8) for name in NAMED_POOL[4:]]
    for n in range(1, 8):
        for S in classes(n):
            tables += [S, S.relabel([0] + rng.sample(range(1, n), n - 1))]
    for S in tables:
        rng_n = range(S.n)
        expected = [
            (a, b, S.partial_join(a, b))
            for a in rng_n[1:]
            for b in rng_n[a + 1 :]
            if not S.leq(a, b)
            and not S.leq(b, a)
            and any(S.leq(a, z) and S.leq(b, z) for z in rng_n)
        ]
        assert [tuple(u) for u in S.ubtas] == expected, S.meet
        assert all(u.v not in (u.a, u.b) for u in S.ubtas)


def test_covers_match_their_definition(rng):
    # y covers x iff x < y with nothing strictly between, over every class
    # with n <= 7, a relabeling of each and the catalog
    tables = [named(name) for name in NAMED_POOL]
    for n in range(1, 8):
        for S in classes(n):
            perm = list(range(1, n))
            rng.shuffle(perm)
            tables += [S, S.relabel([0] + perm)]
    for S in tables:
        rng_n = range(S.n)
        expected = tuple(
            (x, y)
            for x in rng_n
            for y in rng_n
            if x != y
            and S.leq(x, y)
            and not any(z not in (x, y) and S.leq(x, z) and S.leq(z, y) for z in rng_n)
        )
        assert S.covers == expected, S.meet
        assert S.lower_covers() == [[x for x, y in expected if y == upper] for upper in rng_n]


# --- intervals and convexity -------------------------------------------------


def test_interval_examples():
    assert named("chain_4").interval(0, 3) == (0, 1, 2, 3)
    assert named("b4").interval(0, 3) == (0, 1, 2, 3)
    assert named("n5").interval(1, 4) == (1, 3, 4)


def test_interval_not_comparable():
    with pytest.raises(NotComparable):
        named("b4").interval(1, 2)


def test_convex_subsemilattice():
    n5 = named("n5")
    assert n5.is_convex_subsemilattice([1, 3])
    assert not n5.is_convex_subsemilattice([1, 4])  # 3 lies between
    assert n5.is_convex_subsemilattice(range(5))
    assert not n5.is_convex_subsemilattice([1, 2])  # not meet-closed
    assert not n5.is_convex_subsemilattice([])


def test_subsemilattice_refuses_an_empty_or_not_meet_closed_set():
    b4 = named("b4")
    with pytest.raises(SemilatticeError, match="empty subset"):
        b4.subsemilattice([])
    # the meet of all of {1, 2} is 0, outside it
    with pytest.raises(SemilatticeError, match="not meet-closed"):
        b4.subsemilattice([1, 2])
    # {0, 2, 3} holds the meet of all its elements but not 2 ^ 3 = 1
    with pytest.raises(SemilatticeError, match="not meet-closed"):
        extend_below(b4, 1).subsemilattice([0, 2, 3])


# --- isomorphism and canonical form ------------------------------------------


def test_isomorphic_relabeled_chain(rng):
    chain4 = named("chain_4")
    perm = [0, 2, 3, 1]
    assert are_isomorphic(chain4, chain4.relabel(perm))


def test_not_isomorphic():
    assert not are_isomorphic(named("b4"), named("chain_4"))
    assert not are_isomorphic(named("n5"), named("m3"))


def test_isomorphism_witness_preserves_meet(rng):
    for name in ("b4", "n5", "f", "grid2x3"):
        S = named(name)
        perm = [0] + rng.sample(range(1, S.n), S.n - 1)
        T = S.relabel(perm)
        phi = isomorphism_witness(S, T)
        assert phi is not None
        for x in range(S.n):
            for y in range(S.n):
                assert phi[S.meet[x][y]] == T.meet[phi[x]][phi[y]]


def test_canonical_respects_isomorphism(rng):
    pool = [named(name) for name in NAMED_POOL]
    pool += [random_semilattice(rng, rng.randrange(2, 7)) for _ in range(20)]
    pool += [S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for S in pool if S.n > 1]
    for S in pool:
        for T in pool:
            assert are_isomorphic(S, T) == (
                canonical_form(S).meet == canonical_form(T).meet
            )


def test_isomorphism_is_equivalence(rng):
    pool = [random_semilattice(rng, 5) for _ in range(12)]
    for S in pool:
        assert are_isomorphic(S, S)
    for S, T in itertools.combinations(pool, 2):
        assert are_isomorphic(S, T) == are_isomorphic(T, S)
    for S, T, U in itertools.combinations(pool, 3):
        if are_isomorphic(S, T) and are_isomorphic(T, U):
            assert are_isomorphic(S, U)


def test_canonical_form_idempotent(rng):
    for _ in range(10):
        S = random_semilattice(rng, rng.randrange(1, 8))
        K = canonical_form(S)
        assert canonical_form(K).meet == K.meet
        assert are_isomorphic(S, K)


def test_canonical_form_b4_labelings():
    b4 = named("b4")
    assert canonical_form(b4).meet == canonical_form(b4.relabel([0, 2, 1, 3])).meet


def test_canonical_form_constant_over_all_relabelings():
    
    for n in range(2, 6):
        for S in classes(n):
            K = canonical_form(S).meet
            for tail in itertools.permutations(range(1, n)):
                assert canonical_form(S.relabel((0,) + tail)).meet == K


def test_fifteen_distinct_canonical_tables_at_n5():
    from slcong.enumeration import enumerate_semilattices_bruteforce

    reps = enumerate_semilattices_bruteforce(5)
    keys = {canonical_form(S).meet for S in reps}
    assert len(reps) == len(keys) == 15


def test_isomorphism_oracle_runs_without_the_canonical_refinement(monkeypatch):
    from slcong import core
    from slcong.enumeration import enumerate_semilattices_bruteforce

    def colors(*args, **kwargs):
        raise AssertionError("the isomorphism oracle ran the canonical search's colors")

    monkeypatch.setattr(core, "_colors", colors)
    n5 = named("n5")
    assert are_isomorphic(n5, n5.relabel([0, 3, 1, 4, 2]))
    assert not are_isomorphic(n5, named("m3"))
    assert len(enumerate_semilattices_bruteforce(5)) == 15


# --- automorphism generators ---------------------------------------------------


def _is_meet_automorphism(S, g):
    n = S.n
    return sorted(g) == list(range(n)) and all(
        g[S.meet[x][y]] == S.meet[g[x]][g[y]] for x in range(n) for y in range(n)
    )


def test_automorphism_generators_are_meet_automorphisms(rng):
    pool = [S for n in range(1, 8) for S in classes(n)]
    pool += [named(name) for name in NAMED_POOL]
    pool += [S.relabel([0] + rng.sample(range(1, S.n), S.n - 1)) for S in pool[:120] if S.n > 1]
    found = 0
    for S in pool:
        for g in canonical_with_perm(S)[2]:
            assert _is_meet_automorphism(S, g)
            assert g != list(range(S.n))
            found += 1
    assert found > 0


def test_automorphism_generators_span_the_whole_group(rng):
    for n in range(1, 7):
        for S in classes(n):
            # every automorphism fixes the least element 0
            brute = sum(
                1
                for tail in itertools.permutations(range(1, n))
                if _is_meet_automorphism(S, (0,) + tail)
            )
            relabeled = S.relabel([0] + rng.sample(range(1, n), n - 1))
            for T in (S, relabeled):
                assert span_order(n, canonical_with_perm(T)[2]) == brute, T.meet


def test_canonical_search_prunes_by_its_automorphisms():
    # few generators, and still the whole group and one canonical form, on
    # tables whose many symmetric branches the search must prune
    for S, order in ((triangle_square(), 48), (three_b4(), 48), (star(6), 720)):
        n = S.n
        form = canonical_form(S).meet
        rng = random.Random(n)
        relabeled = [S.relabel([0] + rng.sample(range(1, n), n - 1)) for _ in range(10)]
        for T in [S] + relabeled:
            K, _, generators = canonical_with_perm(T)
            assert K.meet == form, T.meet
            assert all(_is_meet_automorphism(T, g) for g in generators)
            assert len(generators) <= n - 1, T.meet
            assert span_order(n, generators) == order, T.meet


def test_searches_leave_no_cyclic_garbage(rng):
    # a recursive closure that refers to itself is a reference cycle, which
    # each call would leave to the cyclic collector; triangle_square,
    # three_b4 and star(6) make the canonical search backjump and skip orbits
    base = [S for n in range(1, 7) for S in classes(n)]
    base += [named(name) for name in NAMED_POOL]
    base += [triangle_square(), three_b4(), star(6)]
    pairs = [(S, S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))) for S in base]
    gc.collect()
    gc.disable()
    try:
        for S, T in pairs:
            for U in (S, T):
                canonical_with_perm(U)
                if U.n <= BELL_SCAN_MAX_N:
                    count_interval_block_equivalences(U)
                    all_meet_congruences_bruteforce(U)
            assert are_isomorphic(S, T)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orbit_representatives_match_brute_force_orbits(rng):
    from slcong.enumeration import _orbit_representatives, _Parent

    parents = [S for n in range(1, 8) for S in classes(n)]
    assert len(parents) == 299
    for S in parents:
        # the walk expands parents in the labelling they were built in
        relabeled = S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))
        for T in (S, relabeled):
            group = automorphisms(T)
            least = {
                min(sum(1 << g[x] for x in range(T.n) if mask >> x & 1) for g in group)
                for mask in _Parent(T).ideals()
            }
            reps = _orbit_representatives(_Parent(T).ideals(), canonical_with_perm(T)[2])
            assert reps == sorted(least), T.meet


# --- named catalog ------------------------------------------------------------


def test_named_all_validate():
    for name in NAMED_POOL:
        S = named(name)
        assert validate([list(r) for r in S.meet]).meet == S.meet


def test_named_b4_is_boolean():
    b4 = named("b4")
    assert b4.meet[1][2] == 0 and b4.meet[1][3] == 1 and b4.meet[2][3] == 2


def test_named_f_tops_incomparable():
    f = named("f")
    assert not f.leq(4, 5) and not f.leq(5, 4)
    assert f.meet[1][2] == f.meet[2][3] == f.meet[1][3] == 0


def test_named_grid_is_product():
    grid = named("grid2x3")
    for i, j, p, q in itertools.product(range(2), range(3), range(2), range(3)):
        assert grid.meet[3 * i + j][3 * p + q] == 3 * min(i, p) + min(j, q)


@pytest.mark.parametrize(
    "covers, where",
    [
        ([[3]], "covers[0][0] is not an element index in 0..0"),
        ([[], ["a"]], "covers[1][0] is not an element index in 0..1"),
        ([[], [-1]], "covers[1][0] is not an element index in 0..1"),
        ([[], [True]], "covers[1][0] is not an element index in 0..1"),
        ([[], [0], [0, 1.0]], "covers[2][1] is not an element index in 0..2"),
        ([[], 0], "covers[1] is not a list"),
        # well-formed entries, but two maximal common lower bounds, or a cycle
        ([[], [0], [0], [1, 2], [1, 2]], "elements 3,4 have no greatest lower bound"),
        ([[], [2], [1]], "elements 0,1 have no greatest lower bound"),
    ],
)
def test_from_covers_rejects_bad_entries_by_position(covers, where):
    with pytest.raises(MalformedTable) as info:
        from_covers(covers)
    assert str(info.value) == where


def test_from_covers_reads_a_shared_down_set_as_its_smallest_element():
    # 1 and 2 cover each other above 0, so both have the down-set {0, 1, 2};
    # it stands for 1, the meet of 2 with itself, and 2 fails idempotence
    with pytest.raises(NotIdempotent) as info:
        from_covers([[], [0, 2], [1]])
    assert str(info.value) == "meet(2,2) != 2"


def test_named_unknown():
    with pytest.raises(UnknownName):
        named("pentagon")
    with pytest.raises(UnknownName):
        named("chain_0")


def test_named_chain_bound():
    with pytest.raises(TooLarge):
        named("chain_1001")


# --- builders ------------------------------------------------------------------


def test_attach_above_single_point():
    S = attach_above(named("b4"), 3, named("chain_1"))
    assert S.n == 5
    assert congruence_count(S) == 14


def test_attach_above_chain1_over_chain1():
    S = attach_above(named("chain_1"), 0, named("chain_1"))
    assert are_isomorphic(S, named("chain_2"))


def test_attach_above_requires_tree():
    with pytest.raises(SemilatticeError):
        attach_above(named("chain_2"), 0, named("b4"))


@pytest.mark.parametrize("x", [-1, 4])
def test_attach_above_refuses_a_missing_element(x):
    with pytest.raises(SemilatticeError, match=f"no element {x}"):
        attach_above(named("b4"), x, named("chain_1"))


def test_attach_above_preserves_ubtas(rng):
    for _ in range(100):
        S = random_semilattice(rng, rng.randrange(2, 7))
        T = random_tree(rng, rng.randrange(1, 5))
        x = rng.randrange(S.n)
        bigger = attach_above(S, x, T)
        assert bigger.ubtas == S.ubtas
        assert congruence_count(bigger) == congruence_count(S) << T.n


def test_extend_below_zero_is_identity():
    b4 = named("b4")
    assert extend_below(b4, 0).meet == b4.meet


def test_extend_below_refuses_a_negative_length():
    with pytest.raises(SemilatticeError, match="chain length must be nonnegative"):
        extend_below(named("b4"), -1)


def test_extend_below_b4_two():
    S = extend_below(named("b4"), 2)
    assert S.n == 6
    assert congruence_count(S) == 28


def test_extend_below_chain():
    assert are_isomorphic(extend_below(named("chain_3"), 2), named("chain_5"))


def _kit_inputs(rng):
    """Catalog tables and seeded random ones relabeled with 0 kept least."""
    yield from (named(name) for name in NAMED_POOL)
    for _ in range(60):
        S = random_semilattice(rng, rng.randrange(1, 8))
        yield S.relabel([0] + rng.sample(range(1, S.n), S.n - 1))


def test_construction_kit_follows_its_rules_cell_by_cell(rng):
    # the rules of the docstrings, read cell by cell; no from_covers here
    cases = 0
    for S in _kit_inputs(rng):
        n = S.n
        for x in range(n):
            T = random_tree(rng, rng.randrange(1, 5))
            T = T.relabel([0] + rng.sample(range(1, T.n), T.n - 1))
            got = attach_above(S, x, T).meet
            assert len(got) == n + T.n
            for p, q in itertools.product(range(n + T.n), repeat=2):
                if p < n and q < n:
                    want = S.meet[p][q]
                elif p >= n and q >= n:
                    want = n + T.meet[p - n][q - n]
                else:
                    want = S.meet[x][min(p, q)]
                assert got[p][q] == want, (S.meet, x, T.meet, p, q)
            cases += 1
        for k in range(4):
            got = extend_below(S, k).meet
            assert len(got) == n + k
            for p, q in itertools.product(range(n + k), repeat=2):
                want = min(p, q) if p < k or q < k else S.meet[p - k][q - k] + k
                assert got[p][q] == want, (S.meet, k, p, q)
            cases += 1
    assert cases > 500


def test_extend_below_shifts_ubtas(rng):
    for _ in range(40):
        S = random_semilattice(rng, rng.randrange(2, 7))
        k = rng.randrange(4)
        bigger = extend_below(S, k)
        shifted = [(a + k, b + k, v + k) for a, b, v in S.ubtas]
        assert [(u.a, u.b, u.v) for u in bigger.ubtas] == shifted
        assert congruence_count(bigger) == congruence_count(S) << k
