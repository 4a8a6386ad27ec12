"""Desk-scale verification of the extremal claims.

Each claim is an exhaustive or constructive check with exact expected
values; ``run_claims`` drives them for the CLI and the acceptance tests
call the claim functions directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .congruences import (
    all_lattice_congruences,
    count_interval_block_equivalences,
    is_lattice,
    join_table,
    quotient,
)
from .core import (
    _bits,
    are_isomorphic,
    attach_above,
    extend_below,
    named,
    validate,
)
from .enumeration import (
    _oracle_fingerprint,
    enumerate_semilattices,
    enumerate_semilattices_bruteforce,
    spectrum,
)
from .errors import TooLarge
from .joinsub import PartialJoinStructure, verify_duality
from .structure import (
    SemilatticeClass,
    classify,
    convex_block_congruence_check,
    is_tree,
    scaled_threshold,
    tree_congruence,
)


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    detail: str
    seconds: float

    def to_obj(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "detail": self.detail,
        }


def _run(name: str, fn, *args, **kwargs) -> ClaimResult:
    start = time.perf_counter()
    try:
        detail = fn(*args, **kwargs)
        passed = True
    except Exception as exc:  # a failed assertion or a broken precondition
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return ClaimResult(name, passed, detail, time.perf_counter() - start)


def claim_small_spectra(max_n: int = 5) -> str:
    """NCsl(2)..NCsl(5) match the known value sets; M3 witnesses 12."""
    expected = {2: {2}, 3: {4}, 4: {7, 8}, 5: {12, 13, 14, 16}}
    checked = []
    for n, values in expected.items():
        if n > max_n:
            continue
        sp = spectrum(n)
        assert set(sp.values) == values, f"NCsl({n}) = {sorted(sp.values)}, expected {sorted(values)}"
        checked.append(n)
        if n == 5:
            m3 = named("m3")
            assert any(
                are_isomorphic(w, m3) for w in sp.witnesses[12]
            ), "M3 is not among the witnesses of 12"
    return f"NCsl(n) exact for n in {checked}" + ("; 12 witnessed by M3" if 5 in checked else "")


def claim_top_four(max_n: int = 8) -> str:
    """Top four spectrum values at n in {6,7,8} are {32,28,26,25}*2^(n-6),
    attained exactly by the matching classes, with no values in the gaps."""
    sizes = [n for n in (6, 7, 8) if n <= max_n]
    assert sizes, "needs n_max >= 6"
    details = []
    for n in sizes:
        thresholds = [scaled_threshold(c, n) for c in (32, 28, 26, 25)]
        infos = []
        for S in enumerate_semilattices(n):
            report = classify(S)
            infos.append((report.congruence_count, report.semilattice_class))
        distinct = sorted({k for k, _ in infos}, reverse=True)
        assert distinct[:4] == thresholds, f"n={n}: top values {distinct[:4]}"
        for k, cls in infos:
            assert (cls == SemilatticeClass.TREE) == (k == thresholds[0]), (n, k, cls)
            assert (cls == SemilatticeClass.NUCLEUS_B4) == (k == thresholds[1]), (n, k, cls)
            assert (cls == SemilatticeClass.NUCLEUS_N5) == (k == thresholds[2]), (n, k, cls)
            assert (
                cls in (SemilatticeClass.NUCLEUS_F, SemilatticeClass.NUCLEUS_N6)
            ) == (k == thresholds[3]), (n, k, cls)
            for hi, lo in zip(thresholds, thresholds[1:]):
                assert not lo < k < hi, f"n={n}: {k} lies strictly between {lo} and {hi}"
        details.append(f"n={n}: {len(infos)} classes, top {thresholds}")
    return "; ".join(details)


def _fixture_families():
    b4, n5, f, n6 = named("b4"), named("n5"), named("f"), named("n6")
    c1, c2 = named("chain_1"), named("chain_2")
    six = [
        extend_below(b4, 2),
        attach_above(b4, 3, c2),
        attach_above(extend_below(b4, 1), 4, c1),
    ]
    twelve = [
        extend_below(n5, 7),
        extend_below(attach_above(n5, 4, c1), 6),
        extend_below(attach_above(n5, 4, c2), 5),
    ]
    thirteen = [
        (extend_below(f, 7), SemilatticeClass.NUCLEUS_F),
        (extend_below(attach_above(f, 4, c1), 6), SemilatticeClass.NUCLEUS_F),
        (extend_below(n6, 7), SemilatticeClass.NUCLEUS_N6),
        (extend_below(attach_above(n6, 5, c1), 6), SemilatticeClass.NUCLEUS_N6),
    ]
    return six, twelve, thirteen


def claim_fixture_counts() -> str:
    """The flagship quasi-tree fixtures have 28, 1664 and 3200 congruences."""
    six, twelve, thirteen = _fixture_families()
    for S in six:
        report = classify(S)
        assert S.n == 6 and report.semilattice_class == SemilatticeClass.NUCLEUS_B4
        assert report.congruence_count == 28, report.congruence_count
    five = classify(attach_above(named("b4"), 3, named("chain_1")))
    assert five.n == 5 and five.congruence_count == 14, five.congruence_count
    skels = []
    for S in twelve:
        report = classify(S)
        assert S.n == 12 and report.semilattice_class == SemilatticeClass.NUCLEUS_N5
        assert report.congruence_count == 1664, report.congruence_count
        skels.append(report.skeleton)
    assert all(are_isomorphic(skels[0], sk) for sk in skels[1:]), "skeletons differ"
    skels = []
    for S, expected_class in thirteen:
        report = classify(S)
        assert S.n == 13 and report.semilattice_class == expected_class
        assert report.congruence_count == 3200, report.congruence_count
        skels.append(report.skeleton)
    assert all(are_isomorphic(skels[0], sk) for sk in skels[1:]), "skeletons differ"
    return "28 at n=6 (x3), 14 at n=5, 1664 at n=12 (x3, common skeleton), 3200 at n=13 (x4, common skeleton)"


def claim_duality(max_n: int = 7) -> str:
    """|Con| = |Sub(S+)| by listing both, by inclusion-exclusion and by the
    default counting route, and the dual map is an inclusion-reversing
    bijection, for every semilattice with n <= max_n.

    For n <= 13 the default route counts the whole table with the kernel
    pass of the subset listing or with the inclusion-exclusion sum, so here
    it is not a fourth independent route."""
    total = 0
    for n in range(1, max_n + 1):
        for S in enumerate_semilattices(n):
            report = verify_duality(S)
            pj = PartialJoinStructure(S)
            ie = pj.count_inclusion_exclusion()
            default = pj.count()
            counts = (report.congruence_count, report.subalgebra_count, ie, default)
            assert len(set(counts)) == 1, (n, counts)
            total += 1
    return (
        f"{total} semilattices, counts agree on three independent routes (congruence"
        " listing, subset listing, inclusion-exclusion) and the default route,"
        " duality bijective"
    )


def claim_tree_quotient(max_n: int = 7) -> str:
    """The quotient by the tree congruence is a tree, for every n <= max_n."""
    total = 0
    for n in range(1, max_n + 1):
        for S in enumerate_semilattices(n):
            Q, _ = quotient(S, tree_congruence(S))
            assert validate(Q.meet) == Q and is_tree(Q), f"non-tree quotient at n={n}"
            total += 1
    return f"{total} tree-congruence quotients are trees"


def claim_convex_block(max_n: int = 6) -> str:
    """condition (b) holds iff the one-nonsingleton-block partition is a
    congruence, over all convex subsemilattices with n <= max_n."""
    total = 0
    for n in range(2, max_n + 1):
        for S in enumerate_semilattices(n):
            for mask in range(3, 1 << n):
                if mask.bit_count() < 2:
                    continue
                members = list(_bits(mask))
                if not S.is_convex_subsemilattice(members):
                    continue
                cond_b, is_cong = convex_block_congruence_check(S, members)
                assert cond_b == is_cong, (n, members)
                total += 1
    return f"{total} convex subsemilattices, both criteria agree"


def claim_lattice_bound(max_n: int = 8) -> str:
    """Lattices with n <= max_n have at most 2^(n-1) lattice congruences,
    with equality exactly for chains; every class of a lattice congruence
    is the interval between its meet and its join."""
    total = 0
    for n in range(1, max_n + 1):
        for S in enumerate_semilattices(n):
            if not is_lattice(S):
                continue
            lattice_cons = all_lattice_congruences(S)
            join = join_table(S)
            for block in (b for P in lattice_cons for b in P.blocks):
                low = high = block[0]
                for x in block:
                    low, high = S.meet[low][x], join[high][x]
                assert block == S.interval(low, high), (n, block)
            bound = 1 << (n - 1)
            assert len(lattice_cons) <= bound, (n, len(lattice_cons))
            chain = all(
                S.leq(x, y) or S.leq(y, x) for x in range(n) for y in range(n)
            )
            assert (len(lattice_cons) == bound) == chain, (n, len(lattice_cons))
            total += 1
    return f"{total} lattices within the 2^(n-1) bound, equality exactly on chains"


def claim_interval_blocks() -> str:
    """The 2x3 grid has 34 interval-block equivalences, the 6-chain only 32."""
    grid = count_interval_block_equivalences(named("grid2x3"))
    chain = count_interval_block_equivalences(named("chain_6"))
    single = count_interval_block_equivalences(named("chain_1"))
    assert grid == 34, grid
    assert chain == 32, chain
    assert single == 1, single
    return f"grid2x3: {grid}, chain_6: {chain}, chain_1: {single}"


def claim_enumeration_oracle(max_n: int = 6) -> str:
    """The orderly generator agrees with the naive labeled oracle."""
    expected = (1, 1, 2, 5, 15, 53)
    counts = []
    for n in range(1, max_n + 1):
        fast = enumerate_semilattices(n)
        slow = enumerate_semilattices_bruteforce(n)
        assert len(fast) == len(slow), (n, len(fast), len(slow))
        if n <= len(expected):
            assert len(slow) == expected[n - 1], (n, len(slow))
        # pair every generated table with its own oracle class: equal counts
        # and no class matched twice make the pairing a bijection
        unmatched: dict[tuple, list] = {}
        for R in slow:
            unmatched.setdefault(_oracle_fingerprint(R), []).append(R)
        for S in fast:
            pool = unmatched.get(_oracle_fingerprint(S), [])
            i = next((i for i, R in enumerate(pool) if are_isomorphic(S, R)), None)
            assert i is not None, f"a generated table matches no unpaired oracle class at n={n}"
            pool.pop(i)
        counts.append(len(fast))
    return f"class counts {counts} match the oracle"


def run_claims(n_max: int) -> list[ClaimResult]:
    """Run every claim applicable at sizes up to n_max (NCsl(n) needs n >= 2)."""
    if n_max < 2:
        raise TooLarge(f"n_max must be at least 2, got {n_max}")
    claims = [("small-spectra", claim_small_spectra, (min(5, n_max),))]
    if n_max >= 6:
        claims.append(("top-four-values", claim_top_four, (min(8, n_max),)))
    claims += [
        ("quasi-tree-fixtures", claim_fixture_counts, ()),
        ("congruence-subalgebra-duality", claim_duality, (min(7, n_max),)),
        ("tree-quotient", claim_tree_quotient, (min(7, n_max),)),
        ("convex-block-criterion", claim_convex_block, (min(6, n_max),)),
        ("lattice-congruence-bound", claim_lattice_bound, (min(8, n_max),)),
        ("interval-block-counts", claim_interval_blocks, ()),
        ("enumeration-oracle", claim_enumeration_oracle, (min(6, n_max),)),
    ]
    # the claims read levels 1..n of the enumeration in rising order; asking
    # for the deepest first stores every level in one walk from the root
    enumerate_semilattices(max(n for _, _, args in claims for n in args))
    return [_run(name, fn, *args) for name, fn, args in claims]
