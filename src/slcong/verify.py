"""Desk-scale verification of the extremal claims.

Each claim is a ``claim_`` function: an exhaustive or constructive check
with exact expected values that returns its detail or raises.  An
exhaustive claim has two steps.  Its check step, ``_check_<claim>(key, S,
k, tally)``, runs the claim's per-class checks on one class, given as the
walk yields it (``enumeration.walk``): its canonical meet key, the table
the walk built, on which the label-invariant checks run, and the
congruence count the walk carried down to it.  It adds what the claim
needs to its tally, a ``Counter`` whose entries merge by ``+``.  Its
``claim_`` function merges the tallies and makes the claim's global
assertions, such as the exact value sets.

``run_claims`` walks once for all of them, split by subtree into shares
(``enumeration._walk_shares``): each share tallies its own classes for
every claim (``_tally``), and the parent merges.  A ``claim_`` function
called alone tallies a walk of its own, as one share.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from . import joinsub
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
    DEFAULT_MAX_N,
    _labeled_levels,
    _oracle_classes,
    _oracle_fingerprint,
    _table,
    _walk_shares,
)
from .errors import TooLarge
from .joinsub import PartialJoinStructure, congruence_count, verify_duality
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


def _run(name: str, fn, *args, seconds: float = 0.0) -> ClaimResult:
    """Call a claim; its seconds are those of the call plus ``seconds``."""
    start = time.perf_counter()
    try:
        detail = fn(*args)
        passed = True
    except Exception as exc:  # a failed assertion or a broken precondition
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return ClaimResult(name, passed, detail, seconds + time.perf_counter() - start)


# Every claim in the order it is reported: the suffix of its claim_ function
# and its name in the report.
CLAIMS = {
    "small_spectra": "small-spectra",
    "top_four": "top-four-values",
    "fixture_counts": "quasi-tree-fixtures",
    "duality": "congruence-subalgebra-duality",
    "tree_quotient": "tree-quotient",
    "convex_block": "convex-block-criterion",
    "lattice_bound": "lattice-congruence-bound",
    "interval_blocks": "interval-block-counts",
    "enumeration_oracle": "enumeration-oracle",
}
# The sizes each exhaustive claim covers: verify N checks those up to N, and
# the largest is the default max_n of its claim_ function.
SIZES = {
    "small_spectra": range(2, 6),
    "top_four": range(6, DEFAULT_MAX_N + 1),
    "duality": range(1, 8),
    "tree_quotient": range(1, DEFAULT_MAX_N + 1),
    "convex_block": range(2, 7),
    "lattice_bound": range(1, 9),
    "enumeration_oracle": range(1, 7),
}


def _tally(caps: dict[str, int], classes) -> tuple[dict, dict]:
    """Each claim's check step (``_check_<claim>``) over the classes of its
    sizes up to its cap in ``caps``, given as (key, S, k) triples as
    ``enumeration.walk`` yields them.

    Returns, per claim, its tally, or the exception its check raised, after
    which it checks no more classes; and, per claim, the seconds its checks
    took.  Each class is checked by every claim in turn and then dropped,
    so no class is held."""
    tallies: dict[str, Counter | Exception] = {c: Counter() for c in caps}
    seconds = dict.fromkeys(caps, 0.0)
    checks = [
        (c, globals()[f"_check_{c}"], range(SIZES[c].start, cap + 1)) for c, cap in caps.items()
    ]
    for key, S, k in classes:
        for c, check, sizes in checks:
            if S.n not in sizes or isinstance(tallies[c], Exception):
                continue
            start = time.perf_counter()
            try:
                check(key, S, k, tallies[c])
            except Exception as exc:  # fails this claim only
                tallies[c] = exc
            seconds[c] += time.perf_counter() - start
    return tallies, seconds


def _merged(claim: str, max_n: int, levels: list | None) -> dict:
    """A claim's tallies merged entry by entry with ``+``: ``levels``, the
    tallies the shares of one walk made for the claim, in share order, as
    ``run_claims`` passes them, or when None the one tally of a walk of the
    claim's own.  A tally that is an exception is raised, the first in
    share order."""
    if levels is None:
        [(tallies, _)] = _walk_shares(max_n, 1, _tally, ({claim: max_n},))
        levels = [tallies[claim]]
    merged: dict = {}
    for tally in levels:
        if isinstance(tally, Exception):
            raise tally
        for key, value in tally.items():
            merged[key] = merged[key] + value if key in merged else value
    return merged


def _check_small_spectra(key, S, k, tally: Counter) -> None:
    counted = congruence_count(S)
    tally.setdefault(S.n, Counter())[counted] += 1
    if S.n == 5 and counted == 12 and are_isomorphic(S, named("m3")):
        tally["m3"] += 1


def claim_small_spectra(max_n: int = SIZES["small_spectra"][-1], levels=None) -> str:
    """NCsl(2)..NCsl(5) match the known value sets; M3 witnesses 12."""
    expected = {2: {2}, 3: {4}, 4: {7, 8}, 5: {12, 13, 14, 16}}
    sizes = [n for n in expected if n <= max_n]
    tally = _merged("small_spectra", max_n, levels)
    for n in sizes:
        found = set(tally.get(n, ()))
        assert found == expected[n], f"NCsl({n}) = {sorted(found)}, expected {sorted(expected[n])}"
    m3 = "m3" in tally
    assert m3 or 5 not in sizes, "M3 is not among the witnesses of 12"
    return f"NCsl(n) exact for n in {sizes}" + ("; 12 witnessed by M3" if m3 else "")


def _top_four(n: int) -> list[int]:
    return [scaled_threshold(c, n) for c in (32, 28, 26, 25)]


def _check_top_four(key, S, k, tally: Counter) -> None:
    n = S.n
    top = _top_four(n)
    report = classify(S)
    counted, cls = report.congruence_count, report.semilattice_class
    assert counted == k, f"n={n}: count() gives {counted}, the walk's recurrence {k}"
    assert (cls == SemilatticeClass.TREE) == (k == top[0]), (n, k, cls)
    assert (cls == SemilatticeClass.NUCLEUS_B4) == (k == top[1]), (n, k, cls)
    assert (cls == SemilatticeClass.NUCLEUS_N5) == (k == top[2]), (n, k, cls)
    assert (
        cls in (SemilatticeClass.NUCLEUS_F, SemilatticeClass.NUCLEUS_N6)
    ) == (k == top[3]), (n, k, cls)
    for hi, lo in zip(top, top[1:]):
        assert not lo < k < hi, f"n={n}: {k} lies strictly between {lo} and {hi}"
    tally.setdefault(n, Counter())[k] += 1


def claim_top_four(max_n: int = SIZES["top_four"][-1], levels=None) -> str:
    """Top four spectrum values at each 6 <= n <= max_n are
    {32,28,26,25}*2^(n-6), attained exactly by the matching classes, with
    no values in the gaps."""
    sizes = range(SIZES["top_four"].start, max_n + 1)
    assert sizes, "needs n_max >= 6"
    tally = _merged("top_four", max_n, levels)
    for n in sizes:
        found = sorted(tally.get(n, ()), reverse=True)[:4]
        assert found == _top_four(n), f"n={n}: top values {found}"
    return "; ".join(
        f"n={n}: {sum(tally[n].values())} classes, top {_top_four(n)}" for n in sizes
    )


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


def _check_duality(key, S, k, tally: Counter) -> None:
    report = verify_duality(S)
    pj = PartialJoinStructure(S)
    counts = [report.congruence_count, report.subalgebra_count, pj.count(), k]
    if len(pj.clauses) <= joinsub.INCLUSION_EXCLUSION_MAX_T:
        counts.append(pj.count_inclusion_exclusion())
    else:
        tally["beyond_incl_excl"] += 1
    assert len(set(counts)) == 1, (S.n, counts)
    tally["classes"] += 1


def claim_duality(max_n: int = SIZES["duality"][-1], levels=None) -> str:
    """|Con| = |Sub(S+)| by listing both, by inclusion-exclusion, by the
    default counting route and by the walk's augmentation recurrence, and
    the dual map is an inclusion-reversing bijection, for every
    semilattice with n <= max_n.

    For n <= 13 the default route counts the whole table with the kernel
    pass of the subset listing or with the inclusion-exclusion sum, and the
    recurrence counts with the kernel pass of the class's parent, so
    neither is a further independent route; the congruence listing and the
    inclusion-exclusion sum share no code with the recurrence.  A class
    with more UBTAs than ``joinsub.INCLUSION_EXCLUSION_MAX_T`` is beyond the
    sum's bound; its other four counts are still compared, and the detail
    says how many such classes there were."""
    tally = _merged("duality", max_n, levels)
    detail = (
        f"n <= {max_n}: {tally.get('classes', 0)} semilattices, counts agree on three"
        " independent routes (congruence listing, subset listing, inclusion-exclusion),"
        " the default route and the walk's recurrence, duality bijective"
    )
    beyond = tally.get("beyond_incl_excl", 0)
    if beyond:
        detail += (
            f"; inclusion-exclusion skipped on {beyond} with t >"
            f" {joinsub.INCLUSION_EXCLUSION_MAX_T}"
        )
    return detail


def _check_tree_quotient(key, S, k, tally: Counter) -> None:
    Q, _ = quotient(S, tree_congruence(S))
    assert validate(Q.meet) == Q and is_tree(Q), f"non-tree quotient at n={S.n}"
    tally["classes"] += 1


def claim_tree_quotient(max_n: int = SIZES["tree_quotient"][-1], levels=None) -> str:
    """The quotient by the tree congruence is a tree, for every n <= max_n."""
    total = _merged("tree_quotient", max_n, levels).get("classes", 0)
    return f"n <= {max_n}: {total} tree-congruence quotients are trees"


def _check_convex_block(key, S, k, tally: Counter) -> None:
    # A convex subsemilattice X with |X| >= 2 is the union of the intervals
    # [u, v], v in A, for its least element u and the antichain A of its
    # maximal elements, and each nonempty antichain A strictly above u gives
    # one X.  Each A grows in ascending order: the next v has a larger index
    # and is incomparable to every v chosen.
    above = S.above_mask
    below = S.below_mask
    for u in range(S.n):
        work = [(above[u] ^ 1 << u, 0)]  # (the v that may join A, the union of ↓v over A)
        while work:
            free, down = work.pop()
            for v in _bits(free):
                members = list(_bits(above[u] & (down | below[v])))
                cond_b, is_cong = convex_block_congruence_check(S, members)
                assert cond_b == is_cong, (S.n, members)
                tally["convex"] += 1
                work.append((free & ~((2 << v) - 1 | above[v] | below[v]), down | below[v]))


def claim_convex_block(max_n: int = SIZES["convex_block"][-1], levels=None) -> str:
    """condition (b) holds iff the one-nonsingleton-block partition is a
    congruence, over all convex subsemilattices with n <= max_n."""
    total = _merged("convex_block", max_n, levels).get("convex", 0)
    return f"n <= {max_n}: {total} convex subsemilattices, both criteria agree"


def _check_lattice_bound(key, S, k, tally: Counter) -> None:
    if not is_lattice(S):
        return
    n = S.n
    lattice_cons = all_lattice_congruences(S)
    join = join_table(S)
    for block in (b for P in lattice_cons for b in P.blocks):
        low = high = block[0]
        for x in block:
            low, high = S.meet[low][x], join[high][x]
        assert block == S.interval(low, high), (n, block)
    bound = 1 << (n - 1)
    assert len(lattice_cons) <= bound, (n, len(lattice_cons))
    chain = all(d | u == (1 << n) - 1 for d, u in zip(S.below_mask, S.above_mask))
    assert (len(lattice_cons) == bound) == chain, (n, len(lattice_cons))
    tally["lattices"] += 1


def claim_lattice_bound(max_n: int = SIZES["lattice_bound"][-1], levels=None) -> str:
    """Lattices with n <= max_n have at most 2^(n-1) lattice congruences,
    with equality exactly for chains; every class of a lattice congruence
    is the interval between its meet and its join."""
    total = _merged("lattice_bound", max_n, levels).get("lattices", 0)
    return f"n <= {max_n}: {total} lattices within the 2^(n-1) bound, equality exactly on chains"


def claim_interval_blocks() -> str:
    """The 2x3 grid has 34 interval-block equivalences, the 6-chain only 32."""
    grid = count_interval_block_equivalences(named("grid2x3"))
    chain = count_interval_block_equivalences(named("chain_6"))
    single = count_interval_block_equivalences(named("chain_1"))
    assert grid == 34, grid
    assert chain == 32, chain
    assert single == 1, single
    return f"grid2x3: {grid}, chain_6: {chain}, chain_1: {single}"


def _check_enumeration_oracle(key, S, k, tally: Counter) -> None:
    tally.setdefault(S.n, []).append(key)


def claim_enumeration_oracle(max_n: int = SIZES["enumeration_oracle"][-1], levels=None) -> str:
    """The orderly generator agrees with the naive labeled oracle."""
    expected = (1, 1, 2, 5, 15, 53)
    sizes = range(SIZES["enumeration_oracle"].start, max_n + 1)
    generated = _merged("enumeration_oracle", max_n, levels)  # the meet keys, by size
    labeled = _labeled_levels(max_n)  # built once, each level from the one before
    for n in sizes:
        slow = _oracle_classes(labeled[n - 1])
        if n <= len(expected):
            assert len(slow) == expected[n - 1], (n, len(slow))
        unmatched: dict[tuple, list] = {}  # unpaired oracle classes, by fingerprint
        for R in slow:
            unmatched.setdefault(_oracle_fingerprint(R), []).append(R)
        # pair every generated table with its own oracle class: no class
        # matched twice and none left over make the pairing a bijection
        for key in generated.get(n, ()):
            S = _table(key, n)
            pool = unmatched.get(_oracle_fingerprint(S), [])
            i = next((i for i, R in enumerate(pool) if are_isomorphic(S, R)), None)
            assert i is not None, f"a generated table matches no unpaired oracle class at n={n}"
            pool.pop(i)
        assert not any(unmatched.values()), f"an oracle class at n={n} matches no generated table"
    counts = [len(generated.get(n, ())) for n in sizes]
    return f"n <= {max_n}: class counts {counts} match the oracle"


def run_claims(n_max: int, jobs: int | None = None) -> list[ClaimResult]:
    """Run every claim applicable at sizes up to n_max (NCsl(n) needs n >= 2,
    and the walk has the enumeration bound).

    The exhaustive claims share one walk, split into ``jobs`` shares as
    ``enumeration.spectrum`` splits it (``_walk_shares``): each share
    tallies its own classes (``_tally``), and each ``claim_`` function,
    called here, merges its tallies.  A claim's seconds are its
    checks' seconds summed over the shares plus those of its own call, and
    a claim that raises, in any share, fails only itself."""
    if n_max < 2:
        raise TooLarge(f"n_max must be at least 2, got {n_max}")
    if n_max > DEFAULT_MAX_N:
        raise TooLarge(f"n_max={n_max} exceeds enumeration bound {DEFAULT_MAX_N}")
    caps = {c: min(sizes[-1], n_max) for c, sizes in SIZES.items() if sizes.start <= n_max}
    shares = _walk_shares(max(caps.values()), jobs, _tally, (caps,))
    results = []
    for c, name in CLAIMS.items():
        claim = globals()[f"claim_{c}"]  # looked up now, so a tracer's wrapper is the one called
        if c not in SIZES:
            results.append(_run(name, claim))
        elif c in caps:
            tallies = [share_tallies[c] for share_tallies, _ in shares]
            seconds = sum(share_seconds[c] for _, share_seconds in shares)
            results.append(_run(name, claim, caps[c], tallies, seconds=seconds))
    return results
