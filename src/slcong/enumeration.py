"""Isomorphism-free generation of all n-element meet semilattices.

Every n-element meet semilattice arises from an (n-1)-element one by
adding a new maximal element whose down-set is a join-closed order ideal,
because deleting any maximal element leaves a meet subsemilattice.  The
generator walks this tree with canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): ideals are expanded one per
automorphism orbit of the parent, and a child is kept only when its new
element lands in the same orbit as a fixed deletion target of the child's
canonical form.  Each isomorphism class is therefore produced exactly once,
with no cross-parent deduplication.

The walk (``walk``) is depth-first, and each child is searched once: the
canonical search of a child gives the generators for its orbit test, and a
kept child is expanded at once, in the labelling it was built in
(acceptance does not depend on it), with those generators splitting its
ideals.  An ideal whose child would not put its new element in the color
class of its greatest (down-set size, up-set size) pair is dropped before
its orbit is listed and before the child is built
(``_Parent.sized_ideals``), so the orbit test alone rejects children: 574
of the 7,944 searched at n <= 9.  The walk yields each class as it is
found, as the triple of its canonical meet key, the table it built and its
congruence count, and stores no level.

The walk counts each class from its parent, by the augmentation recurrence.
Let S' be S with a new maximal element m above the join-closed ideal I, and
call {a, b} ⊆ I \\ {0} a *new pair* when a and b have no common upper bound
in S.  Then

    |Con S'| = |Con S| + #{join-closed X ⊆ S+ that hold no new pair}.

By the duality (``joinsub``) both counts are numbers of join-closed subsets,
of S'+ and S+, and the UBTAs of S' are those of S plus the new pairs:

- m is in no UBTA, since it is maximal, so its only upper bound is itself.
- An old UBTA {a, b} keeps its join v: when a and b lie in I, v does too, as
  I is join-closed, and v <= m.
- A new pair is a UBTA of S' with join m, its only upper bound.

So a join-closed subset of S'+ that holds m is a join-closed X of S+ plus m,
and one that does not is a join-closed X of S+ that holds no new pair.  Each
parent makes one kernel pass over its join-closed subsets (``_Parent``):
its ideals and |Con S| are read off it, and each new pair of a child narrows
it as one clause.  With no new pair the child's count is exactly 2·|Con S|,
with no scan; with one, S+ itself is join-closed and holds it, so

    |Con S'| <= 2·|Con S|, with equality exactly when I holds no new pair,

and by induction |Con S| <= 2^(n-1).  The recurrence was checked against
``count()`` on all 7,371 classes with n <= 9.  A class that is extended has
its count twice, carried from its parent and from its own pass, and the
walk refuses the two when they differ.

Since each class has one parent, the walk splits by subtree into shares:
the classes with SPLIT_N elements are its roots, and share i of ``jobs``
walks the subtrees of roots i, i + jobs, ...  ``spectrum``,
``enumerate_semilattices`` and ``verify`` run the shares through one
runner (``_walk_shares``): each share runs in its own process (share 0 in
the caller's) and reduces its walk to a summary there, which holds no table,
taking an 8-byte digest of the meet key of each class the summary reads
(``_walked``).  The runner merges the shares' sorted digests, and that is
the walk's one duplicate check.
``enumerate_semilattices(n)`` sorts the n-element classes' meet keys, and
``spectrum`` keeps per-value counts, the least witnesses' keys and the
classes of the top values, classified as they arrive.  The split size was
measured: at SPLIT_N = 5 two shares of ``spectrum(9)`` hold 3,073 and
2,921 classes and take about the same time; at 6 they hold 2,771 and 3,223.

Every child the walk makes starts with the down-set and up-set masks it
takes from its parent (``_extend``).  The walk hands out the child, not its
canonical form, so ``classify`` and the walk's own pass read those masks; a
canonical form (``_table``) builds its own only when they are read.

``enumerate_semilattices_bruteforce`` is the independent oracle: plain
backtracking over labeled order extensions followed by isomorphism
partitioning.
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import merge
from itertools import chain, pairwise
from itertools import count as counter

# hashlib.blake2b itself; importing hashlib would also load OpenSSL, about
# 3.5 MB of resident memory that a spectrum run has no other use for
from _blake2 import blake2b

from . import kernels
from .core import (
    SemilatticeTable,
    _bits,
    _orbit,
    _with_masks,
    are_isomorphic,
    canonical_with_perm,
    validate,
)
from .errors import InternalInconsistency, NotEnoughValues, TooLarge
from .joinsub import PartialJoinStructure
from .structure import SemilatticeClass, _classified

DEFAULT_MAX_N = 9
ORACLE_MAX_N = 7
WITNESS_CAP = 64
# The walk splits into shares below the classes of this size, its roots.
SPLIT_N = 5
SPLIT_ROOTS = 15  # the classes with SPLIT_N elements, OEIS A006966

_ONE = SemilatticeTable(((0,),))


def _extend(S: SemilatticeTable, ideal_mask: int) -> SemilatticeTable:
    """Append a new maximal element above the given join-closed ideal.

    The ideal meets each down-set ↓x in ↓m for m = x ^ new (see
    ``SemilatticeTable.below_mask``), so m is looked up by its down-set.
    The child's masks follow from the parent's: old down-sets are
    unchanged, the new element joins the up-sets of the ideal's elements,
    and its own down-set is the ideal.
    """
    n = S.n
    below, above = S.below_mask, S.above_mask
    element_of = {b: z for z, b in enumerate(below)}
    new_row = []
    for x, b in enumerate(below):
        m = element_of.get(ideal_mask & b)
        if m is None:
            raise InternalInconsistency(
                f"ideal {{{', '.join(map(str, _bits(ideal_mask)))}}} meets the down-set"
                f" of {x} in no principal down-set"
            )
        new_row.append(m)
    new = 1 << n
    rows = tuple([row + (m,) for row, m in zip(S.meet, new_row)])
    up = tuple([u | new if ideal_mask >> x & 1 else u for x, u in enumerate(above)])
    return _with_masks(
        rows + (tuple(new_row) + (n,),), below + (ideal_mask | new,), up + (new,)
    )


class _Parent:
    """A class the walk extends, with its one kernel pass.

    ``alive`` holds the blocks (``kernels._alive_blocks``) of the subsets
    of S+ that violate no UBTA clause of ``PartialJoinStructure``, the
    join-closed subsets, and ``count``, their number, is |Con S|.  The
    ideals S is extended by and the counts of its children are read off
    that pass (``ideals``, ``child_count``); a wider S, n - 1 > BLOCK_BITS,
    has more blocks and takes the same path.
    """

    def __init__(self, S: SemilatticeTable):
        self.S = S
        self.alive = list(kernels._alive_blocks(S.n - 1, PartialJoinStructure(S).clauses))
        self.count = sum(alive.bit_count() for _, alive in self.alive)
        above = S.above_mask
        # the pairs {a, b} of S+ with no common upper bound, as element masks
        self.unbounded = [
            (1 << a) | (1 << b)
            for a in range(1, S.n)
            for b in range(a + 1, S.n)
            if not above[a] & above[b]
        ]

    def ideals(self) -> list[int]:
        """Down-sets of S containing 0 and closed under existing joins, ascending.

        These are exactly the subsets a new maximal element can sit above
        while keeping all meets defined.  Over the bits of S+, a down-set is
        a subset in which each element x needs each of its lower covers
        c != 0, clauses that narrow the join-closed subsets of the pass.
        """
        needs = [(1 << (x - 1), 1 << (c - 1)) for c, x in self.S.covers if c]
        masks = kernels._listed(kernels._kept(self.S.n - 1, self.alive, needs))
        return [(mask << 1) | 1 for mask in masks]

    def sized_ideals(self) -> list[int]:
        """The ideals I whose child puts its new element in the color class
        of its greatest pair (``core._colors``), which holds the deletion
        target of ``_accepted_canonical``, read off S's masks and I,
        ascending.

        The new element's (down-set size, up-set size) is (|I| + 1, 1).  An
        old element x keeps its down-set, and its up-set grows only when x
        is in I, where |↓x| <= |I|.  So an x with |↓x| > |I| + 1 beats the
        new element, and an x with |↓x| = |I| + 1 lies outside I and either
        ties with it at (|I| + 1, 1), when x is maximal, or lies below some
        y with a larger down-set still.  Hence I is kept iff |I| + 1 is at
        least the largest down-set size of S, which Aut(S) keeps, as it
        keeps |I| along I's orbit, so the test keeps or drops whole orbits.
        """
        least = max(b.bit_count() for b in self.S.below_mask) - 1
        return [mask for mask in self.ideals() if mask.bit_count() >= least]

    def child_count(self, ideal: int) -> int:
        """|Con| of ``_extend(S, ideal)`` by the augmentation recurrence (see
        the module docstring): ``count`` plus the join-closed subsets of S+
        that hold no new pair, a pair of the ideal with no common upper
        bound in S.  Each new pair narrows the pass as a clause with an
        empty join, and with no new pair the count is 2·|Con S|."""
        new = [(pair >> 1, 0) for pair in self.unbounded if pair & ideal == pair]
        if not new:
            return 2 * self.count
        narrowed = kernels._kept(self.S.n - 1, self.alive, new)
        return self.count + sum(alive.bit_count() for _, alive in narrowed)


def _mask_orbit(mask: int, images: list[list[int]]) -> set[int]:
    """The orbit of a subset (a bitmask) under the group spanned by some
    automorphisms, each given by its image table [1 << g[x] for x]."""
    orbit = {mask}
    todo = [mask]
    while todo:
        cur = todo.pop()
        for image in images:
            img = 0
            for x in _bits(cur):
                img |= image[x]
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return orbit


def _orbit_representatives(masks: list[int], generators: list[list[int]]) -> list[int]:
    """The least mask of each orbit, ascending, given ascending join-closed
    down-sets of S that form whole Aut(S)-orbits and generators of Aut(S)."""
    if not generators:
        return masks
    images = [[1 << y for y in g] for g in generators]
    seen: set[int] = set()
    reps = []
    for mask in masks:  # ascending, so the first mask met of an orbit is its least
        if mask not in seen:
            reps.append(mask)
            seen |= _mask_orbit(mask, images)
    return reps


def _accepted_canonical(child: SemilatticeTable) -> tuple[SemilatticeTable, list] | None:
    """Canonical-augmentation test: keep the child iff its new element is in
    the automorphism orbit of the deletion target, the element placed last in
    the canonical form (always maximal).  Returns the canonical form and the
    child's automorphism generators, or None.

    The walk builds only children whose new element has the target's color
    (``_Parent.sized_ideals``), so every child it tests is searched, and the
    orbit test alone decides: it rejects 574 of the 7,944 children at n <= 9.
    """
    n = child.n
    K, perm, generators = canonical_with_perm(child)
    if not _orbit([n - 1], generators) >> perm.index(n - 1) & 1:
        return None
    return K, generators


def _owns(i: int, share: int, jobs: int) -> bool:
    """Whether ``share`` of ``jobs`` walks the subtree of the i-th class with
    SPLIT_N elements, counted in walk order from 0."""
    return i % jobs == share


def walk(max_n: int, share: int = 0, jobs: int = 1) -> Iterator[tuple[bytes, SemilatticeTable, int]]:
    """Every class with 1..max_n elements that one share of the walk
    reports, once each, depth-first: a kept child comes before its own
    children.  ``walk(max_n)`` is the whole walk, share 0 of 1.

    Each class comes as a triple (key, S, k): key is the ``_key`` of its
    canonical form, S is the class as the walk built it, with the masks it
    took from its parent (``_extend``), and k is |Con S|.  Readers of
    other label-invariant properties, such as classes, read them off S;
    ``_table(key, S.n)`` is the canonical table.

    k is carried down the walk and never counted from scratch: the class
    with one element has one congruence, and each parent's one kernel pass
    (``_Parent``) gives the count of each child it keeps by the
    augmentation recurrence of the module docstring, |Con S'| = |Con S| +
    the join-closed subsets of S+ that hold no new pair, which is at most
    2·|Con S|, with equality exactly when the ideal holds no new pair.  A
    parent's pass also counts the parent itself, and a count that differs
    from the one its own parent gave raises InternalInconsistency.

    Canonical augmentation gives each class one parent, so the subtrees
    below the classes with SPLIT_N elements (the roots) hold disjoint sets
    of classes.  Every share walks the classes below SPLIT_N, which only
    share 0 reports, and the subtree of each root it owns (``_owns``).
    The walk checks no duplicates: the share runner does, on the digests
    ``_walked`` takes of the classes a summary reads.

    A parent is extended by the least ideal of each Aut(parent)-orbit whose
    child passes the size pretest (``_Parent.sized_ideals``), which keeps or
    drops whole orbits."""
    if share == 0:
        yield _key(_ONE), _ONE, 1
    if max_n > 1:
        yield from _expanded(_ONE, [], 1, max_n, share, jobs, counter())


def _expanded(
    S: SemilatticeTable, generators: list, k: int, max_n: int, share: int, jobs: int, roots
) -> Iterator[tuple[bytes, SemilatticeTable, int]]:
    """What ``walk(max_n, share, jobs)`` reports below S, which has these
    generators and k congruences; ``roots`` counts the roots met so far."""
    parent = _Parent(S)
    if parent.count != k:
        raise InternalInconsistency(
            f"a class with {S.n} elements has {parent.count} join-closed subsets,"
            f" its parent's recurrence gave {k}"
        )
    for mask in _orbit_representatives(parent.sized_ideals(), generators):
        child = _extend(S, mask)
        kept = _accepted_canonical(child)
        if kept is None:
            continue
        K, child_generators = kept
        if K.n == SPLIT_N and not _owns(next(roots), share, jobs):
            continue
        child_k = parent.child_count(mask)
        if share == 0 or K.n >= SPLIT_N:
            yield _key(K), child, child_k
        if child.n < max_n:
            yield from _expanded(child, child_generators, child_k, max_n, share, jobs, roots)


def _key(S: SemilatticeTable) -> bytes:
    """The meet table as bytes, row by row; keys of equal size sort as
    their tables do by ``meet``."""
    return bytes(chain.from_iterable(S.meet))


def _table(key: bytes, n: int) -> SemilatticeTable:
    """The table whose ``_key`` is ``key``."""
    return SemilatticeTable(tuple(tuple(key[i : i + n]) for i in range(0, n * n, n)))


def _digest(key: bytes) -> int:
    """An 8-byte digest of a meet key, for the walk's duplicate check.

    ``hash()`` would not do: its seed differs between spawned processes.
    Two classes with one digest can only raise a false InternalInconsistency;
    a duplicate always shows."""
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "little")


def _shares(n: int, jobs: int | None) -> int:
    """How many shares walk to n: ``jobs``, by default the usable cores, at
    most one per root, and one when n <= SPLIT_N, since every share would
    walk all classes of that size."""
    if jobs is not None and jobs < 1:
        raise TooLarge(f"jobs must be at least 1, got {jobs}")
    if n <= SPLIT_N:
        return 1
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, SPLIT_ROOTS)


def _worker(send, task, args: tuple, share: int, jobs: int) -> None:
    """Run one share in a worker process and send back (True, its result) or
    (False, the exception it raised).  The parent stops workers on Ctrl-C."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        result = (True, task(*args, share, jobs))
    except Exception as exc:
        result = (False, exc)
    send.send(result)
    send.close()


def _in_shares(task, args: tuple, jobs: int) -> list:
    """``task(*args, share, jobs)`` for every share, in share order.

    Share 0 runs in this process and each other share in one of jobs - 1
    worker processes.  A worker is given only module-level functions and
    plain data, so any start method works.  ``fork`` is taken on Linux when
    this process runs no other thread, since a forked worker needs no fresh
    interpreter and imports; otherwise ``spawn``, which is also macOS's
    default, forking being unsafe there with the system frameworks.  An
    exception raised in a share is raised here, and every worker has ended
    when this returns or raises."""
    if jobs == 1:
        return [task(*args, 0, 1)]
    import multiprocessing  # about 18 ms, so only when a worker starts
    import threading

    fork = sys.platform.startswith("linux") and threading.active_count() == 1
    context = multiprocessing.get_context("fork" if fork else "spawn")
    workers = []
    try:
        for share in range(1, jobs):
            receive, send = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker, args=(send, task, args, share, jobs), daemon=True
            )
            process.start()
            send.close()
            workers.append((process, receive))
        results = [task(*args, 0, jobs)]
        for share, (process, receive) in enumerate(workers, 1):
            try:
                ok, result = receive.recv()
            except EOFError:
                raise InternalInconsistency(
                    f"share {share} of {jobs} ended without a result"
                ) from None
            if not ok:
                raise result
            results.append(result)
        return results
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receive in workers:
            process.join()
            receive.close()


def _walked(max_n: int, summarize, args: tuple, share: int, jobs: int) -> tuple:
    """``summarize(*args, classes)`` of one share's walk, and the sorted
    digests (``_digest``) of the keys of the classes ``summarize`` read, for
    ``_walk_shares`` to check.  A class is digested as it is handed over,
    so the check covers exactly the classes the summary read; a summary
    that stops before the walk ends would leave the rest unchecked, and
    raises InternalInconsistency.  The digests are kept 8 bytes each in 256 arrays
    by their top byte and sorted one array at a time, never as one list of
    ints, which would take about 60 bytes each."""
    buckets = [array("Q") for _ in range(256)]
    ended = False

    def classes() -> Iterator[tuple[bytes, SemilatticeTable, int]]:
        nonlocal ended
        for found in walk(max_n, share, jobs):
            digest = _digest(found[0])
            buckets[digest >> 56].append(digest)
            yield found
        ended = True

    summary = summarize(*args, classes())
    if not ended:
        raise InternalInconsistency(f"share {share} of {jobs} was summarized before its walk ended")
    digests = array("Q")
    for bucket in buckets:
        digests.extend(sorted(bucket))
    return summary, digests


def _walk_shares(max_n: int, jobs: int | None, summarize, args: tuple) -> list:
    """``summarize(*args, classes)`` of each share of the walk to max_n, in
    share order (``_in_shares``, ``_shares``); ``summarize`` is a
    module-level function.  The walk's one duplicate check: two equal
    neighbours in the merge of the shares' sorted digests, a class reported
    twice by one share or by two, raise InternalInconsistency."""
    shares = _in_shares(_walked, (max_n, summarize, args), _shares(max_n, jobs))
    if any(a == b for a, b in pairwise(merge(*(digests for _, digests in shares)))):
        raise InternalInconsistency("the walk reported a class twice")
    return [summary for summary, _ in shares]


def _check_top(top: int) -> None:
    if top < 1:
        raise TooLarge(f"top count must be at least 1, got {top}")


def _check_bound(n: int, max_n: int | None) -> None:
    if n < 1:
        raise TooLarge("n must be at least 1")
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if n > bound:
        raise TooLarge(f"n={n} exceeds enumeration bound {bound}")


def _level_keys(n: int, classes: Iterator) -> list[bytes]:
    """The keys of the n-element classes among a share's classes."""
    return [key for key, S, _ in classes if S.n == n]


def enumerate_semilattices(
    n: int, max_n: int | None = None, jobs: int | None = None
) -> list[SemilatticeTable]:
    """All n-element meet semilattices up to isomorphism, canonical and
    sorted, from the meet keys of every share of the walk."""
    _check_bound(n, max_n)
    shares = _walk_shares(n, jobs, _level_keys, (n,))
    return [_table(key, n) for key in sorted(chain.from_iterable(shares))]


def _extend_checked(S: SemilatticeTable, mask: int) -> SemilatticeTable | None:
    """Oracle-side extension: require a greatest lower bound directly."""
    below = S.below_mask
    new_row = []
    for x in range(S.n):
        t_mask = mask & below[x]
        top = next((z for z in _bits(t_mask) if t_mask & ~below[z] == 0), None)
        if top is None:
            return None
        new_row.append(top)
    rows = [list(S.meet[x]) + [new_row[x]] for x in range(S.n)]
    rows.append(new_row + [S.n])
    return validate(rows)


def _oracle_fingerprint(S: SemilatticeTable) -> tuple:
    """Isomorphism invariant the oracle buckets by: the sorted (down-set size,
    up-set size) pairs and the number of UBTAs."""
    sizes = sorted(
        (d.bit_count(), u.bit_count()) for d, u in zip(S.below_mask, S.above_mask)
    )
    return tuple(sizes), S.ubtas.t


def _labeled_levels(max_n: int) -> list[list[SemilatticeTable]]:
    """The oracle's labeled tables: entry n - 1 lists every naturally-labeled
    table with n elements, for n = 1..max(max_n, 1).

    Each level is grown from the one before by extending over arbitrary
    down-sets, keeping the extensions where all meets stay defined, checked
    directly.
    """
    if max_n > ORACLE_MAX_N:
        raise TooLarge(f"n={max_n} exceeds oracle bound {ORACLE_MAX_N}")
    levels = [[_ONE]]
    for _ in range(max_n - 1):
        nxt = []
        for S in levels[-1]:
            below = S.below_mask
            for sub in range(1 << (S.n - 1)):
                mask = (sub << 1) | 1
                if any(below[x] & ~mask for x in _bits(mask)):
                    continue
                child = _extend_checked(S, mask)
                if child is not None:
                    nxt.append(child)
        levels.append(nxt)
    return levels


def _oracle_classes(labeled: list[SemilatticeTable]) -> list[SemilatticeTable]:
    """One table of each isomorphism class among ``labeled``, sorted by
    ``meet``: the first of its class in ``labeled``, found by the
    backtracking isomorphism test within each fingerprint bucket."""
    buckets: dict[tuple, list[SemilatticeTable]] = {}
    for S in labeled:
        buckets.setdefault(_oracle_fingerprint(S), []).append(S)
    reps: list[SemilatticeTable] = []
    for group in buckets.values():
        classes: list[SemilatticeTable] = []
        for S in group:
            if not any(are_isomorphic(S, R) for R in classes):
                classes.append(S)
        reps.extend(classes)
    reps.sort(key=lambda S: S.meet)
    return reps


def enumerate_semilattices_bruteforce(n: int) -> list[SemilatticeTable]:
    """Independent oracle: labeled backtracking plus isomorphism partitioning.

    Generates every naturally-labeled table (``_labeled_levels``), then
    partitions the last level with the backtracking isomorphism test
    (``_oracle_classes``).  Shares no machinery with the orderly generator.
    """
    return _oracle_classes(_labeled_levels(n)[-1])


@dataclass(frozen=True)
class Spectrum:
    """The set NCsl(n) of congruence-lattice sizes over all n-element semilattices.

    ``witness_totals`` maps each value to the number of classes attaining
    it, and ``witnesses`` to the WITNESS_CAP least of their canonical
    tables, ascending by ``meet``, or is empty when ``spectrum`` was asked
    for no witnesses.  ``classes`` maps each of the largest values asked
    for (``spectrum``'s ``top``) to the classes (``structure.classify``)
    of every table attaining it.
    """

    n: int
    witness_totals: dict
    witnesses: dict
    classes: dict

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.witness_totals))

    def to_obj(self) -> dict:
        """The JSON object; ``"witnesses"`` only when some were collected."""
        obj = {
            "n": self.n,
            "values": list(self.values),
            "witness_totals": {str(k): v for k, v in sorted(self.witness_totals.items())},
        }
        if self.witnesses:
            obj["witnesses"] = {
                str(k): [S.to_obj() for S in tables] for k, tables in sorted(self.witnesses.items())
            }
        return obj


def _spectrum_share(n: int, top: int | None, witnesses: bool, classes: Iterator) -> tuple:
    """One share's summary of its n-element classes, streamed from its walk.

    Returns (totals, least, classes): the number of classes of each value;
    when ``witnesses`` is true, the meet keys of each value's WITNESS_CAP
    least tables, ascending, which is all the share holds of them at any
    time, and otherwise no key; and, when ``top`` is given, the classes
    (``structure.classify``) of every table of the share's own ``top``
    largest values.  Each class comes with the count the walk carried down
    to it and is classified with that count as it arrives when its value is
    among the ``top`` largest the share has seen so far.

    Those are enough for the global top M = ``top``: if v is among the M
    largest values overall, fewer than M values exceed v overall, so fewer
    than M of a share's values exceed v, and every share that attains v has
    it among its own M largest, and so among its running M largest whenever
    one of its classes arrives.  A value dropped from the running M largest
    never returns, since the M values above it stay.
    """
    totals: dict[int, int] = {}
    least: dict[int, list[bytes]] = {}
    found: dict[int, set[SemilatticeClass]] = {}
    for key, S, value in classes:
        if S.n != n:
            continue
        totals[value] = totals.get(value, 0) + 1
        if witnesses:
            keys = least.setdefault(value, [])
            if len(keys) < WITNESS_CAP or key < keys[-1]:
                insort(keys, key)
                del keys[WITNESS_CAP:]
        if top is not None and (value in found or len(found) < top or value > min(found)):
            found.setdefault(value, set()).add(_classified(S, value).semilattice_class)
            if len(found) > top:
                del found[min(found)]
    return totals, least, found


def spectrum(
    n: int,
    max_n: int | None = None,
    top: int | None = None,
    jobs: int | None = None,
    witnesses: bool = True,
) -> Spectrum:
    """Exact congruence-count spectrum, merged from the summaries of the
    shares of one walk (``_spectrum_share``), with the classes of the
    ``top`` largest values when ``top`` is given, and the least witnesses
    of each value unless ``witnesses`` is false, when ``witnesses`` is
    empty.  Only the summaries are held here, never every class.  NCsl(n)
    needs n >= 2; n, then ``top``, then the bound are checked before the
    walk."""
    if n < 2:
        raise TooLarge(f"n must be at least 2, got {n}")
    if top is not None:
        _check_top(top)
    _check_bound(n, max_n)
    shares = _walk_shares(n, jobs, _spectrum_share, (n, top, witnesses))
    totals: dict[int, int] = {}
    least: dict[int, list[bytes]] = {}
    classes: dict[int, set[SemilatticeClass]] = {}
    for share_totals, share_least, share_classes in shares:
        for value, k in share_totals.items():
            totals[value] = totals.get(value, 0) + k
        for value, keys in share_least.items():
            least.setdefault(value, []).extend(keys)
        for value, found in share_classes.items():
            classes.setdefault(value, set()).update(found)
    largest = sorted(totals, reverse=True)[: top or 0]
    return Spectrum(
        n,
        totals,
        {
            value: tuple(_table(key, n) for key in sorted(keys)[:WITNESS_CAP])
            for value, keys in least.items()
        },
        {value: frozenset(classes[value]) for value in largest},
    )


def top_values(sp: Spectrum, count: int) -> list[tuple[int, frozenset[SemilatticeClass]]]:
    """The ``count`` largest spectrum values with the classes of their witnesses.

    Classes are collected over every attaining semilattice, not only the
    reported witnesses, by ``spectrum(n, top=M)`` with M >= ``count``.
    A ``count`` below 1 raises ``TooLarge``, as a ``top`` below 1 does in
    ``spectrum`` before it walks.
    """
    _check_top(count)
    values = sp.values[::-1]
    if len(values) < count:
        noun = "value" if len(values) == 1 else "values"
        raise NotEnoughValues(f"NCsl({sp.n}) has {len(values)} {noun}, fewer than the {count} asked for")
    if len(sp.classes) < count:
        raise NotEnoughValues(
            f"NCsl({sp.n}) holds the classes of its {len(sp.classes)} largest values,"
            f" fewer than the {count} asked for"
        )
    return [(value, sp.classes[value]) for value in values[:count]]
