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

The walk (``walk``) is depth-first, and each class is searched once: the
canonical search of a kept child gives the generators for its orbit test,
and the child is expanded at once, in the labelling it was built in
(acceptance does not depend on it), with those generators splitting its
ideals.  A child whose new element lacks the largest (down-set size, up-set
size) or refinement color is rejected before any search.  The walk yields
each class as it is found and stores no level.

Since each class has one parent, the walk splits by subtree into shares:
the classes with SPLIT_N elements are its roots, and share i of ``jobs``
walks the subtrees of roots i, i + jobs, ...  ``spectrum`` and
``enumerate_semilattices`` run each share in its own process
(``_in_shares``; share 0 in the caller's), reduce it there to a summary,
and merge the summaries; the merge checks that no two shares reported the
same class.  ``enumerate_semilattices(n)`` sorts the n-element classes'
meet keys, and ``spectrum`` keeps per-value counts, the least witnesses
and the classes of the top values, never every class.  The split size was
measured: at SPLIT_N = 5 two shares of ``spectrum(9)`` hold 3,073 and
2,921 classes and take about the same time; at 6 they hold 2,771 and 3,223.

Every table the walk makes starts with its down-set and up-set masks: a
child's come from its parent's and the ideal (``_extend``), a canonical
form's from its certificate (``canonical_with_perm``), so neither is
rebuilt from the meet table.

``enumerate_semilattices_bruteforce`` is the independent oracle: plain
backtracking over labeled order extensions followed by isomorphism
partitioning.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from itertools import count as counter

from . import kernels
from .core import (
    SemilatticeTable,
    _bits,
    _orbit,
    _refine,
    _with_masks,
    are_isomorphic,
    canonical_with_perm,
    validate,
)
from .errors import InternalInconsistency, NotEnoughValues, TooLarge
from .joinsub import PartialJoinStructure, congruence_count
from .structure import SemilatticeClass, classify

DEFAULT_MAX_N = 9
ORACLE_MAX_N = 7
WITNESS_CAP = 64
# The walk splits into shares below the classes of this size, its roots.
SPLIT_N = 5
SPLIT_ROOTS = 15  # the classes with SPLIT_N elements, OEIS A006966

_ONE = SemilatticeTable(((0,),))


def _joinclosed_downset_masks(S: SemilatticeTable) -> list[int]:
    """Down-sets of S containing 0 and closed under existing joins, ascending.

    These are exactly the subsets a new maximal element can sit above while
    keeping all meets defined.  Over the bits of S+, a down-set is a subset
    in which each element x needs each of its lower covers c != 0, and join
    closure is the UBTA clauses of ``PartialJoinStructure``.
    """
    needs = tuple((1 << (x - 1), 1 << (c - 1)) for c, x in S.covers if c)
    masks = kernels.list_join_closed(S.n - 1, needs + PartialJoinStructure(S).clauses)
    return [(mask << 1) | 1 for mask in masks]


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


def _orbit_representatives(S: SemilatticeTable, generators: list[list[int]]) -> list[int]:
    """The least join-closed down-set of each Aut(S)-orbit, ascending, given
    generators of Aut(S)."""
    masks = _joinclosed_downset_masks(S)
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

    The target has the largest refinement color and so the largest (down-set
    size, up-set size); both are invariant under automorphisms, so a new
    element without them is rejected before the search.
    """
    n = child.n
    sizes = [(d.bit_count(), u.bit_count()) for d, u in zip(child.below_mask, child.above_mask)]
    if sizes[n - 1] != max(sizes):
        return None
    colors = _refine(child)
    if colors[n - 1] != max(colors):
        return None
    K, perm, generators = canonical_with_perm(child, colors)
    if not _orbit([n - 1], generators) >> perm.index(n - 1) & 1:
        return None
    return K, generators


def _owns(i: int, share: int, jobs: int) -> bool:
    """Whether ``share`` of ``jobs`` walks the subtree of the i-th class with
    SPLIT_N elements, counted in walk order from 0."""
    return i % jobs == share


def walk(max_n: int, share: int = 0, jobs: int = 1) -> Iterator[SemilatticeTable]:
    """Every canonical class with 1..max_n elements that one share of the
    walk reports, once each, depth-first: a kept child comes before its own
    children.  ``walk(max_n)`` is the whole walk, share 0 of 1.

    Canonical augmentation gives each class one parent, so the subtrees
    below the classes with SPLIT_N elements (the roots) hold disjoint sets
    of classes.  Every share walks the classes below SPLIT_N, which only
    share 0 reports, and the subtree of each root it owns (``_owns``).

    The duplicate check keeps each meet table as bytes, a tenth of the
    tuples' size (entries stay below 256 in any walk that can finish)."""
    seen: set[bytes] = set()
    roots = counter()

    def expand(parent: SemilatticeTable, generators: list[list[int]]) -> Iterator[SemilatticeTable]:
        for mask in _orbit_representatives(parent, generators):
            child = _extend(parent, mask)
            kept = _accepted_canonical(child)
            if kept is None:
                continue
            K, child_generators = kept
            if K.n == SPLIT_N and not _owns(next(roots), share, jobs):
                continue
            key = _key(K)
            if key in seen:
                raise InternalInconsistency("canonical augmentation produced a duplicate")
            seen.add(key)
            if share == 0 or K.n >= SPLIT_N:
                yield K
            if child.n < max_n:
                yield from expand(child, child_generators)

    if share == 0:
        yield _ONE
    if max_n > 1:
        yield from expand(_ONE, [])


def _key(S: SemilatticeTable) -> bytes:
    """The meet table as bytes, row by row; keys of equal size sort as
    their tables do by ``meet``."""
    return bytes(chain.from_iterable(S.meet))


def _table(key: bytes, n: int) -> SemilatticeTable:
    """The table whose ``_key`` is ``key``."""
    return SemilatticeTable(tuple(tuple(key[i : i + n]) for i in range(0, n * n, n)))


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
    worker processes.  A worker is given only ints and a module-level
    function, so any start method works.  ``fork`` is taken on Linux when
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


def _check_bound(n: int, max_n: int | None) -> None:
    if n < 1:
        raise TooLarge("n must be at least 1")
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if n > bound:
        raise TooLarge(f"n={n} exceeds enumeration bound {bound}")


def _level_keys(n: int, share: int, jobs: int) -> list[bytes]:
    """The keys of the n-element classes one share of the walk reports."""
    return [_key(S) for S in walk(n, share, jobs) if S.n == n]


def enumerate_semilattices(
    n: int, max_n: int | None = None, jobs: int | None = None
) -> list[SemilatticeTable]:
    """All n-element meet semilattices up to isomorphism, canonical and
    sorted, from the meet keys of every share of the walk."""
    _check_bound(n, max_n)
    keys = sorted(chain.from_iterable(_in_shares(_level_keys, (n,), _shares(n, jobs))))
    if any(a == b for a, b in zip(keys, keys[1:])):
        raise InternalInconsistency("two shares of the walk reported the same class")
    return [_table(key, n) for key in keys]


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


def enumerate_semilattices_bruteforce(n: int) -> list[SemilatticeTable]:
    """Independent oracle: labeled backtracking plus isomorphism partitioning.

    Generates every naturally-labeled table by extending over arbitrary
    down-sets (keeping extensions where all meets stay defined, checked
    directly), then partitions the results with the backtracking
    isomorphism test.  Shares no machinery with the orderly generator.
    """
    if n > ORACLE_MAX_N:
        raise TooLarge(f"n={n} exceeds oracle bound {ORACLE_MAX_N}")
    labeled = [_ONE]
    for _ in range(n - 1):
        nxt = []
        for S in labeled:
            below = S.below_mask
            for sub in range(1 << (S.n - 1)):
                mask = (sub << 1) | 1
                if any(below[x] & ~mask for x in _bits(mask)):
                    continue
                child = _extend_checked(S, mask)
                if child is not None:
                    nxt.append(child)
        labeled = nxt
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


@dataclass(frozen=True)
class Spectrum:
    """The set NCsl(n) of congruence-lattice sizes over all n-element semilattices.

    ``witness_totals`` maps each value to the number of classes attaining
    it, and ``witnesses`` to the WITNESS_CAP least of their canonical tables
    by meet, ascending.  ``classes`` maps each of the largest values asked
    for (``spectrum``'s ``top``) to the classes (``structure.classify``) of
    every table attaining it.
    """

    n: int
    witness_totals: dict
    witnesses: dict
    classes: dict

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.witness_totals))

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "values": list(self.values),
            "witness_totals": {str(k): v for k, v in sorted(self.witness_totals.items())},
            "witnesses": {
                str(k): [S.to_obj() for S in tables]
                for k, tables in sorted(self.witnesses.items())
            },
        }


def _spectrum_share(n: int, top: int | None, share: int, jobs: int) -> tuple:
    """One share's summary of its n-element classes, streamed from its walk.

    Returns (totals, least, keys, classes): the number of classes of each
    value, the meet keys of each value's WITNESS_CAP least tables, the keys
    of every class with at least SPLIT_N elements the share reports, and,
    when ``top`` is given, the classes (``structure.classify``) of every
    table of the share's own ``top`` largest values.

    Those are enough for the global top M = ``top``: if v is among the M
    largest values overall, fewer than M values exceed v overall, so fewer
    than M of a share's values exceed v, and every share that attains v has
    it among its own M largest.  Only the tables of the current M largest
    values are held; a value dropped from them never returns, since the M
    values above it stay.
    """
    totals: dict[int, int] = {}
    least: dict[int, list[bytes]] = {}
    keys: set[bytes] = set()
    held: dict[int, list[SemilatticeTable]] = {}
    for S in walk(n, share, jobs):
        key = _key(S)
        if S.n >= SPLIT_N:
            keys.add(key)
        if S.n != n:
            continue
        value = congruence_count(S)
        totals[value] = totals.get(value, 0) + 1
        witnesses = least.setdefault(value, [])
        witnesses.append(key)
        if len(witnesses) > 2 * WITNESS_CAP:
            witnesses.sort()
            del witnesses[WITNESS_CAP:]
        if top is not None:
            held.setdefault(value, []).append(S)
            if len(held) > top:
                del held[min(held)]
    least = {value: sorted(w)[:WITNESS_CAP] for value, w in least.items()}
    classes = {
        value: {classify(S).semilattice_class for S in tables} for value, tables in held.items()
    }
    return totals, least, keys, classes


def spectrum(
    n: int, max_n: int | None = None, top: int | None = None, jobs: int | None = None
) -> Spectrum:
    """Exact congruence-count spectrum, merged from the summaries of the
    shares of one walk (``_spectrum_share``), with the classes of the
    ``top`` largest values when ``top`` is given.  Only the summaries are
    held here, never every class."""
    _check_bound(n, max_n)
    totals: dict[int, int] = {}
    least: dict[int, list[bytes]] = {}
    keys: set[bytes] = set()
    classes: dict[int, set[SemilatticeClass]] = {}
    for share_totals, share_least, share_keys, share_classes in _in_shares(
        _spectrum_share, (n, top), _shares(n, jobs)
    ):
        if not keys.isdisjoint(share_keys):
            raise InternalInconsistency("two shares of the walk reported the same class")
        keys |= share_keys
        for value, k in share_totals.items():
            totals[value] = totals.get(value, 0) + k
        for value, witnesses in share_least.items():
            least.setdefault(value, []).extend(witnesses)
        for value, found in share_classes.items():
            classes.setdefault(value, set()).update(found)
    largest = sorted(totals, reverse=True)[: top or 0]
    return Spectrum(
        n,
        totals,
        {value: tuple(_table(key, n) for key in sorted(w)[:WITNESS_CAP]) for value, w in least.items()},
        {value: frozenset(classes[value]) for value in largest},
    )


def top_values(sp: Spectrum, count: int) -> list[tuple[int, frozenset[SemilatticeClass]]]:
    """The ``count`` largest spectrum values with the classes of their witnesses.

    Classes are collected over every attaining semilattice, not only the
    reported witnesses, by ``spectrum(n, top=M)`` with M >= ``count``.
    ``count`` must be at least 1; the CLI checks it before the spectrum is
    computed.
    """
    values = sp.values[::-1]
    if len(values) < count:
        noun = "value" if len(values) == 1 else "values"
        raise NotEnoughValues(f"NCsl({sp.n}) has {len(values)} {noun}, fewer than the {count} asked for")
    if len(sp.classes) < count:
        raise ValueError(
            f"NCsl({sp.n}) holds the classes of its {len(sp.classes)} largest values,"
            f" fewer than the {count} asked for"
        )
    return [(value, sp.classes[value]) for value in values[:count]]
