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
each class as it is found and stores no level; ``enumerate_semilattices(n)``
walks to n and sorts the n-element classes.

Every table the walk makes starts with its down-set and up-set masks: a
child's come from its parent's and the ideal (``_extend``), a canonical
form's from its certificate (``canonical_with_perm``), so neither is
rebuilt from the meet table.

``enumerate_semilattices_bruteforce`` is the independent oracle: plain
backtracking over labeled order extensions followed by isomorphism
partitioning.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

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


def walk(max_n: int) -> Iterator[SemilatticeTable]:
    """Every canonical class with 1..max_n elements, once each, depth-first:
    a kept child comes before its own children.  The duplicate check keeps
    each meet table as bytes, a tenth of the tuples' size (entries stay
    below 256 in any walk that can finish)."""
    seen: set[bytes] = set()

    def expand(parent: SemilatticeTable, generators: list[list[int]]) -> Iterator[SemilatticeTable]:
        for mask in _orbit_representatives(parent, generators):
            child = _extend(parent, mask)
            kept = _accepted_canonical(child)
            if kept is None:
                continue
            K, child_generators = kept
            key = bytes(chain.from_iterable(K.meet))
            if key in seen:
                raise InternalInconsistency("canonical augmentation produced a duplicate")
            seen.add(key)
            yield K
            if child.n < max_n:
                yield from expand(child, child_generators)

    yield _ONE
    if max_n > 1:
        yield from expand(_ONE, [])


def enumerate_semilattices(n: int, max_n: int | None = None) -> list[SemilatticeTable]:
    """All n-element meet semilattices up to isomorphism, canonical and sorted."""
    if n < 1:
        raise TooLarge("n must be at least 1")
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if n > bound:
        raise TooLarge(f"n={n} exceeds enumeration bound {bound}")
    return sorted((S for S in walk(n) if S.n == n), key=lambda S: S.meet)


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

    ``by_value`` maps each value to every canonical table attaining it, in
    enumeration order; ``witnesses`` reports at most WITNESS_CAP of them per
    value.
    """

    n: int
    by_value: dict

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_value))

    @property
    def witness_totals(self) -> dict:
        return {k: len(tables) for k, tables in self.by_value.items()}

    @property
    def witnesses(self) -> dict:
        return {k: tables[:WITNESS_CAP] for k, tables in self.by_value.items()}

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


def spectrum(n: int, max_n: int | None = None) -> Spectrum:
    """Exact congruence-count spectrum, grouping the canonical tables by value."""
    by_value: dict[int, list[SemilatticeTable]] = {}
    for S in enumerate_semilattices(n, max_n=max_n):
        by_value.setdefault(congruence_count(S), []).append(S)
    return Spectrum(n, {k: tuple(v) for k, v in by_value.items()})


def top_values(sp: Spectrum, count: int) -> list[tuple[int, set[SemilatticeClass]]]:
    """The ``count`` largest spectrum values with the classes of their witnesses.

    Classes are collected over every attaining semilattice, not only the
    reported witnesses.  ``count`` must be at least 1; the CLI checks it
    before the spectrum is computed.
    """
    values = sp.values[::-1]
    if len(values) < count:
        noun = "value" if len(values) == 1 else "values"
        raise NotEnoughValues(f"NCsl({sp.n}) has {len(values)} {noun}, fewer than the {count} asked for")
    return [
        (value, {classify(S).semilattice_class for S in sp.by_value[value]})
        for value in values[:count]
    ]
