"""Congruences as partitions: recognition, enumeration, quotients.

A congruence of a meet semilattice is an equivalence relation compatible
with the meet; its blocks are convex and meet-closed.  A partition is
stored only as its dense first-occurrence block ids, the form the closure
kernel returns, so each partition has one representation and congruence
lists are reproducible.  That kernel, ``kernels.congruence_closure``,
reads generated congruences off the down-sets and reads no meet.
Enumeration runs no closure at all: a congruence is fixed by its cut, the
union of ↓x △ ↓y over its pairs, and the join of two congruences has the
union of their cuts (Burris & Sankappanavar, *A Course in Universal
Algebra*, ch. II).  So Con(S) is listed on cuts, plain ints, as the unions
of the cover cuts ↓b ∖ ↓a, by Close-by-One (Kuznetsov 1993; Ganter, ICFCA
2010): each union is reached once, from one canonical parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import SemilatticeTable, _bits
from .errors import NotACongruence, NotALattice, SizeMismatch, TooLarge

CONGRUENCE_MAX_N = 10  # all_meet_congruences and all_lattice_congruences
BELL_SCAN_MAX_N = 8  # all_meet_congruences_bruteforce
INTERVAL_BLOCK_MAX_N = 10  # count_interval_block_equivalences


def _element(x):
    """x, if it is a plain int (not a bool); else SizeMismatch naming it."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise SizeMismatch(f"element {x!r} is not an int")
    return x


@dataclass(frozen=True)
class Partition:
    """A partition of {0..n-1} as dense first-occurrence block ids.

    ``block_id[x]`` is the block of x, and blocks are numbered in the order
    of their least members.  ``blocks`` lists them in that order, each
    ascending.
    """

    block_id: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.block_id)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_id):
            out[b].append(x)
        return tuple(map(tuple, out))

    @property
    def num_blocks(self) -> int:
        return max(self.block_id, default=-1) + 1

    def relates(self, x: int, y: int) -> bool:
        return self.block_id[x] == self.block_id[y]

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other as relations (every self-block is inside an
        other-block): each self-block meets one other-block, so the distinct
        (self block, other block) pairs are as many as self's blocks."""
        return len(set(zip(self.block_id, other.block_id))) == self.num_blocks

    def is_identity(self) -> bool:
        return self.num_blocks == self.n

    def to_obj(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_block_id(cls, ids) -> "Partition":
        """The partition whose blocks are the classes of equal labels in ``ids``."""
        renumber: dict = {}
        return cls(tuple([renumber.setdefault(b, len(renumber)) for b in ids]))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        ids = [-1] * n
        for i, block in enumerate(blocks):
            members = sorted(map(_element, block))
            if not members:
                raise SizeMismatch("empty block")
            for x in members:
                if not 0 <= x < n or ids[x] >= 0:
                    raise SizeMismatch(f"element {x} repeated or out of range")
                ids[x] = i
        if -1 in ids:
            raise SizeMismatch("blocks do not cover {0..n-1}")
        return cls.from_block_id(ids)

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((0,) * n)


def _sort_key(P: Partition):
    return (-P.num_blocks, P.block_id)


def is_meet_congruence(S: SemilatticeTable, P: Partition) -> bool:
    """True iff x ~ y implies x^z ~ y^z for all z."""
    if P.n != S.n:
        raise SizeMismatch(f"partition of {P.n} elements against n={S.n}")
    return kernels.op_compatible(S.meet, P.block_id)


def congruence_generated(S: SemilatticeTable, pairs) -> Partition:
    """Least meet congruence collapsing every given pair."""
    pairs = [(_element(x), _element(y)) for x, y in pairs]
    for x, y in pairs:
        if not (0 <= x < S.n and 0 <= y < S.n):
            raise SizeMismatch(f"pair ({x},{y}) out of range")
    return Partition(kernels.congruence_closure(S.below_mask, pairs))


def all_meet_congruences(S: SemilatticeTable) -> list[Partition]:
    """Every meet congruence of S, deterministically ordered, listed on
    cuts: the cut D(theta) is the union of ↓x △ ↓y over the pairs x theta y.

    - x theta y iff ↓x and ↓y agree outside D(theta), since theta =
      Cg(theta) and ``kernels.congruence_closure`` shows that Cg(P) relates
      x and y iff ↓x and ↓y agree outside D(P).  So theta -> D(theta) is
      injective, and theta <= psi iff D(theta) is a subset of D(psi).
    - The same reading gives D(Cg(P)) = D(P) for every set P of pairs, so
      D(theta v psi) = D(theta) | D(psi), because theta v psi = Cg(theta u
      psi); and D(Cg(a, b)) = ↓b ∖ ↓a for a < b.
    - Every theta is the join of the cover congruences Cg(a, b) (a covered
      by b) below it: Cg(x, y) = Cg(x^y, x) v Cg(x^y, y), so theta is the
      join of the Cg(a, b) with a < b inside one theta-block; for a < b,
      Cg(a, b) is the join of the cover congruences along a maximal chain
      from a to b, and blocks are convex, so those covers lie inside the
      block too.

    So with G = (g_0, g_1, ...) the distinct cover cuts ↓b ∖ ↓a, in the
    order of ``S.covers``, theta -> D(theta) is an order isomorphism from
    Con(S) onto the unions of members of G, the identity's cut being the
    empty union.  Close-by-One lists each union once (Kuznetsov, "A fast
    algorithm for computing all intersections of objects in a finite
    semi-lattice", 1993; Ganter, "Two basic algorithms in concept
    analysis", ICFCA 2010).  From a cut built by adding g_i, it tries only
    the g_j with j > i that the cut leaves apart (g_j & ~cut is nonzero),
    and keeps cut | g_j only when that holds no earlier g_k which the cut
    leaves apart: then the cut is the canonical parent of cut | g_j.

    Only ``S.below_mask`` and ``S.covers`` are read: no meet, and no
    closure.  The block ids of each listed congruence are read once, as
    the first-occurrence ids of the down-sets outside its cut, and the list
    is sorted as plain (-blocks, block ids) tuples, the order of
    ``_sort_key``.  The Bell scan stays available as an independent oracle
    (``all_meet_congruences_bruteforce``).
    """
    if S.n > CONGRUENCE_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {CONGRUENCE_MAX_N}")
    below = S.below_mask
    generators = list(dict.fromkeys(below[b] & ~below[a] for a, b in S.covers))
    cuts = [0]
    work = [(0, 0)]  # (cut, index of the first generator to try)
    while work:
        cut, start = work.pop()
        apart = []  # the earlier g_k that the cut leaves apart
        for j, g in enumerate(generators):
            if not g & ~cut:
                continue
            if j >= start:
                joined = cut | g
                for h in apart:
                    if not h & ~joined:
                        break
                else:
                    cuts.append(joined)
                    work.append((joined, j + 1))
            apart.append(g)
    listed = []
    for cut in cuts:
        keep = ~cut
        ids = {}
        block_id = tuple([ids.setdefault(down & keep, len(ids)) for down in below])
        listed.append((-len(ids), block_id))
    listed.sort()
    return [Partition(block_id) for _, block_id in listed]


def _set_partition_ids(n: int):
    """All partitions of {0..n-1}, n >= 1, as restricted-growth block-id tuples."""
    return _grown([0] * n, 1, 1)


def _grown(a: list[int], i: int, nb: int):
    """Every restricted-growth tuple that extends a[:i], which holds the
    block ids 0..nb-1.  Module-level, like ``_interval_partitions``: a
    closure that calls itself is a reference cycle (see ``core``)."""
    if i == len(a):
        yield tuple(a)
        return
    for v in range(nb + 1):
        a[i] = v
        yield from _grown(a, i + 1, nb + 1 if v == nb else nb)


def all_meet_congruences_bruteforce(S: SemilatticeTable) -> list[Partition]:
    """Bell-number scan over all partitions; the slow oracle for the fast path."""
    if S.n > BELL_SCAN_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {BELL_SCAN_MAX_N}")
    meet = S.meet
    out = [Partition(ids) for ids in _set_partition_ids(S.n) if kernels.op_compatible(meet, ids)]
    return sorted(out, key=_sort_key)


def quotient(S: SemilatticeTable, P: Partition) -> tuple[SemilatticeTable, tuple[tuple[int, ...], ...]]:
    """The quotient semilattice S/P with [x] ^ [y] = [x ^ y].

    Returns the quotient table and the block tuple: block i of P is element
    i of the quotient (the block of 0 comes first, so 0 stays least).  A
    quotient by a meet congruence is a semilattice, so it is not validated.
    """
    if not is_meet_congruence(S, P):
        raise NotACongruence("partition is not compatible with the meet")
    bid = P.block_id
    reps = [b[0] for b in P.blocks]
    rows = tuple(tuple(bid[S.meet[rx][ry]] for ry in reps) for rx in reps)
    return SemilatticeTable(rows), P.blocks


def is_lattice(S: SemilatticeTable) -> bool:
    """A finite meet semilattice is a lattice iff it has a greatest element."""
    return S.has_top()


def join_table(S: SemilatticeTable) -> tuple[tuple[int, ...], ...]:
    """Total join table of a lattice as rows, like ``S.meet``: x v y is the
    element whose up-set is the common up-set of x and y."""
    if not is_lattice(S):
        raise NotALattice("no greatest element")
    above = S.above_mask
    element_of = {up: z for z, up in enumerate(above)}
    return tuple(tuple(element_of[ux & uy] for uy in above) for ux in above)


def all_lattice_congruences(S: SemilatticeTable) -> list[Partition]:
    """Meet congruences that are also compatible with the join."""
    join = join_table(S)
    return [P for P in all_meet_congruences(S) if kernels.op_compatible(join, P.block_id)]


def count_interval_block_equivalences(S: SemilatticeTable) -> int:
    """Number of equivalences on S all of whose blocks are intervals [a, b].

    A minimal x among the elements not yet in a block has the block [x, b]
    for some b >= x whose interval lies among them.  Recursing on each b
    reaches each equivalence once, and [x, x] always fits, so every branch
    ends in one and the cost grows with the count.
    """
    if S.n > INTERVAL_BLOCK_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {INTERVAL_BLOCK_MAX_N}")
    return _interval_partitions((1 << S.n) - 1, S.above_mask, S.below_mask)


def _interval_partitions(left: int, above: tuple[int, ...], below: tuple[int, ...]) -> int:
    """The number of partitions of the elements in ``left`` (a bitmask) into
    intervals [a, b] of S, given S's up-set and down-set masks."""
    if not left:
        return 1
    x = next(x for x in _bits(left) if below[x] & left == 1 << x)
    blocks = (above[x] & below[b] for b in _bits(above[x] & left))
    return sum(
        _interval_partitions(left ^ block, above, below) for block in blocks if block & left == block
    )
