"""Congruences as partitions: recognition, enumeration, quotients.

A congruence of a meet semilattice is an equivalence relation compatible
with the meet; its blocks are convex and meet-closed.  A partition is
stored only as its dense first-occurrence block ids, the form the closure
kernel returns, so each partition has one representation and congruence
lists are reproducible.  That kernel, ``kernels.congruence_closure``, is
the one closure, and it always grows from the identity: for generated
congruences and for the cover congruences Cg(a, b) of enumeration.  The
rest of enumeration reads no meet, since the join of two congruences is
their join as equivalences (Burris & Sankappanavar, *A Course in Universal
Algebra*, ch. II), so each found congruence is joined with each cover
congruence by a union-find over its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import SemilatticeTable
from .errors import NotACongruence, NotALattice, SizeMismatch, TooLarge

CONGRUENCE_MAX_N = 10  # all_meet_congruences and all_lattice_congruences
BELL_SCAN_MAX_N = 8  # all_meet_congruences_bruteforce
INTERVAL_BLOCK_MAX_N = 10  # count_interval_block_equivalences


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
        return cls(tuple(renumber.setdefault(b, len(renumber)) for b in ids))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        ids = [-1] * n
        for i, block in enumerate(blocks):
            members = sorted(block)
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
    pairs = list(pairs)
    for x, y in pairs:
        if not (0 <= x < S.n and 0 <= y < S.n):
            raise SizeMismatch(f"pair ({x},{y}) out of range")
    singletons = [(x,) for x in range(S.n)]
    return Partition(kernels.congruence_closure(S.meet, tuple(range(S.n)), singletons, pairs))


def _block_pairs(block_id) -> list[tuple[int, int]]:
    """(least member, member) for every member of a block but its least one:
    pairs that generate the partition ``block_id`` as an equivalence."""
    first: dict[int, int] = {}
    return [(f, x) for x, k in enumerate(block_id) if (f := first.setdefault(k, x)) != x]


def _join_equivalences(block_id, num_blocks: int, pairs) -> tuple[int, ...]:
    """The join, as equivalences, of the partition ``block_id`` (dense
    first-occurrence ids of ``num_blocks`` blocks) and the equivalence
    generated by ``pairs``: the transitive closure of their union, as dense
    first-occurrence ids.

    A union-find over the labels of ``block_id``, in which the larger root
    points at the smaller, so a merged class keeps its least label and the
    live labels stay in first-occurrence order.
    """
    parent = list(range(num_blocks))
    for x, y in pairs:
        u = block_id[x]
        while parent[u] != u:
            u = parent[u]
        v = block_id[y]
        while parent[v] != v:
            v = parent[v]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    # parents are smaller labels, so one ascending pass settles every root
    dense = []
    live = 0
    for k, p in enumerate(parent):
        if p == k:
            dense.append(live)
            live += 1
        else:
            dense.append(dense[p])
    return tuple(map(dense.__getitem__, block_id))


def all_meet_congruences(S: SemilatticeTable) -> list[Partition]:
    """Every meet congruence of S, deterministically ordered.

    Generated as the join closure of the cover congruences Cg(a, b) (a
    covered by b), which reaches every congruence theta because:

    - Cg(x, y) = Cg(x^y, x) v Cg(x^y, y), so theta is the join of the
      Cg(a, b) with a < b inside one theta-block;
    - for a < b, Cg(a, b) is the join of the cover congruences along a
      maximal chain from a to b, and blocks are convex, so those covers lie
      inside the block too.

    The meet is read once per cover: ``kernels.congruence_closure`` grows
    each Cg(a, b) from the identity, and equal ones are kept once.  After
    that no meet is read, because the join of two congruences in Con(S) is
    their join as equivalences, the transitive closure of their union
    (Burris & Sankappanavar, *A Course in Universal Algebra*, ch. II; Freese,
    "Computing congruence lattices of finite lattices", Proc. AMS 1997,
    lists Con this way too).  So each found theta is joined with each
    Cg(a, b) that does not already relate a and b, by ``_join_equivalences``.
    The Bell scan stays available as an independent oracle
    (``all_meet_congruences_bruteforce``).
    """
    if S.n > CONGRUENCE_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {CONGRUENCE_MAX_N}")
    n = S.n
    meet = S.meet
    identity = tuple(range(n))
    singletons = [(x,) for x in range(n)]
    cover_congruences = {}
    for a, b in S.covers:
        cg = kernels.congruence_closure(meet, identity, singletons, [(a, b)])
        cover_congruences.setdefault(cg, (a, b))
    # Cg(a, b) lies below theta exactly when theta relates a and b
    generators = [(a, b, _block_pairs(cg)) for cg, (a, b) in cover_congruences.items()]
    found = {identity}
    work = [identity]
    while work:
        ids = work.pop()
        num_blocks = max(ids, default=-1) + 1
        for a, b, pairs in generators:
            if ids[a] == ids[b]:
                continue
            joined = _join_equivalences(ids, num_blocks, pairs)
            if joined not in found:
                found.add(joined)
                work.append(joined)
    return sorted(map(Partition, found), key=_sort_key)


def _set_partition_ids(n: int):
    """All partitions of {0..n-1} as restricted-growth block-id tuples."""
    a = [0] * n

    def rec(i: int, nb: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(nb + 1):
            a[i] = v
            yield from rec(i + 1, nb + 1 if v == nb else nb)

    if n == 0:
        yield ()
        return
    yield from rec(1, 1)


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
    """Number of equivalences on S all of whose blocks are intervals [a, b]."""
    if S.n > INTERVAL_BLOCK_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {INTERVAL_BLOCK_MAX_N}")
    n = S.n
    meet = S.meet
    below = S.below_mask
    above = S.above_mask
    count = 0
    for ids in _set_partition_ids(n):
        blocks: dict[int, list[int]] = {}
        for x, b in enumerate(ids):
            blocks.setdefault(b, []).append(x)
        for members in blocks.values():
            mask = 0
            a = members[0]
            for x in members:
                mask |= 1 << x
                a = meet[a][x]
            if not mask & (1 << a):
                break
            top = next((x for x in members if mask & ~below[x] == 0), None)
            if top is None or above[a] & below[top] != mask:
                break
        else:
            count += 1
    return count
