"""Congruences as partitions: recognition, enumeration, quotients.

A congruence of a meet semilattice is an equivalence relation compatible
with the meet; its blocks are convex and meet-closed.  A partition is
stored only as its dense first-occurrence block ids, the form the closure
kernel returns, so each partition has one representation and congruence
lists are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import SemilatticeTable, _bits, validate
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
        """True iff self <= other as relations (every self-block is inside an other-block)."""
        image: dict[int, int] = {}
        return all(image.setdefault(b, o) == o for b, o in zip(self.block_id, other.block_id))

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
    """Least meet congruence collapsing every given pair (union-find fixpoint)."""
    pairs = list(pairs)
    for x, y in pairs:
        if not (0 <= x < S.n and 0 <= y < S.n):
            raise SizeMismatch(f"pair ({x},{y}) out of range")
    return Partition(kernels.congruence_closure(S.meet, pairs))


def _join_pair(meet, ids, blocks, a: int, b: int) -> tuple[int, ...]:
    """The least congruence above the congruence ``ids`` that relates a and b.

    ``meet`` holds the rows of the meet table, ``ids`` is a dense
    first-occurrence block-id tuple and ``blocks[k]`` lists the members of
    its block k.  Starting from these blocks, two blocks merge at a time,
    the one with the larger label taking the smaller label, and for each
    pair (x, y) that merged two blocks, (x^z, y^z) is pushed for every z.
    Nothing else is rescanned: the result is the equivalence generated by
    the pairs of ``ids`` and the merging pairs, and each generator is
    compatible with the meet, a pair of ``ids`` because ``ids`` is a
    congruence and a merging pair because its meets with every z were
    pushed and so end up related.  Compatibility carries along chains of
    generators by transitivity, and every merge is forced, so the result is
    the join of ``ids`` and Cg(a, b).  Returns dense first-occurrence block
    ids, as ``kernels.congruence_closure`` does.
    """
    label = list(ids)
    members = list(blocks)  # merged lists are new; the blocks are not mutated
    queue = [a, b]
    while queue:
        y = queue.pop()
        x = queue.pop()
        kx = label[x]
        ky = label[y]
        if kx == ky:
            continue
        if kx > ky:
            kx, ky = ky, kx
        moved = members[ky]
        for w in moved:
            label[w] = kx
        members[kx] = members[kx] + moved
        members[ky] = None
        for u, v in zip(meet[x], meet[y]):
            if label[u] != label[v]:
                queue += (u, v)
    # a merged block keeps its least label, so the live labels are already in
    # first-occurrence order and renumbering only closes the gaps
    dense = []
    live = 0
    for m in members:
        dense.append(live)
        if m is not None:
            live += 1
    return tuple(map(dense.__getitem__, label))


def all_meet_congruences(S: SemilatticeTable) -> list[Partition]:
    """Every meet congruence of S, deterministically ordered.

    Generated as the join closure of the cover congruences Cg(a, b) (a
    covered by b), which reaches every congruence theta because:

    - Cg(x, y) = Cg(x^y, x) v Cg(x^y, y), so theta is the join of the
      Cg(a, b) with a < b inside one theta-block;
    - for a < b, Cg(a, b) is the join of the cover congruences along a
      maximal chain from a to b, and blocks are convex, so those covers lie
      inside the block too.

    The worklist holds dense first-occurrence block-id tuples; each found
    tuple is joined (``_join_pair``, starting from its blocks) with one
    cover per pair of its blocks that some cover joins, since covers
    between the same two blocks give the same join.  The Bell scan stays
    available as an independent oracle (``all_meet_congruences_bruteforce``).
    """
    if S.n > CONGRUENCE_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {CONGRUENCE_MAX_N}")
    n = S.n
    meet = S.meet
    covers = S.covers
    identity = tuple(range(n))
    found = {identity}
    work = [identity]
    while work:
        ids = work.pop()
        blocks = [[] for _ in range(max(ids, default=-1) + 1)]
        for x, k in enumerate(ids):
            blocks[k].append(x)
        joined_blocks = set()
        for a, b in covers:
            ka = ids[a]
            kb = ids[b]
            if ka == kb:
                continue
            key = (ka, kb) if ka < kb else (kb, ka)
            if key in joined_blocks:
                continue
            joined_blocks.add(key)
            joined = _join_pair(meet, ids, blocks, a, b)
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
    i of the quotient (the block of 0 comes first, so 0 stays least).
    """
    if not is_meet_congruence(S, P):
        raise NotACongruence("partition is not compatible with the meet")
    bid = P.block_id
    reps = [b[0] for b in P.blocks]
    rows = [
        [bid[S.meet[rx][ry]] for ry in reps]
        for rx in reps
    ]
    return validate(rows), P.blocks


def is_lattice(S: SemilatticeTable) -> bool:
    """A finite meet semilattice is a lattice iff it has a greatest element."""
    return S.has_top()


def join_table(S: SemilatticeTable) -> tuple[tuple[int, ...], ...]:
    """Total join table of a lattice as rows, like ``S.meet``."""
    if not is_lattice(S):
        raise NotALattice("no greatest element")
    n = S.n
    meet = S.meet
    above = S.above_mask
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            it = _bits(above[x] & above[y])
            v = next(it)
            for z in it:
                v = meet[v][z]
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


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
