"""Congruences as partitions: recognition, enumeration, quotients.

A congruence of a meet semilattice is an equivalence relation compatible
with the meet; its blocks are convex and meet-closed.  Partitions are
stored in a fixed normal form (blocks ascending, ordered by smallest
member) so congruence lists are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import SemilatticeTable, _bits, validate
from .errors import NotACongruence, NotALattice, SizeMismatch, TooLarge


@dataclass(frozen=True)
class Partition:
    """A partition of {0..n-1} into blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_id(self) -> tuple[int, ...]:
        out = [0] * self.n
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return tuple(out)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def relates(self, x: int, y: int) -> bool:
        return self.block_id[x] == self.block_id[y]

    def refines(self, other: "Partition") -> bool:
        """True iff self <= other as relations (every self-block is inside an other-block)."""
        oid = other.block_id
        return all(len({oid[x] for x in block}) == 1 for block in self.blocks)

    def is_identity(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def to_obj(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_block_id(cls, ids) -> "Partition":
        groups: dict[int, list[int]] = {}
        for x, b in enumerate(ids):
            groups.setdefault(b, []).append(x)
        blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
        return cls(tuple(blocks))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        seen = [False] * n
        norm = []
        for block in blocks:
            members = sorted(block)
            if not members:
                raise SizeMismatch("empty block")
            for x in members:
                if not 0 <= x < n or seen[x]:
                    raise SizeMismatch(f"element {x} repeated or out of range")
                seen[x] = True
            norm.append(tuple(members))
        if not all(seen):
            raise SizeMismatch("blocks do not cover {0..n-1}")
        norm.sort(key=lambda b: b[0])
        return cls(tuple(norm))

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(tuple((x,) for x in range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))


def _sort_key(P: Partition):
    return (-P.num_blocks, P.block_id)


def is_meet_congruence(S: SemilatticeTable, P: Partition) -> bool:
    """True iff x ~ y implies x^z ~ y^z for all z."""
    if P.n != S.n:
        raise SizeMismatch(f"partition of {P.n} elements against n={S.n}")
    return kernels.op_compatible(S.n, S.meet_flat, P.block_id)


def congruence_generated(S: SemilatticeTable, pairs) -> Partition:
    """Least meet congruence collapsing every given pair (union-find fixpoint)."""
    flat = []
    for x, y in pairs:
        if not (0 <= x < S.n and 0 <= y < S.n):
            raise SizeMismatch(f"pair ({x},{y}) out of range")
        flat.append(x)
        flat.append(y)
    ids = kernels.congruence_closure(S.n, S.meet_flat, flat)
    return Partition.from_block_id(ids)


def all_meet_congruences(S: SemilatticeTable, max_n: int = 10) -> list[Partition]:
    """Every meet congruence of S, deterministically ordered.

    Generated as the join closure of the cover congruences Cg(a, b) (a
    covered by b), which reaches every congruence theta because:

    - Cg(x, y) = Cg(x^y, x) v Cg(x^y, y), so theta is the join of the
      Cg(a, b) with a < b inside one theta-block;
    - for a < b, Cg(a, b) is the join of the cover congruences along a
      maximal chain from a to b, and blocks are convex, so those covers lie
      inside the block too.

    The worklist holds dense first-occurrence block-id tuples (what the
    closure kernel returns); each found tuple is joined with every cover it
    does not yet collapse.  The Bell scan stays available as an independent
    oracle (``all_meet_congruences_bruteforce``).
    """
    if S.n > max_n:
        raise TooLarge(f"n={S.n} exceeds bound {max_n}")
    n = S.n
    flat = S.meet_flat
    identity = tuple(range(n))
    found = {identity}
    work = [identity]
    while work:
        ids = work.pop()
        spanning = []
        reps = []
        for x, b in enumerate(ids):
            if b == len(reps):
                reps.append(x)
            else:
                spanning += (reps[b], x)
        for a, b in S.covers:
            if ids[a] != ids[b]:
                joined = tuple(kernels.congruence_closure(n, flat, spanning + [a, b]))
                if joined not in found:
                    found.add(joined)
                    work.append(joined)
    return sorted(map(Partition.from_block_id, found), key=_sort_key)


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


def all_meet_congruences_bruteforce(S: SemilatticeTable, max_n: int = 8) -> list[Partition]:
    """Bell-number scan over all partitions; the slow oracle for the fast path."""
    if S.n > max_n:
        raise TooLarge(f"n={S.n} exceeds bound {max_n}")
    n = S.n
    flat = S.meet_flat
    out = [
        Partition.from_block_id(ids)
        for ids in _set_partition_ids(n)
        if kernels.op_compatible(n, flat, ids)
    ]
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


def join_table_flat(S: SemilatticeTable) -> tuple[int, ...]:
    """Total join table of a lattice, flattened row-major."""
    if not is_lattice(S):
        raise NotALattice("no greatest element")
    n = S.n
    meet = S.meet
    out = []
    for x in range(n):
        for y in range(n):
            ub = S.above_mask[x] & S.above_mask[y]
            it = _bits(ub)
            v = next(it)
            for z in it:
                v = meet[v][z]
            out.append(v)
    return tuple(out)


def all_lattice_congruences(S: SemilatticeTable, max_n: int = 10) -> list[Partition]:
    """Meet congruences that are also compatible with the join."""
    join_flat = join_table_flat(S)
    return [
        P
        for P in all_meet_congruences(S, max_n=max_n)
        if kernels.op_compatible(S.n, join_flat, P.block_id)
    ]


def count_interval_block_equivalences(S: SemilatticeTable, max_n: int = 10) -> int:
    """Number of equivalences on S all of whose blocks are intervals [a, b]."""
    if S.n > max_n:
        raise TooLarge(f"n={S.n} exceeds bound {max_n}")
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
