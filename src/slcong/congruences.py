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
Algebra*, ch. II), a union-find over blocks.  Enumeration is Close-by-One
over the cover congruences (Kuznetsov 1993; Ganter, ICFCA 2010): each
congruence is the join of the cover congruences below it, and it is
reached once, from one canonical parent.
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
    return Partition(kernels.congruence_closure(S.meet, pairs))


def _block_pairs(block_id) -> list[tuple[int, int]]:
    """(least member, member) for every member of a block but its least one:
    pairs that generate the partition ``block_id`` as an equivalence."""
    first: dict[int, int] = {}
    return [(f, x) for x, k in enumerate(block_id) if (f := first.setdefault(k, x)) != x]


def _joined_labels(block_id, num_blocks: int, pairs) -> tuple[list[int], int]:
    """The join, as equivalences, of the partition ``block_id`` (dense
    first-occurrence ids of ``num_blocks`` blocks) and the equivalence
    generated by ``pairs``, the transitive closure of their union: a map
    from each label of ``block_id`` to its block of the join, in dense
    first-occurrence ids, and the number of blocks of the join.

    A union-find over the labels of ``block_id``, in which the larger root
    points at the smaller, so a merged class keeps its least label and the
    live labels stay in first-occurrence order.
    """
    label = list(range(num_blocks))
    for x, y in pairs:
        u = block_id[x]
        while label[u] != u:
            u = label[u]
        v = block_id[y]
        while label[v] != v:
            v = label[v]
        if u < v:
            label[v] = u
        elif v < u:
            label[u] = v
    # parents are smaller labels, so one ascending pass renumbers every label
    live = 0
    for k, p in enumerate(label):
        if p == k:
            label[k] = live
            live += 1
        else:
            label[k] = label[p]
    return label, live


def all_meet_congruences(S: SemilatticeTable) -> list[Partition]:
    """Every meet congruence of S, deterministically ordered.

    Every congruence theta is the join of the cover congruences Cg(a, b)
    (a covered by b) below it, because:

    - Cg(x, y) = Cg(x^y, x) v Cg(x^y, y), so theta is the join of the
      Cg(a, b) with a < b inside one theta-block;
    - for a < b, Cg(a, b) is the join of the cover congruences along a
      maximal chain from a to b, and blocks are convex, so those covers lie
      inside the block too.

    So with G = (g_0, g_1, ...) the distinct cover congruences, in the order
    of ``S.covers``, theta -> {g in G : g <= theta} is a bijection from
    Con(S) onto the closed sets of the closure system whose closure of a
    set is the g below its join; g_k <= theta exactly when theta relates
    g_k's cover.  Close-by-One lists each closed set once (Kuznetsov, "A
    fast algorithm for computing all intersections of objects in a finite
    semi-lattice", 1993; Ganter, "Two basic algorithms in concept analysis",
    ICFCA 2010).  It starts from the identity, the closure of the empty set,
    since no cover congruence is the identity.  From theta, built by adding
    g_i, it tries only the g_j with j > i that theta leaves apart, and keeps
    theta v g_j only when that relates no earlier g_k which theta leaves
    apart: then theta is the canonical parent of theta v g_j.

    The meet is read once per cover: ``kernels.congruence_closure`` grows
    each Cg(a, b) from the identity, and equal ones are kept once.  After
    that no meet is read, because the join of two congruences in Con(S) is
    their join as equivalences, the transitive closure of their union
    (Burris & Sankappanavar, *A Course in Universal Algebra*, ch. II; Freese,
    "Computing congruence lattices of finite lattices", Proc. AMS 1997,
    lists Con this way too), formed by ``_joined_labels``; the canonicity
    test reads its label map before the block ids are built.  Each listed
    congruence carries its block count, which ``_joined_labels`` returns,
    so the list is sorted as plain (-blocks, block ids) tuples, the order of
    ``_sort_key``, and each is wrapped in a ``Partition`` once, after the
    sort.  The Bell scan stays available as an independent oracle
    (``all_meet_congruences_bruteforce``).
    """
    if S.n > CONGRUENCE_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {CONGRUENCE_MAX_N}")
    cover_congruences = {}
    for a, b in S.covers:
        cover_congruences.setdefault(kernels.congruence_closure(S.meet, [(a, b)]), (a, b))
    generators = [(a, b, _block_pairs(cg)) for cg, (a, b) in cover_congruences.items()]
    identity = tuple(range(S.n))
    listed = [(-S.n, identity)]  # (-blocks, theta), the order of _sort_key
    work = [(identity, S.n, 0)]  # (theta, its blocks, index of the first generator to try)
    while work:
        ids, num_blocks, start = work.pop()
        apart = []  # theta's labels of the covers of the earlier g_k it leaves apart
        for j, (a, b, pairs) in enumerate(generators):
            u = ids[a]
            v = ids[b]
            if u == v:
                continue
            if j >= start:
                label, blocks = _joined_labels(ids, num_blocks, pairs)
                for p, q in apart:
                    if label[p] == label[q]:
                        break
                else:
                    joined = tuple(map(label.__getitem__, ids))
                    listed.append((-blocks, joined))
                    work.append((joined, blocks, j + 1))
            apart.append((u, v))
    listed.sort()
    return [Partition(ids) for _, ids in listed]


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
