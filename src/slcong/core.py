"""Finite meet semilattices as explicit operation tables.

Elements are the indices 0..n-1 and index 0 is always the least element;
``validate`` rejects tables that violate this instead of relabeling.  The
derived order is x <= y iff meet(x, y) == x.  Subsets of the carrier are
bitmasks throughout (bit i = element i), and meets, joins and covers are
read off the down-set and up-set masks, covers off the rows.  The
quasi-tree construction kit (``attach_above``, ``extend_below``) and the
catalog, chains aside, build their tables from lower covers through
``from_covers``.  Classes are named by canonical certificate;
``partial_join``, the isomorphism search and the glb scan of the
enumeration oracle serve the oracles only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import (
    ArgumentIsZero,
    InternalInconsistency,
    MalformedTable,
    NoLeastAtZero,
    NotAssociative,
    NotCommutative,
    NotComparable,
    NotIdempotent,
    SemilatticeError,
    TooLarge,
    UnknownName,
)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Ubta(NamedTuple):
    """Upper bounded two-element antichain {a, b} with its join v."""

    a: int
    b: int
    v: int


class UbtaFamily(tuple):
    """All UBTAs of a semilattice, repetition-free, in lexicographic (a, b) order."""

    @property
    def t(self) -> int:
        return len(self)


@dataclass(frozen=True)
class SemilatticeTable:
    """An n-element meet semilattice given by its full n x n meet table.

    Instances are immutable and hashable; construct them through
    ``validate``, ``named`` or the builders below rather than directly.
    """

    meet: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.meet)

    @cached_property
    def below_mask(self) -> tuple[int, ...]:
        """below_mask[x] = bitmask of {z : z <= x}, read off row x.

        The walk builds each child with it (``_with_masks``).
        A child's new meets are found from it: a join-closed ideal I meets
        ↓x in a principal down-set, since I ∩ ↓x holds 0 and the join of any
        two of its elements (bounded by x, kept by I), so it is ↓ of its
        largest element, the new element's meet with x.
        """
        return tuple(
            sum(1 << z for z, m in enumerate(row) if m == z) for row in self.meet
        )

    @cached_property
    def above_mask(self) -> tuple[int, ...]:
        """above_mask[x] = bitmask of {z : x <= z}.

        The up-set of x determines x, so ``ubtas`` finds a join by looking
        its upper-bound set up among the up-sets.
        """
        n = self.n
        meet = self.meet
        return tuple(
            sum(1 << z for z in range(n) if meet[x][z] == x) for x in range(n)
        )

    def leq(self, x: int, y: int) -> bool:
        return self.meet[x][y] == x

    def upper_bound_mask(self, x: int, y: int) -> int:
        return self.above_mask[x] & self.above_mask[y]

    def partial_join(self, x: int, y: int) -> int | None:
        """Least upper bound of x, y in S+, or None when {x, y} has no upper bound.

        The join is the meet of the (nonempty) upper-bound set.
        """
        if x == 0 or y == 0:
            raise ArgumentIsZero(f"partial_join is defined on S+ only, got ({x},{y})")
        ub = self.upper_bound_mask(x, y)
        if not ub:
            return None
        meet = self.meet
        it = _bits(ub)
        v = next(it)
        for z in it:
            v = meet[v][z]
        return v

    @cached_property
    def ubtas(self) -> UbtaFamily:
        """Every incomparable a, b in S+ with ub = above[a] & above[b] != 0,
        with a∨b read off the up-sets: the upper bounds of {a, b} form
        ↑(a∨b), since their meet is itself an upper bound below each, so
        a∨b is the element whose up-set is ub."""
        above = self.above_mask
        element_of = {u: z for z, u in enumerate(above)}
        items = []
        n = self.n
        for a in range(1, n):
            up_a = above[a]
            for b in range(a + 1, n):
                up_b = above[b]
                if up_a >> b & 1 or up_b >> a & 1:
                    continue
                ub = up_a & up_b
                if ub:
                    items.append(Ubta(a, b, element_of[ub]))
        return UbtaFamily(items)

    def interval(self, a: int, b: int) -> tuple[int, ...]:
        """The interval [a, b] = {x : a <= x <= b}, ascending."""
        if not self.leq(a, b):
            raise NotComparable(f"{a} is not below {b}")
        return tuple(_bits(self.above_mask[a] & self.below_mask[b]))

    def is_convex_subsemilattice(self, elements: Iterable[int]) -> bool:
        """True iff the set is nonempty, meet-closed and order-convex."""
        mask = 0
        for e in elements:
            mask |= 1 << e
        if not mask:
            return False
        members = list(_bits(mask))
        meet = self.meet
        for i, x in enumerate(members):
            for y in members[i:]:
                if not mask & (1 << meet[x][y]):
                    return False
        for y in range(self.n):
            if mask & (1 << y):
                continue
            if self.below_mask[y] & mask and self.above_mask[y] & mask:
                return False
        return True

    def lower_covers(self) -> list[list[int]]:
        """The list whose entry x lists the elements that x covers, ascending.

        Read off the rows, so a table without its down-set masks, such as a
        quotient, never builds them here: row x of the meet table holds
        exactly the down-set of x, and an element with the largest down-set
        in a set is maximal there, so taking it and dropping its down-set,
        until nothing is left, picks out the maximal elements of the strict
        down-set of x.
        """
        downs = [set(row) for row in self.meet]
        size = list(map(len, downs)).__getitem__
        out = []
        for x, down in enumerate(downs):
            rest = down.copy()
            rest.discard(x)
            found = []
            while rest:
                z = max(rest, key=size)
                found.append(z)
                rest -= downs[z]
            found.sort()
            out.append(found)
        return out

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The cover relation as (lower, upper) pairs, lexicographic."""
        return tuple(sorted((z, x) for x, lower in enumerate(self.lower_covers()) for z in lower))

    @cached_property
    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(
            x for x in range(self.n) if self.above_mask[x] == 1 << x
        )

    def has_top(self) -> bool:
        return len(self.maximal_elements) == 1

    def subsemilattice(self, elements: Iterable[int]) -> tuple["SemilatticeTable", tuple[int, ...]]:
        """Extract a meet-closed subset as a standalone semilattice.

        Returns the new table and the tuple of original element indices in
        new-index order; the subset's least element becomes index 0.
        """
        members = sorted(set(elements))
        if not members:
            raise SemilatticeError("empty subset")
        meet = self.meet
        u = members[0]
        for e in members[1:]:
            u = meet[u][e]
        member_set = set(members)
        if u not in member_set:
            raise SemilatticeError("subset is not meet-closed")
        order = [u] + [e for e in members if e != u]
        pos = {e: i for i, e in enumerate(order)}
        rows = []
        for x in order:
            row = []
            for y in order:
                m = meet[x][y]
                if m not in member_set:
                    raise SemilatticeError("subset is not meet-closed")
                row.append(pos[m])
            rows.append(tuple(row))
        return SemilatticeTable(tuple(rows)), tuple(order)

    def relabel(self, perm: list[int] | tuple[int, ...]) -> "SemilatticeTable":
        """Copy with element x renamed to perm[x]."""
        n = self.n
        inv = [0] * n
        for x in range(n):
            inv[perm[x]] = x
        meet = self.meet
        return SemilatticeTable(
            tuple(
                tuple(perm[meet[inv[p]][inv[q]]] for q in range(n))
                for p in range(n)
            )
        )

    def to_obj(self) -> dict:
        return {"n": self.n, "meet": [list(row) for row in self.meet]}

    def to_covers_obj(self) -> dict:
        """{"n": n, "covers": lower covers of each element}, the input of
        ``from_covers``; a tree has n - 1 covers."""
        return {"n": self.n, "covers": self.lower_covers()}

    def __repr__(self) -> str:
        return f"SemilatticeTable(n={self.n})"


def _with_masks(
    meet: tuple[tuple[int, ...], ...], below: tuple[int, ...], above: tuple[int, ...]
) -> SemilatticeTable:
    """The table of ``meet``, built with its down-set and up-set masks
    already known, so ``below_mask`` and ``above_mask`` are not recomputed
    from the rows.  Equality and hashing stay on ``meet``."""
    table = SemilatticeTable(meet)
    table.__dict__["below_mask"] = below
    table.__dict__["above_mask"] = above
    return table


def validate(raw_table) -> SemilatticeTable:
    """Check the semilattice axioms on a raw n x n table.

    Raises the InvalidTable subclass naming the first violation found in
    row-major scan order.
    """
    if not isinstance(raw_table, (list, tuple)) or len(raw_table) == 0:
        raise MalformedTable("table must be a nonempty square matrix")
    n = len(raw_table)
    rows = []
    for x, row in enumerate(raw_table):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise MalformedTable(f"expected {n} rows of length {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise MalformedTable(f"meet[{x}][{y}] is not an element index in 0..{n - 1}")
        rows.append(tuple(row))
    meet = tuple(rows)
    for x in range(n):
        if meet[x][x] != x:
            raise NotIdempotent(x)
    for x in range(n):
        for y in range(x + 1, n):
            if meet[x][y] != meet[y][x]:
                raise NotCommutative(x, y)
    # Given idempotence and commutativity, meet is associative iff
    # z <= x :<=> meet(x, z) == z is a partial order with meet as its greatest
    # lower bound, iff below[meet(x, y)] == below[x] & below[y] for all x, y:
    # the test gives transitivity at y <= x, antisymmetry is commutativity,
    # and meet(x, y) lies in its own down-set.  The triple scan runs only to
    # name the first violation.  The masks stay cached on the returned table.
    table = SemilatticeTable(meet)
    below = table.below_mask
    for x, row in enumerate(meet):
        bx = below[x]
        for y in range(x + 1, n):
            if below[row[y]] != bx & below[y]:
                _raise_first_nonassociative(meet)
    for x in range(n):
        if meet[0][x] != 0:
            raise NoLeastAtZero(x)
    return table


def _raise_first_nonassociative(meet) -> None:
    """Name the first non-associative triple in row-major scan order."""
    rng = range(len(meet))
    for x in rng:
        for y in rng:
            for z in rng:
                if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
                    raise NotAssociative(x, y, z)
    raise InternalInconsistency("down-set test failed on an associative table")


def from_covers(covers: list[list[int]]) -> SemilatticeTable:
    """Build and validate the table whose element x covers those in covers[x]."""
    n = len(covers)
    for x, row in enumerate(covers):
        if not isinstance(row, (list, tuple)):
            raise MalformedTable(f"covers[{x}] is not a list")
        for i, c in enumerate(row):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n:
                raise MalformedTable(f"covers[{x}][{i}] is not an element index in 0..{n - 1}")
    below = [1 << x for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for c in covers[x]:
                merged = below[x] | below[c]
                if merged != below[x]:
                    below[x] = merged
                    changed = True
    # x^y has the down-set below[x] & below[y]; on a tie (cyclic covers) the smallest wins
    element_of = {below[z]: z for z in reversed(range(n))}
    rows = [[element_of.get(bx & by) for by in below] for bx in below]
    for x, row in enumerate(rows):
        if None in row:
            raise MalformedTable(f"elements {x},{row.index(None)} have no greatest lower bound")
    return validate(rows)


_CHAIN_RE = re.compile(r"^chain_([1-9]\d*)$")
CHAIN_MAX_K = 1000  # chain_k builds a k x k table

_NAMED_COVERS = {
    # b4: atoms 1,2 under top 3
    "b4": [[], [0], [0], [1, 2]],
    # n5: 0 < 1 < 3 < 4 and 0 < 2 < 4
    "n5": [[], [0], [0], [1], [2, 3]],
    # m3: atoms 1,2,3 under top 4
    "m3": [[], [0], [0], [0], [1, 2, 3]],
    # f ("bowtie"): atoms 1,2,3; tops 4 = 1 v 2 and 5 = 2 v 3, incomparable
    "f": [[], [0], [0], [0], [1, 2], [2, 3]],
    # n6: chain 0 < 1 < 2 < 3 beside atom 4, common top 5
    "n6": [[], [0], [1], [2], [0], [3, 4]],
    # grid2x3: the 2-chain times the 3-chain, (i, j) -> 3*i + j
    "grid2x3": [[], [0], [1], [0], [1, 3], [2, 4]],
}


@lru_cache(maxsize=None)
def named(name: str) -> SemilatticeTable:
    """Fixed catalog tables; labelings are documented in docs/formats.md."""
    m = _CHAIN_RE.match(name)
    if m:
        digits = m.group(1)
        if len(digits) > len(str(CHAIN_MAX_K)) or int(digits) > CHAIN_MAX_K:
            raise TooLarge(f"chain_k needs k <= {CHAIN_MAX_K}")
        k = int(digits)
        return SemilatticeTable(
            tuple(tuple(min(i, j) for j in range(k)) for i in range(k))
        )
    if name in _NAMED_COVERS:
        return from_covers(_NAMED_COVERS[name])
    raise UnknownName(name)


def attach_above(S: SemilatticeTable, x: int, T: SemilatticeTable) -> SemilatticeTable:
    """Attach the tree semilattice T above element x of S.

    The copy of T takes the indices n..n+|T|-1 and its least element covers
    x, so meets inside the copy are T-meets and the meet of an attached
    element with an old element y is meet_S(x, y).  The UBTA family of S is
    unchanged.
    """
    if T.ubtas:
        raise SemilatticeError("attachment must be a tree semilattice")
    if not 0 <= x < S.n:
        raise SemilatticeError(f"no element {x}")
    n = S.n
    upper = [[n + c for c in row] for row in T.lower_covers()]
    upper[0] = [x]
    return from_covers(S.lower_covers() + upper)


def extend_below(S: SemilatticeTable, k: int) -> SemilatticeTable:
    """Hang the chain 0 < ... < k-1 below the least element of S, shifted by
    k; meets are min on the chain and S-meets plus k elsewhere."""
    if k < 0:
        raise SemilatticeError("chain length must be nonnegative")
    if k == 0:
        return S
    upper = [[k + c for c in row] for row in S.lower_covers()]
    upper[0] = [k - 1]
    return from_covers([[]] + [[i] for i in range(k - 1)] + upper)


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.
#
# The canonical search colors each element by its (down-set size, up-set
# size) pair (``_colors``) and tries only the labelings that place the
# color classes in ascending order of their pairs, each class in any order.
# A labeling's certificate is its relabeled table below the diagonal, row by
# row, and the canonical form is the table of the least certificate.  That
# form is canonical:
#   - Color is invariant under isomorphism: an isomorphism maps ↓x onto the
#     down-set of the image of x and ↑x onto its up-set, so the image has
#     x's pair, and isomorphic tables have the same multiset of pairs.  So
#     composing with an isomorphism S -> T maps the color-consistent
#     labelings of T onto those of S with the same certificates: isomorphic
#     tables have the same set of certificates, and the same least one.
#   - A certificate determines its table, which is isomorphic to S through
#     the labeling, so tables with one canonical form are isomorphic.
# Because the first component is the down-set size, color order is a
# linear extension: anything strictly below x has a smaller down-set, so a
# strictly smaller color.  The last position holds an element with the
# largest down-set, which is maximal, so the deletion target of
# ``enumeration`` is a maximal element.
#
# The isomorphism oracle ``_iso_search`` starts from the same invariant,
# the (down-set size, up-set size) pairs, but computes it itself and shares
# no code with the canonical search.
#
# Besides the canonical certificate, the search returns generators of
# Aut(S): best⁻¹ ∘ pos_of for every leaf whose certificate equals the best
# one, and each such generator prunes the search.  The argument:
#   1. Aut(S) keeps colors, so it maps the search tree onto itself, and it
#      keeps each leaf's certificate.  Two leaves have equal certificates
#      iff they differ by an automorphism.
#   2. Backjump.  A generator γ from a leaf equal to the best fixes their
#      common prefix ν pointwise and maps the subtree of the leaf's child at
#      ν onto the subtree of the best's child at ν, which the depth-first
#      search has already finished.  So the rest of the first subtree holds
#      only certificates already seen, and the search resumes at ν.
#   3. Orbit skip.  The same holds for any δ in the group spanned by the
#      generators that fix ν pointwise, so a child of ν in the orbit of a
#      processed sibling under that group is skipped.  Generators that move
#      ν map ν's subtree elsewhere and must not be used.
#   4. Generation.  Bounding never cuts a leaf of least certificate.  Every
#      such leaf is either visited, and then recorded against the best, or
#      it is the image of an earlier one under recorded generators (2, 3).
#      So the generators span Aut(S), which the orbit tests of
#      ``enumeration`` rely on.  The first such leaf in search order is
#      never skipped, so it is the best one, as without pruning.
#
# Most positions are forced: the positions of a color class are
# consecutive, and at the last one, as at every position of a one-element
# class, a single member is left to place (91,378 of the 127,111 nodes of
# the search trees of ``enumerate_semilattices(9)``).  A forced position
# needs no candidate list, no sort and no orbit test, so the search places
# a run of them in a loop inside the current frame and recurses only at a
# branch position, one with two or more candidates.  A backjump never
# targets a forced position, where a leaf cannot leave the best one's
# path, and a run passes a backjump up only when its target lies before
# the run; a target inside it ends the run.
#
# The bound "rows[:p] equals the best certificate's prefix and the
# candidate row exceeds its row p" reads one int, the depth ``common`` to
# which the placed rows agree with the best certificate (-1 before the
# first leaf).  It grows as a row equal to the best's is placed on the
# agreeing prefix, shrinks as rows are removed, and is n once a leaf
# becomes the best.  A leaf with common < n is a new best: where it first
# leaves the best's path, the bound kept its row at most the best's.
#
# No closure here may refer to itself.  A nested function that calls itself
# holds the cell that holds it, so each call of its builder leaves a
# reference cycle that keeps the search's lists until the cyclic collector
# runs: one per search made the collector 8.7% of ``spectrum(9, top=4,
# jobs=1)`` (0.064 of 0.735 s, Python 3.11 on 2 cores), 0.6% without.  So
# ``rec`` is cleared when a search ends, here and in ``_iso_search``, and
# the recursions of ``congruences`` are module-level functions.
# ---------------------------------------------------------------------------


def _colors(S: SemilatticeTable) -> list[tuple[int, int]]:
    """The color of each element: its (down-set size, up-set size) pair."""
    return [(b.bit_count(), a.bit_count()) for b, a in zip(S.below_mask, S.above_mask)]


def _orbit(points: list[int], generators: list[list[int]]) -> int:
    """Bitmask of the orbit of some points under the group the generators span."""
    mask = 0
    for x in points:
        mask |= 1 << x
    todo = list(points)
    while todo:
        x = todo.pop()
        for g in generators:
            y = g[x]
            if not mask >> y & 1:
                mask |= 1 << y
                todo.append(y)
    return mask


def _canonical_search(S: SemilatticeTable):
    """Lexicographically least relabeling consistent with the color classes
    (``_colors``).

    Returns (rows, perm, generators): rows is the canonical certificate (row
    p holds the positions of the meets of the element placed at p with
    positions 0..p-1), perm maps element -> position, and generators are
    automorphisms of S, each a list g with g[x] the image of x, that
    generate the whole automorphism group.

    Each generator comes from a leaf whose certificate equals the best one,
    and prunes the search: by a backjump to the first depth where that leaf
    leaves the best one's path, and, at each node, by skipping a child in
    the orbit of a processed sibling under the generators that fix the
    node's prefix pointwise.  A position whose class has one member left is
    forced and placed in a loop, without a frame of its own; the bound reads
    the depth ``common`` to which the placed rows agree with the best.  The
    comment block above gives the argument for each, and the reason ``rec``
    is cleared at the end.
    """
    n = S.n
    meet = S.meet
    color = _colors(S)
    order = sorted(range(n), key=color.__getitem__)
    members: list[list[int]] = [order] * n  # members[p]: the class of position p
    forced = [False] * n
    first = 0
    for p in range(1, n + 1):
        if p == n or color[order[p]] != color[order[first]]:
            members[first:p] = [order[first:p]] * (p - first)
            forced[p - 1] = True
            first = p

    generators: list[list[int]] = []
    pos_of = [-1] * n
    chosen: list[int] = []  # the elements placed at positions 0, 1, ...
    rows: list[tuple[int, ...]] = []
    best_rows = best_perm = best_chosen = None
    common = -1

    def rec(p: int) -> int:
        """Place the forced positions from p on, then search below them;
        return n, or the depth that a leaf equal to the best backjumps to."""
        nonlocal best_rows, best_perm, best_chosen, common
        start = p
        d = n
        while p < n and forced[p]:
            for e in members[p]:
                if pos_of[e] < 0:
                    break
            row = tuple([pos_of[meet[e][c]] for c in chosen])
            if common == p:
                if row > best_rows[p]:
                    break
                if row == best_rows[p]:
                    common = p + 1
            pos_of[e] = p
            chosen.append(e)
            rows.append(row)
            p += 1
        else:  # the run reached a leaf or a branch position
            if p == n:
                if common < n:
                    best_rows, best_perm, best_chosen = tuple(rows), pos_of.copy(), chosen.copy()
                    common = n
                else:
                    generators.append([best_chosen[q] for q in pos_of])
                    d = next(q for q in range(n) if chosen[q] != best_chosen[q])
            else:
                cands = [
                    (tuple([pos_of[meet[e][c]] for c in chosen]), e)
                    for e in members[p]
                    if pos_of[e] < 0
                ]
                cands.sort()
                done: list[int] = []
                for row, e in cands:
                    if done and generators:
                        stab = [g for g in generators if all(g[x] == x for x in chosen)]
                        if _orbit(done, stab) >> e & 1:
                            continue
                    if common == p:
                        if row > best_rows[p]:
                            break
                        if row == best_rows[p]:
                            common = p + 1
                    pos_of[e] = p
                    chosen.append(e)
                    rows.append(row)
                    d = rec(p + 1)
                    pos_of[e] = -1
                    chosen.pop()
                    rows.pop()
                    common = min(common, p)
                    if d < p:
                        break
                    done.append(e)
        for e in chosen[start:]:
            pos_of[e] = -1
        del chosen[start:], rows[start:]
        return d if d < start else n

    try:
        rec(0)
    finally:
        rec = None
    return best_rows, best_perm, generators


def canonical_key(S: SemilatticeTable):
    """Hashable canonical certificate of S."""
    return _canonical_search(S)[0]


def canonical_with_perm(S: SemilatticeTable) -> tuple[SemilatticeTable, list[int], list[list[int]]]:
    """Canonical form of S, the map element -> position into it, and
    generators of Aut(S), each a list g with g[x] the image of x (none when
    the group is trivial), all from one search.  Its last position holds a
    maximal element of largest down-set."""
    rows, perm, generators = _canonical_search(S)
    n = S.n
    meet = tuple(
        row + (p,) + tuple([rows[q][p] for q in range(p + 1, n)]) for p, row in enumerate(rows)
    )
    return SemilatticeTable(meet), perm, generators


def canonical_form(S: SemilatticeTable) -> SemilatticeTable:
    """Relabeled copy such that isomorphic inputs yield identical tables."""
    return canonical_with_perm(S)[0]


def _iso_search(S1: SemilatticeTable, S2: SemilatticeTable):
    """Backtracking search for a meet-preserving bijection S1 -> S2."""
    if S1.n != S2.n:
        return None
    n = S1.n
    c1, c2 = (
        [(d.bit_count(), u.bit_count()) for d, u in zip(S.below_mask, S.above_mask)]
        for S in (S1, S2)
    )
    if sorted(c1) != sorted(c2):
        return None
    order = sorted(range(n), key=lambda x: (c1[x], x))
    pools: dict[tuple[int, int], list[int]] = {}
    for y in range(n):
        pools.setdefault(c2[y], []).append(y)
    phi = [-1] * n
    used = [False] * n
    m1, m2 = S1.meet, S2.meet

    def rec(i: int):
        if i == n:
            return phi.copy()
        x = order[i]
        for y in pools.get(c1[x], ()):
            if used[y]:
                continue
            phi[x] = y
            used[y] = True
            if all(phi[m1[x][z]] == m2[y][phi[z]] for z in order[: i + 1]):
                res = rec(i + 1)
                if res is not None:
                    return res
            phi[x] = -1
            used[y] = False
        return None

    try:
        return rec(0)
    finally:
        rec = None


def are_isomorphic(S1: SemilatticeTable, S2: SemilatticeTable) -> bool:
    return _iso_search(S1, S2) is not None


def isomorphism_witness(S1: SemilatticeTable, S2: SemilatticeTable) -> list[int] | None:
    """A meet-preserving bijection as a list phi with phi[x] in S2, or None."""
    return _iso_search(S1, S2)
