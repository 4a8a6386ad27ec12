"""The partial join structure on S+ and join-closed subset counting.

A subset of S+ is join-closed iff it violates no UBTA clause a ^ b -> a v b.
Clauses on disjoint element sets constrain disjoint bits, so for a table
wider than one scan block (n - 1 > ``kernels.BLOCK_BITS``) ``count`` splits
the clauses into connected components over the elements they mention,
counts each component on its own bits, multiplies the results and doubles
the product once per element that no clause mentions.  Each component, and
a table that fits in one block or does not split, is counted along one of
two routes: the kernel's block scan over all subsets of its bits and an
inclusion-exclusion sum over its clauses.  The whole-table scan and sum stay
as oracles.  All routes agree with the congruence count of the host
semilattice; ``verify_duality`` checks the full dual correspondence at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .congruences import CONGRUENCE_MAX_N, Partition, all_meet_congruences
from .core import SemilatticeTable, _bits
from .errors import (
    ContainsZero,
    DualityViolation,
    NotJoinClosed,
    SizeMismatch,
    TooLarge,
    TooManyUbtas,
)

BRUTE_FORCE_MAX_N = 25
INCLUSION_EXCLUSION_MAX_T = 20


def _method(nbits: int, t: int) -> str | None:
    """The cheaper in-bounds route for t clauses on nbits bits: "incl-excl"
    when t <= max(1, nbits - BLOCK_BITS - 1), one clause short of where its
    2^t terms were measured to cost as much as the block scan, or when the
    scan is out of bounds; else "subsets"; None when both are out of
    bounds."""
    ie_ok = t <= INCLUSION_EXCLUSION_MAX_T
    scan_ok = nbits < BRUTE_FORCE_MAX_N
    if ie_ok and (not scan_ok or t <= max(1, nbits - kernels.BLOCK_BITS - 1)):
        return "incl-excl"
    return "subsets" if scan_ok else None


def _inclusion_exclusion(nbits: int, clauses) -> int:
    """Number of masks in [0, 2^nbits) that violate no clause, as
    2^nbits - |U_1 u ... u U_t|.

    U_i is the family of masks holding the i-th clause's need but no bit of
    its join; an intersection over T is empty when some needed bit is also a
    forbidden join, and has 2^(nbits-|A_T u V_T|) members otherwise.
    """
    total = 0
    for sub in range(1 << len(clauses)):
        need = 0
        forbidden = 0
        for i in _bits(sub):
            pair, join = clauses[i]
            need |= pair
            forbidden |= join
        if need & forbidden:
            continue
        term = 1 << (nbits - (need | forbidden).bit_count())
        total += -term if sub.bit_count() & 1 else term
    return total


@dataclass(frozen=True)
class PartialJoinStructure:
    """S+ = S \\ {0} with the partial join a v b, defined iff {a, b} has an upper bound."""

    host: SemilatticeTable

    @property
    def n(self) -> int:
        return self.host.n

    @cached_property
    def clauses(self) -> tuple[tuple[int, int], ...]:
        """Per UBTA {a, b} with join v, the kernel clause (mask of {a, b},
        mask of {v}) over S+ bits (element i -> bit i-1)."""
        return tuple(
            ((1 << (a - 1)) | (1 << (b - 1)), 1 << (v - 1)) for a, b, v in self.host.ubtas
        )

    def _as_mask(self, elements) -> int:
        mask = 0
        for e in elements:
            if e == 0:
                raise ContainsZero("subsets of S+ cannot contain 0")
            if not 1 <= e < self.n:
                raise SizeMismatch(f"element {e} out of range for n={self.n}")
            mask |= 1 << (e - 1)
        return mask

    def _mask_ok(self, mask: int) -> bool:
        for need, join in self.clauses:
            if mask & need == need and not mask & join:
                return False
        return True

    def is_join_closed(self, elements) -> bool:
        """True iff no UBTA inside the subset has its join outside it.

        Comparable pairs never violate closure (their join is the larger
        element), so only the UBTA clauses matter; the empty set counts
        as join-closed.
        """
        return self._mask_ok(self._as_mask(elements))

    def join_closed_masks(self) -> list[int]:
        """All join-closed subsets of S+ as bitmasks, ascending."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise TooLarge(f"n={self.n} exceeds bound {BRUTE_FORCE_MAX_N}")
        return kernels.list_join_closed(self.n - 1, self.clauses)

    def count_bruteforce(self) -> int:
        """|Sub(S+)| by scanning all 2^(n-1) subsets."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise TooLarge(f"n={self.n} exceeds bound {BRUTE_FORCE_MAX_N}")
        return kernels.scan_join_closed(self.n - 1, self.clauses)

    def count_inclusion_exclusion(self) -> int:
        """|Sub(S+)| = 2^(n-1) - |U_1 u ... u U_t| by inclusion-exclusion."""
        t = len(self.clauses)
        if t > INCLUSION_EXCLUSION_MAX_T:
            raise TooManyUbtas(f"t={t} exceeds bound {INCLUSION_EXCLUSION_MAX_T}")
        return _inclusion_exclusion(self.n - 1, self.clauses)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], int]:
        """The clauses split into connected components over the S+ bits they
        mention, and the number of free bits, which no clause mentions.

        Each component is (width, its clauses re-indexed to bits 0..width-1).
        A mask is join-closed iff its restriction to every component is, and
        the free bits are unconstrained, so |Sub(S+)| is 2^free times the
        product of the components' counts.
        """
        spans = []  # (bits mentioned, clauses) per component, pairwise disjoint
        for clause in self.clauses:
            bits = clause[0] | clause[1]
            merged, clauses, rest = bits, [], []
            for part in spans:
                if part[0] & bits:
                    merged |= part[0]
                    clauses += part[1]
                else:
                    rest.append(part)
            spans = rest + [(merged, clauses + [clause])]
        parts = []
        mentioned = 0
        for bits, clauses in spans:
            mentioned |= bits
            if bits & (bits + 1):  # re-index onto bits 0..width-1
                moved = {b: 1 << i for i, b in enumerate(_bits(bits))}.__getitem__
                clauses = [
                    (sum(map(moved, _bits(a))), sum(map(moved, _bits(v)))) for a, v in clauses
                ]
            parts.append((bits.bit_count(), tuple(clauses)))
        return tuple(parts), self.n - 1 - mentioned.bit_count()

    def route(self) -> str:
        """The counting route ``count`` takes: "components", "incl-excl" or
        "subsets".

        A table whose 2^(n-1) subsets fit in one scan block (n - 1 <=
        BLOCK_BITS) is counted whole: the one-block scan costs less than
        splitting its clauses.  A larger table takes "components" when the
        clauses split nontrivially, into two or more components or into one
        beside a free bit; each component then takes the cheaper of the two
        routes below on its own bits.  Otherwise the whole table, w = n - 1
        bits, takes inclusion-exclusion when t <= max(1, w - BLOCK_BITS - 1)
        or the scan is out of bounds, and the scan otherwise.  Raises
        TooLarge, before any count starts, when the whole table or one
        component is out of both bounds.
        """
        if self.n - 1 > kernels.BLOCK_BITS:
            parts, free = self.components
            if len(parts) > 1 or (parts and free):
                for width, clauses in parts:
                    if _method(width, len(clauses)) is None:
                        raise TooLarge(
                            f"a component of {width} elements with t={len(clauses)}"
                            " exceeds both counting bounds"
                        )
                return "components"
        t = self.host.ubtas.t
        method = _method(self.n - 1, t)
        if method is None:
            raise TooLarge(f"n={self.n}, t={t} exceed both counting bounds")
        return method

    def count(self) -> int:
        """Exact |Sub(S+)| along the route named by ``route``."""
        route = self.route()
        if route == "incl-excl":
            return self.count_inclusion_exclusion()
        if route == "subsets":
            return self.count_bruteforce()
        parts, free = self.components
        total = 1 << free
        for width, clauses in parts:
            if _method(width, len(clauses)) == "incl-excl":
                total *= _inclusion_exclusion(width, clauses)
            else:
                total *= kernels.scan_join_closed(width, clauses)
        return total

    def dual_congruence(self, elements) -> Partition:
        """The congruence dual to the join-closed subset X.

        x ~ y iff the traces {u in X : u <= x} and {u in X : u <= y} agree.
        """
        mask = self._as_mask(elements)
        if not self._mask_ok(mask):
            raise NotJoinClosed("subset contains a UBTA without its join")
        return Partition(self._dual_ids(mask))

    def _dual_ids(self, mask: int) -> tuple[int, ...]:
        """The dual of the subset ``mask`` of S+ bits as dense first-occurrence
        block ids: x's id is the order in which its trace X n down(x) first
        occurs."""
        full = mask << 1  # back to element bits
        ids: dict[int, int] = {}
        return tuple([ids.setdefault(full & below, len(ids)) for below in self.host.below_mask])


def congruence_count(S: SemilatticeTable) -> int:
    """|Con(S)| computed on the subset side of the duality."""
    return PartialJoinStructure(S).count()


@dataclass(frozen=True)
class DualityReport:
    n: int
    subalgebra_count: int
    congruence_count: int


def verify_duality(S: SemilatticeTable) -> DualityReport:
    """Check that the dual map is an order anti-isomorphism onto Con(S).

    dual(X) relates x and y iff X meets the down-sets of x and y in the same
    set.  Each dual is built once, straight from those traces, as its dense
    first-occurrence block ids (``PartialJoinStructure._dual_ids``, the
    ids that ``dual_congruence`` wraps), and for each join-closed X the
    check asks:

    - steps: dual(X u {x}) refines dual(X) for each x not in X with
      X u {x} join-closed, that is, the distinct pairs of their block ids
      are as many as dual(X u {x}) has blocks; the pairs are found from
      the larger set, by removing each of its elements in turn;
    - dual(X) is a meet congruence (``kernels.op_compatible``);
    - inverse: X is the set of nonzero least elements of the blocks of
      dual(X) (the least element of a block is the meet of its members),
      read off the block ids in one pass;

    and then that the duals are exactly the block ids of
    ``all_meet_congruences(S)``.  The inverse makes the map injective, so it
    is a bijection onto Con(S), and X <= Y iff dual(Y) refines dual(X):

    (a) Let X < Y be join-closed and x maximal in Y \\ X.  Then X u {x} is
        closed: for a in X with {a, x} upper bounded, a v x is in Y and lies
        above x, so it is in X or is x.  So every inclusion is a chain of
        checked steps, and refinement is transitive.
    (b) If dual(Y) refines dual(X), each u in X is least in its
        dual(X)-block, so also in its dual(Y)-block; by the inverse on Y,
        u is in Y.

    Raises DualityViolation with the offending subsets if any check fails
    (which would indicate an implementation bug, never expected).
    """
    if S.n > CONGRUENCE_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {CONGRUENCE_MAX_N}")
    pj = PartialJoinStructure(S)
    masks = pj.join_closed_masks()
    duals = {m: pj._dual_ids(m) for m in masks}
    singles = [1 << x for x in range(S.n - 1)]
    for up, step in duals.items():
        blocks = max(step) + 1
        for bit in singles:
            if not up & bit:
                continue
            m = up ^ bit
            d = duals.get(m)
            if d is not None and len(set(zip(step, d))) != blocks:
                raise DualityViolation(
                    f"subsets {m:b}, {up:b}: inclusion is not reversed refinement"
                )
    meet = S.meet
    for m, d in duals.items():
        if not kernels.op_compatible(meet, d):
            raise DualityViolation(f"dual of {m:b} is not a congruence")
        low = []  # low[k]: the meet of block k's members seen so far
        for x, k in enumerate(d):
            if k == len(low):  # ids are first-occurrence, so x is k's first member
                low.append(x)
            else:
                low[k] = meet[low[k]][x]
        least = 0
        for v in low[1:]:  # block 0 holds 0
            least |= 1 << v
        if least != m << 1:
            raise DualityViolation(f"subset {m:b} is not the set of block minima of its dual")
    cons = all_meet_congruences(S)
    if {P.block_id for P in cons} != set(duals.values()):
        raise DualityViolation("dual image differs from the congruence set")
    return DualityReport(n=S.n, subalgebra_count=len(masks), congruence_count=len(cons))
