"""The partial join structure on S+ and join-closed subset counting.

Counting runs along two independent routes: a brute-force scan over all
2^(n-1) subsets and an inclusion-exclusion sum over the UBTA family.  Both
agree with the congruence count of the host semilattice; ``verify_duality``
checks the full dual correspondence at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .congruences import Partition, all_meet_congruences, is_meet_congruence
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
DUALITY_MAX_N = 8


@dataclass(frozen=True)
class PartialJoinStructure:
    """S+ = S \\ {0} with the partial join a v b, defined iff {a, b} has an upper bound."""

    host: SemilatticeTable

    @property
    def n(self) -> int:
        return self.host.n

    @cached_property
    def constraints(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per UBTA: (mask of {a, b}, mask of {v}) over S+ bits (element i -> bit i-1)."""
        pair_masks = []
        join_masks = []
        for a, b, v in self.host.ubtas:
            pair_masks.append((1 << (a - 1)) | (1 << (b - 1)))
            join_masks.append(1 << (v - 1))
        return tuple(pair_masks), tuple(join_masks)

    def join(self, x: int, y: int) -> int | None:
        return self.host.partial_join(x, y)

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
        pair_masks, join_masks = self.constraints
        for pm, jm in zip(pair_masks, join_masks):
            if mask & pm == pm and not mask & jm:
                return False
        return True

    def is_join_closed(self, elements) -> bool:
        """True iff no UBTA inside the subset has its join outside it.

        Comparable pairs never violate closure (their join is the larger
        element), so only the UBTA constraints matter; the empty set counts
        as join-closed.
        """
        return self._mask_ok(self._as_mask(elements))

    def join_closed_masks(self) -> list[int]:
        """All join-closed subsets of S+ as bitmasks, ascending."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise TooLarge(f"n={self.n} exceeds bound {BRUTE_FORCE_MAX_N}")
        pair_masks, join_masks = self.constraints
        return kernels.list_join_closed(self.n - 1, pair_masks, join_masks)

    def count_bruteforce(self) -> int:
        """|Sub(S+)| by scanning all 2^(n-1) subsets."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise TooLarge(f"n={self.n} exceeds bound {BRUTE_FORCE_MAX_N}")
        pair_masks, join_masks = self.constraints
        return kernels.scan_join_closed(self.n - 1, pair_masks, join_masks)

    def count_inclusion_exclusion(self) -> int:
        """|Sub(S+)| = 2^(n-1) - |U_1 u ... u U_t| by inclusion-exclusion.

        U_i is the family of subsets containing the i-th UBTA but not its
        join; an intersection over T is empty when some required generator
        is also a forbidden join, and has 2^(n-1-|A_T u V_T|) members
        otherwise.
        """
        pair_masks, join_masks = self.constraints
        t = len(pair_masks)
        if t > INCLUSION_EXCLUSION_MAX_T:
            raise TooManyUbtas(f"t={t} exceeds bound {INCLUSION_EXCLUSION_MAX_T}")
        total = 0
        nbits = self.n - 1
        for sub in range(1 << t):
            need = 0
            forbidden = 0
            for i in _bits(sub):
                need |= pair_masks[i]
                forbidden |= join_masks[i]
            if need & forbidden:
                continue
            term = 1 << (nbits - (need | forbidden).bit_count())
            total += -term if sub.bit_count() & 1 else term
        return total

    def route(self) -> str:
        """The counting route ``count`` takes: "incl-excl" or "subsets".

        Inclusion-exclusion when its 2^t terms cost no more than the
        2^(n-1)-subset scan or the scan is out of bounds; raises TooLarge
        when both routes are.
        """
        t = self.host.ubtas.t
        ie_ok = t <= INCLUSION_EXCLUSION_MAX_T
        bf_ok = self.n <= BRUTE_FORCE_MAX_N
        if ie_ok and (not bf_ok or (1 << t) * max(t, 1) <= (1 << (self.n - 1))):
            return "incl-excl"
        if bf_ok:
            return "subsets"
        raise TooLarge(f"n={self.n}, t={t} exceed both counting bounds")

    def count(self) -> int:
        """Exact |Sub(S+)| along the route named by ``route``."""
        if self.route() == "incl-excl":
            return self.count_inclusion_exclusion()
        return self.count_bruteforce()

    def dual_congruence(self, elements) -> Partition:
        """The congruence dual to the join-closed subset X.

        x ~ y iff the traces {u in X : u <= x} and {u in X : u <= y} agree.
        """
        mask = self._as_mask(elements)
        if not self._mask_ok(mask):
            raise NotJoinClosed("subset contains a UBTA without its join")
        return self._dual_of_mask(mask)

    def _dual_of_mask(self, mask: int) -> Partition:
        full = mask << 1  # back to element bits
        return Partition.from_block_id([full & below for below in self.host.below_mask])


def congruence_count(S: SemilatticeTable) -> int:
    """|Con(S)| computed on the subset side of the duality."""
    return PartialJoinStructure(S).count()


@dataclass(frozen=True)
class DualityReport:
    n: int
    subalgebra_count: int
    congruence_count: int
    bijective: bool
    order_reversing: bool

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "subalgebra_count": self.subalgebra_count,
            "congruence_count": self.congruence_count,
            "bijective": self.bijective,
            "order_reversing": self.order_reversing,
        }


def _relation_mask(P: Partition) -> int:
    """P as a relation on n elements: bit x*n + y is set iff x ~ y."""
    n = P.n
    out = 0
    for block in P.blocks:
        row = 0
        for y in block:
            row |= 1 << y
        for x in block:
            out |= row << (x * n)
    return out


def verify_duality(S: SemilatticeTable) -> DualityReport:
    """Check that the dual map is an order anti-isomorphism onto Con(S).

    Bijective onto the congruences, and mi <= mj iff dual(mj) <= dual(mi).

    Raises DualityViolation with the offending subsets if any check fails
    (which would indicate an implementation bug, never expected).
    """
    if S.n > DUALITY_MAX_N:
        raise TooLarge(f"n={S.n} exceeds bound {DUALITY_MAX_N}")
    pj = PartialJoinStructure(S)
    masks = pj.join_closed_masks()
    duals = [pj._dual_of_mask(m) for m in masks]
    seen: dict[Partition, int] = {}
    for m, d in zip(masks, duals):
        prev = seen.get(d)
        if prev is not None:
            raise DualityViolation(f"subsets {prev:b} and {m:b} share a dual")
        seen[d] = m
        if not is_meet_congruence(S, d):
            raise DualityViolation(f"dual of {m:b} is not a congruence")
    cons = all_meet_congruences(S)
    if set(cons) != set(seen):
        raise DualityViolation("dual image differs from the congruence set")
    relations = [_relation_mask(d) for d in duals]
    for mi, ri in zip(masks, relations):
        for mj, rj in zip(masks, relations):
            if (mi & ~mj == 0) != (rj & ~ri == 0):
                raise DualityViolation(f"subsets {mi:b}, {mj:b}: inclusion is not reversed refinement")
    return DualityReport(
        n=S.n,
        subalgebra_count=len(masks),
        congruence_count=len(cons),
        bijective=True,
        order_reversing=True,
    )
