"""Tree congruence, quasi-tree decomposition and the extremal classifier.

The tree congruence collapses every upper bounded two-element antichain
onto the interval between its meet and its join; quotienting by it always
yields a tree.  A quasi-tree is a semilattice whose tree congruence has
exactly one nonsingleton block, the nucleus; the quotient is the skeleton.
The classifier assigns one of the extremal classes from structural
predicates alone, naming a nucleus by its canonical certificate, and
cross-checks the congruence count computed by the counting route -- it
never infers the class from the count.  A nucleus is named through a cache
keyed by its labelled meet table (``_nucleus_class``): only tables with at
most six elements are looked up, so the cache is finite, and the walk's
classes share few labelled nuclei (10 among the 1,414 tables ``spectrum 9
--top 4 --jobs 1`` classifies in its one share).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .congruences import Partition, congruence_generated, quotient
from .core import SemilatticeTable, _bits, canonical_key, named
from .errors import (
    InternalInconsistency,
    NotConvexSubsemilattice,
    NotQuasiTree,
    SemilatticeError,
)
from .joinsub import congruence_count


class SemilatticeClass(enum.Enum):
    TREE = "Tree"
    NUCLEUS_B4 = "NucleusB4"
    NUCLEUS_N5 = "NucleusN5"
    NUCLEUS_F = "NucleusF"
    NUCLEUS_N6 = "NucleusN6"
    OTHER = "Other"


# Each nucleus class by the canonical certificate of its catalog nucleus,
# with the coefficient c of its congruence count c * 2^(n-6).
_NUCLEI = {
    canonical_key(named(name)): (cls, c)
    for name, cls, c in (
        ("b4", SemilatticeClass.NUCLEUS_B4, 28),
        ("n5", SemilatticeClass.NUCLEUS_N5, 26),
        ("f", SemilatticeClass.NUCLEUS_F, 25),
        ("n6", SemilatticeClass.NUCLEUS_N6, 25),
    )
}
_NUCLEUS_MAX_N = 6  # the largest catalog nucleus; a larger one is Other unsearched


@lru_cache(maxsize=None)
def _nucleus_class(meet: tuple[tuple[int, ...], ...]) -> tuple[SemilatticeClass, int] | None:
    """The class and coefficient of the catalog nucleus isomorphic to the
    nucleus table ``meet``, or None.  Called only with at most
    _NUCLEUS_MAX_N elements, so the cache holds finitely many tables."""
    return _NUCLEI.get(canonical_key(SemilatticeTable(meet)))


def scaled_threshold(c: int, n: int) -> int:
    """c * 2^(n-6) as an exact integer (compared as 64k vs c*2^n below n = 6)."""
    if n >= 6:
        return c << (n - 6)
    den = 1 << (6 - n)
    if c % den:
        raise SemilatticeError(f"{c}*2^({n}-6) is not an integer")
    return c // den


def tree_congruence(S: SemilatticeTable) -> Partition:
    """The congruence generated by all pairs (a^b, a v b) over UBTAs {a, b},
    or by (a, a v b) and (b, a v b), read off the down-sets with no meet
    read: ↓(a v b) \\ ↓(a^b) = (↓(a v b) \\ ↓a) ∪ (↓(a v b) \\ ↓b)."""
    return congruence_generated(S, [(x, v) for a, b, v in S.ubtas for x in (a, b)])


def is_tree(S: SemilatticeTable) -> bool:
    """True iff no two incomparable elements have an upper bound."""
    return not S.ubtas


def _quasi_tree_parts(S: SemilatticeTable) -> tuple[tuple[int, ...], SemilatticeTable]:
    """The nucleus and skeleton of a quasi-tree; raises NotQuasiTree otherwise."""
    tcon = tree_congruence(S)
    big = [b for b in tcon.blocks if len(b) > 1]
    if len(big) != 1:
        raise NotQuasiTree(f"tree congruence has {len(big)} nonsingleton blocks")
    return big[0], quotient(S, tcon)[0]


def is_quasi_tree(S: SemilatticeTable) -> bool:
    """True iff the tree congruence has exactly one nonsingleton block."""
    try:
        _quasi_tree_parts(S)
    except NotQuasiTree:
        return False
    return True


def nucleus(S: SemilatticeTable) -> tuple[int, ...]:
    """The unique nonsingleton block of the tree congruence."""
    return _quasi_tree_parts(S)[0]


def nucleus_table(S: SemilatticeTable) -> SemilatticeTable:
    """The nucleus as a standalone meet semilattice (block minimum relabeled to 0)."""
    return S.subsemilattice(nucleus(S))[0]


def skeleton(S: SemilatticeTable) -> SemilatticeTable:
    """The quotient of a quasi-tree by its tree congruence, a tree; raises
    NotQuasiTree unless S is a quasi-tree."""
    return _quasi_tree_parts(S)[1]


def convex_block_congruence_check(
    S: SemilatticeTable, elements
) -> tuple[bool, bool]:
    """Evaluate both sides of the single-nonsingleton-block criterion.

    For a convex subsemilattice X with least element u, returns
    (condition_b, is_congruence) where condition_b states that u^c = v^c
    for every c outside the filter of u and every maximal v of X, and
    is_congruence checks the partition with X as its only nonsingleton
    block directly, with ``kernels.op_compatible`` on block ids that give X
    the id u and every other element its own.  The two are provably equal.
    X must be a convex subsemilattice, so a wrong listing fails here.
    """
    members = sorted(set(elements))
    if len(members) < 2 or not S.is_convex_subsemilattice(members):
        raise NotConvexSubsemilattice(str(members))
    meet = S.meet
    above = S.above_mask
    mask = sum(1 << v for v in members)
    u = next(v for v in members if above[v] & mask == mask)
    maximal = [v for v in members if above[v] & mask == 1 << v]
    condition_b = all(
        meet[u][c] == meet[v][c]
        for c in _bits((1 << S.n) - 1 & ~above[u])
        for v in maximal
    )
    ids = [u if mask >> x & 1 else x for x in range(S.n)]
    return condition_b, kernels.op_compatible(meet, ids)


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the extremal classification of one semilattice."""

    semilattice_class: SemilatticeClass
    n: int
    congruence_count: int
    ubta_count: int
    nucleus: tuple[int, ...] | None
    skeleton: SemilatticeTable | None
    predicted_count: int | None

    def to_obj(self) -> dict:
        return {
            "class": self.semilattice_class.value,
            "n": self.n,
            "congruence_count": self.congruence_count,
            "ubta_count": self.ubta_count,
            "nucleus": list(self.nucleus) if self.nucleus is not None else None,
            "skeleton": self.skeleton.to_covers_obj() if self.skeleton is not None else None,
            "predicted_count": self.predicted_count,
        }


def classify(S: SemilatticeTable) -> ClassificationReport:
    """Assign the extremal class by structural predicates only.

    The congruence count comes from the independent subset-counting route,
    ``PartialJoinStructure.count``: a product over the connected components
    of the UBTA clauses, doubled for each element no clause mentions.  It
    is cross-checked against the class prediction; a mismatch would be an
    implementation bug and raises.  A quasi-tree's report carries its
    nucleus and its skeleton, a tree, which ``to_obj`` writes as lower
    covers.
    """
    return _classified(S, congruence_count(S))


def _classified(S: SemilatticeTable, k: int) -> ClassificationReport:
    """``classify(S)`` given k, the count ``congruence_count(S)`` returns,
    so a caller that has counted S already does not count it again."""
    if S.n < 2:
        raise SemilatticeError("classification needs n >= 2")
    t = S.ubtas.t
    nuc: tuple[int, ...] | None = None
    skel: SemilatticeTable | None = None
    predicted: int | None = None
    cls = SemilatticeClass.OTHER
    if is_tree(S):
        cls = SemilatticeClass.TREE
        predicted = 1 << (S.n - 1)
    else:
        try:
            nuc, skel = _quasi_tree_parts(S)
        except NotQuasiTree:
            pass
        else:
            found = len(nuc) <= _NUCLEUS_MAX_N and _nucleus_class(S.subsemilattice(nuc)[0].meet)
            if found:
                cls, c = found
                predicted = scaled_threshold(c, S.n)
    if predicted is not None and predicted != k:
        raise InternalInconsistency(
            f"class {cls.value} predicts {predicted} congruences, counted {k}"
        )
    return ClassificationReport(
        semilattice_class=cls,
        n=S.n,
        congruence_count=k,
        ubta_count=t,
        nucleus=nuc,
        skeleton=skel,
        predicted_count=predicted,
    )
