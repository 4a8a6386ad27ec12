"""The hot loops: join-closed subset scans, compatibility checks, and the
package's one congruence closure, which merges blocks.

Subsets of S+ = S\\{0} are bitmasks: element i of S+ (i = 1..n-1) is bit
i-1.  A clause is a pair of such masks (need, join): a subset violates it
when it holds every bit of ``need`` and no bit of ``join``.  So a UBTA
{a, b} with join v is the clause ({a, b}, {v}), "a and b need v", and
({x}, {c}) reads "x needs c".  The scans take the number of bits first.

The scans test masks bit-parallel, in blocks of 2^BLOCK_BITS consecutive
masks held as one int, ``alive``, whose bit i is set iff mask first + i
violates no clause (Knuth, TAOCP 4A, 7.1.3).  Inside a block the masks
share their bits from BLOCK_BITS up, so a clause's high bits either rule it
out for the whole block or hold for every mask of it, and its low bits pick
the violating masks by ANDing columns: bit m of column b is bit b of m.

Tables are row tuples, as in ``SemilatticeTable.meet``: ``op[x][y]`` is the
element x op y.
"""

from functools import cache
from itertools import compress

IMPLEMENTATION = "pure"  # kept because perfbench/sample.py records it in each run

BLOCK_BITS = 12
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 bytes, for compress


@cache
def _columns(k):
    """All ones over the 2^k masks of a block, and the columns: bit m of
    the b-th column is bit b of m.  k <= BLOCK_BITS, so at most 13 entries
    are cached, whatever the scan's width."""
    ones = (1 << (1 << k)) - 1
    columns = []
    for b in range(k):
        half = 1 << b  # runs of 2^b zeros, then 2^b ones
        repeat = ones // ((1 << 2 * half) - 1)
        columns.append((((1 << half) - 1) << half) * repeat)
    return ones, tuple(columns)


def _alive_blocks(nbits, clauses):
    """(first, alive) for each block of the masks in [0, 2^nbits), first
    ascending; bit i of alive is set iff mask first + i violates no clause."""
    # its own loop: ``_kept`` over all-ones blocks measured 10-15% slower on wide scans
    k, base, high = _block_clauses(nbits, clauses)
    for h in range(1 << (nbits - k)):
        alive = base
        for hn, hj, keep in high:
            if h & hn == hn and not h & hj:
                alive &= keep
        yield h << k, alive


def _kept(nbits, blocks, clauses):
    """(first, alive & keep) for each (first, alive) of ``blocks``, blocks of
    the masks in [0, 2^nbits) as ``_alive_blocks`` yields them; bit i of
    keep is set iff mask first + i violates no clause.  So further clauses
    narrow a pass already made without scanning again."""
    k, base, high = _block_clauses(nbits, clauses)
    for first, alive in blocks:
        alive &= base
        h = first >> k
        for hn, hj, keep in high:
            if h & hn == hn and not h & hj:
                alive &= keep
        yield first, alive


def _block_clauses(nbits, clauses):
    """(k, base, high) for scanning blocks of 2^k masks, k = min(nbits,
    BLOCK_BITS): base holds the low patterns that violate no clause whose
    bits all lie below k, and high a (high need, high join, keep) per other
    clause, where keep holds the low patterns that do not violate it in a
    block whose high bits hold its high need and none of its high join."""
    k = min(nbits, BLOCK_BITS)
    ones, columns = _columns(k)
    low = (1 << k) - 1
    base = ones
    high = []
    for need, join in clauses:
        hn = need >> k
        hj = join >> k
        hit = ones  # the low patterns that violate the clause
        need &= low
        while need:
            b = need.bit_length() - 1
            hit &= columns[b]
            need ^= 1 << b
        join &= low
        while join:
            b = join.bit_length() - 1
            hit &= ~columns[b]
            join ^= 1 << b
        if hn | hj:
            high.append((hn, hj, ones ^ hit))
        else:
            base &= ~hit
    return k, base, high


def scan_join_closed(nbits, clauses):
    """Number of masks in [0, 2^nbits) that violate no clause."""
    return sum(alive.bit_count() for _, alive in _alive_blocks(nbits, clauses))


def list_join_closed(nbits, clauses):
    """The masks in [0, 2^nbits) that violate no clause, ascending."""
    return _listed(_alive_blocks(nbits, clauses))


def _listed(blocks):
    """The masks whose bits are set in ``blocks``, (first, alive) pairs with
    first ascending, ascending."""
    masks = []
    for first, alive in blocks:
        digits = format(alive, "b").encode().translate(_DIGITS)[::-1]
        masks += compress(range(first, first + len(digits)), digits)
    return masks


def op_compatible(op, block_id):
    """True iff x ~ y implies x op z ~ y op z for every z, where x ~ y means
    block_id[x] == block_id[y]."""
    rep = {}
    for x, b in enumerate(block_id):
        r = rep.setdefault(b, x)
        if r == x:
            continue
        for u, v in zip(op[r], op[x]):
            if block_id[u] != block_id[v]:
                return False
    return True


def congruence_closure(meet, pairs):
    """The least congruence of the meet table ``meet`` that relates every
    (x, y) in pairs.

    Starting from singleton blocks, two blocks merge at a time, the one with
    the larger label taking the smaller label, and for each pair (x, y) that
    merged two blocks, (x^z, y^z) is pushed for every z.  Nothing else is
    rescanned: the result is the equivalence generated by the given pairs
    and the merging pairs.  Each given pair is related and each merging pair
    is compatible with the meet, since its meets with every z were pushed
    and so end up related.  Compatibility carries along chains of merging
    pairs by transitivity, and every merge is forced, so the result is the
    least such congruence.  Returns dense first-occurrence block ids, as a
    tuple.
    """
    label = list(range(len(meet)))
    members = [[x] for x in label]
    queue = [v for pair in pairs for v in pair]
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
        members[kx] += moved
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
