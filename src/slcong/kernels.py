"""The hot loops: join-closed subset scans, compatibility checks, and the
package's one congruence closure, which reads generated congruences off
down-sets.

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
    k = min(nbits, BLOCK_BITS)
    ones = _columns(k)[0]
    return _kept(nbits, ((h << k, ones) for h in range(1 << (nbits - k))), clauses)


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


def congruence_closure(below, pairs):
    """The least congruence relating every (x, y) in pairs, of the meet
    semilattice with down-set masks ``below`` (bit z of ``below[x]`` is set
    iff z <= x), as dense first-occurrence block ids: with D the union of
    ↓x △ ↓y over the pairs, x ~ y iff ``below[x] & ~D == below[y] & ~D``.

    Every semilattice is a subdirect product of copies of 2 (Burris &
    Sankappanavar, *A Course in Universal Algebra*, ch. II), and these are
    the copies:

    - For each c, ψ_c splits S into ↑c and the rest, and is a congruence,
      since x ^ z >= c iff x >= c and z >= c.
    - Let θ be a congruence and x, y lie in different θ-blocks, say
      [y] ≱ [x].  Put F = {z : [z] >= [x]}.  F is a θ-saturated filter, so
      F = ↑c for c = ∧F.  Then θ ⊆ ψ_c, and ψ_c separates x from y.
    - So θ is the intersection of the ψ_c that contain it.  For θ = Cg(P),
      ψ_c contains θ exactly when it relates every pair of P, that is when
      c ∉ D; and x ψ_c y iff c lies in both ↓x and ↓y or in neither.
    """
    cut = 0
    for x, y in pairs:
        cut |= below[x] ^ below[y]
    keep = ~cut
    ids = {}
    return tuple([ids.setdefault(down & keep, len(ids)) for down in below])
