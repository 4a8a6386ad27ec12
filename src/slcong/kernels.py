"""The hot loops: join-closed subset scans, compatibility checks, and the
package's one congruence closure, which merges blocks.

Subsets of S+ = S\\{0} are bitmasks: element i of S+ (i = 1..n-1) is bit
i-1.  A clause is a pair of such masks (need, join): a subset violates it
when it holds every bit of ``need`` and no bit of ``join``.  So a UBTA
{a, b} with join v is the clause ({a, b}, {v}), "a and b need v", and
({x}, {c}) reads "x needs c".  The scans take the number of bits first.

Tables are row tuples, as in ``SemilatticeTable.meet``: ``op[x][y]`` is the
element x op y.
"""

IMPLEMENTATION = "pure"  # kept because perfbench/sample.py records it in each run


def _join_closed(nbits, clauses):
    """The masks in [0, 2^nbits) that violate no clause, ascending."""
    for mask in range(1 << nbits):
        for need, join in clauses:
            if mask & need == need and not mask & join:
                break
        else:
            yield mask


def scan_join_closed(nbits, clauses):
    """Number of masks in [0, 2^nbits) that violate no clause."""
    count = 0
    for _ in _join_closed(nbits, clauses):
        count += 1
    return count


def list_join_closed(nbits, clauses):
    """The masks in [0, 2^nbits) that violate no clause, ascending."""
    return list(_join_closed(nbits, clauses))


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


def congruence_closure(meet, block_id, blocks, pairs):
    """The least congruence above the congruence ``block_id`` that relates
    every (x, y) in pairs.

    ``block_id`` holds dense first-occurrence block ids and ``blocks[k]``
    lists the members of its block k.  Starting from these blocks, two
    blocks merge at a time, the one with the larger label taking the
    smaller label, and for each pair (x, y) that merged two blocks, (x^z,
    y^z) is pushed for every z.  Nothing else is rescanned: the result is
    the equivalence generated by the pairs of ``block_id``, the given pairs
    and the merging pairs.  Each given pair is related and each generator is
    compatible with the meet: a pair of ``block_id`` because it is a
    congruence, and a merging pair because its meets with every z were
    pushed and so end up related.  Compatibility carries along chains of
    generators by transitivity, and every merge is forced, so the result is
    the least such congruence.  Returns dense first-occurrence block ids, as
    a tuple.
    """
    label = list(block_id)
    members = list(blocks)  # merged lists are new; the blocks are not mutated
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
