"""The hot loops: join-closed subset scans, compatibility checks, closure.

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


def congruence_closure(meet, pairs):
    """Least meet-compatible equivalence relating every (x, y) in pairs.

    Returns dense block ids numbered by first occurrence, as a tuple.
    """
    n = len(meet)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx = find(x)
        ry = find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for a, b in zip(meet[x], meet[y]):
            if find(a) != find(b):
                queue.append((a, b))
    ids = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(n))
