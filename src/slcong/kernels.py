"""The hot loops: join-closed subset scans, compatibility checks, closure.

Subsets of S+ = S\\{0} are bitmasks: element i of S+ (i = 1..n-1) is bit
i-1.  Meet tables are passed flattened row-major, length n*n.
"""

IMPLEMENTATION = "pure"  # kept because perfbench/sample.py records it in each run


def scan_join_closed(nbits, pair_masks, join_masks):
    """Count masks in [0, 2^nbits) containing no constrained pair without its join."""
    t = len(pair_masks)
    count = 0
    for mask in range(1 << nbits):
        for i in range(t):
            pm = pair_masks[i]
            if mask & pm == pm and not mask & join_masks[i]:
                break
        else:
            count += 1
    return count


def list_join_closed(nbits, pair_masks, join_masks):
    """Like scan_join_closed but returns the qualifying masks, ascending."""
    t = len(pair_masks)
    out = []
    for mask in range(1 << nbits):
        for i in range(t):
            pm = pair_masks[i]
            if mask & pm == pm and not mask & join_masks[i]:
                break
        else:
            out.append(mask)
    return out


def op_compatible(n, op_flat, block_id):
    """True iff block_id is compatible with the binary operation op_flat."""
    rep = {}
    for x in range(n):
        b = block_id[x]
        r = rep.get(b)
        if r is None:
            rep[b] = x
            continue
        rrow = op_flat[r * n:]
        xrow = op_flat[x * n:]
        for z in range(n):
            if block_id[xrow[z]] != block_id[rrow[z]]:
                return False
    return True


def congruence_closure(n, meet_flat, pairs_flat):
    """Least meet-compatible equivalence collapsing the given pairs.

    pairs_flat is [x0, y0, x1, y1, ...].  Returns dense block ids numbered
    by first occurrence.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs_flat)
    while queue:
        y = queue.pop()
        x = queue.pop()
        rx = find(x)
        ry = find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        xrow = meet_flat[x * n:]
        yrow = meet_flat[y * n:]
        for z in range(n):
            a = xrow[z]
            b = yrow[z]
            if find(a) != find(b):
                queue.append(a)
                queue.append(b)
    out = [0] * n
    ids = {}
    for i in range(n):
        r = find(i)
        if r not in ids:
            ids[r] = len(ids)
        out[i] = ids[r]
    return out
