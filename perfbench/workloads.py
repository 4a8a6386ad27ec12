"""Workload definitions: the CLI calls each workload makes, and their checks.

Every semilattice here is built by the benchmark's own code, as a list of
down-set bitmasks (``below[x]`` has bit z set iff z <= x, element 0 least),
so the inputs do not change when the package's builders change.  The
references for ``count-classify`` come from the quasi-tree construction:
growing a base table N by chains below its least element and above its
elements keeps the UBTA family, so |Con| = |Con N| * 2^(n - |N|).  |Con N|
itself is counted twice, by this module's own subset scan and by a second
package route that the timed command does not take on the grown table.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time

SPECTRUM_9_CLASSES = 5994  # 10-element lattices, OEIS A006966
SPECTRUM_9_TOP = [
    (256, {"Tree"}),
    (224, {"NucleusB4"}),
    (208, {"NucleusN5"}),
    (200, {"NucleusF", "NucleusN6"}),
]
VERIFY_7_CLAIMS = [
    "small-spectra",
    "top-four-values",
    "quasi-tree-fixtures",
    "congruence-subalgebra-duality",
    "tree-quotient",
    "convex-block-criterion",
    "lattice-congruence-bound",
    "interval-block-counts",
    "enumeration-oracle",
]

# Lower covers of the catalog nuclei, with the catalog's labelings.
NUCLEI = {
    "b4": ([[], [0], [0], [1, 2]], "NucleusB4", 28),
    "n5": ([[], [0], [0], [1], [2, 3]], "NucleusN5", 26),
    "f": ([[], [0], [0], [0], [1, 2], [2, 3]], "NucleusF", 25),
    "n6": ([[], [0], [1], [2], [0], [3, 4]], "NucleusN6", 25),
}
# Class of every semilattice whose count is c * 2^(n-6), by the paper's
# theorem; any other count means class Other.
CLASSES_BY_COEFFICIENT = {
    32: {"Tree"},
    28: {"NucleusB4"},
    26: {"NucleusN5"},
    25: {"NucleusF", "NucleusN6"},
}

# count-classify mix.  Sizes and UBTA counts t are fixed per slot, so the
# work per sample barely depends on the seed; the seed picks the structure.
LARGE_QUASI_TREES = (
    ("b4", 40), ("f", 50), ("n5", 60), ("n6", 70), ("b4", 80),
    # the 90th percentile of verdict times falls in this block of equal-cost tables
    ("f", 90), ("n5", 90), ("n6", 90), ("b4", 90), ("f", 90), ("n5", 90),
    ("n6", 120),
)
LIGHT = 107  # random base tables with t <= 12, grown to n = 12..22
# (n, t) with 2^t * t > 2^(n-1): today's count() scans all subsets
SCAN_SLOTS = ((18, 14), (18, 15), (19, 15), (19, 16), (19, 16), (20, 16), (20, 16), (20, 16), (21, 17))
# (n, t) with 2^t * t <= 2^(n-1): today's count() sums inclusion-exclusion terms
IE_SLOTS = ((21, 14), (21, 15), (21, 16), (22, 14), (22, 15), (22, 16))
# base t > 20 grown past n = 25: today's count() refuses with TooLarge
REFUSED_SIZES = (26, 27, 28, 29, 30, 30)
IE_REFERENCE_MAX_T = 16  # above this the second reference route is all_meet_congruences


# --- semilattices as down-set bitmasks --------------------------------------


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_covers(covers):
    below = [1 << x for x in range(len(covers))]
    for x, lower in enumerate(covers):  # covers list lower elements first
        for c in lower:
            below[x] |= below[c]
    return below


def above_masks(below):
    n = len(below)
    return [sum(1 << y for y in range(n) if below[y] >> x & 1) for x in range(n)]


def _greatest(below, common):
    return next(z for z in _bits(common) if common & ~below[z] == 0)


def meet_table(below):
    n = len(below)
    return [[_greatest(below, below[x] & below[y]) for y in range(n)] for x in range(n)]


def ubtas(below):
    """(a, b, a v b) for every upper bounded two-element antichain of S+."""
    above = above_masks(below)
    out = []
    for a in range(1, len(below)):
        for b in range(a + 1, len(below)):
            ub = above[a] & above[b]
            if ub and not (below[a] >> b & 1 or below[b] >> a & 1):
                out.append((a, b, _greatest(above, ub)))  # least upper bound
    return out


def count_join_closed(below):
    """|Sub(S+)| = |Con S| by scanning every subset of S+."""
    cons = [((1 << (a - 1)) | (1 << (b - 1)), 1 << (v - 1)) for a, b, v in ubtas(below)]
    count = 0
    for mask in range(1 << (len(below) - 1)):
        if all(mask & pm != pm or mask & jm for pm, jm in cons):
            count += 1
    return count


def random_semilattice(rng, n, p=0.35, top=False):
    """Add maximal elements one at a time, each above a random join-closed down-set.

    With ``top`` the last element lies above all others, which makes every
    incomparable pair of the others upper bounded.
    """
    below = [1]
    for k in range(1, n):
        if top and k == n - 1:
            below.append((1 << n) - 1)
            break
        joins = ubtas(below)
        down = 1 | sum(1 << x for x in range(1, k) if rng.random() < p)
        while True:
            closed = 0
            for x in _bits(down):
                closed |= below[x]
            for a, b, v in joins:
                if closed >> a & 1 and closed >> b & 1:
                    closed |= below[v]
            if closed == down:
                break
            down = closed
        below.append(down | 1 << k)
    return below


def random_with_t(rng, accept):
    """A random 9-element lattice whose UBTA count satisfies ``accept``."""
    while True:
        below = random_semilattice(rng, 9, rng.uniform(0.1, 0.35), top=True)
        if accept(len(ubtas(below))):
            return below


def extend_below(below, k):
    """Hang a k-element chain below the least element."""
    chain = (1 << k) - 1
    return [(1 << (i + 1)) - 1 for i in range(k)] + [(m << k) | chain for m in below]


def attach_above(below, x, m):
    """Attach an m-element chain above element x."""
    out = list(below)
    prev = below[x]
    for _ in range(m):
        prev |= 1 << len(out)
        out.append(prev)
    return out


def relabel(rng, below):
    """Random relabeling that keeps 0 as the least element."""
    n = len(below)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [0] * n
    for x, m in enumerate(below):
        out[perm[x]] = sum(1 << perm[z] for z in _bits(m))
    return out


def grow(rng, below, n):
    """Grow to n elements by chains below and above; the UBTA family is kept."""
    extra = n - len(below)
    k = rng.randint(0, extra)
    below = extend_below(below, k)
    extra -= k
    while extra:
        m = rng.randint(1, extra)
        below = attach_above(below, rng.randrange(len(below)), m)
        extra -= m
    return below


REFERENCE_S = 0.008  # times are reported at the speed where calibration() takes this long


def calibration():
    """Seconds taken by a fixed pure-Python computation that shares no code with the package.

    About 8 ms.  Its time measures how fast the machine runs this kind of
    code at the moment; see "Steadiness" in README.md.  The garbage
    collector is off while it runs, so the workload's heap does not slow it.
    """
    gc.disable()
    start = time.perf_counter()
    below = random_semilattice(random.Random(0), 13)
    count_join_closed(below)
    meet_table(extend_below(below, 16))
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


# --- workloads ---------------------------------------------------------------


class ReferenceMismatch(Exception):
    """The two reference routes disagree on a base table: a wrong program answer."""


class Workload:
    """The CLI argument lists of one sample, plus the checks of their answers."""

    name = ""
    ops_per_call = 1

    def calls(self):
        raise NotImplementedError

    def check(self, i, code, out, err):
        """Return an error message, or None if the answer is right."""
        raise NotImplementedError

    def decided(self, i, code):
        """Operations answered by call i (a refusal answers none)."""
        return self.ops_per_call


class Spectrum9(Workload):
    name = "spectrum-9"

    def calls(self):
        return [["spectrum", "9", "--top", "4"]]

    def check(self, i, code, out, err):
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        totals = [int(v) for v in re.findall(r"^  \d+: (\d+) classes$", out, re.M)]
        if sum(totals) != SPECTRUM_9_CLASSES:
            return f"{sum(totals)} classes, expected {SPECTRUM_9_CLASSES}"
        top = [
            (int(v), set(names.split(", ")))
            for v, names in re.findall(r"^top (\d+) = \S+: (.*)$", out, re.M)
        ]
        if top != SPECTRUM_9_TOP:
            return f"top values {top}, expected {SPECTRUM_9_TOP}"
        return None


class Verify7(Workload):
    name = "verify-7"
    ops_per_call = len(VERIFY_7_CLAIMS)

    def calls(self):
        return [["verify", "7"]]

    def check(self, i, code, out, err):
        lines = re.findall(r"^(PASS|FAIL) (\S+) ", out, re.M)
        expected = [("PASS", claim) for claim in VERIFY_7_CLAIMS]
        if code != 0 or lines != expected:
            return f"exit code {code}, claims {lines}"
        return None


class Table:
    """One count-classify input with its construction reference."""

    def __init__(self, below, base_count, base_n, classes=None, refused=False):
        self.below = below
        self.n = len(below)
        self.count = base_count << (self.n - base_n)
        self.t = len(ubtas(below))
        if classes is None:
            classes = {"Other"}
            for c, names in CLASSES_BY_COEFFICIENT.items():
                if self.count * 64 == c << self.n:
                    classes = names
        self.classes = classes
        self.refused = refused  # today's bounds refuse it with TooLarge

    def argv(self):
        obj = {"n": self.n, "meet": meet_table(self.below)}
        return ["classify", json.dumps(obj, separators=(",", ":")), "--format", "json"]


def _two_route_count(below):
    """|Con N| by the subset scan here and by a package route; they must agree."""
    from slcong.congruences import all_meet_congruences
    from slcong.core import validate
    from slcong.joinsub import PartialJoinStructure

    scan = count_join_closed(below)
    table = validate(meet_table(below))
    if table.ubtas.t <= IE_REFERENCE_MAX_T:
        other = PartialJoinStructure(table).count_inclusion_exclusion()
    else:
        other = len(all_meet_congruences(table))
    if scan != other:
        raise ReferenceMismatch(f"base table counts disagree: subset scan {scan}, package {other}")
    return scan


class CountClassify(Workload):
    name = "count-classify"

    def __init__(self, seed):
        rng = random.Random(seed)
        tables = []

        def add(base, n, count=None, **kw):
            if count is None:
                count = _two_route_count(base)
            tables.append(Table(grow(rng, base, n), count, len(base), **kw))

        for key, n in LARGE_QUASI_TREES:
            covers, cls, coeff = NUCLEI[key]
            nuc = from_covers(covers)
            add(nuc, n, (coeff << len(nuc)) >> 6, classes={cls})
        for i in range(LIGHT):
            while True:
                base = random_semilattice(rng, rng.randint(5, 11))
                if len(ubtas(base)) <= 12:
                    break
            add(base, 12 + i % 11)
        for n, t in SCAN_SLOTS + IE_SLOTS:
            add(random_with_t(rng, t.__eq__), n)
        for n in REFUSED_SIZES:
            add(random_with_t(rng, (20).__lt__), n, refused=True)
        rng.shuffle(tables)
        self.tables = [
            Table(relabel(rng, T.below), T.count, T.n, T.classes, T.refused) for T in tables
        ]

    def calls(self):
        return [T.argv() for T in self.tables]

    def check(self, i, code, out, err):
        T = self.tables[i]
        if T.refused and code == 2:
            return None  # a refusal is undecided, not wrong
        if code != 0:
            return f"table {i} (n={T.n}, t={T.t}): exit code {code}: {err.strip()}"
        got = json.loads(out)
        want = {"n": T.n, "congruence_count": T.count, "ubta_count": T.t}
        if {k: got.get(k) for k in want} != want or got.get("class") not in T.classes:
            return f"table {i}: got {[got.get(k) for k in (*want, 'class')]}, expected {want} {T.classes}"
        return None

    def decided(self, i, code):
        return 1 if code == 0 else 0


def make(name, seed):
    if name == "spectrum-9":
        return Spectrum9()
    if name == "verify-7":
        return Verify7()
    if name == "count-classify":
        return CountClassify(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("spectrum-9", "verify-7", "count-classify")
