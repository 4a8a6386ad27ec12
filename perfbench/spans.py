"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``slcong`` module that binds it (functions imported by name are bound
in several modules), and the traced methods on their classes.  A wrapper
opens a span, calls the original and closes the span; spans are aggregated
as they close into call counts and self time (span duration minus the time
covered by its child spans), plus a few counts read from the arguments and
results at the layer boundary.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name
TARGETS = {
    ("slcong.cli", "main"): "cli",
    ("slcong.core", "validate"): "core.validate",
    ("slcong.core", "are_isomorphic"): "core.are_isomorphic",
    ("slcong.core", "canonical_key"): "core.canonical_key",
    ("slcong.core", "canonical_with_perm"): "core.canonical_with_perm",
    ("slcong.enumeration", "enumerate_semilattices"): "enumeration.enumerate_semilattices",
    ("slcong.enumeration", "spectrum"): "enumeration.spectrum",
    ("slcong.enumeration", "top_values"): "enumeration.top_values",
    ("slcong.congruences", "all_meet_congruences"): "congruences.all_meet_congruences",
    ("slcong.congruences", "all_lattice_congruences"): "congruences.all_lattice_congruences",
    ("slcong.congruences", "congruence_generated"): "congruences.congruence_generated",
    ("slcong.kernels", "congruence_closure"): "kernels.congruence_closure",
    ("slcong.kernels", "op_compatible"): "kernels.op_compatible",
    ("slcong.kernels", "scan_join_closed"): "kernels.scan_join_closed",
    ("slcong.kernels", "list_join_closed"): "kernels.list_join_closed",
    ("slcong.joinsub", "PartialJoinStructure.count"): "joinsub.count",
    ("slcong.joinsub", "PartialJoinStructure.count_bruteforce"): "joinsub.count_bruteforce",
    ("slcong.joinsub", "PartialJoinStructure.count_inclusion_exclusion"): "joinsub.count_inclusion_exclusion",
    ("slcong.joinsub", "verify_duality"): "joinsub.verify_duality",
    ("slcong.structure", "classify"): "structure.classify",
    ("slcong.structure", "tree_congruence"): "structure.tree_congruence",
}
CLAIMS = (
    "small_spectra",
    "top_four",
    "fixture_counts",
    "duality",
    "tree_quotient",
    "convex_block",
    "lattice_bound",
    "interval_blocks",
    "enumeration_oracle",
)
TARGETS.update({("slcong.verify", f"claim_{c}"): f"verify.claim.{c}" for c in CLAIMS})

ROUTES = {
    "joinsub.count_bruteforce": "joinsub.route.bruteforce",
    "joinsub.count_inclusion_exclusion": "joinsub.route.inclusion_exclusion",
}
_CALLS = (
    "core.validate", "core.are_isomorphic", "core.canonical_key", "core.canonical_with_perm",
    "congruences.all_meet_congruences", "congruences.congruence_generated",
    "kernels.congruence_closure", "kernels.op_compatible", "joinsub.count",
    "kernels.scan_join_closed", "joinsub.verify_duality", "kernels.list_join_closed",
    "structure.classify", "structure.tree_congruence",
)
_SELF = (
    "cli", "core.validate", "core.are_isomorphic", "core.canonical_key",
    "core.canonical_with_perm", "enumeration.enumerate_semilattices", "enumeration.spectrum",
    "enumeration.top_values", "congruences.all_meet_congruences",
    "congruences.all_lattice_congruences", "congruences.congruence_generated",
    "kernels.congruence_closure", "kernels.op_compatible", "joinsub.count",
    "joinsub.count_bruteforce", "joinsub.count_inclusion_exclusion",
    "kernels.scan_join_closed", "joinsub.verify_duality", "kernels.list_join_closed",
    "structure.classify",
) + tuple(f"verify.claim.{c}" for c in CLAIMS)
_COUNTS = (
    "joinsub.route.inclusion_exclusion", "joinsub.route.bruteforce", "joinsub.route.refused",
    "joinsub.ie_terms", "kernels.scan_join_closed.masks", "kernels.list_join_closed.masks",
)
_RATIOS = (
    "enumeration.canonical_per_class",
    "congruences.closures_per_congruence",
    "structure.tree_congruence_per_classify",
)
# every per-layer metric a traced sample reports, with its unit
METRICS = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"verify.claim.{c}.total_s": "s" for c in CLAIMS},
    **{name: "count" for name in _COUNTS},
    **{name: "ratio" for name in _RATIOS},
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.classes_by_n = {}  # n -> classes returned by enumerate_semilattices(n)
        self.congruences = 0  # congruences returned by all_meet_congruences
        self.quasi_classify = 0  # classify calls whose input is a quasi-tree
        self.quasi_tree_congruences = 0  # tree_congruence calls inside those
        self._stack = []  # open spans: [name, seconds covered by children, tc calls at entry]
        self._open = Counter()
        self._patched = []  # (owner, attribute, original)

    def install(self):
        from slcong.errors import TooLarge

        self._too_large = TooLarge
        modules = [m for k, m in sorted(sys.modules.items()) if k == "slcong" or k.startswith("slcong.")]
        for (module_name, attr), name in TARGETS.items():
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method, patched on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stack, opened, calls = self._stack, self._open, self.calls
        after = self._after
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, calls["structure.tree_congruence"]]
            stack.append(frame)
            opened[name] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.total_s[name] += elapsed
                calls[name] += 1
                after(name, frame, args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name, frame, args, result, exc):
        """Counts read at the layer boundary, after the span closed."""
        counts = self.counts
        if name in ROUTES:
            if self._stack and self._stack[-1][0] == "joinsub.count":
                counts[ROUTES[name]] += 1
            if name == "joinsub.count_inclusion_exclusion" and exc is None:
                counts["joinsub.ie_terms"] += 1 << args[0].host.ubtas.t
        elif name == "joinsub.count":
            if isinstance(exc, self._too_large):
                counts["joinsub.route.refused"] += 1
        elif name in ("kernels.scan_join_closed", "kernels.list_join_closed"):
            counts[name + ".masks"] += 1 << args[0]
        elif name == "kernels.congruence_closure":
            if self._open["congruences.all_meet_congruences"]:
                counts["closures_in_enumeration"] += 1
        elif name == "congruences.all_meet_congruences" and exc is None:
            self.congruences += len(result)
        elif name == "enumeration.enumerate_semilattices" and exc is None:
            self.classes_by_n[args[0]] = len(result)
        elif name == "structure.classify" and exc is None and result.nucleus is not None:
            self.quasi_classify += 1
            self.quasi_tree_congruences += self.calls["structure.tree_congruence"] - frame[2]

    def metrics(self):
        """Every metric in METRICS as {name: (value, unit)}."""
        canonical = self.calls["core.canonical_key"] + self.calls["core.canonical_with_perm"]
        ratios = {
            "enumeration.canonical_per_class": (canonical, sum(self.classes_by_n.values())),
            "congruences.closures_per_congruence": (
                self.counts["closures_in_enumeration"],
                self.congruences,
            ),
            "structure.tree_congruence_per_classify": (
                self.quasi_tree_congruences,
                self.quasi_classify,
            ),
        }
        out = {}
        for metric, unit in METRICS.items():
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                value = self.calls[base]
            elif stat == "self_s":
                value = self.self_s[base]
            elif stat == "total_s":
                value = self.total_s[base]
            elif metric in ratios:
                num, den = ratios[metric]
                value = num / den if den else 0.0
            else:
                value = self.counts[metric]
            out[metric] = (value, unit)
        return out
