"""The benchmark's per-layer tracer (perfbench/spans.py) still binds to the package.

The tracer wraps package functions by name, so renaming or removing a traced
function breaks ``perfbench/run.py --trace 1``; this test notices it first.
"""

import importlib.util
import os

import pytest

import slcong.cli
from conftest import NAMED_POOL
from slcong import congruences, joinsub, structure, verify
from slcong.core import SemilatticeTable, extend_below, named

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(capsys):
    spans = _load_spans()
    count = joinsub.PartialJoinStructure.__dict__["count"]
    enumerate_congruences = congruences.all_meet_congruences
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert joinsub.PartialJoinStructure.__dict__["count"] is not count
        assert congruences.all_meet_congruences is not enumerate_congruences
        assert slcong.cli.main(["count", "b4"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "incl-excl: 7 = 28*2^(4-6)\n"
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.METRICS)
    assert metrics["cli.self_s"][0] > 0
    assert metrics["joinsub.count.calls"][0] == 1
    assert metrics["joinsub.route.inclusion_exclusion"][0] == 1
    assert metrics["joinsub.route.bruteforce"][0] == 0
    assert joinsub.PartialJoinStructure.__dict__["count"] is count
    assert congruences.all_meet_congruences is enumerate_congruences


def test_tracer_reads_the_scan_width_from_the_first_argument(capsys):
    # the mask counts are 2^args[0], so the scan kernels must keep nbits first
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert slcong.cli.main(["count", "grid2x3", "--method", "subsets"]) == 0
        joinsub.verify_duality(named("b4"))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["kernels.scan_join_closed.masks"][0] == 32
    assert metrics["kernels.list_join_closed.masks"][0] == 8


def test_duality_check_keeps_both_routes():
    # the duality claim cross-checks the subset side against the congruence
    # side, so one check must list both, once each
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        joinsub.verify_duality(named("b4"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["congruences.all_meet_congruences.calls"][0] == 1
    assert metrics["kernels.list_join_closed.calls"][0] == 1


def test_enumeration_searches_once_per_kept_child(capsys):
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert slcong.cli.main(["enumerate", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    # 1 + 2 + 5 + 15 classes kept at n = 2..5; orbits need no marked search
    assert metrics["core.canonical_with_perm.calls"][0] == 23
    assert metrics["core.canonical_key.calls"][0] == 0


def test_verify_walks_the_enumeration_once(capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # one process, so that the tracer sees every share's calls
        assert slcong.cli.main(["verify", "6", "--jobs", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    # one search per class at n = 2..6 (1 + 2 + 5 + 15 + 53), and one for
    # each of the 2 children at n = 6 that the orbit test rejects after
    # their search: every claim is fed from one pass over the walk
    assert metrics["core.canonical_with_perm.calls"][0] == 78
    # the tracer times each claim_ function, so it must name them all
    assert spans.CLAIMS == tuple(verify.CLAIMS)
    for c in spans.CLAIMS:
        assert metrics[f"verify.claim.{c}.total_s"][0] > 0, c


def test_tracer_sees_the_joins_of_congruence_enumeration():
    # enumeration reads the cover cuts off the down-set masks and joins
    # them as ints, so b4's 7 congruences are listed without one closure
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        cons = congruences.all_meet_congruences(named("b4"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len(cons) == 7
    assert metrics["kernels.congruence_closure.calls"][0] == 0
    assert metrics["congruences.closures_per_congruence"][0] == 0


def test_the_fast_path_leaves_the_oracles_tools_alone(capsys, monkeypatch):
    # classify names nuclei by canonical certificate, not by the
    # isomorphism search that checks its results
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        for name in NAMED_POOL[1:]:  # chain_1 is too small to classify
            structure.classify(named(name))
        assert structure.classify(extend_below(named("n5"), 7)).predicted_count == 1664
        assert slcong.cli.main(["spectrum", "7", "--top", "4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["core.are_isomorphic.calls"][0] == 0
    assert metrics["core.canonical_key.calls"][0] >= 1
    # joins are read off the up-sets, not from the oracle's partial_join
    monkeypatch.setattr(SemilatticeTable, "partial_join", _refuse)
    grid = named("grid2x3")
    assert congruences.join_table(grid)[1][3] == 4  # (0, 1) v (1, 0) = (1, 1)
    assert len(congruences.all_lattice_congruences(grid)) == 8  # 2 x 4, chain by chain


def _refuse(*args):
    pytest.fail("partial_join is an oracle's tool")
