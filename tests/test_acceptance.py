"""Acceptance suite: each criterion runs at its stated tolerance (exact
everywhere) and prints one pass/fail line.  Run with `pytest -s` to watch
the lines as they appear."""

import time

from slcong import verify
from slcong.structure import SemilatticeClass, classify


def _report(number, name, detail, seconds, budget=None):
    line = f"ACCEPTANCE {number} ({name}): PASS"
    if budget is not None:
        line += f" [{seconds:.2f}s < {budget:.0f}s]"
    else:
        line += f" [{seconds:.2f}s]"
    line += f" -- {detail}"
    print(line, flush=True)


def _timed(fn, *args):
    start = time.perf_counter()
    detail = fn(*args)
    return detail, time.perf_counter() - start


def test_criterion_1_small_spectra():
    # NCsl(2..5) exact, M3 among the witnesses of 12; < 10 s
    detail, seconds = _timed(verify.claim_small_spectra)
    assert seconds < 10.0
    _report(1, "small-spectra", detail, seconds, budget=10)


def test_criterion_2_top_four_exhaustive():
    # top four values, matching classes both ways, gaps empty, n in {6,7,8}; < 5 min
    detail, seconds = _timed(verify.claim_top_four, 8)
    assert seconds < 300.0
    _report(2, "top-four-n678", detail, seconds, budget=300)


def test_criterion_3_fixture_counts():
    # each flagship fixture counts in under a second
    six, twelve, thirteen = verify._fixture_families()
    fixtures = [(S, 28, SemilatticeClass.NUCLEUS_B4) for S in six]
    fixtures += [(S, 1664, SemilatticeClass.NUCLEUS_N5) for S in twelve]
    fixtures += [(S, 3200, cls) for S, cls in thirteen]
    total = 0.0
    for S, expected, expected_class in fixtures:
        start = time.perf_counter()
        report = classify(S)
        seconds = time.perf_counter() - start
        assert report.congruence_count == expected
        assert report.semilattice_class == expected_class
        assert seconds < 1.0
        total += seconds
    _report(
        3,
        "quasi-tree-fixture-counts",
        f"{len(fixtures)} fixtures: 28 / 1664 / 3200, each under 1 s",
        total,
    )


def test_criterion_4_duality():
    # three independent counting routes, the default route and the walk's
    # recurrence agree, and the dual map is a bijection reversing inclusion,
    # for every semilattice with n <= 7; < 2 min
    detail, seconds = _timed(verify.claim_duality, 7)
    assert seconds < 120.0
    _report(4, "congruence-subalgebra-duality", detail, seconds, budget=120)


def test_criterion_5_tree_quotient():
    detail, seconds = _timed(verify.claim_tree_quotient, 7)
    _report(5, "tree-congruence-quotient", detail, seconds)


def test_criterion_6_convex_block():
    detail, seconds = _timed(verify.claim_convex_block, 6)
    _report(6, "convex-block-criterion", detail, seconds)


def test_criterion_7_lattice_bound():
    detail, seconds = _timed(verify.claim_lattice_bound, 8)
    _report(7, "lattice-congruence-bound", detail, seconds)


def test_criterion_8_interval_blocks():
    detail, seconds = _timed(verify.claim_interval_blocks)
    _report(8, "interval-block-counts", detail, seconds)


def test_criterion_9_enumeration_sanity():
    detail, seconds = _timed(verify.claim_enumeration_oracle, 6)
    _report(9, "enumeration-oracle", detail, seconds)
