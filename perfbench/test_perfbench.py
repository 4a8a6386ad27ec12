"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about a minute)."""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import sample  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from slcong import cli, core, joinsub, structure, verify  # noqa: E402


def _table(below):
    return core.validate(W.meet_table(below))


def test_generator_is_deterministic_for_a_seed():
    a, b, c = W.CountClassify(7), W.CountClassify(7), W.CountClassify(8)
    assert a.calls() == b.calls()
    assert [T.count for T in a.tables] == [T.count for T in b.tables]
    assert a.calls() != c.calls()


def test_mix_has_the_documented_shape():
    tables = W.CountClassify(3).tables
    assert len(tables) >= 100
    refused = [T for T in tables if T.refused]
    assert 0 < len(refused) < 0.1 * len(tables)
    assert all(T.n > 25 and T.t > 20 for T in refused)
    assert sum(T.n >= 40 for T in tables) == len(W.LARGE_QUASI_TREES)


def test_builders_match_the_package():
    rng = random.Random(1)
    for _ in range(20):
        below = W.random_semilattice(rng, rng.randint(2, 9))
        S = _table(below)
        assert W.ubtas(below) == [tuple(u) for u in S.ubtas]
        k = rng.randint(0, 3)
        assert _table(W.extend_below(below, k)) == core.extend_below(S, k)
        x, m = rng.randrange(len(below)), rng.randint(1, 3)
        assert _table(W.attach_above(below, x, m)) == core.attach_above(S, x, core.named(f"chain_{m}"))


def test_construction_reference_matches_bruteforce():
    rng = random.Random(2)
    for _ in range(25):
        base = W.random_semilattice(rng, rng.randint(3, 8))
        count = W._two_route_count(base)
        grown = W.relabel(rng, W.grow(rng, base, rng.randint(len(base), 15)))
        T = W.Table(grown, count, len(base))
        assert joinsub.PartialJoinStructure(_table(grown)).count_bruteforce() == T.count
        assert structure.classify(_table(grown)).semilattice_class.value in T.classes


def test_nucleus_references():
    for key, (covers, cls, coeff) in W.NUCLEI.items():
        below = W.from_covers(covers)
        assert _table(below) == core.named(key)
        assert W.count_join_closed(below) * 64 == coeff << len(below)


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "slcong" or name.startswith("slcong."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("PartialJoinStructure", k): v for k, v in vars(joinsub.PartialJoinStructure).items()})
    return out


def test_no_wrapper_stays_installed_after_a_trace():
    before = _bindings()
    with spans.Tracer() as tracer:
        assert cli.main(["classify", "n5", "--format", "json"]) == 0
        assert structure.classify is not before[("slcong.structure", "classify")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.calls["structure.classify"] == 1


def test_wrappers_reach_every_binding():
    with spans.Tracer():
        for (module, attr), name in spans.TARGETS.items():
            if "." not in attr:
                owner = sys.modules[module]
                original = getattr(owner, attr).__wrapped__
                for mod_name, mod in sys.modules.items():
                    if mod_name.startswith("slcong"):
                        assert all(v is not original for v in vars(mod).values()), (mod_name, attr)


def test_tree_congruence_four_times_per_quasi_tree_classify():
    S = core.extend_below(core.attach_above(core.named("f"), 4, core.named("chain_2")), 3)
    with spans.Tracer() as tracer:
        structure.classify(S)
    metrics = tracer.metrics()
    assert metrics["structure.tree_congruence_per_classify"][0] == 4
    assert metrics["joinsub.count.calls"][0] == 1


def test_duality_claim_makes_two_congruence_enumerations_per_semilattice():
    with spans.Tracer() as tracer:
        verify.claim_duality(7)
    assert tracer.calls["congruences.all_meet_congruences"] == 598  # 2 x 299


def test_traced_counts_repeat_exactly_in_fresh_interpreters():
    calls = [["spectrum", "7", "--top", "4"], ["classify", "n6", "--format", "json"]]
    deadline = time.perf_counter() + 120
    first, second = (run.sample(calls, deadline, trace=True)["layers"] for _ in range(2))
    counts = {k for k, (_, unit) in first.items() if unit == "count"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["joinsub.count.calls"][0] == 2 * 222 + first["structure.classify.calls"][0]


def test_spectrum_9_counts_13396_times():
    report = run.sample(W.Spectrum9().calls(), time.perf_counter() + 120, trace=True)
    # 2 x 5994 from spectrum and top_values, plus 1408 inside classify
    assert report["layers"]["joinsub.count.calls"][0] == 13396
    assert report["layers"]["structure.classify.calls"][0] == 1408


class _BusyCli:
    @staticmethod
    def main(argv):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        print("done")
        return 0


def test_timed_call_leaves_out_readings_and_scales_by_them():
    readings = []

    def calibration():
        readings.append(time.perf_counter())
        return 0.02

    code, out, _, seconds, reference, after = sample.timed_call(
        _BusyCli, [], calibration, 0.01, 0.02, interval_s=0.1
    )
    assert (code, out, after) == (0, "done\n", 0.02)
    assert len(readings) >= 4  # during the call, then once after it
    assert 0.5 <= seconds < 0.6
    assert reference == pytest.approx(seconds / 2)


def test_benchmark_json_matches_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        **spans.METRICS, **run.TRACE_METRICS
    }
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", ["spectrum-9", "verify-7"])
def test_fixed_workloads_reject_a_wrong_answer(name):
    workload = W.make(name, 0)
    assert workload.check(0, 0, "", "") is not None
