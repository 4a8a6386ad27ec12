"""The walk split into shares: one per process, merged in the parent.

Every test that starts a worker checks that none is left running.
"""

import hashlib
import inspect
import json
import multiprocessing
import multiprocessing.process
import os
import pickle
import re
import sys
import threading
from array import array

import pytest

from conftest import classes
from slcong import enumeration, errors, verify
from slcong.cli import main
from slcong.enumeration import (
    SPLIT_N,
    SPLIT_ROOTS,
    enumerate_semilattices,
    spectrum,
    top_values,
    walk,
)
from slcong.errors import InternalInconsistency, NotAssociative, NotEnoughValues, TooLarge


@pytest.fixture
def starts(monkeypatch):
    """The number of worker processes started, one entry per start."""
    started = []
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    yield started
    assert multiprocessing.active_children() == []


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_split_roots_are_the_classes_of_the_split_size():
    assert len(classes(SPLIT_N)) == SPLIT_ROOTS


def test_shares_partition_the_walk():
    # every class with n <= 8 is reported by exactly one of three shares;
    # only share 0 reports the classes below the split
    whole = [(key, k) for key, _, k in walk(8)]
    shares = [enumeration._walked(8, list, (), share, 3) for share in range(3)]
    assert sorted(whole) == sorted((key, k) for found, _ in shares for key, _, k in found)
    assert all(S.n >= SPLIT_N for found, _ in shares[1:] for _, S, _ in found)
    assert all(found for found, _ in shares)
    # a share's runner returns the digest of the key of each class its
    # summary read, sorted, one per class
    for found, digests in shares:
        assert isinstance(digests, array) and digests.typecode == "Q"
        assert list(digests) == sorted(enumeration._digest(key) for key, _, _ in found)
        assert len(digests) == len(found)


@pytest.mark.parametrize("n", range(2, 9))
def test_spectrum_is_the_same_on_one_and_two_processes(starts, n):
    one = spectrum(n, top=4, jobs=1)
    two = spectrum(n, top=4, jobs=2)
    assert one == two
    assert len(starts) == (1 if n > SPLIT_N else 0)
    assert [S.meet for S in one.witnesses[max(one.values)]] == sorted(
        S.meet for S in one.witnesses[max(one.values)]
    )


def test_top_classes_do_not_depend_on_the_number_of_shares(starts):
    # each share classifies only its own four largest values
    one = spectrum(7, top=4, jobs=1)
    for jobs in (3, 5):
        assert spectrum(7, top=4, jobs=jobs) == one
    assert len(starts) == 2 + 4


def test_spectrum_nine_on_two_processes(starts, capsys):
    # 5,994 classes: the 10-element lattices, OEIS A006966 (Heitzig and
    # Reinhold, "Counting finite lattices", Algebra Universalis 2002)
    argv = ["spectrum", "9", "--top", "4", "--witnesses", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0 and len(starts) == 1
    sp = json.loads(out)
    totals = {int(v): k for v, k in sp["witness_totals"].items()}
    assert sum(totals.values()) == 5994
    assert len(sp["values"]) == 89
    assert [(t["value"], t["classes"]) for t in sp["top"]] == [
        (256, ["Tree"]),
        (224, ["NucleusB4"]),
        (208, ["NucleusN5"]),
        (200, ["NucleusF", "NucleusN6"]),
    ]
    assert [totals[v] for v in (256, 224, 208, 200)] == [286, 506, 378, 90 + 148]
    # the whole output, witnesses included, on one process and on two
    assert run(capsys, *argv, "--jobs", "1")[1] == out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "fb11a39f1df7fc8de6128afff7fd9902c8ad8828eb6b88da25a66a6a9ca6d773"
    )


def test_cli_spectrum_output_does_not_depend_on_jobs(starts, capsys):
    argv = ["spectrum", "8", "--top", "4", "--witnesses", "--format", "json"]
    code, one, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 0 and not starts
    code, two, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0 and len(starts) == 1
    assert one == two
    assert json.loads(one)["top"][0] == {"value": 128, "classes": ["Tree"]}


def test_cli_enumerate_output_does_not_depend_on_jobs(starts, capsys):
    code, one, _ = run(capsys, "enumerate", "7", "--jobs", "1")
    assert code == 0 and not starts
    code, two, _ = run(capsys, "enumerate", "7", "--jobs", "2")
    assert code == 0 and len(starts) == 1
    assert one == two
    assert len(one.splitlines()) == 222


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork is taken on Linux only")
def test_workers_fork_on_linux_unless_another_thread_runs(starts):
    one = spectrum(7, top=4, jobs=1)
    assert spectrum(7, top=4, jobs=2) == one
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert spectrum(7, top=4, jobs=2) == one
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [type(p).__name__ for p in starts] == ["ForkProcess", "SpawnProcess"]


def test_workers_spawn_off_linux(starts, monkeypatch):
    monkeypatch.setattr(enumeration.sys, "platform", "darwin")
    assert spectrum(7, top=4, jobs=2) == spectrum(7, top=4, jobs=1)
    assert [type(p).__name__ for p in starts] == ["SpawnProcess"]


def test_no_worker_starts_for_one_job_or_below_the_split(starts, capsys):
    spectrum(8, top=4, jobs=1)
    enumerate_semilattices(8, jobs=1)
    spectrum(SPLIT_N, top=4, jobs=4)
    enumerate_semilattices(SPLIT_N, jobs=4)
    assert run(capsys, "spectrum", "3", "--top", "5", "--jobs", "2")[0] == 2
    assert run(capsys, "verify", str(SPLIT_N), "--jobs", "4")[0] == 0
    assert not starts


def test_at_most_jobs_minus_one_workers_start(starts):
    enumerate_semilattices(SPLIT_N + 1, jobs=3)
    assert len(starts) == 2
    # never one per subtree: jobs is capped at the number of roots
    assert enumeration._shares(SPLIT_N + 1, 10 * SPLIT_ROOTS) == SPLIT_ROOTS


def test_jobs_default_to_the_usable_cores():
    cores = len(os.sched_getaffinity(0))
    assert enumeration._shares(9, None) == min(cores, SPLIT_ROOTS)
    assert enumeration._shares(SPLIT_N, None) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_two(capsys, jobs):
    for argv in (["spectrum", "7"], ["enumerate", "7"], ["verify", "7"]):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"
    with pytest.raises(TooLarge):
        spectrum(7, jobs=0)


def test_two_shares_on_one_root_are_refused(starts, monkeypatch, capsys):
    # both shares walk root 0, each reporting its classes once, so only the
    # check of the merged digests can see it
    real = enumeration._owns
    monkeypatch.setattr(enumeration, "_owns", lambda i, share, jobs: i == 0 or real(i, share, jobs))
    with pytest.raises(InternalInconsistency, match="the walk reported a class twice"):
        spectrum(7, jobs=2)
    with pytest.raises(InternalInconsistency, match="the walk reported a class twice"):
        enumerate_semilattices(7, jobs=2)
    code, out, err = run(capsys, "spectrum", "7", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "internal inconsistency: the walk reported a class twice\n"
    assert len(starts) == 3


def test_a_class_reported_twice_inside_a_worker_is_refused(starts, monkeypatch, capsys):
    # in the worker's share, every 7-element class after the first is
    # reported as the first one; 7 is the last size, so none is extended
    parent = os.getpid()
    real = enumeration._accepted_canonical
    kept = []

    def accepted(child):
        found = real(child)
        if found is not None and child.n == 7 and os.getpid() != parent:
            kept.append(found)
            return kept[0]
        return found

    monkeypatch.setattr(enumeration, "_accepted_canonical", accepted)
    code, out, err = run(capsys, "spectrum", "7", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "internal inconsistency: the walk reported a class twice\n"
    assert len(starts) == 1
    assert kept == []  # only the worker reported a class twice


def test_spectrum_classifies_each_class_of_a_running_top_value_once(monkeypatch):
    # 440 classes attain the final four largest values at n = 8; 6 more
    # arrive while their value is still among the running four largest
    calls = []
    real = enumeration._classified

    def counted(S, value):
        calls.append(value)
        return real(S, value)

    monkeypatch.setattr(enumeration, "_classified", counted)
    sp = spectrum(8, top=4, jobs=1)
    assert len(calls) == 446
    largest = sorted(sp.values)[-4:]
    assert sum(value in largest for value in calls) == sum(sp.witness_totals[v] for v in largest)


@pytest.mark.parametrize("jobs", [1, 3])
def test_no_share_summary_holds_a_table(starts, jobs):
    # a share's summary holds counts, keys and classes; its tables were
    # dropped as the walk went on
    summaries = enumeration._walk_shares(7, jobs, enumeration._spectrum_share, (7, 4, True))
    summaries += enumeration._walk_shares(7, jobs, enumeration._level_keys, (7,))
    assert len(summaries) == 2 * jobs and len(starts) == 2 * (jobs - 1)
    assert not any(b"SemilatticeTable" in pickle.dumps(summary) for summary in summaries)


def test_witness_keys_are_collected_only_when_asked_for(starts):
    # without witnesses no share collects a key, and nothing else changes
    summaries = enumeration._walk_shares(7, 2, enumeration._spectrum_share, (7, 4, False))
    assert [least for _, least, _ in summaries] == [{}, {}]
    bare = spectrum(7, top=4, jobs=2, witnesses=False)
    full = spectrum(7, top=4, jobs=2)
    assert bare.witnesses == {} and "witnesses" not in bare.to_obj()
    assert full.witnesses and bare.witness_totals == full.witness_totals
    assert bare.classes == full.classes
    assert len(starts) == 3


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_an_inconsistency_in_one_process_ends_the_run(starts, monkeypatch, capsys, where):
    # a worker's error reaches the parent as the same type; an error in the
    # parent's own share stops the worker
    parent = os.getpid()
    real = enumeration._extend

    def extend_in_one_process(S, mask):
        if (os.getpid() == parent) == (where == "parent"):
            raise InternalInconsistency(f"extended in the {where}")
        return real(S, mask)

    monkeypatch.setattr(enumeration, "_extend", extend_in_one_process)
    with pytest.raises(InternalInconsistency, match=f"extended in the {where}"):
        spectrum(7, jobs=2)
    code, out, err = run(capsys, "spectrum", "7", "--top", "4", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == f"internal inconsistency: extended in the {where}\n"
    assert len(starts) == 2


def test_a_worker_that_dies_ends_the_run(starts, monkeypatch):
    parent = os.getpid()
    real = enumeration._extend

    def die_in_a_worker(S, mask):
        if os.getpid() != parent:
            os._exit(3)
        return real(S, mask)

    monkeypatch.setattr(enumeration, "_extend", die_in_a_worker)
    with pytest.raises(InternalInconsistency, match="share 1 of 2 ended without a result"):
        spectrum(7, jobs=2)
    assert starts[0].exitcode == 3


def test_not_enough_values_leaves_no_worker(starts):
    with pytest.raises(NotEnoughValues):
        top_values(spectrum(3, top=5, jobs=2), 5)
    # 7 elements have 17 values
    with pytest.raises(NotEnoughValues, match="17 values"):
        top_values(spectrum(7, top=18, jobs=2), 18)
    assert len(starts) == 1


def test_top_values_needs_the_classes_of_its_values():
    with pytest.raises(NotEnoughValues, match="its 1 largest values, fewer than the 2"):
        top_values(spectrum(5, top=1), 2)


def test_top_values_without_the_classes_of_its_values_exits_two(monkeypatch, capsys):
    # a spectrum that holds the classes of fewer values than --top asks for
    # is a refused input (exit 2), not a usage error (exit 3)
    real = enumeration.spectrum
    monkeypatch.setattr(
        enumeration, "spectrum", lambda n, max_n, top, jobs, witnesses: real(n, top=1)
    )
    code, out, err = run(capsys, "spectrum", "5", "--top", "2")
    assert code == 2 and out == ""
    assert err == (
        "error: NCsl(5) holds the classes of its 1 largest values, fewer than the 2 asked for\n"
    )


def test_a_summary_that_stops_before_its_walk_ends_is_refused():
    # a class is digested only as the summary reads it, so a summary that
    # stopped early would leave the rest of its walk out of the check that
    # shares are disjoint
    message = "share 0 of 1 was summarized before its walk ended"
    with pytest.raises(InternalInconsistency, match=message):
        enumeration._walk_shares(6, 1, next, ())
    assert enumeration._walk_shares(6, 1, lambda pairs: sum(1 for _ in pairs), ()) == [
        sum(len(classes(n)) for n in range(1, 7))
    ]


def _masked(out):
    """Human verify output with each claim's seconds masked."""
    return re.sub(r" \[\d+\.\d\ds\]$", " [-]", out, flags=re.M)


def test_cli_verify_output_does_not_depend_on_jobs(starts, capsys):
    code, one, _ = run(capsys, "verify", "7", "--format", "json", "--jobs", "1")
    assert code == 0 and not starts
    for jobs in (2, 3):
        code, out, _ = run(capsys, "verify", "7", "--format", "json", "--jobs", str(jobs))
        assert code == 0 and out == one
    assert len(starts) == 1 + 2
    assert json.loads(one)["passed"] is True
    human = [run(capsys, "verify", "7", "--jobs", jobs) for jobs in ("1", "2")]
    assert [code for code, _, _ in human] == [0, 0]
    assert _masked(human[0][1]) == _masked(human[1][1])
    assert _masked(human[0][1]).count(" [-]\n") == len(verify.CLAIMS)


def test_verify_check_that_raises_in_a_worker_fails_only_its_own_claim(starts, monkeypatch, capsys):
    # the worker's tree-quotient check raises an error whose constructor takes
    # elements, not a message; it reaches the parent as that claim's failure
    parent = os.getpid()
    real = verify.tree_congruence

    def broken_in_a_worker(S):
        if os.getpid() != parent:
            raise NotAssociative(1, 2, 3)
        return real(S)

    monkeypatch.setattr(verify, "tree_congruence", broken_in_a_worker)
    code, out, _ = run(capsys, "verify", "6", "--jobs", "2")
    assert code == 1 and len(starts) == 1
    assert re.findall(r"^(PASS|FAIL) (\S+) ", out, re.M) == [
        ("FAIL" if name == "tree-quotient" else "PASS", name) for name in verify.CLAIMS.values()
    ]
    assert "FAIL tree-quotient (NotAssociative: meet(meet(1,2),3) != meet(1,meet(2,3))) [" in out


def test_verify_refuses_two_shares_on_one_root(starts, monkeypatch, capsys):
    real = enumeration._owns
    monkeypatch.setattr(enumeration, "_owns", lambda i, share, jobs: i == 0 or real(i, share, jobs))
    with pytest.raises(InternalInconsistency, match="the walk reported a class twice"):
        verify.run_claims(6, jobs=2)
    code, out, err = run(capsys, "verify", "6", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "internal inconsistency: the walk reported a class twice\n"
    assert len(starts) == 2


def _error_classes():
    return [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_pickles_to_itself(cls):
    # a worker hands its exception to the parent pickled
    if "__init__" in vars(cls):  # built from elements, not from a message
        exc = cls(*range(2, 2 + len(inspect.signature(cls).parameters)))
    else:
        exc = cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)
