"""The walk split into shares: one per process, merged in the parent.

Every test that starts a worker checks that none is left running.
"""

import json
import multiprocessing
import multiprocessing.process
import os
import sys
import threading

import pytest

from conftest import classes
from slcong import enumeration
from slcong.cli import main
from slcong.enumeration import (
    SPLIT_N,
    SPLIT_ROOTS,
    enumerate_semilattices,
    spectrum,
    top_values,
    walk,
)
from slcong.errors import InternalInconsistency, NotEnoughValues, TooLarge


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
    whole = [S.meet for S in walk(8)]
    shares = [[S.meet for S in walk(8, share, 3)] for share in range(3)]
    assert sorted(whole) == sorted(meet for share in shares for meet in share)
    assert all(len(meet) >= SPLIT_N for share in shares[1:] for meet in share)
    assert all(shares)
    # a share's summary keeps the key of each class it reports from the split up
    keys = enumeration._spectrum_share(8, None, 1, 3)[2]
    assert keys == {enumeration._key(S) for S in walk(8, 1, 3)}


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


def test_spectrum_nine_on_two_processes(starts):
    # 5,994 classes: the 10-element lattices, OEIS A006966 (Heitzig and
    # Reinhold, "Counting finite lattices", Algebra Universalis 2002)
    sp = spectrum(9, top=4, jobs=2)
    assert len(starts) == 1
    assert sum(sp.witness_totals.values()) == 5994
    assert len(sp.values) == 89
    assert [(v, sorted(c.value for c in found)) for v, found in top_values(sp, 4)] == [
        (256, ["Tree"]),
        (224, ["NucleusB4"]),
        (208, ["NucleusN5"]),
        (200, ["NucleusF", "NucleusN6"]),
    ]
    assert [sp.witness_totals[v] for v in (256, 224, 208, 200)] == [286, 506, 378, 90 + 148]


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
    for argv in (["spectrum", "7"], ["enumerate", "7"]):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: jobs must be at least 1, got {jobs}\n"
    with pytest.raises(TooLarge):
        spectrum(7, jobs=0)


def test_two_shares_on_one_root_are_refused(starts, monkeypatch, capsys):
    # both shares walk root 0; each keeps its own duplicate check, so only
    # the parent's check of the key sets can see it
    real = enumeration._owns
    monkeypatch.setattr(enumeration, "_owns", lambda i, share, jobs: i == 0 or real(i, share, jobs))
    with pytest.raises(InternalInconsistency, match="two shares"):
        spectrum(7, jobs=2)
    with pytest.raises(InternalInconsistency, match="two shares"):
        enumerate_semilattices(7, jobs=2)
    code, out, err = run(capsys, "spectrum", "7", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == "internal inconsistency: two shares of the walk reported the same class\n"
    assert len(starts) == 3


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_an_inconsistency_in_one_process_ends_the_run(starts, monkeypatch, capsys, where):
    # a worker's error reaches the parent as the same type; an error in the
    # parent's own share stops the worker
    parent = os.getpid()
    real = enumeration.congruence_count

    def count_in_one_process(S):
        if (os.getpid() == parent) == (where == "parent"):
            raise InternalInconsistency(f"counted in the {where}")
        return real(S)

    monkeypatch.setattr(enumeration, "congruence_count", count_in_one_process)
    with pytest.raises(InternalInconsistency, match=f"counted in the {where}"):
        spectrum(7, jobs=2)
    code, out, err = run(capsys, "spectrum", "7", "--top", "4", "--jobs", "2")
    assert code == 1 and out == ""
    assert err == f"internal inconsistency: counted in the {where}\n"
    assert len(starts) == 2


def test_a_worker_that_dies_ends_the_run(starts, monkeypatch):
    parent = os.getpid()
    real = enumeration.congruence_count

    def die_in_a_worker(S):
        if os.getpid() != parent:
            os._exit(3)
        return real(S)

    monkeypatch.setattr(enumeration, "congruence_count", die_in_a_worker)
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
    with pytest.raises(ValueError, match="its 1 largest values, fewer than the 2"):
        top_values(spectrum(5, top=1), 2)
