#!/usr/bin/env python3
"""End-to-end benchmark of the slcong CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload spectrum-9 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                 # every workload, metrics by name
    python3 perfbench/run.py --trace 1       # every workload, per-layer metrics

Each sample runs ``slcong.cli.main`` in a fresh interpreter (perfbench/sample.py),
one sample at a time.  Every answer is checked against a reference that does
not come from the timed route.  Times are scaled to a reference machine speed
by calibration units timed next to every call and set-up (README
"Steadiness").  The
last line of output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 on a wrong
answer and 2 when the benchmark cannot run at all.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

SETUP_LAUNCHES = 15  # least number of set-up-only interpreters per run, besides the samples
RUN_LIMIT_S = 170  # a run must end well within the 180 s it is allowed

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "decided_share": "share",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
}
# per-layer metrics of a traced run besides those of spans.METRICS
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    pass


def commit():
    """The checkout's commit from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sample(calls, deadline, trace=False, setup_only=False):
    """Run one fresh interpreter; return its report with ``setup_s`` added."""
    request = json.dumps({"calls": calls, "trace": trace, "setup_only": setup_only})
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "sample.py")],
            input=request,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("sample did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - spawned
    return report


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(name, seed, seconds, trace):
    """One run of a workload: (correct, attempted, failed, metrics, record)."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    workload = workloads.make(name, seed)  # references are computed here, untimed
    calls = workload.calls()
    reports = []
    setups = []  # set-up-only interpreters' reports
    if trace:
        reports.append(sample(calls, deadline, trace=True))
        reports.append(sample(calls, deadline))
    else:
        measure_start = time.perf_counter()
        while True:  # another sample only if it should end within ``seconds``
            before = time.perf_counter()
            setups.append(sample(calls, deadline, setup_only=True))
            reports.append(sample(calls, deadline))
            now = time.perf_counter()
            if now - measure_start + (now - before) > seconds:
                break
        while len(setups) < SETUP_LAUNCHES:
            setups.append(sample(calls, deadline, setup_only=True))
    attempted = failed = decided = 0
    errors = []
    call_ms = [[] for _ in calls]  # per call, its time at the reference speed in every sample
    raw_ms = [[] for _ in calls]  # the same, as measured
    for report in reports:
        for i, (code, out, err, secs, ref_secs) in enumerate(report["results"]):
            attempted += workload.ops_per_call
            message = workload.check(i, code, out, err)
            answered = 0
            if message is not None:
                failed += workload.ops_per_call
                errors.append(message)
            else:
                answered = workload.decided(i, code)
                decided += answered
            # a refusal or a wrong answer counts as slower than any answer
            call_ms[i].append(ref_secs * 1000 if answered else math.inf)
            raw_ms[i].append(secs * 1000 if answered else math.inf)
        report["wall_s"] = sum(r[3] for r in report["results"])
        report["ref_wall_s"] = sum(r[4] for r in report["results"])
    for message in errors[:10]:
        print(f"WRONG [{name}]: {message}", file=sys.stderr)
    untraced = reports[-1:] if trace else reports
    interpreters = setups + reports

    def verdicts(per_call):
        ms = [statistics.median(times) for times in per_call]
        # a percentile needs ten verdicts beyond it; below 100 only the median has
        return percentile(ms, 0.5), percentile(ms, 0.9 if len(ms) >= 100 else 0.5)

    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in interpreters),
    }
    raw["verdict_p50_ms"], raw["verdict_p90_ms"] = verdicts(raw_ms)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": len(untraced),
        "sample_wall_s": [r["wall_s"] for r in untraced],
        "setup_samples": len(interpreters),
        "setup_calibration_s": statistics.median(r["setup_cal_s"] for r in interpreters),
        "unscaled": raw,
        "kernels": reports[0]["kernels"],
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": commit(),
        "run_s": time.perf_counter() - started,
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in reports[0]["layers"].items()}
        wall = reports[0]["ref_wall_s"]
        overhead = wall - reports[1]["ref_wall_s"]
        for key, value in (("trace.wall_s", wall), ("trace.overhead_s", overhead)):
            metrics[key] = {"value": value, "unit": TRACE_METRICS[key]}
    else:
        values = {
            "wall_s": statistics.median(r["ref_wall_s"] for r in reports),
            # set-up time is scaled by the calibration unit that follows it
            "setup_s": statistics.median(
                r["setup_s"] * workloads.REFERENCE_S / r["setup_cal_s"] for r in interpreters
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "decided_share": decided / attempted,
        }
        values["verdict_p50_ms"], values["verdict_p90_ms"] = verdicts(call_ms)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return not errors, attempted, failed, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slcong", "cli.py")):
        print(f"error: no slcong package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    all_correct = True
    for name in names:
        try:
            correct, attempted, failed, metrics, record = run(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except BenchError as exc:
            print(f"error [{name}]: {exc}", file=sys.stderr)
            return 2
        except workloads.ReferenceMismatch as exc:
            print(f"WRONG [{name}]: {exc}", file=sys.stderr)
            return 1
        all_correct &= correct
        print(json.dumps({"record": record}))
        if args.workload:
            print(json.dumps(
                {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
            ))
        else:
            for key, m in metrics.items():
                print(f"{name:15} {key:48} {m['value']:>16.6g} {m['unit']}")
            print(f"{name:15} correct={correct} attempted={attempted} failed={failed}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
