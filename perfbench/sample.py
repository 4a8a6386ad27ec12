"""One benchmark sample in a fresh interpreter.

Reads a JSON request on stdin: {"calls": [argv, ...], "trace": bool,
"setup_only": bool}.  Imports the package from ``src/`` of the checkout,
then calls ``slcong.cli.main`` in-process once per argv, capturing what
each call prints.  Writes one JSON object to stdout: the clock reading when
set-up ended (``time.perf_counter`` is system-wide, so the parent can
subtract its spawn time), the calibration unit timed right after set-up,
and unless ``setup_only`` the peak RSS, with ``trace`` the per-layer
metrics, and for every call its exit code, output, measured seconds and
seconds at the reference speed.

The machine's speed is read with calibration units (``workloads.calibration``)
before every call, after every call, and, unless tracing, every
``INTERVAL_S`` during a call from a SIGALRM handler, which runs in this thread between two bytecodes of
the package.  A call's time is the sum of the stretches between readings;
the handlers' own time is left out.  Each stretch is scaled to the reference
speed by the mean of the two readings at its ends.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INTERVAL_S = 0.2


def timed_call(cli, argv, calibration, reference_s, before, interval_s=INTERVAL_S):
    """(code, out, err, seconds, reference seconds, calibration after) of one CLI call.

    ``before`` is the calibration time read just before the call.  With
    ``interval_s`` None there are no readings during the call.
    """
    readings = []  # (start, end, calibration seconds) of each in-call reading

    def on_alarm(signum, frame):
        start = time.perf_counter()
        seconds = calibration()
        readings.append((start, time.perf_counter(), seconds))

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    if interval_s:
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    after = calibration()
    seconds = reference = 0.0
    for stop, resume, cal in readings + [(end, None, after)]:
        stretch = stop - start
        seconds += stretch
        reference += stretch * 2 * reference_s / (before + cal)
        start, before = resume, cal
    return code, out.getvalue(), err.getvalue(), seconds, reference, after


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    request = json.load(sys.stdin)
    from slcong import cli, kernels

    report = {"kernels": kernels.IMPLEMENTATION}
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    report["ready"] = time.perf_counter()
    from workloads import REFERENCE_S, calibration

    calibration()  # warm-up, untimed
    cal = report["setup_cal_s"] = calibration()
    if not request["setup_only"]:
        results = []
        for argv in request["calls"]:
            # no readings during traced calls, which would add to the spans' times
            interval = None if tracer else INTERVAL_S
            *result, cal = timed_call(cli, argv, calibration, REFERENCE_S, cal, interval)
            results.append(result)
        report["results"] = results
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.metrics()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
