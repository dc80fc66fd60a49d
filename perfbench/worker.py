"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only] [--spans FILE]

Run from the repository root with `src` on PYTHONPATH (run.py does this).
Prints one JSON report as its last stdout line.  Without tracing it runs
closed-loop jobs for S seconds.  With tracing it runs traced jobs for S/2
seconds, removes the tracer (checking every original is restored), then
runs untraced jobs for S/2 seconds to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

# Failure messages kept in the report; the count is always complete.
MAX_MESSAGES = 20
# Seconds of operations between two reference measurements in a job,
# and kernel runs per measurement.
REF_EVERY = 4.0
REF_SAMPLES = 2
# Kernel runs after a set-up probe, to correct its time.
SETUP_REF_SAMPLES = 2


def import_sullivan():
    import sullivan
    import sullivan.cdga
    import sullivan.cli
    import sullivan.graded
    import sullivan.invariants
    import sullivan.linalg
    import sullivan.models
    import sullivan.plforms
    return sullivan


def machine_context():
    """Read-only facts about the machine the run used."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


class Run:
    """Closed-loop jobs of one workload and what they measured.

    A reference point runs the kernel REF_SAMPLES times.  There is one at
    the start of every job, one between operations once REF_EVERY seconds
    of them have passed, and one after the last job.  An operation's time
    is corrected by the median kernel time of the points just before and
    just after it (see reference.py).
    """

    def __init__(self, sullivan, workload, pause=None):
        self.sullivan = sullivan
        self.workload = workload
        self.pause = pause  # context that stops tracing during checks
        self.points = []  # kernel times of each reference point, in order
        self.ops = []  # (seconds, job, index of the point before it)
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def reference(self):
        self.points.append([reference.measure() for _ in range(REF_SAMPLES)])

    def job(self):
        """Run one job: every operation timed, then checked untimed."""
        self.reference()
        since_ref = 0.0
        for label, run, check in self.workload.operations():
            if since_ref >= REF_EVERY:
                self.reference()
                since_ref = 0.0
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = run(self.sullivan)
                error = None
            except Exception as exc:  # a failed operation, counted below
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            since_ref += elapsed
            self.ops.append((elapsed, self.jobs, len(self.points) - 1))
            if error is None:
                if self.pause is None:
                    error = check(self.sullivan, result)
                else:
                    with self.pause():
                        error = check(self.sullivan, result)
            if error is not None:
                self.failed += 1
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(f"{label}: {error}")
        self.jobs += 1

    def warm_up(self):
        """Run the workload's warm-up jobs: checked, but not timed."""
        for _ in range(self.workload.warmup_jobs):
            self.job()
        self.ops, self.jobs = [], 0

    def loop(self, seconds, min_ops=1, before_job=None, after_job=None):
        """Closed loop: the next job starts when the last one finished,
        until `seconds` have passed and at least `min_ops` ran."""
        start = time.perf_counter()
        ops_before = len(self.ops)
        n = 0
        while (n == 0 or time.perf_counter() - start < seconds
               or len(self.ops) - ops_before < min_ops):
            gc.collect()
            if before_job:
                before_job(n)
            self.job()
            if after_job:
                after_job(n)
            n += 1
        self.reference()

    def op_times(self, corrected):
        """Seconds per operation, as measured or corrected."""
        if not corrected:
            return [t for t, _, _ in self.ops]
        return [reference.correct(t, self.points[i] + self.points[i + 1])
                for t, _, i in self.ops]

    def job_times(self, corrected):
        """Seconds per job: the sum of its operations."""
        out = [0.0] * self.jobs
        for (_, job, _), t in zip(self.ops, self.op_times(corrected)):
            out[job] += t
        return out


def _p50_p90(values):
    if len(values) < 2:
        return values[0], values[0]
    return (statistics.median(values),
            statistics.quantiles(values, n=10, method="inclusive")[8])


def summary(run):
    """Medians and percentiles, corrected for host speed (see
    reference.py) and as measured ("raw_").

    Latency is per request: one operation where the workload's
    operations are commands (cli-corpus), else one job.
    """
    out = {}
    for corrected, prefix in ((True, ""), (False, "raw_")):
        jobs = run.job_times(corrected)
        lat = (run.op_times(corrected) if run.workload.ops_are_requests
               else jobs)
        p50, p90 = _p50_p90(lat)
        out[f"{prefix}wall_s"] = statistics.median(jobs)
        out[f"{prefix}latency_ms_p50"] = p50 * 1000
        out[f"{prefix}latency_ms_p90"] = p90 * 1000
    out.update({
        "reference_s": statistics.median(t for p in run.points for t in p),
        "jobs": run.jobs,
        "job_walls_s": run.job_times(False),
        "requests": len(lat),
        "attempted": run.attempted,
        "failed": run.failed,
        "messages": run.messages,
    })
    return out


def traced(sullivan, workload, seconds, spans_path=None):
    """Traced jobs, then the tracer removed and untraced jobs."""
    from layers import layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    run = Run(sullivan, workload, pause=tracer.paused)
    run.warm_up()
    tracer.install()
    run.loop(seconds / 2, before_job=tracer.start_job,
             after_job=lambda n: tracer.end_job())
    tracer.uninstall()  # raises if any wrapper is left behind
    plain = Run(sullivan, workload)
    plain.loop(seconds / 2)
    jobs = [tracer.job_summary(j) for j in range(run.jobs)]
    metrics, mismatches = layer_metrics(jobs, run, plain)
    report = summary(run)
    report["untraced"] = summary(plain)
    report["layers"] = metrics
    report["attempted"] += plain.attempted
    report["failed"] += plain.failed
    report["messages"] += plain.messages
    report["attempted"] += 1  # the exact-count check across traced jobs
    if mismatches:
        report["failed"] += 1
        report["messages"].append(
            f"traced jobs disagree on exact counts: {mismatches}")
    if spans_path:
        tracer.write_spans(spans_path)
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sullivan = import_sullivan()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(sullivan)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        kernel_s = [reference.measure() for _ in range(SETUP_REF_SAMPLES)]
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0

    if args.trace:
        report = traced(sullivan, workload, args.seconds, args.spans)
    else:
        run = Run(sullivan, workload)
        run.warm_up()
        run.loop(args.seconds, min_ops=workload.min_ops)
        report = summary(run)
    report["worker_setup_s"] = setup_s
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    report["machine"] = machine_context()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
