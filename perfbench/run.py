"""The sullivan benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh subprocess
(perfbench/worker.py) as closed-loop jobs from one client for S seconds;
every output is checked against its oracle.  The set-up time is the
median over several fresh processes.  Times are corrected for the host's
speed drift (see reference.py).  Every metric is printed by name
with its unit, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit status is 0 when a result was printed, 1 when the workload process
failed, 2 when the checkout lacks the program (src/sullivan) or its data.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Times are corrected for the host's speed drift (see reference.py); the
# raw measurements are printed next to them.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
RAW = [
    ("raw_wall_s", "s"),
    ("raw_latency_ms_p50", "ms"),
    ("raw_latency_ms_p90", "ms"),
    ("raw_setup_s", "s"),
    ("reference_s", "s"),
]

SETUP_PROBES = 5  # fresh processes whose set-up time gives setup_s
WORKER_TIMEOUT = 170  # seconds; a run must end within 180


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    # fixed string hashing, so set iteration order and therefore the
    # exact per-layer counts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args, timeout):
    """Run perfbench/worker.py; return its JSON report (last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src/sullivan/__init__.py").is_file()
            and Path("data").is_dir()):
        print("error: run from the root of a sullivan checkout "
              "(src/sullivan and data/ are missing here)", file=sys.stderr)
        return 2
    # byte-compile once, so no set-up probe pays for compiling
    compileall.compile_dir("src/sullivan", quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [call_worker(common + ["--setup-only"], 60)
                  for _ in range(SETUP_PROBES)]
        worker_args = common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)]
        if args.trace:
            out = Path("perfbench/out")
            worker_args += ["--spans", str(
                out / f"spans-{args.workload}-{args.seed}.jsonl")]
        report = call_worker(worker_args, WORKER_TIMEOUT)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = [p["setup_s"] for p in probes]
    report["raw_setup_s"] = statistics.median(setups)
    report["setup_s"] = reference.correct(
        report["raw_setup_s"], [t for p in probes for t in p["kernel_s"]])
    values, specs = report, END_TO_END
    if args.trace:
        values, specs = report["layers"], PER_LAYER

    attempted, failed = report["attempted"], report["failed"]
    machine = report["machine"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine  nproc {machine['nproc']}  python {machine['python']}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in machine['loadavg'])}")
    print(f"jobs {report['jobs']}  latency samples {report['requests']}  "
          f"job walls {' '.join(f'{w:.3f}' for w in report['job_walls_s'])} s")
    print(f"setup probes {' '.join(f'{s:.4f}' for s in setups)} s")
    print(f"{'error_rate':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    for message in report["messages"]:
        print(f"  failure: {message}")
    for name, unit in RAW:
        print(f"{name:40s} {report[name]:.6g} {unit}")
    for name, unit, _ in specs:
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
