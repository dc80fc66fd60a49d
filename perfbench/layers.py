"""Per-layer metrics of a traced run, and their names, units and
directions as BENCHMARK.json lists them.

Calls and counters are exact and per job: every traced job of a run must
give the same values, or the run reports a failure.  Self seconds are the
median over the traced jobs, corrected for host speed (reference.py).  A
ratio whose denominator is 0 reads 0.
"""

from __future__ import annotations

import statistics

from tracer import SAMPLERS, TARGETS

COUNTERS = [
    ("linalg.rref.entries", "count", "lower"),
    ("linalg.rref.nnz", "count", "lower"),
    ("linalg.rref.density", "ratio", "higher"),
    ("linalg.rref.rank_sum", "count", "lower"),
    ("linalg.rref.rank_yield", "ratio", "higher"),
    ("linalg.rref_per_kernel", "ratio", "lower"),
    ("graded.Derivation.apply.terms_out", "count", "lower"),
    ("graded.substitute.terms_out", "count", "lower"),
    ("cdga.diff_matrix.misses", "count", "lower"),
    ("cdga.diff_matrix.recomputed", "count", "lower"),
    ("cdga.diff_matrix.recompute_ratio", "ratio", "lower"),
    ("models.minimal_model.generators_out", "count", "higher"),
    ("plforms.kernel_basis_per_sample", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

PER_LAYER = ([m for name in TARGETS
              for m in ((f"{name}.calls", "count", "lower"),
                        (f"{name}.self_s", "s", "lower"))]
             + COUNTERS)


def _ratio(num, den):
    return num / den if den else 0.0


def exact_counts(calls, counters):
    """The per-job numbers that must repeat exactly."""
    out = {f"{name}.calls": calls.get(name, 0) for name in TARGETS}
    out.update(counters)
    return out


def layer_metrics(jobs, traced, untraced):
    """Metrics from per-job (calls, self_s, counters) of the traced jobs
    and the traced and untraced `worker.Run`s.  Seconds are corrected for
    host speed like the end-to-end times.

    Returns ({name: value}, mismatches) where mismatches lists the exact
    counts on which the traced jobs disagree.
    """
    exact = [exact_counts(calls, counters) for calls, _, counters in jobs]
    first = exact[0]
    mismatches = sorted(k for e in exact[1:] for k in set(first) | set(e)
                        if e.get(k, 0) != first.get(k, 0))
    calls, _, c = jobs[0]
    out = {f"{name}.calls": calls.get(name, 0) for name in TARGETS}
    # each traced job's self times scale like its own corrected time
    speed = [c / r for c, r in zip(traced.job_times(True),
                                   traced.job_times(False))]
    for name in TARGETS:
        out[f"{name}.self_s"] = statistics.median(
            f * self_s.get(name, 0.0)
            for f, (_, self_s, _) in zip(speed, jobs))
    samples = sum(calls.get(n, 0) for n in SAMPLERS)
    out.update({
        "linalg.rref.entries": c["linalg.rref.entries"],
        "linalg.rref.nnz": c["linalg.rref.nnz"],
        "linalg.rref.density": _ratio(c["linalg.rref.nnz"],
                                      c["linalg.rref.entries"]),
        "linalg.rref.rank_sum": c["linalg.rref.rank_sum"],
        "linalg.rref.rank_yield": _ratio(c["linalg.rref.rank_sum"],
                                         c["linalg.rref.rows"]),
        "linalg.rref_per_kernel": _ratio(c["linalg.rref.in_kernel"],
                                         calls.get("linalg.kernel_basis", 0)),
        "graded.Derivation.apply.terms_out":
            c["graded.Derivation.apply.terms_out"],
        "graded.substitute.terms_out": c["graded.substitute.terms_out"],
        "cdga.diff_matrix.misses": c["cdga.diff_matrix.misses"],
        "cdga.diff_matrix.recomputed": c["cdga.diff_matrix.recomputed"],
        "cdga.diff_matrix.recompute_ratio": _ratio(
            c["cdga.diff_matrix.recomputed"], c["cdga.diff_matrix.misses"]),
        "models.minimal_model.generators_out":
            c["models.minimal_model.generators_out"],
        "plforms.kernel_basis_per_sample": _ratio(
            c["plforms.kernel_basis.in_sample"], samples),
        "trace.overhead_ratio": _ratio(
            statistics.median(traced.job_times(True)),
            statistics.median(untraced.job_times(True))),
    })
    return out, mismatches
