"""Span tracer that measures `sullivan`'s layers from outside.

It wraps the public functions named in `TARGETS` and records one span per
call: name, start, end, parent span and job id, kept in memory and
written out at the end.  A layer's self time is its spans' duration minus
the time covered by their child spans and by the tracer's own counting.

`from .linalg import rref` copies a function into the importing module,
so a function is patched in every `sullivan.*` module that binds it, and a
method on its class.  `uninstall()` puts every original back and checks
that it is back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

# metric prefix -> [(module, qualname)]; several functions may share one
TARGETS = {
    "linalg.rref": [("sullivan.linalg", "rref")],
    "linalg.kernel_basis": [("sullivan.linalg", "kernel_basis")],
    "linalg.image_basis": [("sullivan.linalg", "image_basis")],
    "linalg.span_basis": [("sullivan.linalg", "span_basis")],
    "linalg.quotient_basis": [("sullivan.linalg", "quotient_basis")],
    "linalg.solve": [("sullivan.linalg", "solve")],
    "graded.Derivation.apply": [("sullivan.graded", "Derivation.apply")],
    "graded.substitute": [("sullivan.graded", "substitute")],
    "graded.AlgElement.__mul__": [("sullivan.graded", "AlgElement.__mul__")],
    "graded.FreeAlgebra.basis_of_degree":
        [("sullivan.graded", "FreeAlgebra.basis_of_degree")],
    "cdga.Cdga.__init__": [("sullivan.cdga", "Cdga.__init__")],
    "cdga.Cdga.diff_matrix": [("sullivan.cdga", "Cdga.diff_matrix")],
    "cdga.Cdga.h_dim": [("sullivan.cdga", "Cdga.h_dim")],
    "cdga.Cdga.h_representatives":
        [("sullivan.cdga", "Cdga.h_representatives")],
    "cdga.Cdga.class_coords": [("sullivan.cdga", "Cdga.class_coords")],
    "cdga.Cdga.cohomology": [("sullivan.cdga", "Cdga.cohomology")],
    "cdga.CdgaMorphism.apply": [("sullivan.cdga", "CdgaMorphism.apply")],
    "cdga.CdgaMorphism.h_matrix": [("sullivan.cdga", "CdgaMorphism.h_matrix")],
    "cdga.check_quasi_iso": [("sullivan.cdga", "check_quasi_iso")],
    "models.minimal_model": [("sullivan.models", "minimal_model")],
    "models.free_loop_model": [("sullivan.models", "free_loop_model")],
    "models.path_space_model": [("sullivan.models", "path_space_model")],
    "models.loop_cohomology": [("sullivan.models", "loop_cohomology")],
    "invariants.classify_ellipticity":
        [("sullivan.invariants", "classify_ellipticity")],
    "invariants.classify_space": [("sullivan.invariants", "classify_space")],
    "invariants.finiteness_test": [("sullivan.invariants", "finiteness_test")],
    "invariants.cuplength": [("sullivan.invariants", "cuplength")],
    "invariants.toomer_rank": [("sullivan.invariants", "toomer_rank")],
    "invariants.full_invariants": [("sullivan.invariants", "full_invariants")],
    "plforms.PolyForm.face": [("sullivan.plforms", "PolyForm.face")],
    "plforms.PolyForm.degen": [("sullivan.plforms", "PolyForm.degen")],
    "plforms.PolyForm.d": [("sullivan.plforms", "PolyForm.d")],
    "plforms.integrate": [("sullivan.plforms", "integrate")],
    "plforms.GlobalForm.validate":
        [("sullivan.plforms", "GlobalForm.validate")],
    "plforms.sample_global_form":
        [("sullivan.plforms", "sample_global_form")],
    "plforms.sample_closed_global_form":
        [("sullivan.plforms", "sample_closed_global_form")],
    "plforms.cochain_cohomology": [("sullivan.plforms", "cochain_cohomology")],
    "cli.main": [("sullivan.cli", "main")],
    "cli.load": [("sullivan.cdga", "load_cdga"),
                 ("sullivan.plforms", "load_scomplex"),
                 ("sullivan.plforms", "builtin_complex")],
}

SAMPLERS = ("plforms.sample_global_form", "plforms.sample_closed_global_form")


def resolve(module, qualname):
    """(owner, attribute, original) for a dotted name in a loaded module."""
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)
    return owner, attr, original


def _nnz(rows):
    return sum(1 for row in rows for x in row if x)


def _content_key(cdga, k):
    """What a differential matrix depends on: generators, differential,
    relations, word cap and degree (the object's name and identity not)."""
    fmt = sys.modules["sullivan.graded"].format_element
    gens = tuple((g.name, g.degree) for g in cdga.algebra.generators)
    diff = tuple(sorted((o, fmt(e))
                        for o, e in cdga.differential.images.items()))
    rels = tuple(fmt(r) for r in cdga.relations)
    return (gens, diff, rels, cdga.word_cap, k)


class Tracer:
    """Patch `TARGETS`, record spans and counts while a job id is set."""

    def __init__(self):
        self.names = list(TARGETS)
        self.patched = []  # (owner, attr, original, wrapper)
        self.job = None
        # span i: name index, job id, parent span (-1 for none), start, end
        self.span_name, self.span_job, self.span_parent = [], [], []
        self.span_start, self.span_end = [], []
        self.hidden = []  # per span: tracer time spent inside it
        self.stack = []
        self.job_counts = {}  # job id -> Counter of the counters below
        self.seen_diff = weakref.WeakKeyDictionary()  # Cdga -> degrees
        self.diff_keys = set()  # content keys computed in this job

    # ----- patching -------------------------------------------------------

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        for idx, name in enumerate(self.names):
            for module, qualname in TARGETS[name]:
                owner, attr, original = resolve(module, qualname)
                wrapper = self._wrap(idx, name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    self.patched.append((owner, attr, original, wrapper))
                    continue
                for mod in _sullivan_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self.patched.append((mod, key, original, wrapper))

    def uninstall(self):
        """Restore every original binding and verify the restore."""
        for owner, attr, original, _ in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []
        left = wrappers_left()
        if left:
            raise RuntimeError(f"tracer left patched bindings: {left}")

    def _wrap(self, idx, name, fn):
        before, after = self._hooks(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            if before is not None:
                h0 = clock()
                before(args)
                if parent >= 0:
                    self.hidden[parent] += clock() - h0
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_job.append(self.job)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.hidden.append(0.0)
            self.stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.span_start[sid] = t0
                self.span_end[sid] = t1
            if after is not None:
                after(args, result)
                if parent >= 0:
                    self.hidden[parent] += clock() - t1
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _open(self, names):
        """Is a span of one of `names` open on the stack?"""
        wanted = [self.names.index(n) for n in names]
        return any(self.span_name[s] in wanted for s in self.stack)

    def _count(self, key, n=1):
        self.job_counts.setdefault(self.job, Counter())[key] += n

    def _hooks(self, name):
        count = self._count
        if name == "linalg.rref":
            def after(args, result):
                m = args[0]
                count("linalg.rref.entries", m.rows * m.cols)
                count("linalg.rref.nnz", _nnz(m.data))
                count("linalg.rref.rows", m.rows)
                count("linalg.rref.rank_sum", result[2])
                if self._open(["linalg.kernel_basis"]):
                    count("linalg.rref.in_kernel")
            return None, after
        if name == "linalg.kernel_basis":
            def after(args, result):
                if self._open(SAMPLERS):
                    count("plforms.kernel_basis.in_sample")
            return None, after
        if name in ("graded.Derivation.apply", "graded.substitute"):
            def after(args, result):
                count(f"{name}.terms_out", len(result.terms))
            return None, after
        if name == "cdga.Cdga.diff_matrix":
            def before(args):
                cdga, k = args[0], args[1]
                done = self.seen_diff.setdefault(cdga, set())
                if k in done:
                    return
                done.add(k)
                count("cdga.diff_matrix.misses")
                content = _content_key(cdga, k)
                if content in self.diff_keys:
                    count("cdga.diff_matrix.recomputed")
                self.diff_keys.add(content)
            return before, None
        if name == "models.minimal_model":
            def after(args, result):
                count("models.minimal_model.generators_out",
                      len(result.model.algebra.generators))
            return None, after
        return None, None

    # ----- jobs and results -----------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used around oracle checks)."""
        job, self.job = self.job, None
        try:
            yield
        finally:
            self.job = job

    def start_job(self, job_id):
        self.job = job_id
        self.job_counts[job_id] = Counter()

    def end_job(self):
        self.job = None
        self.seen_diff = weakref.WeakKeyDictionary()
        self.diff_keys = set()

    def job_summary(self, job_id):
        """Per-function calls and self seconds, plus the counters."""
        calls = Counter()
        self_s = Counter()
        child = {}
        for sid, job in enumerate(self.span_job):
            if job != job_id:
                continue
            dur = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + dur
        for sid, job in enumerate(self.span_job):
            if job != job_id:
                continue
            name = self.names[self.span_name[sid]]
            dur = self.span_end[sid] - self.span_start[sid]
            calls[name] += 1
            self_s[name] += dur - child.get(sid, 0.0) - self.hidden[sid]
        return calls, self_s, self.job_counts.get(job_id, Counter())

    def write_spans(self, path):
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["span", "name", "job", "parent", "start",
                                 "end"]) + "\n")
            for sid, idx in enumerate(self.span_name):
                fh.write(json.dumps([
                    sid, self.names[idx], self.span_job[sid],
                    self.span_parent[sid], self.span_start[sid],
                    self.span_end[sid]]) + "\n")


def _sullivan_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "sullivan" or name.startswith("sullivan.")]


def wrappers_left():
    """`sullivan` module and class bindings that hold a tracer wrapper."""
    found = []
    for mod in _sullivan_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{k}"
                          for k, v in vars(value).items()
                          if getattr(v, "__perfbench_wrapper__", False)]
    return found


def profile_check(sullivan, workload):
    """Run one job of `workload` traced and under cProfile at once.

    Returns {metric prefix: (traced calls, cProfile calls)} for every
    target where the two disagree; empty means the tracer saw every call.
    The tracer is removed again before this returns.
    """
    import cProfile
    import pstats

    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    tracer.start_job(0)
    try:
        profile.enable()
        try:
            for _, run, _ in workload.operations():
                run(sullivan)
        finally:
            profile.disable()
    finally:
        tracer.end_job()
        tracer.uninstall()
    stats = pstats.Stats(profile).stats
    calls, _, _ = tracer.job_summary(0)
    mismatches = {}
    for name, targets in TARGETS.items():
        seen = 0
        for module, qualname in targets:
            code = resolve(module, qualname)[2].__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            seen += stats[key][1] if key in stats else 0
        if seen != calls.get(name, 0):
            mismatches[name] = (calls.get(name, 0), seen)
    return mismatches
