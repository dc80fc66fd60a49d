"""The benchmark's tracer patches `sullivan` functions by name, so a
renamed or moved target breaks it.  This checks the names without
installing the tracer (the tracer's own tests take minutes)."""

import importlib
import importlib.util
import pathlib

import pytest

import sullivan

TRACER = (pathlib.Path(__file__).resolve().parent.parent
          / "perfbench" / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, qualname", [
    target for targets in tracer.TARGETS.values() for target in targets])
def test_tracer_target_resolves(module, qualname):
    importlib.import_module(module)
    owner, attr, original = tracer.resolve(module, qualname)
    assert callable(original)
    assert original.__name__ == attr


def test_copied_bindings_the_tracer_patches():
    assert sullivan.models.substitute is sullivan.graded.substitute
    assert sullivan.cdga.kernel_basis is sullivan.linalg.kernel_basis


def test_rref_hook_reads_the_matrix():
    """The tracer's rref after-hook counts through `RatMatrix.data`, `rows`
    and `cols`; removing any of them must fail here, not only in the
    benchmark's own (slow) tests."""
    t = tracer.Tracer()
    t.job = 0
    before, after = t._hooks("linalg.rref")
    assert before is None
    m = sullivan.linalg.RatMatrix.from_rows([{0: 1, 2: 3}, {}, {1: 2}], 3)
    after((m,), sullivan.linalg.rref(m))
    assert t.job_counts[0] == {"linalg.rref.entries": 9, "linalg.rref.nnz": 3,
                               "linalg.rref.rows": 3,
                               "linalg.rref.rank_sum": 2}
