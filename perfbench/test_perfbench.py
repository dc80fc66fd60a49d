"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

from the repository root.  The tracer checks run one job of every
workload, so this takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sullivan = worker.import_sullivan()


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER


def test_oracles():
    assert workloads.bott_samelson(2, 2, 6) == [1, 2, 4, 8, 16, 32, 64]
    assert workloads.bott_samelson(2, 3, 6) == [1, 1, 2, 3, 5, 8, 13]
    assert workloads.bott_samelson(3, 3, 6) == [1, 0, 2, 0, 4, 0, 8]
    s2 = workloads.free_loop_sphere(2, 10)
    s4 = workloads.free_loop_sphere(4, 10)
    assert s4 == [1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1]
    assert workloads.convolve(workloads.convolve(s2, s2), s4) == \
        [1, 2, 3, 5, 8, 11, 14, 17, 20, 24, 29]


def test_seed_zero_is_the_input_as_written():
    assert workloads.seeded_cdga_text(workloads.WEDGE_S3S3, 0) == (
        "cdga H(S3vS3)\ngen x 3\ngen x_2 3\nrel 6 : x*x_2\n")


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_seeded_inputs_are_isomorphic(seed):
    parse = sullivan.cdga.parse_cdga_file
    for p in (workloads.WEDGE_S2S2, workloads.WEDGE_S2S3):
        a = parse(workloads.seeded_cdga_text(p, 0))
        b = parse(workloads.seeded_cdga_text(p, seed))
        assert a.cohomology(6).dims == b.cohomology(6).dims
        assert workloads.seeded_cdga_text(p, seed) == \
            workloads.seeded_cdga_text(p, seed)
    loops = sullivan.models.free_loop_model(
        parse(workloads.seeded_cdga_text(workloads.S2S2S4_MODEL, seed)))
    assert [loops.h_dim(k) for k in range(7)] == [1, 2, 3, 5, 8, 11, 14]


def _cheap_cli(seed=0, commands=3):
    w = workloads.CliCorpus(seed)
    w.setup(sullivan)
    w.commands = [c for c in w.commands if c[0] == "cohomology"][:commands]
    return w


def test_wrong_expected_value_is_an_error():
    w = _cheap_cli()
    code, out = w.expected[tuple(w.commands[0])]
    w.expected[tuple(w.commands[0])] = (code, out.replace("1", "2", 1))
    r = worker.Run(sullivan, w)
    r.loop(0)
    s = worker.summary(r)
    assert s["failed"] == 1 and s["attempted"] == 3
    assert s["failed"] / s["attempted"] > 0

    class WrongStokes(workloads.PlStokes):
        cases = [("bddelta3", [1, 0, 0])]  # the 2-sphere has H^2 = Q
        trials = 3
        poly_cap = 1
    r = worker.Run(sullivan, WrongStokes(0))
    r.loop(0)
    assert r.failed == 1 and "cochain cohomology" in r.messages[0]


def test_cli_seed_sets_command_order():
    a = workloads.CliCorpus(0)
    b = workloads.CliCorpus(5)
    a.setup(sullivan)
    b.setup(sullivan)
    assert a.commands == workloads.cli_corpus_commands()
    assert sorted(map(tuple, a.commands)) == sorted(map(tuple, b.commands))
    assert a.commands != b.commands
    assert len(a.commands) >= 80


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracer_sees_every_call_cprofile_sees(name):
    w = workloads.WORKLOADS[name](0)
    w.setup(sullivan)
    originals = {(m, q): tracer.resolve(m, q)[2]
                 for targets in tracer.TARGETS.values() for m, q in targets}
    assert tracer.profile_check(sullivan, w) == {}
    assert tracer.wrappers_left() == []
    for (m, q), fn in originals.items():
        assert tracer.resolve(m, q)[2] is fn


def test_tracer_patches_copied_bindings():
    t = tracer.Tracer()
    t.install()
    try:
        assert sullivan.cdga.rref is sullivan.linalg.rref
        assert getattr(sullivan.linalg.rref, "__perfbench_wrapper__", False)
        assert getattr(sullivan.models.substitute, "__perfbench_wrapper__",
                       False)
        assert getattr(sullivan.cli.load_cdga, "__perfbench_wrapper__", False)
    finally:
        t.uninstall()
    assert tracer.wrappers_left() == []


def _traced_counts(name, seed):
    report = run.call_worker(["--workload", name, "--seed", str(seed),
                              "--seconds", "0", "--trace", "1"], 600)
    assert report["failed"] == 0, report["messages"]
    m = report["layers"]
    return {k: v for k, v in m.items()
            if k.endswith(".calls") or k.startswith("cdga.diff_matrix.")
            or k in ("linalg.rref.entries", "linalg.rref.nnz",
                     "linalg.rref.rank_sum")}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 3)
    assert first == _traced_counts(name, 3)
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


def test_result_line_and_machine_context():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pl-stokes",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("machine  nproc ") and " python " in line
               and " loadavg " in line for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
