"""Replay recorded CLI runs in process.

The records of perfbench/golden_cli.json hold the exit code and the
exact stdout bytes of each command, so any change to the numbers,
representatives or rendering of a `--json` document fails here.  The
files under tests/data/golden/ hold the default text output of the
README commands, one file per subcommand, and tests/data/golden_text.json
holds the default text output of every data file through every
subcommand; both lock the text renderers the same way.
tests/data/golden_constructions.json holds `format_cdga` of the products,
wedges, fibers, pushouts, path spaces and free loop spaces that the model
constructions build, with the fiber names of each relative algebra, so a
change to how a construction moves a differential fails here too.
tests/record_golden_text.py writes both JSON locks in one run.
"""

import json
import pathlib

import pytest

from record_golden_text import (
    GOLDEN_CONSTRUCTIONS,
    GOLDEN_TEXT as TEXT_LOCK,
    construction_record,
    constructions,
    run,
    text_commands,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = json.loads((ROOT / "perfbench" / "golden_cli.json")
                     .read_text(encoding="utf-8"))
GOLDEN_TEXT = ROOT / "tests" / "data" / "golden"
TEXT_RECORDS = json.loads(TEXT_LOCK.read_text(encoding="utf-8"))
CONSTRUCTION_RECORDS = json.loads(
    GOLDEN_CONSTRUCTIONS.read_text(encoding="utf-8"))
README_COMMANDS = [
    "cohomology data/nonformal.cdga -N 12",
    "minimal-model data/h_cp2.cdga -N 10",
    "loop data/model_s3.cdga -N 20",
    "free-loop data/model_s2.cdga -N 12",
    "path-space data/model_s2.cdga",
    "classify data/elliptic6.cdga -N 40 -B 60",
    "invariants data/h_cp2.cdga -N 12 -B 40",
    "pl-verify --builtin bddelta3 --trials 20 --poly-cap 3 --seed 1",
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_record(record, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded argv name files under data/
    code, out = run(record["argv"])
    assert code == record["exit"]
    assert out == record["stdout"]


@pytest.mark.parametrize("command", README_COMMANDS)
def test_cli_text_output_matches_record(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = command.split()
    code, out = run(argv)
    assert code == 0
    assert out == (GOLDEN_TEXT / f"{argv[0]}.txt").read_text(encoding="utf-8")


def test_text_lock_covers_every_data_file():
    assert [r["argv"] for r in TEXT_RECORDS] == text_commands()


@pytest.mark.parametrize("record", TEXT_RECORDS,
                         ids=[" ".join(r["argv"]) for r in TEXT_RECORDS])
def test_cli_text_output_matches_lock(record, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(record["argv"])
    assert code == record["exit"]
    assert out == record["stdout"]


def test_construction_lock_covers_every_construction():
    assert [r["label"] for r in CONSTRUCTION_RECORDS] == \
        [label for label, _ in constructions()]


@pytest.mark.parametrize("label, make", constructions(),
                         ids=[label for label, _ in constructions()])
def test_construction_matches_lock(label, make):
    record = next(r for r in CONSTRUCTION_RECORDS if r["label"] == label)
    assert {"label": label, **construction_record(make())} == record
