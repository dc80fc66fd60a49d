"""Replay recorded CLI runs in process.

The records of perfbench/golden_cli.json hold the exit code and the
exact stdout bytes of each command, so any change to the numbers,
representatives or rendering of a `--json` document fails here.  The
files under tests/data/golden/ hold the default text output of the
README commands, one file per subcommand, and tests/data/golden_text.json
(written by tests/record_golden_text.py) holds the default text output of
every data file through every subcommand; both lock the text renderers
the same way.
"""

import json
import pathlib

import pytest

from record_golden_text import GOLDEN_TEXT as TEXT_LOCK, run, text_commands

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = json.loads((ROOT / "perfbench" / "golden_cli.json")
                     .read_text(encoding="utf-8"))
GOLDEN_TEXT = ROOT / "tests" / "data" / "golden"
TEXT_RECORDS = json.loads(TEXT_LOCK.read_text(encoding="utf-8"))
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
