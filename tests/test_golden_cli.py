"""Replay every recorded CLI run of perfbench/golden_cli.json in process.

The records hold the exit code and the exact stdout bytes of each
command, so any change to the numbers, representatives or rendering of
a `--json` document fails here.
"""

import contextlib
import io
import json
import pathlib

import pytest

from sullivan.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = json.loads((ROOT / "perfbench" / "golden_cli.json")
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_matches_record(record, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded argv name files under data/
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(record["argv"]))
    assert code == record["exit"]
    assert out.getvalue() == record["stdout"]
