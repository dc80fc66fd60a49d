"""Record the text lock: exit code and default (text) stdout per command.

Run from the repository root at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 tests/record_golden_text.py

It rewrites tests/data/golden_text.json, which tests/test_golden_cli.py
replays.  The commands are `validate` on every data file, the seven model
subcommands on every data/*.cdga file, and `pl-verify` on every
data/*.scx file, all with their default options.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

from sullivan.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_TEXT = ROOT / "tests" / "data" / "golden_text.json"
MODEL_COMMANDS = ("cohomology", "minimal-model", "loop", "free-loop",
                  "path-space", "classify", "invariants")


def text_commands():
    files = sorted(p.name for p in (ROOT / "data").iterdir())
    commands = [["validate", f"data/{f}"] for f in files]
    for f in files:
        if f.endswith(".cdga"):
            commands += [[sub, f"data/{f}"] for sub in MODEL_COMMANDS]
    commands += [["pl-verify", f"data/{f}"] for f in files
                 if f.endswith(".scx")]
    return commands


def run(argv):
    """Run `sullivan.cli.main(argv)` in process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def main():
    os.chdir(ROOT)  # the recorded argv name files under data/
    records = [dict(zip(("argv", "exit", "stdout"), (argv, *run(argv))))
               for argv in text_commands()]
    GOLDEN_TEXT.write_text(json.dumps(records, indent=1) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
