"""Record the CLI corpus oracle: exit code and --json stdout per command.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py

It rewrites perfbench/golden_cli.json.  The cli-corpus workload then
requires every command to reproduce these bytes exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import sullivan.cli  # noqa: E402

from workloads import GOLDEN_CLI, cli_corpus_commands, run_cli  # noqa: E402


def main():
    records = []
    for argv in cli_corpus_commands():
        t0 = time.perf_counter()
        code, out = run_cli(sullivan, argv)
        elapsed = time.perf_counter() - t0
        print(f"{elapsed:8.3f}s exit {code}  {' '.join(argv)}",
              file=sys.stderr)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN_CLI.write_text(json.dumps(records, indent=1) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
