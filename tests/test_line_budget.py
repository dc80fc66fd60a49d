"""The package stays within the line budget of aim 2 in ROADMAP.md: at
most 4,019 lines in src/sullivan/*.py, so that new code is paid for by
code that gives the same answers and can go."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"
BUDGET = 4019


def test_source_stays_within_its_line_budget():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= BUDGET, lines
