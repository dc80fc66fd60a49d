"""Importing the package loads the package and nothing else.

Every command runs in a fresh process, so each module that
`import sullivan.cli` drags in is paid for on every command, and the
commands themselves take a few milliseconds.  In a fresh interpreter
that has already imported the standard-library modules `src/` names,
the import adds only `sullivan` and `sullivan.*`.  The interpreter runs
with `-S`, so that nothing from site-packages is loaded first.  (A
dataclass, for one, loads `dataclasses` and with it `inspect`, `ast`,
`dis`, `tokenize` and more, most of the import's time.)
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The standard library as `src/` imports it; a new import joins this list
# on purpose, once its own footprint is known.
STDLIB = ["__future__", "argparse", "bisect", "collections", "fractions",
          "functools", "itertools", "json", "math", "os", "random", "re",
          "sys"]

PROBE = """\
import json, sys
import {stdlib}
before = set(sys.modules)
import sullivan.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _imported_modules():
    """The top-level names of the absolute imports in src/sullivan/*.py."""
    names = set()
    for path in sorted((SRC / "sullivan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_the_stdlib_list_is_what_the_package_imports():
    assert _imported_modules() == set(STDLIB)


def test_importing_the_cli_loads_only_the_package():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(stdlib=", ".join(STDLIB))],
        capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(proc.stdout)
    assert "sullivan.cli" in loaded
    assert [m for m in loaded
            if m != "sullivan" and not m.startswith("sullivan.")] == []
