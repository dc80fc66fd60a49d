"""The core computes in exact arithmetic only, as README.md says: no
source file of src/sullivan holds a float constant or names `float`, and
`math` is imported only for its integer functions."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"
INTEGER_MATH = {"gcd", "lcm", "factorial", "prod"}


def inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float,
                                                                  complex):
            yield node.lineno, f"float constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "use of float"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, "import math") for alias in node.names
                        if alias.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{alias.name}")
                        for alias in node.names
                        if alias.name not in INTEGER_MATH)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_core_source_has_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(inexact_nodes(tree)) == []


def test_the_check_sees_each_kind_of_float():
    tree = ast.parse("import math\nfrom math import gcd, log\n"
                     "x = float(2) * 0.5\n")
    assert sorted(inexact_nodes(tree)) == [
        (1, "import math"), (2, "math.log"), (3, "float constant 0.5"),
        (3, "use of float")]
