"""`graded` alone multiplies monomials: every product of two elements,
and every algebra map out of a free algebra, goes through its Koszul
sign rule `mono_mul` (in `row_product`, the one multiplicative
extension, the Leibniz rule and `parse_poly`), which takes both
monomials' odd letters as `odd_letters` gives them, so no other module
keeps a product loop of its own.  Checked on the syntax tree of each module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"


def test_no_module_but_graded_calls_mono_mul():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "graded.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                if name == "mono_mul":
                    hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
