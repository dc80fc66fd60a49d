"""`graded` alone multiplies monomials: every product of two elements,
and every algebra map out of a free algebra, goes through its Koszul
sign rule `mono_mul` (in `row_product`, the one multiplicative
extension, the Leibniz rule and `parse_poly`), which takes both
monomials' odd letters as `odd_letters` gives them, so no other module
keeps a product loop of its own.  Likewise d has one assembler, the
Leibniz kernel `Derivation.columns`, which keys each column by the basis
index as it sums: no module hands `leibniz` to `monomial_columns`, which
would build and re-key a dict per monomial.  Checked on the syntax tree
of each module."""

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


def _called_name(func):
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def test_no_module_hands_leibniz_to_monomial_columns():
    """The map given to `monomial_columns` is neither `leibniz` nor a
    lambda that only calls it; `leibniz` inside a `memo_linear` chain, as
    modulo relations, is a different map."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and node.args
                    and _called_name(node.func) == "monomial_columns"):
                f = node.args[0]
                if isinstance(f, ast.Lambda) and isinstance(f.body, ast.Call):
                    f = f.body.func
                if _called_name(f) == "leibniz":
                    hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
