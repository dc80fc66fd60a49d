"""A polynomial form is its `scaled` integer row: in `plforms`, a row is
made from Fractions only where an element comes in (`PolyForm.__init__`),
and Fractions are made from a row only where a form is read as an
element (`PolyForm.element`) or a cochain value leaves (`integrate`), so
no round trip through Fractions sits between the kernel and the cochain.
Checked on the syntax tree of the module."""

import ast
import pathlib

PLFORMS = (pathlib.Path(__file__).resolve().parent.parent / "src"
           / "sullivan" / "plforms.py")


def _callers(tree, names):
    """{name: the qualified names of the functions calling it}."""
    found = {name: [] for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                if name in found:
                    found[name].append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_forms_meet_fractions_only_at_their_edges():
    tree = ast.parse(PLFORMS.read_text(encoding="utf-8"))
    assert _callers(tree, ("ratios", "scaled")) == {
        "ratios": ["PolyForm.element", "integrate"],
        "scaled": ["PolyForm.__init__"]}
