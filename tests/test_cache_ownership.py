"""`Cdga` alone reads and writes its per-degree caches: another module
that reached into them (to drop or to seed an entry) would depend on
when `Cdga` fills them.  Checked on the syntax tree of each module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"
CACHES = {"_diff_cache", "_rank_cache", "_h_cache", "_class_mats",
          "_basis_cache", "_quotient_cache", "_rel_cache",
          "_projection_cache"}


def test_no_module_but_cdga_names_a_cdga_cache():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cdga.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in CACHES:
                hits.append(f"{path.name}:{node.lineno} {name}")
    assert hits == []
