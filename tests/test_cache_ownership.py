"""`Cdga` alone reads and writes its per-degree caches: another module
that reached into them (to drop or to seed an entry) would depend on
when `Cdga` fills them.  Within `Cdga`, `diff_matrix` alone writes a
matrix of d, so a hook there sees every one, and `_h_data` alone records
the columns of d it found independent.  Checked on the syntax tree of
each module."""

import ast
import pathlib

from test_api_ownership import _modules, _walk

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"
CACHES = {"_diff_cache", "_rank_cache", "_h_cache", "_class_mats",
          "_basis_cache", "_quotient_cache", "_rel_cache",
          "_projection_cache", "_recorded", "_image_columns"}
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__",
            "__delitem__"}


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


def _is_table(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


def _writers_and_binders(name):
    """Where an entry of the table `name` is stored or deleted, by
    subscript or by a dict method, and where the table is bound."""
    writes, binds = [], []
    for mod, scope, node in _walk(_modules()):
        where = ".".join((mod,) + scope)
        if (isinstance(node, ast.Subscript) and _is_table(node.value, name)
                and not isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr in MUTATORS
                and _is_table(node.value, name)):
            writes.append(where)
        if _is_table(node, name) and not isinstance(node.ctx, ast.Load):
            binds.append(where)
    return writes, binds


def test_only_diff_matrix_writes_a_matrix_of_d():
    """An entry of `_diff_cache` is stored or deleted, by subscript or by
    a dict method, only in `Cdga.diff_matrix`, and the table is bound only
    in `Cdga.__init__`."""
    writes, binds = _writers_and_binders("_diff_cache")
    assert writes == ["cdga.Cdga.diff_matrix"]
    assert binds == ["cdga.Cdga.__init__"]


def test_only_h_data_records_the_columns_of_d_it_found_independent():
    """An entry of `_image_columns` is stored only in `Cdga._h_data`, where
    the kernel of d_k is taken; the table is bound in `Cdga.__init__`
    and, as a copy of the parent's, in `Cdga.extend`, where a record
    whose domain grew is kept but never read."""
    writes, binds = _writers_and_binders("_image_columns")
    assert writes == ["cdga.Cdga._h_data"]
    assert sorted(binds) == ["cdga.Cdga.__init__", "cdga.Cdga.extend"]
    extend = next(node for mod, scope, node in _walk(_modules())
                  if (mod, scope) == ("cdga", ("Cdga",))
                  and getattr(node, "name", "") == "extend")
    copies = [node.value for node in ast.walk(extend)
              if isinstance(node, ast.Assign)
              and _is_table(node.targets[0], "_image_columns")]
    assert [ast.unparse(v) for v in copies] == ["dict(self._image_columns)"]
