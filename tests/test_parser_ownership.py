"""Each line-format parser names the `file:line` of a refusal in one place:
its one `except` handler, which turns the plain refusal raised while a line
is read into a located one.  A refusal added later is then located without
extra work.  Checked on the syntax tree of each module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"
PARSERS = {"cdga": "parse_cdga_file", "plforms": "parse_scomplex_file"}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _parser(tree, name):
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _handlers(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.ExceptHandler)]


def _outside(nodes, handler):
    inside = set(map(id, ast.walk(handler)))
    return [n.lineno for n in nodes if id(n) not in inside]


@pytest.mark.parametrize("module", sorted(PARSERS))
def test_a_parser_reads_its_filename_only_in_its_one_handler(module):
    fn = _parser(_tree(module), PARSERS[module])
    handlers = _handlers(fn)
    reads = [n for n in ast.walk(fn) if isinstance(n, ast.Name)
             and n.id == "filename" and isinstance(n.ctx, ast.Load)]
    assert (len(handlers), _outside(reads, handlers[-1])) == (1, [])


def test_a_cdga_file_error_is_built_only_in_the_parsers_handler():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    handler = _handlers(_parser(trees["cdga"], PARSERS["cdga"]))[-1]
    sites = []
    for module, tree in trees.items():
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name)
                 and n.func.id == "CdgaFileError"]
        sites += [f"{module}:{line}" for line in _outside(calls, handler)]
    assert sites == []
