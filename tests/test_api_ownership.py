"""Every public name of the package has a caller in `src/`, and so do
every public method and every keyword parameter with a default on a
public function.

The public names of a module are its `__all__`, or, where it has none,
the functions, classes and constants it defines without a leading
underscore; its public methods are the methods of its public classes
without a leading underscore; the public functions are those names and
methods, with each public class's `__init__`.  A name or a method
counts as used when some module of the package reads it (a
call, an attribute, a bare name) outside its own `def` or `class`, or
when `pyproject.toml` names it as a console script; re-exports from
`__init__.py` do not count.  A method is known by its name alone, so a
read of any attribute of that name counts.  A parameter
counts as passed when some call in the package, outside the function's
own body, gives it by keyword or by position.  What only tests reach is
refused, unless ROADMAP.md names an item that will give it a caller:
those few names wait on the allow-lists below, and an entry that gets a
caller must leave its list.  Checked on the syntax trees of the package.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sullivan"

# Names that nothing in the package reads: each waits on the ROADMAP item
# named, but the catalog's constructors are inputs for tests and users.
UNCALLED = {
    "linalg.rref",  # item 1: perfbench reads it; the benchmark refresh decides
    "models.acyclic_closure",  # items 4 and 6: the acyclic closure of k
    "invariants.pure_filtration_homology",  # items 4 and 6: Koszul degree
    "models.fiber_model",  # item 10: the fibre of a relative minimal model
    "models.pushout_model",  # item 10: base change of a relative model
    "plforms.cochain_cup",  # item 14: integration as a ring map
    "catalog.sphere_model",
    "catalog.cp_model",
    "catalog.cp_cohomology",
    "catalog.nonformal_model",
    "catalog.elliptic_six",
    "catalog.product_model",
    "catalog.wedge_cohomology",
    "plforms.PolyForm.degen",  # item 1: perfbench's tracer patches it
}
# Keyword parameters that no call in the package passes.
UNPASSED = {
    "models.acyclic_closure.verify_to",  # items 4 and 6, with its function
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def _public(tree):
    """{name: node} of a module's public names: its `__all__`, or what it
    defines without a leading underscore (the node is None for a
    constant or an imported name)."""
    defined, names = {}, None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        for t in getattr(node, "targets", ()):
            if getattr(t, "id", None) == "__all__":
                names = [e.value for e in node.value.elts]
            elif isinstance(t, ast.Name):
                defined[t.id] = None
    if names is None:
        names = [n for n in defined if not n.startswith("_")]
    return {n: defined.get(n) for n in names}


def _walk(modules):
    """(module, scope, node) for every node of the package, the scope the
    tuple of the `def` and `class` names around it."""
    for mod, tree in modules.items():
        stack = [(tree, ())]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                yield mod, scope, child
                stack.append((child, inner))


def _readers(modules):
    """{name: [(module, scope)]} of every read of a bare name or an
    attribute."""
    found = {}
    for mod, scope, node in _walk(modules):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None:
            found.setdefault(name, []).append((mod, scope))
    return found


def _console_scripts():
    """The `module.function` names that pyproject.toml runs as scripts,
    from its "sullivan.module:function" targets."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return {f"{m}.{f}"
            for m, f in re.findall(r'"sullivan\.(\w+):(\w+)"', text)}


def _public_methods(tree):
    """(class name, method name) per public method of a public class."""
    return [(name, f.name) for name, node in _public(tree).items()
            if isinstance(node, ast.ClassDef) for f in node.body
            if isinstance(f, ast.FunctionDef) and f.name[0] != "_"]


def uncalled_names(modules):
    """The public names and methods that nothing in the package reads
    outside their own `def` or `class`, as `module.name` and
    `module.Class.method`."""
    readers, scripts = _readers(modules), _console_scripts()
    owned = [(mod, (name,)) for mod, tree in modules.items()
             for name in _public(tree)]
    owned += [(mod, pair) for mod, tree in modules.items()
              for pair in _public_methods(tree)]
    return {".".join((mod, *own)) for mod, own in owned
            if ".".join((mod, *own)) not in scripts
            and all(m == mod and scope[:len(own)] == own
                    for m, scope in readers.get(own[-1], []))}


def _public_functions(modules):
    """(qualified name, class name or None, def node) per public function
    and per public method or `__init__` of a public class."""
    for mod, tree in modules.items():
        for name, node in _public(tree).items():
            if isinstance(node, ast.FunctionDef):
                yield f"{mod}.{name}", None, node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and (
                            f.name == "__init__" or f.name[0] != "_"):
                        yield f"{mod}.{name}.{f.name}", name, f


def _defaults(f, method):
    """{parameter: its position in a call (None if keyword-only)} of the
    parameters with a default; a method's `self` or `cls` takes none."""
    a = f.args
    positional = a.posonlyargs + a.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in f.decorator_list)
    skip = 1 if method and not static else 0
    out = {p.arg: i - skip for i, p in enumerate(positional)
           if i >= len(positional) - len(a.defaults)}
    out.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None)
    return out


def _passes(call, param, position):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return position is not None and len(call.args) > position


def unpassed_parameters(modules):
    """The defaulted parameters of public functions that no call in the
    package passes, outside the function's own body, as
    `module.function.parameter`; a class's `__init__` is called by its
    name, and by `cls` in its own methods."""
    calls = [(mod, scope, node) for mod, scope, node in _walk(modules)
             if isinstance(node, ast.Call)]
    out = set()
    for qual, cls, f in _public_functions(modules):
        mod, own = qual.split(".", 1)[0], tuple(qual.split(".")[1:])
        target = cls if f.name == "__init__" else f.name

        def calls_it(m, scope, call):
            fn = call.func
            name = (fn.id if isinstance(fn, ast.Name) else
                    fn.attr if isinstance(fn, ast.Attribute) else None)
            if m == mod and scope[:len(own)] == own:
                return False
            return name == target or (f.name == "__init__" and name == "cls"
                                     and m == mod and scope[:1] == (cls,))

        mine = [call for m, scope, call in calls if calls_it(m, scope, call)]
        for param, position in _defaults(f, cls is not None).items():
            if not any(_passes(call, param, position) for call in mine):
                out.add(f"{qual}.{param}")
    return out


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_names(_modules()) == UNCALLED


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unpassed_parameters(_modules()) == UNPASSED


def test_the_census_does_not_count_a_function_calling_itself():
    """The census itself: a public function that only its own body calls,
    a public method that only its own body reads, and a default that only
    its own recursion passes, are all found, while a call from a sibling
    method counts."""
    modules = {"m": ast.parse(
        "__all__ = ['f', 'g', 'C']\n"
        "def f(n, cap=3):\n    return f(n - 1, cap) if n else g()\n"
        "def g(x=1):\n    return C(x).h()\n"
        "class C:\n    def __init__(self, v, w=0):\n        self.v = v\n"
        "    def h(self, k=2):\n        return C(self.v, w=1)\n"
        "    def loop(self):\n        return self.loop()\n"
        "    def _own(self):\n        return 0\n")}
    assert uncalled_names(modules) == {"m.f", "m.C.loop"}
    assert unpassed_parameters(modules) == {"m.f.cap", "m.g.x", "m.C.h.k"}
