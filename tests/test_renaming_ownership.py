"""A model construction moves a differential one way: it renames it with
`Derivation.renamed`, or it grows it by new images over an extension of
its algebra with `Derivation.extended`, where the old images keep their
terms and their scaled rows.  So `substitute` is applied to a
differential's images only in `renamed` and in the twisting terms of
`pushout_model` (base letters sent along the morphism); `_joined` also
moves its factors' relations with it.  `extended` is called by
`Cdga.extend` (each synthesis stage and acyclic-closure step),
`pushout_model`, `path_space_model` and `free_loop_model` (the parser
builds its one `Derivation` as it reads the `diff` lines), and it is the
one function that rewraps a differential's images as elements of an
extension (`finiteness_test` rewraps a pure model's images, but as
relations, and `free_loop_model` each dv, but as the argument of S); no
construction builds a `Derivation` from another one's images.  Checked on the syntax trees of the package, and by counting the
derivations a minimal-model synthesis makes."""

import ast
import pathlib

from test_form_ownership import _callers

from sullivan.catalog import wedge_cohomology
from sullivan.cdga import Cdga
from sullivan.graded import Derivation
from sullivan.models import minimal_model

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"


def _package_callers(names):
    found = {name: [] for name in names}
    for path in sorted(SRC.glob("*.py")):
        calls = _callers(ast.parse(path.read_text(encoding="utf-8")), found)
        for name, scopes in calls.items():
            found[name] += [f"{path.stem}.{scope}" for scope in scopes]
    return found


def test_differentials_move_by_renaming_or_by_extension():
    """One entry per call site: the path space extends its base's d to
    the whole algebra and then grows it once per generator degree, by the
    bar images of that degree; the free loop space grows d by all its bar
    images at once."""
    assert _package_callers(["substitute", "extended"]) == {
        "substitute": ["cdga._joined", "graded.Derivation.renamed",
                       "models.pushout_model"],
        "extended": ["cdga.Cdga.extend", "models.pushout_model",
                     "models.path_space_model", "models.path_space_model",
                     "models.free_loop_model"]}


def _rewraps_of_images(tree):
    """The functions calling `AlgElement(_, x.terms)` where x is read from
    an `.images` attribute, directly, through a name assigned from an
    expression that reads one, or as a loop or comprehension target over
    such an expression."""

    def reads_images(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "images"
                   for n in ast.walk(node))

    found = []

    def visit(node, scope, bound):
        bound = set(bound)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.comprehension)) \
                    and reads_images(child.iter):
                bound |= {n.id for n in ast.walk(child.target)
                          if isinstance(n, ast.Name)}
            elif isinstance(child, ast.Assign) and reads_images(child.value):
                bound |= {n.id for t in child.targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), set())
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "AlgElement"
                    and len(child.args) == 2
                    and isinstance(child.args[1], ast.Attribute)
                    and child.args[1].attr == "terms"):
                x = child.args[1].value
                if reads_images(x) or any(isinstance(n, ast.Name)
                                          and n.id in bound
                                          for n in ast.walk(x)):
                    found.append(".".join(scope))
            visit(child, scope, bound)

    visit(tree, (), set())
    return found


def test_only_extended_rewraps_a_differentials_images_into_an_extension():
    """The two other rewraps move no differential: `finiteness_test` reads
    the images of a pure model as the relations of its even subalgebra,
    H_0 = Q[even generators] / (d of the odd ones), and `free_loop_model`
    reads each dv in the extension only as the argument of S, whose value
    -S(dv) is the new image of vbar that `extended` then checks."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.stem}.{scope}" for scope in
                  _rewraps_of_images(ast.parse(path.read_text("utf-8")))]
    assert found == ["graded.Derivation.extended", "invariants.finiteness_test",
                     "models.free_loop_model"]


def test_each_synthesis_stage_makes_one_derivation_of_its_new_images(
        monkeypatch):
    """Each `Cdga.extend` of a synthesis makes one `Derivation`, and it
    holds only the images of that stage's new generators."""
    init, extend = Derivation.__init__, Cdga.extend
    made, stages = [], []

    def counted_init(self, algebra, shift, images, **options):
        made.append(list(images))
        init(self, algebra, shift, images, **options)

    def counted_extend(self, specs, images, carry=()):
        made.clear()
        new = extend(self, specs, images, carry)
        stages.append((list(made), list(images), [n for n, _ in specs]))
        return new

    monkeypatch.setattr(Derivation, "__init__", counted_init)
    monkeypatch.setattr(Cdga, "extend", counted_extend)
    minimal_model(wedge_cohomology(2, 2), 8)
    assert len(stages) >= 5
    for made_here, new_images, new_names in stages:
        assert made_here == [new_images]
        assert set(new_images) <= set(new_names)
