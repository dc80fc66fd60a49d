"""A model construction moves a differential one way: it renames it with
`Derivation.renamed`, or it takes the images over as they are into an
algebra it built by `extend`.  So `substitute` is applied to a
differential's images only in `renamed` and in the twisting terms of
`pushout_model` (base letters sent along the morphism); `_joined` also
moves its factors' relations with it.  `in_algebra`, a checked copy
between universes, is left to the restriction check of
`RelativeSullivanAlgebra`.  Checked on the syntax trees of the package."""

import ast
import pathlib

from test_form_ownership import _callers

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sullivan"


def test_differentials_move_by_renaming_or_by_extension():
    found = {"substitute": [], "in_algebra": []}
    for path in sorted(SRC.glob("*.py")):
        calls = _callers(ast.parse(path.read_text(encoding="utf-8")), found)
        for name, scopes in calls.items():
            found[name] += [f"{path.stem}.{scope}" for scope in scopes]
    assert found == {
        "substitute": ["cdga._joined", "graded.Derivation.renamed",
                       "models.pushout_model"],
        "in_algebra": ["models.RelativeSullivanAlgebra.__init__"]}
