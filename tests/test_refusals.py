"""Every malformed input is a domain error: one row per refusal, each
reached through a public call, with the type and the exact message it
raises."""

import ast

import pytest

from sullivan.catalog import cp_cohomology, sphere_model
from sullivan.cdga import (
    Cdga,
    CdgaError,
    CdgaFileError,
    CdgaMorphism,
    fibered_product_augmented,
    parse_cdga_file,
    word_length_quotient,
)
from sullivan.cli import main
from sullivan.graded import AlgebraError, Derivation, FreeAlgebra, Generator
from sullivan.invariants import (
    InvariantsError,
    PoincareSeries,
    associated_pure,
    is_pure,
    loop_poincare_series,
    pure_filtration_homology,
    toomer_rank,
)
from sullivan.linalg import LinalgError, quotient_basis, span_basis
from sullivan.models import (
    ModelError,
    RelativeSullivanAlgebra,
    acyclic_closure,
    loop_cohomology,
    minimal_model,
)
from sullivan.plforms import (
    FormError,
    SimplicialComplexFin,
    delta_complex,
    parse_scomplex_file,
    verify_stokes,
)

from helpers import identity_morphism, poly_form
from test_api_ownership import _modules, _walk


def xy():
    """The free algebra on x (degree 2) and y (degree 3)."""
    return FreeAlgebra.build([("x", 2), ("y", 3)])


def cone():
    """L(u, v) with du = v: free and acyclic, but not minimal."""
    return Cdga.build("cone", [("u", 3), ("v", 4)], {"u": "v"})


def not_pure():
    return Cdga.build("np", [("a", 3), ("b", 3), ("c", 5)], {"c": "a*b"})


def relative(total_specs, diffs, fiber, base=None):
    base = base or Cdga.build("Lu", [("u", 3)])
    return RelativeSullivanAlgebra(
        base, fiber, Cdga.build("total", total_specs, diffs))


def degree_zero_generator():
    alg = FreeAlgebra.build([("t", 0)], allow_degree0=True)
    return Cdga("t", alg, Derivation(alg, +1, {}))


def mixed_relation():
    return Cdga.build("r", [("x", 2), ("y", 3)], {}, ["x + y"])


def foreign_image():
    alg, other = xy(), FreeAlgebra.build([("w", 2)])
    return Derivation(alg, +1, {"y": other.gen_elem("w")})


def foreign_argument():
    alg, other = xy(), FreeAlgebra.build([("w", 2)])
    return Derivation(alg, +1, {}).apply(other.gen_elem("w"))


def q_power(k):
    """q^k in the free algebra on q (degree 2), which has CP^n's ordinal
    0 but not its generator u."""
    return FreeAlgebra.build([("q", 2)]).parse(f"q^{k}")


def foreign_image_morphism(check):
    """S^3 -> L(b)/(b^2) with x sent to a letter of another universe."""
    target = Cdga.build("t", [("b", 2)], {}, ["b^2"])
    w = FreeAlgebra.build([("w", 2)]).gen_elem("w")
    return CdgaMorphism(sphere_model(3), target, {"x": w}, check=check)


def foreign_relation(check):
    u = FreeAlgebra.build([("u", 2)])
    return Cdga("c", u, Derivation(u, +1, {}), relations=[q_power(3)],
                check=check)


def foreign_differential():
    u, q = FreeAlgebra.build([("u", 2)]), FreeAlgebra.build([("q", 2)])
    return Cdga("c", u, Derivation(q, +1, {}), check=False)


def image_of_old_generator():
    """d x = y^2 given to an old generator while adjoining w: the recorded
    matrices would keep d x = 0."""
    c = Cdga.build("c", [("y", 2), ("x", 3)], {})
    for k in range(7):
        c.h_dim(k)
    return c.extend([("w", 9)], {"x": c.algebra.parse("y^2")})


def zero_image_of_old_generator():
    """d x = y^2 kept while adjoining w, though x is given the image 0."""
    c = Cdga.build("c", [("y", 2), ("x", 3)], {"x": "y^2"})
    return c.extend([("w", 9)], {"x": c.algebra.zero()})


def image_twice(image):
    alg = xy()
    d = Derivation(alg, +1, {"y": alg.parse("x^2")})
    return d.extended(alg, {"y": alg.parse(image)})


def missing_face():
    K = SimplicialComplexFin("k", {"e": 1, "a": 0}, {("e", 0): ("a", ())},
                             check=False)
    return K.face_expr(("e", ()), 1)


# a loop with its face 1 left out: four lines, each file error below
# comes at line 5
SCX = "scomplex c\nsimplex p 0\nsimplex e 1\nface e 0 = p\n"

REFUSALS = [
    # cdga
    ("cdga-shift", lambda: Cdga("c", xy(), Derivation(xy(), -1, {})),
     CdgaError, "differential must have shift +1"),
    ("cdga-relations-and-cap",
     lambda: Cdga("c", xy(), Derivation(xy(), +1, {}),
                  relations=[xy().gen_elem("x")], word_cap=2),
     CdgaError, "relations and a word cap cannot be combined"),
    ("cdga-degree-zero", degree_zero_generator,
     CdgaError, "generator t has degree 0"),
    ("cdga-inhomogeneous-relation", mixed_relation,
     CdgaError, "relations must be nonzero homogeneous"),
    ("cdga-coords-degree",
     lambda: sphere_model(2).coords(sphere_model(2).algebra.gen_elem("y"), 3),
     CdgaError, "element not homogeneous of degree 3"),
    ("cdga-class-of-no-cocycle",
     lambda: sphere_model(2).class_coords(
         sphere_model(2).algebra.gen_elem("z"), 3),
     CdgaError, "element of degree 3 is not a cocycle modulo boundaries"),
    ("cdga-reduce-foreign-element",
     lambda: cp_cohomology(2).reduce(q_power(2)),
     CdgaError, "H(CP2): element over another universe (generator u)"),
    ("cdga-coords-foreign-element",
     lambda: sphere_model(3).coords(xy().gen_elem("x"), 3),
     CdgaError, "S3-model: element over another universe (generator x)"),
    ("cdga-apply-foreign-element",
     lambda: identity_morphism(sphere_model(3)).apply(xy().gen_elem("x")),
     CdgaError, "morphism applied across universes (generator x)"),
    ("cdga-morphism-foreign-image", lambda: foreign_image_morphism(False),
     CdgaError, "t: element over another universe (generator b)"),
    ("cdga-morphism-foreign-image-checked",
     lambda: foreign_image_morphism(True),
     CdgaError, "t: element over another universe (generator b)"),
    ("cdga-foreign-relation", lambda: foreign_relation(False),
     CdgaError, "c: relation over another universe (generator u)"),
    ("cdga-foreign-relation-checked", lambda: foreign_relation(True),
     CdgaError, "c: relation over another universe (generator u)"),
    ("cdga-foreign-differential", foreign_differential,
     CdgaError, "c: differential over another universe (generator u)"),
    ("cdga-extend-image-of-old-generator", image_of_old_generator,
     AlgebraError, "x already has an image"),
    ("cdga-extend-zero-image-of-old-generator", zero_image_of_old_generator,
     AlgebraError, "x already has an image"),
    ("cdga-no-factors", lambda: fibered_product_augmented([]),
     CdgaError, "need at least one factor"),
    ("cdga-cap-of-a-quotient",
     lambda: word_length_quotient(cp_cohomology(2), 2),
     CdgaError, "word-length quotient needs a free CDGA"),
    ("cdga-cap-zero", lambda: word_length_quotient(sphere_model(2), 0),
     CdgaError, "word cap must be >= 1"),
    ("cdga-file-missing-name", lambda: parse_cdga_file("cdga\n", "f"),
     CdgaFileError, "f:1: missing name"),
    ("cdga-file-relation-degree",
     lambda: parse_cdga_file("cdga t\ngen x 2\nrel two : x\n", "f"),
     CdgaFileError, "f:3: bad degree 'two'"),
    ("cdga-file-repeated-header",
     lambda: parse_cdga_file("cdga a\ncdga b\n", "f"),
     CdgaFileError, "f:2: repeated cdga line"),
    ("cdga-file-gen-arity", lambda: parse_cdga_file("cdga a\ngen x\n", "f"),
     CdgaFileError, "f:2: expected: gen <ident> <degree>"),
    ("cdga-file-gen-name-digit",
     lambda: parse_cdga_file("cdga a\ngen 2x 2\n", "f"),
     CdgaFileError, "f:2: bad generator name '2x'"),
    ("cdga-file-gen-name-sum",
     lambda: parse_cdga_file("cdga a\ngen x+y 2\n", "f"),
     CdgaFileError, "f:2: bad generator name 'x+y'"),
    ("cdga-file-gen-degree",
     lambda: parse_cdga_file("cdga a\ngen x two\n", "f"),
     CdgaFileError, "f:2: bad degree 'two'"),
    ("cdga-file-gen-degree-fullwidth",
     lambda: parse_cdga_file("cdga a\ngen x \uff12\n", "f"),
     CdgaFileError, "f:2: bad degree '\uff12'"),
    ("cdga-file-gen-degree-underscore",
     lambda: parse_cdga_file("cdga a\ngen y 1_0\n", "f"),
     CdgaFileError, "f:2: bad degree '1_0'"),
    ("cdga-file-gen-degree-plus",
     lambda: parse_cdga_file("cdga a\ngen y +2\n", "f"),
     CdgaFileError, "f:2: bad degree '+2'"),
    ("cdga-file-gen-degree-negative",
     lambda: parse_cdga_file("cdga a\ngen x -1\n", "f"),
     CdgaFileError, "f:2: generator x has degree -1"),
    ("cdga-file-rel-degree-fullwidth",
     lambda: parse_cdga_file("cdga t\ngen x 2\nrel \uff14 : x^2\n", "f"),
     CdgaFileError, "f:3: bad degree '\uff14'"),
    ("cdga-file-fullwidth-exponent",
     lambda: parse_cdga_file("cdga t\ngen x 2\nrel 4 : x^\uff12\n", "f"),
     CdgaFileError, "f:3: bad character '\uff12' in polynomial"),
    ("cdga-file-rel-colon",
     lambda: parse_cdga_file("cdga a\ngen x 2\nrel 4 x^2\n", "f"),
     CdgaFileError, "f:3: expected: rel <degree> : <poly>"),
    ("cdga-file-unknown-keyword",
     lambda: parse_cdga_file("cdga a\nvertex x\n", "f"),
     CdgaFileError, "f:2: unknown keyword 'vertex'"),
    ("cdga-file-missing-header", lambda: parse_cdga_file("gen x 2\n", "f"),
     CdgaFileError, "f:1: missing cdga header line"),
    # graded
    ("graded-duplicate-name",
     lambda: FreeAlgebra.build([("x", 2), ("x", 3)]),
     AlgebraError, "duplicate generator name x"),
    ("graded-duplicate-ordinal",
     lambda: FreeAlgebra([Generator("x", 2, 0), Generator("y", 3, 0)]),
     AlgebraError, "duplicate ordinal 0"),
    ("graded-unknown-ordinal", lambda: xy().by_ordinal(7),
     AlgebraError, "unknown generator ordinal 7"),
    ("graded-unsorted-monomial",
     lambda: xy().element({((1, 1), (0, 1)): 1}),
     AlgebraError, "monomial not sorted at x"),
    ("graded-zero-power", lambda: xy().element({((0, 0),): 1}),
     AlgebraError, "nonpositive power of x"),
    ("graded-odd-square", lambda: xy().element({((1, 2),): 1}),
     AlgebraError, "odd generator y with power 2"),
    ("graded-generator-name",
     lambda: FreeAlgebra([Generator("2x", 2, 0)]),
     AlgebraError, "bad generator name '2x'"),
    ("graded-generator-name-built",
     lambda: Cdga.build("c", [("2x", 2), ("y", 3)], {}),
     AlgebraError, "bad generator name '2x'"),
    ("graded-generator-name-extended",
     lambda: xy().extend([("x+y", 4)]),
     AlgebraError, "bad generator name 'x+y'"),
    ("graded-foreign-image", foreign_image,
     AlgebraError, "image of y lives elsewhere"),
    ("graded-derivation-extended-image-twice", lambda: image_twice("x^2"),
     AlgebraError, "y already has an image"),
    ("graded-derivation-extended-zero-image-twice", lambda: image_twice("0"),
     AlgebraError, "y already has an image"),
    ("graded-derivation-extended-not-an-extension",
     lambda: Derivation(xy(), +1, {}).extended(
         FreeAlgebra.build([("y", 3), ("x", 2)]), {}),
     AlgebraError, "FreeAlgebra(y:3, x:2) does not extend FreeAlgebra(x:2, y:3)"),
    ("graded-foreign-argument", foreign_argument,
     AlgebraError, "derivation applied across universes (generator x)"),
    ("graded-sum-across-universes",
     lambda: xy().gen_elem("x") + FreeAlgebra.build([("w", 2)]).gen_elem("w"),
     AlgebraError, "operands over different universes (generator x)"),
    ("graded-product-across-universes",
     lambda: xy().gen_elem("y") * FreeAlgebra.build([("w", 2)]).gen_elem("w"),
     AlgebraError, "operands over different universes (generator x)"),
    # invariants
    ("invariants-pure-needs-free", lambda: is_pure(cp_cohomology(2)),
     InvariantsError, "purity is defined for free CDGAs"),
    ("invariants-associated-pure-needs-free",
     lambda: associated_pure(cp_cohomology(2)),
     InvariantsError, "associated pure algebra needs a free CDGA"),
    ("invariants-filtration-needs-pure",
     lambda: pure_filtration_homology(not_pure(), 0, 4),
     InvariantsError, "np is not pure"),
    ("invariants-toomer-needs-minimal", lambda: toomer_rank(cone(), 2, 4),
     InvariantsError, "word-length quotients need a minimal model"),
    ("invariants-numerator-exponent", lambda: PoincareSeries([0], [], 4),
     InvariantsError, "numerator factor exponent must be >= 1"),
    ("invariants-denominator-exponent", lambda: PoincareSeries([], [0], 4),
     InvariantsError, "denominator factor exponent must be >= 1"),
    ("invariants-loop-series-needs-minimal",
     lambda: loop_poincare_series(cone(), 4),
     InvariantsError, "loop series needs a minimal Sullivan algebra"),
    # linalg
    ("linalg-ambients-differ",
     lambda: quotient_basis(span_basis([], 2), span_basis([], 3)),
     LinalgError, "ambient dimensions differ"),
    # models
    ("models-needs-free", lambda: acyclic_closure(cp_cohomology(2)),
     ModelError, "acyclic closure needs a free CDGA, got H(CP2)"),
    ("models-needs-minimal", lambda: loop_cohomology(cone(), 4),
     ModelError, "loop cohomology needs a minimal model"),
    ("models-fiber-overlaps-base",
     lambda: relative([("u", 3), ("v", 4)], {"u": "v"}, ["u"]),
     ModelError, "fiber generators overlap the base"),
    ("models-total-is-not-base-plus-fiber",
     lambda: relative([("u", 3), ("v", 2), ("w", 3)], {}, ["v"]),
     ModelError, "total algebra must be base plus fiber"),
    ("models-total-d-differs-on-the-base",
     lambda: relative([("y", 2), ("z", 3), ("w", 2)], {}, ["w"],
                      base=sphere_model(2)),
     ModelError, "D does not restrict to the base differential at z"),
    ("models-base-generator-differs-in-the-total",
     lambda: relative([("c", 4), ("z", 3)], {}, ["z"],
                      base=Cdga.build("La", [("a", 2)])),
     ModelError, "base over another universe than the total (generator a)"),
    ("models-d-uses-a-later-fiber-generator",
     lambda: relative([("u", 3), ("v", 2), ("w", 3)], {"v": "w"},
                      ["v", "w"]),
     ModelError, "D(v) uses later fiber generator w"),
    ("models-target-not-connected",
     lambda: minimal_model(Cdga.build("zero", [("x", 2)], {}, ["1"]), 4),
     ModelError, "target must be connected (degree 0 = Q)"),
    # plforms
    ("plforms-no-faces-on-a-point", lambda: poly_form(0, "1").face(0),
     FormError, "no faces on the 0-simplex"),
    ("plforms-face-index", lambda: poly_form(2, "t1").face(3),
     FormError, "face index 3 out of range for dimension 2"),
    ("plforms-dimensions-differ",
     lambda: poly_form(1, "t1") + poly_form(2, "t1"),
     FormError, "forms live on different simplex dimensions"),
    ("plforms-missing-face", missing_face,
     FormError, "missing face (e, 1)"),
    ("plforms-no-trials", lambda: verify_stokes(delta_complex(1), 0, 2, 0),
     FormError, "need at least one trial"),
    ("plforms-file-degeneracy-letter",
     lambda: parse_scomplex_file(SCX + "face e 1 = p t0\n", "f"),
     FormError, "f:5: bad degeneracy token 't0'"),
    ("plforms-file-degeneracy-index",
     lambda: parse_scomplex_file(SCX + "face e 1 = p sx\n", "f"),
     FormError, "f:5: bad degeneracy token 'sx'"),
    ("plforms-file-degeneracy-index-fullwidth",
     lambda: parse_scomplex_file(SCX + "face e 1 = p s\uff10\n", "f"),
     FormError, "f:5: bad degeneracy token 's\uff10'"),
    ("plforms-file-header-arity",
     lambda: parse_scomplex_file("scomplex\n", "f"),
     FormError, "f:1: expected: scomplex <name>"),
    ("plforms-file-simplex-arity",
     lambda: parse_scomplex_file(SCX + "simplex q\n", "f"),
     FormError, "f:5: expected: simplex <id> <dim>"),
    ("plforms-file-simplex-dimension",
     lambda: parse_scomplex_file(SCX + "simplex q x\n", "f"),
     FormError, "f:5: bad dimension"),
    ("plforms-file-simplex-dimension-plus",
     lambda: parse_scomplex_file(SCX + "simplex q +1\n", "f"),
     FormError, "f:5: bad dimension"),
    ("plforms-file-simplex-dimension-fullwidth",
     lambda: parse_scomplex_file(SCX + "simplex q \uff11\n", "f"),
     FormError, "f:5: bad dimension"),
    ("plforms-file-simplex-dimension-negative",
     lambda: parse_scomplex_file(SCX + "simplex q -1\n", "f"),
     FormError, "f:5: negative dimension -1"),
    ("plforms-file-face-arity",
     lambda: parse_scomplex_file(SCX + "face e 1 p\n", "f"),
     FormError, "f:5: expected: face <id> <i> = <target> [s<j> ...]"),
    ("plforms-file-face-index",
     lambda: parse_scomplex_file(SCX + "face e x = p\n", "f"),
     FormError, "f:5: bad face index"),
    ("plforms-file-face-index-fullwidth",
     lambda: parse_scomplex_file(SCX + "face e \uff11 = p\n", "f"),
     FormError, "f:5: bad face index"),
    ("plforms-file-undeclared-simplex",
     lambda: parse_scomplex_file(SCX + "face q 1 = p\n", "f"),
     FormError, "f:5: simplex q not declared before use"),
    ("plforms-file-unknown-keyword",
     lambda: parse_scomplex_file(SCX + "vertex q\n", "f"),
     FormError, "f:5: unknown keyword 'vertex'"),
    ("plforms-file-missing-header",
     lambda: parse_scomplex_file("simplex p 0\n", "f"),
     FormError, "f:1: missing scomplex header line"),
    ("plforms-file-missing-face", lambda: parse_scomplex_file(SCX, "f"),
     FormError, "f:1: c: simplex e missing face 1"),
    # catalog
    ("catalog-sphere-dimension", lambda: sphere_model(0),
     ValueError, "n >= 1"),
]


@pytest.mark.parametrize("call, kind, message",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert str(info.value) == message


def test_validate_refuses_a_file_without_a_header(capsys, tmp_path):
    f = tmp_path / "headless.cdga"
    f.write_text("gen x 2\n")
    assert main(["validate", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {f}:1: expected a 'cdga' or 'scomplex' "
                   f"header line\n")


def test_a_foreign_generator_is_named_in_one_wording():
    """Every "different universe" refusal goes through
    `FreeAlgebra.require_same`; `RelativeSullivanAlgebra.__init__` names a
    foreign generator for its own check, a base letter that the total
    algebra holds under another name or degree."""
    readers = [".".join((mod,) + scope)
               for mod, scope, node in _walk(_modules())
               if isinstance(node, ast.Attribute)
               and node.attr == "foreign_generator"]
    assert readers == ["graded.FreeAlgebra.require_same",
                       "models.RelativeSullivanAlgebra.__init__"]
