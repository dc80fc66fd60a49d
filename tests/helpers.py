"""Maps and copies that only tests build: the package itself never calls
them, so they live here rather than in its public API."""

from fractions import Fraction

from sullivan.cdga import CdgaMorphism
from sullivan.graded import AlgebraError, AlgElement, FreeAlgebra
from sullivan.plforms import PolyForm, form_algebra


def identity_morphism(c):
    """The identity of a CDGA, as a checked `CdgaMorphism`."""
    return CdgaMorphism(c, c, {g.name: c.algebra.gen_elem(g.name)
                               for g in c.algebra.generators})


def multiplication_morphism(model, doubled):
    """The product map from the doubled base (v_p0, v_p1 copies) of a
    path space back to the model: both copies of v map to v."""
    images = {}
    for g in model.algebra.generators:
        images[f"{g.name}_p0"] = model.algebra.gen_elem(g.name)
        images[f"{g.name}_p1"] = model.algebra.gen_elem(g.name)
    return CdgaMorphism(doubled, model, images)


def in_algebra(elem, other):
    """`elem` read over another universe that has the same generators at
    the ordinals it uses; a disagreeing ordinal raises."""
    for m in elem.terms:
        for o, _ in m:
            g0 = elem.algebra.by_ordinal(o)
            g1 = other.by_ordinal(o)
            if (g0.name, g0.degree) != (g1.name, g1.degree):
                raise AlgebraError(f"ordinal {o} disagrees between universes")
    return AlgElement(other, dict(elem.terms))


def one(alg):
    """The unit of a free algebra."""
    return AlgElement(alg, {(): Fraction(1)})


def poly_form(dim, text):
    """The polynomial form on the dim-simplex written as `text`, over
    the coordinates of `form_algebra(dim)`."""
    return PolyForm(dim, form_algebra(dim).parse(text))


def bar_algebra_dims(model, max_degree):
    """The loop-space cohomology dimensions of a minimal model counted
    directly: the monomial basis of the free algebra on its desuspended
    generators vbar (degree |v| - 1), degree by degree."""
    bars = FreeAlgebra.build([(f"{g.name}_bar", g.degree - 1)
                              for g in model.algebra.generators])
    return [len(bars.basis_of_degree(k)) for k in range(max_degree + 1)]
