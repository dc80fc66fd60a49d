"""Maps, copies and oracles that only tests build: the package itself
never calls them, so they live here rather than in its public API."""

import functools
from fractions import Fraction

from sullivan.cdga import CdgaMorphism
from sullivan.graded import AlgebraError, AlgElement, FreeAlgebra
from sullivan.linalg import RatMatrix, rank
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


def bar_cohomology(c, top):
    """dim H^n of the reduced bar construction B of a CDGA c with c^0 = Q
    and c^1 = 0, for n = 0..top: H*(Omega X) when c models a simply
    connected X (Adams, "On the cobar construction", 1956), counted with
    no model.  B^n has a basis of words [a_1|..|a_k] of letters (|a|,
    index) on the bases of c in degrees >= 2, with sum (|a_i| - 1) = n,
    and D[..|a_i|..] is the sum over i of -(-1)^e_(i-1) [..|d a_i|..] and
    (-1)^e_i [..|a_i a_(i+1)|..], with e_i = sum_(j <= i) (|a_j| - 1).
    Reads only `basis`, `mult`, `coords` and `d` of c."""
    assert c.dim(0) == 1 and c.dim(1) == 0
    words = [[()]]
    for n in range(1, top + 2):
        words.append([((m, i),) + w for m in range(2, n + 2)
                      for i in range(len(c.basis(m)))
                      for w in words[n + 1 - m]])

    @functools.lru_cache(maxsize=None)
    def letter(m, i):
        return c.algebra.element({c.basis(m)[i]: 1})

    @functools.lru_cache(maxsize=None)
    def d(m, i):
        return c.coords(c.d(letter(m, i)), m + 1)

    @functools.lru_cache(maxsize=None)
    def product(m, i, p, j):
        return c.coords(c.mult(letter(m, i), letter(p, j)), m + p)

    def column(w, index):
        col, e = {}, 0
        for i, (m, j) in enumerate(w):
            terms = [(w[:i] + ((m + 1, t),) + w[i + 1:], -x if e % 2 == 0
                      else x) for t, x in d(m, j).items()]
            e += m - 1
            if i + 1 < len(w):
                p, l = w[i + 1]
                terms += [(w[:i] + ((m + p, t),) + w[i + 2:], x if e % 2 == 0
                           else -x) for t, x in product(m, j, p, l).items()]
            for word, x in terms:
                col[index[word]] = col.get(index[word], 0) + x
        return col

    ranks = [0]  # ranks[n] is the rank of D: B^(n-1) -> B^n
    for n in range(top + 1):
        index = {w: i for i, w in enumerate(words[n + 1])}
        ranks.append(rank(RatMatrix.from_columns(
            [column(w, index) for w in words[n]], len(index))))
    return [len(words[n]) - ranks[n] - ranks[n + 1] for n in range(top + 1)]
