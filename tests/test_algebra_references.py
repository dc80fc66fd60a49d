"""The algebra layer's multiplicative extension, Leibniz rule and face and
degeneracy pullbacks, checked against earlier straightforward versions
of the same routines kept here as references.

The references multiply through temporary elements term by term: the
Leibniz rule as pre * dg * suf per letter, a morphism reducing modulo
the target's relations after every product, and faces and degeneracies
through explicit image tables of the coordinates.

`graded.multiplicative`, the one multiplicative extension behind
`substitute`, morphisms and the pullbacks, keeps a table of monomial
images filled one letter at a time; its tests check every tail in a
table, also one that two maps share, against `reference_substitute`,
and that `substitute` loops rather than recurses and names a missing
image as it did.  The pullback tests check every image in a pullback's
table against `reference_substitute`, and check that it drops explicit
zero coefficients, is read on repeated calls (counting the entries
filled, one `row_product` each), cannot be changed through a returned
element, composes along degeneracy words, and starts empty in every
`verify_stokes` call.  `memo_linear`, which keeps those tables as
scaled integer rows and sums them with `scaled_sum`, is checked against
the Fraction loop it replaced, and the face-compatibility system, built
once per (simplex dimension, map), against its assembly per (simplex,
face).  `GlobalForm.validate`, which compares `PolyForm.face` with
`PolyForm.degen_word` as integer rows by cross-multiplication, is
checked against a comparison of the nonzero terms of their elements.

Differential matrices are assembled from the integer Leibniz kernel
`Derivation.columns`, which keys each column by the basis index as it
sums, and is checked itself against the reference Leibniz rule through
random word-capped indices; the matrices are checked against the
assembly they replaced, through elements (the reference Leibniz rule,
then the quotient's reduction, then coordinates), on free algebras,
word-length quotients and relation quotients.  That reduction,
`Cdga.reduce`, which those references call, is checked against
`reference_reduce`, plain Fraction elimination against the relations'
monomial multiples.
`Derivation.renamed`, which moves a differential into the algebra of a
model construction, is checked against `reference_substitute` over
random renamings that drop some generators and shift the ordinals.
`Derivation.extended`, which grows a differential by new images, is
checked against the derivation built from all the images at once, over
one algebra and over an extension, with the common denominator growing
in some cases.
`PolyForm.d` reads a table as the pullbacks do, and `integrate` one of
monomial integrals, each emptied by every `verify_stokes` call.

Monomial bases are a per-degree table kept on each algebra; the basis
tests check it against the backtracking search it replaced, whatever the
order in which degrees are asked, through `extend()`, across threads and
past a thousand generators.

Minimal-model synthesis extends one model and one morphism through its
stages; the last tests check it byte for byte against the synthesis that
rebuilt both at every stage and once more for its closing checks, and run
those closing checks, rebuilt from scratch, on every result.
"""

import cProfile
import importlib.util
import math
import pathlib
import pstats
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from threading import Barrier

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sullivan import graded, plforms
from sullivan.catalog import (
    cp_cohomology,
    elliptic_six,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import (
    Cdga,
    CdgaMorphism,
    check_quasi_iso,
    format_cdga,
    load_cdga,
    parse_cdga_file,
    tensor_product,
    word_length_quotient,
)
from sullivan.graded import (
    AlgebraError,
    AlgElement,
    Derivation,
    FreeAlgebra,
    Generator,
    format_element,
    memo_linear,
    multiplicative,
    substitute,
)
from sullivan.linalg import (
    RatMatrix,
    combine,
    image_basis,
    kernel_basis,
    quotient_basis,
    ratios,
    scaled,
    scaled_sum,
    solve,
)
from sullivan.models import (
    MinimalModelResult,
    ModelError,
    check_minimal_sullivan,
    free_loop_model,
    minimal_model,
)
from sullivan.plforms import (
    FormError,
    GlobalForm,
    PolyForm,
    SimplicialComplexFin,
    builtin_complex,
    form_algebra,
    form_basis,
    load_scomplex,
    normalize_word,
    verify_stokes,
)

from helpers import in_algebra, one, poly_form

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# denominators 1..12, so that one element mixes several
MIXED = st.fractions(min_value=-3, max_value=3, max_denominator=12)
ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----- references -----

def reference_substitute(elem, images, target, missing_zero=False):
    out = target.zero()
    for mono, coeff in elem.terms.items():
        acc = one(target).scale(coeff)
        dead = False
        for o, p in mono:
            if o not in images:
                if missing_zero:
                    dead = True
                    break
                raise AlgebraError(f"no image for generator ordinal {o}")
            img = images[o]
            for _ in range(p):
                acc = acc * img
                if acc.is_zero():
                    break
            if acc.is_zero():
                break
        if dead or acc.is_zero():
            continue
        out = out + acc
    return out


def reference_derivation_apply(d, elem):
    alg = d.algebra
    out = alg.zero()
    for mono, coeff in elem.terms.items():
        prefix_deg = 0
        for i, (o, p) in enumerate(mono):
            img = d.images.get(o)
            gdeg = alg.degree_of(o)
            if img is not None:
                rest = list(mono[:i])
                if p > 1:
                    rest.append((o, p - 1))
                pre = AlgElement(alg, {tuple(rest): Fraction(1)})
                suf = AlgElement(alg, {mono[i + 1:]: Fraction(1)})
                sign = -1 if prefix_deg % 2 else 1
                out = out + (pre * img * suf).scale(coeff * sign * p)
            prefix_deg += p * gdeg
    return out


def reference_morphism_apply(phi, elem):
    tgt = phi.target
    out = tgt.algebra.zero()
    for mono, coeff in elem.terms.items():
        acc = one(tgt.algebra).scale(coeff)
        for o, p in mono:
            img = phi.images.get(o)
            if img is None:
                acc = tgt.algebra.zero()
                break
            for _ in range(p):
                acc = tgt.mult(acc, img)
                if acc.is_zero():
                    break
            if acc.is_zero():
                break
        out = out + acc
    return tgt.reduce(out)


def reference_reduce(c, elem):
    """`Cdga.reduce` by plain Fraction elimination: the words past a cap
    dropped, then each degree part reduced against the multiples m * r
    of the relations, brought to echelon form one at a time (pivot: the
    leftmost nonzero column in basis order), pivot by pivot from the
    left."""
    def clear(v, row, p):
        return [x - v[p] / row[p] * y for x, y in zip(v, row)]

    def lead(v):
        return next((i for i, x in enumerate(v) if x), None)

    alg = c.algebra
    terms = {m: x for m, x in elem.terms.items()
             if c.word_cap is None or sum(p for _, p in m) <= c.word_cap}
    out = {}
    for k in {alg.mono_degree(m) for m in terms}:
        basis = alg.basis_of_degree(k)
        echelon = {}
        for r in c.relations:
            for m in alg.basis_of_degree(k - r.degree()):
                w = (AlgElement(alg, {m: Fraction(1)}) * r).terms
                v = [w.get(n, Fraction(0)) for n in basis]
                while lead(v) in echelon:
                    v = clear(v, echelon[lead(v)], lead(v))
                if lead(v) is not None:
                    echelon[lead(v)] = v
        v = [terms.get(n, Fraction(0)) for n in basis]
        for p in sorted(echelon):
            v = clear(v, echelon[p], p)
        out.update((n, x) for n, x in zip(basis, v) if x)
    return AlgElement(alg, out)


def reference_basis(alg, n, word_max=None):
    """Monomials of degree n by a backtracking search over the generators,
    one recursion level per generator."""
    if n < 0:
        return []
    if any(g.degree == 0 for g in alg.generators):
        raise AlgebraError("basis enumeration needs all degrees >= 1")
    gens = alg.generators
    out = []

    def rec(i, rem, wl, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if i == len(gens):
            return
        g = gens[i]
        cap = 1 if g.is_odd else rem // g.degree
        for p in range(cap + 1):
            if p * g.degree > rem:
                break
            if word_max is not None and wl + p > word_max:
                break
            if p:
                acc.append((g.ordinal, p))
            rec(i + 1, rem - p * g.degree, wl + p, acc)
            if p:
                acc.pop()

    rec(0, n, 0, [])
    return out


def reference_minimal_model(target, max_degree):
    """The synthesis that rebuilt the model and the morphism at every
    stage, then once more for its closing checks."""
    if target.dim(0) != 1:
        raise ModelError("target must be connected (degree 0 = Q)")
    if target.h_dim(1) != 0:
        raise ModelError("target has H^1 != 0; minimal model synthesis "
                         "needs a simply connected target")
    alg = FreeAlgebra.build([])
    d_images = {}
    phi_images = {}
    stages = []

    def current():
        d = Derivation(alg, +1,
                       {name: in_algebra(e, alg)
                        for name, e in d_images.items()})
        model = Cdga("model", alg, d, check=False)
        phi = CdgaMorphism(model, target, dict(phi_images), check=False)
        return model, phi

    for n in range(2, max_degree + 1):
        model, phi = current()
        new_specs = []
        new_d = {}
        new_phi = {}
        count = 0

        def fresh_name():
            nonlocal count
            count += 1
            return f"v{n}" if count == 1 else f"v{n}_{count}"

        # (a) new closed generators spanning coker H^n(phi)
        hmat = phi.h_matrix(n)
        full = image_basis(RatMatrix([{i: 1} for i in range(hmat.rows)],
                                     hmat.rows))
        coker = quotient_basis(image_basis(hmat), full)
        cocycle_names = []
        for vec in coker:
            name = fresh_name()
            new_specs.append((name, n))
            new_phi[name] = target.element(n, combine(vec, target.h_basis(n)))
            cocycle_names.append(name)

        # (b) generators of degree n killing ker H^(n+1)(phi)
        kernel = kernel_basis(phi.h_matrix(n + 1))
        kernel_names = []
        for vec in kernel.rows:
            name = fresh_name()
            zeta = model.element(n + 1, combine(vec, model.h_basis(n + 1)))
            img = phi.apply(zeta)
            b = target.algebra.zero()
            if not img.is_zero():
                sol = solve(target.diff_matrix(n), target.coords(img, n + 1))
                if sol is None:
                    raise ModelError(
                        f"internal consistency: phi of a kernel class is "
                        f"not exact in degree {n + 1}")
                b = target.element(n, sol)
            new_specs.append((name, n))
            new_d[name] = zeta
            new_phi[name] = b
            kernel_names.append(name)

        if new_specs:
            alg = alg.extend(new_specs)
            d_images = {k: in_algebra(e, alg) for k, e in d_images.items()}
            for k, e in new_d.items():
                d_images[k] = in_algebra(e, alg)
            phi_images.update(new_phi)
        stages.append({"degree": n,
                       "cocycle_gens": cocycle_names,
                       "kernel_gens": kernel_names})

    d = Derivation(alg, +1, {n: in_algebra(e, alg) for n, e in d_images.items()})
    model = Cdga(f"model({target.name})", alg, d)
    phi = CdgaMorphism(model, target, phi_images)
    if model.algebra.generators and not check_minimal_sullivan(model):
        raise ModelError("constructed model is not minimal")
    rep = check_quasi_iso(phi, max_degree - 1)
    if not rep.ok:
        raise ModelError("constructed map is not a quasi-isomorphism "
                         f"through degree {max_degree - 1}")
    return MinimalModelResult(model, phi, max_degree, stages)


def reference_diff_matrix(c, k):
    """The matrix of d from degree k, assembled through elements as it
    was before the integer kernel: d of each basis monomial by the
    reference Leibniz rule, reduced in the quotient, read in the
    degree-(k+1) coordinates."""
    index = c._quotient_basis(k + 1)[1]
    cols = []
    for m in c.basis(k):
        x = AlgElement(c.algebra, {m: Fraction(1)})
        dx = c.reduce(reference_derivation_apply(c.differential, c.reduce(x)))
        cols.append({index[n]: v for n, v in dx.terms.items()})
    return RatMatrix.from_rows(cols, c.dim(k + 1)).transpose()


def reference_memo_linear(f, elem, table, target):
    """f on `elem` with the image terms of each monomial kept in `table`
    and summed as Fractions, one product and one sum per (term, image
    term)."""
    out = {}
    for mono, coeff in elem.terms.items():
        if not coeff:
            continue
        if mono not in table:
            table[mono] = f(AlgElement(elem.algebra,
                                       {mono: Fraction(1)})).terms
        for term, c in table[mono].items():
            s = out.get(term, 0) + coeff * c
            if s:
                out[term] = s
            else:
                out.pop(term, None)
    return AlgElement(target, out)


def _t(alg, n, i):
    if i == 0:
        out = one(alg)
        for j in range(1, n + 1):
            out = out - alg.gen_elem(f"t{j}")
        return out
    return alg.gen_elem(f"t{i}")


def _y(alg, n, i):
    if i == 0:
        out = alg.zero()
        for j in range(1, n + 1):
            out = out - alg.gen_elem(f"y{j}")
        return out
    return alg.gen_elem(f"y{i}")


def reference_face_images(n, i):
    """The images of t_k and y_k under the i-th face of the n-simplex, by
    source ordinal: t_k and y_k drop their index past i, and t_i, y_i go
    to 0."""
    src, tgt = form_algebra(n), form_algebra(n - 1)
    images = {}
    for k in range(1, n + 1):
        if k < i:
            tk, yk = _t(tgt, n - 1, k), _y(tgt, n - 1, k)
        elif k == i:
            tk, yk = tgt.zero(), tgt.zero()
        else:
            tk, yk = _t(tgt, n - 1, k - 1), _y(tgt, n - 1, k - 1)
        images[src.generator(f"t{k}").ordinal] = tk
        images[src.generator(f"y{k}").ordinal] = yk
    return images


def reference_degen_images(n, i):
    """The images of t_k and y_k under the i-th codegeneracy of the
    n-simplex, by source ordinal: t_i goes to t_i + t_(i+1), and later
    letters move up one index."""
    src, tgt = form_algebra(n), form_algebra(n + 1)
    images = {}
    for k in range(1, n + 1):
        if k < i:
            tk, yk = tgt.gen_elem(f"t{k}"), tgt.gen_elem(f"y{k}")
        elif k == i:
            tk = tgt.gen_elem(f"t{k}") + tgt.gen_elem(f"t{k + 1}")
            yk = tgt.gen_elem(f"y{k}") + tgt.gen_elem(f"y{k + 1}")
        else:
            tk, yk = tgt.gen_elem(f"t{k + 1}"), tgt.gen_elem(f"y{k + 1}")
        images[src.generator(f"t{k}").ordinal] = tk
        images[src.generator(f"y{k}").ordinal] = yk
    return images


def reference_face(form, i):
    n = form.dim
    return PolyForm(n - 1, reference_substitute(
        form.element, reference_face_images(n, i), form_algebra(n - 1)))


def reference_degen(form, i):
    n = form.dim
    return PolyForm(n + 1, reference_substitute(
        form.element, reference_degen_images(n, i), form_algebra(n + 1)))


def _nonzero(form):
    return form.dim, {m: c for m, c in form.element.terms.items() if c}


def reference_validate(gf):
    """`GlobalForm.validate` through `PolyForm.face` and
    `PolyForm.degen_word`, each face check comparing the dimensions and
    nonzero terms of two new forms (an explicit zero coefficient is no
    term), and the degree of a monomial from `mono_degree`."""
    K, defects = gf.complex, []
    for sid in sorted(K.dims):
        own = gf.form(sid)
        degrees = {own.element.algebra.mono_degree(m)
                   for m in own.element.terms}
        if own.dim != K.dims[sid] or len(degrees) > 1:
            defects.append(f"form on {sid} is not a homogeneous form "
                           f"on a {K.dims[sid]}-simplex")
        elif degrees - {gf.degree}:
            defects.append(f"form on {sid} has degree {degrees.pop()}, "
                           f"expected {gf.degree}")
        else:
            for i in range(own.dim + 1 if own.dim else 0):
                tgt, word = K.faces[(sid, i)]
                other = gf.form(tgt)
                if (other.dim != K.dims[tgt]
                        or _nonzero(own.face(i))
                        != _nonzero(other.degen_word(word))):
                    defects.append(f"face {i} of {sid} disagrees with {tgt}")
    return defects


def reference_compatibility_rows(K, degree, poly_cap, closed):
    """(rows, variable count) of the face-compatibility system assembled
    one block per (simplex, face), through the reference face and
    degeneracy tables, entries summed into the rows."""
    order = sorted(K.dims, key=lambda sid: (K.dims[sid], sid))
    start, nvars = {}, 0
    for sid in order:
        start[sid] = nvars
        nvars += len(form_basis(K.dims[sid], degree, poly_cap))
    rows = []

    def equate(n, k, terms):
        index = {m: i for i, m in enumerate(form_basis(n, k, poly_cap))}
        block = [{} for _ in index]
        for sid, sign, move in terms:
            dim = K.dims[sid]
            for idx, mono in enumerate(form_basis(dim, degree, poly_cap)):
                j = start[sid] + idx
                image = move(PolyForm(dim, AlgElement(form_algebra(dim),
                                                      {mono: Fraction(1)})))
                for m, c in image.element.terms.items():
                    block[index[m]][j] = block[index[m]].get(j, 0) + sign * c
        rows.extend(block)

    def degen_word(form, word):
        for j in reversed(word):
            form = reference_degen(form, j)
        return form

    for sid in order:
        dim = K.dims[sid]
        for i in range(dim + 1 if dim else 0):
            tgt, word = K.faces[(sid, i)]
            equate(dim - 1, degree,
                   [(sid, 1, lambda f, i=i: reference_face(f, i)),
                    (tgt, -1, lambda f, word=word: degen_word(f, word))])
        if closed:
            equate(dim, degree + 1, [(sid, 1, PolyForm.d)])
    return rows, nvars


# ----- strategies -----

def _combination(draw, alg, monos, coeffs=COEFFS):
    """A random combination of some of `monos`, zero only when `monos`
    is empty."""
    picked = draw(st.lists(st.sampled_from(monos), min_size=1,
                           max_size=5)) if monos else []
    return alg.element({m: draw(coeffs.filter(bool)) for m in picked})


def _element(draw, alg, max_degree, coeffs=COEFFS):
    """A random element with parts in several degrees 0..max_degree."""
    monos = [m for k in range(max_degree + 1)
             for m in alg.basis_of_degree(k)]
    return _combination(draw, alg, monos, coeffs)


@st.composite
def derivation_cases(draw, shifts=(1, -1)):
    """A free algebra with odd and even generators in a random order, a
    derivation of a shift in `shifts` with random images, and an
    element; images and element have mixed denominators."""
    degrees = (draw(st.lists(st.sampled_from([1, 3]), min_size=1,
                             max_size=2))
               + draw(st.lists(st.sampled_from([2, 4]), min_size=1,
                               max_size=2)))
    degrees = draw(st.permutations(degrees))
    alg = FreeAlgebra.build([(f"g{i}", d) for i, d in enumerate(degrees)])
    shift = draw(st.sampled_from(shifts))
    images = {g.name: _combination(draw, alg,
                                   alg.basis_of_degree(g.degree + shift),
                                   MIXED)
              for g in alg.generators}
    return Derivation(alg, shift, images), _element(draw, alg, 8, MIXED)


@st.composite
def cdga_cases(draw):
    """An unchecked CDGA (d^2 need not vanish) over a random derivation
    of shift +1: free, word-capped at 1..3, or cut by one to three random
    homogeneous relations of degree 2..6."""
    d, _ = draw(derivation_cases(shifts=(1,)))
    alg = d.algebra
    kind = draw(st.sampled_from(["free", "capped", "relations"]))
    if kind == "capped":
        return Cdga(kind, alg, d, word_cap=draw(st.integers(1, 3)),
                    check=False)
    relations = []
    if kind == "relations":
        for k in draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)):
            r = _combination(draw, alg, alg.basis_of_degree(k), MIXED)
            if r:
                relations.append(r)
    return Cdga(kind, alg, d, relations=relations, check=False)


@st.composite
def renaming_cases(draw):
    """The differential of a `cdga_cases` CDGA, a renaming {ordinal: new
    name} of a random subset of its generators, and the algebra on the
    new names, their ordinals shifted by 0..4."""
    d = draw(cdga_cases()).differential
    kept = [g for g in d.algebra.generators if draw(st.booleans())]
    shift = draw(st.integers(0, 4))
    names = {g.ordinal: f"r{g.ordinal}" for g in kept}
    return d, names, FreeAlgebra([Generator(names[g.ordinal], g.degree,
                                            g.ordinal + shift)
                                  for g in kept])


TARGETS = {
    "wedge S2vS3": lambda: wedge_cohomology(2, 3),
    "wedge S2vS2": lambda: wedge_cohomology(2, 2),
    "CP3": lambda: cp_cohomology(3),
    "elliptic6 words<=2": lambda: word_length_quotient(elliptic_six(), 2)[0],
}
_TARGET_CACHE = {}


def _target(draw):
    """One of TARGETS, built once per session."""
    name = draw(st.sampled_from(sorted(TARGETS)))
    if name not in _TARGET_CACHE:
        _TARGET_CACHE[name] = TARGETS[name]()
    return _TARGET_CACHE[name]


@st.composite
def reduce_cases(draw):
    """A CDGA of `cdga_cases` or of TARGETS, and an element of its free
    algebra with parts in degrees 0..8 and mixed denominators, plus up to
    three multiples of its relations, so that pivots are met."""
    c = draw(cdga_cases()) if draw(st.booleans()) else _target(draw)
    x = _element(draw, c.algebra, 8, MIXED)
    for r in draw(st.lists(st.sampled_from(c.relations), max_size=3)
                  if c.relations else st.just([])):
        x = x + _element(draw, c.algebra, 4, MIXED) * r
    return c, x


@st.composite
def morphism_cases(draw):
    """A map from a free algebra with zero differential to a target with
    relations or a word cap, with random images, and a source element."""
    target = _target(draw)
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    source = Cdga.build("src", [(f"s{i}", d) for i, d in enumerate(degrees)])
    images = {g.name: _combination(draw, target.algebra,
                                   target.basis(g.degree))
              for g in source.algebra.generators}
    phi = CdgaMorphism(source, target, images, check=False)
    return phi, _element(draw, source.algebra, 9)


SWAP_SOURCE = FreeAlgebra.build([("a", 2), ("b", 2), ("c", 3), ("e", 3)])
SWAP_TARGET = FreeAlgebra.build([("u", 1), ("v", 1), ("w", 2), ("z", 3)])


@st.composite
def memo_cases(draw):
    """(f, element, target) for `memo_linear`.  Either a morphism into a
    target with relations or a word cap, whose images get fractional
    coefficients from the reduction, or a substitution sending a and b to
    one image and c and e to another, with mixed-denominator images.  The
    element has mixed-denominator and negative coefficients, explicit
    zeros, and pairs of terms with equal images and opposite
    coefficients, which cancel."""
    if draw(st.booleans()):
        phi, x = draw(morphism_cases())
        f, target = phi.apply, phi.target.algebra
    else:
        src, tgt = SWAP_SOURCE, SWAP_TARGET
        ab = _combination(draw, tgt, tgt.basis_of_degree(2))
        ce = _combination(draw, tgt, tgt.basis_of_degree(3))
        images = {src.generator(g).ordinal: img
                  for g, img in (("a", ab), ("b", ab), ("c", ce), ("e", ce))}
        swap = {src.generator(g).ordinal: src.gen_elem(h)
                for g, h in (("a", "b"), ("b", "a"), ("c", "e"), ("e", "c"))}
        x = _element(draw, src, 8)
        x = (x - substitute(x, swap, src)
             + _element(draw, src, 8).scale(draw(COEFFS)))
        f, target = (lambda e: substitute(e, images, tgt)), tgt
    terms = dict(x.terms)
    basis = [m for k in range(9) for m in x.algebra.basis_of_degree(k)]
    for m in draw(st.lists(st.sampled_from(basis), max_size=3)):
        terms[m] = Fraction(0)
    return f, AlgElement(x.algebra, terms), target


MULT_TARGET = FreeAlgebra.build([("u", 1), ("w", 2), ("w_2", 2), ("z", 3)])


@st.composite
def multiplicative_cases(draw):
    """(algebra, images, first, x, y) for `multiplicative`: odd and even
    letters in a random order, images in MULT_TARGET with mixed
    denominators for some letters (the others have none), x a combination
    of monomials in the letters of ordinal < first, y one in all letters,
    even letters up to the fourth power."""
    degrees = draw(st.permutations(
        draw(st.lists(st.sampled_from([1, 3]), min_size=1, max_size=2))
        + draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))))
    alg = FreeAlgebra.build([(f"g{i}", d) for i, d in enumerate(degrees)])
    images = {g.ordinal: _combination(draw, MULT_TARGET,
                                      MULT_TARGET.basis_of_degree(g.degree),
                                      MIXED)
              for g in alg.generators if draw(st.booleans())}
    first = draw(st.integers(0, len(degrees)))

    def element(letters):
        powers = st.tuples(*[st.integers(0, 1 if alg.degree_of(o) % 2 else 4)
                             for o in letters])
        monos = {tuple((o, p) for o, p in zip(letters, ps) if p)
                 for ps in draw(st.lists(powers, min_size=1, max_size=6))}
        return alg.element({m: draw(MIXED.filter(bool)) for m in monos})

    return (alg, images, first, element(range(first)),
            element(range(len(degrees))))


@st.composite
def form_cases(draw):
    """A random form of mixed exterior degree on a simplex of dimension
    0..3."""
    n = draw(st.integers(0, 3))
    monos = [m for k in range(n + 1) for m in form_basis(n, k, 2)]
    return PolyForm(n, _combination(draw, form_algebra(n), monos))


@st.composite
def raw_form_cases(draw):
    """A form on a simplex of dimension 0..3 built directly from a terms
    dict, with explicit zero coefficients among the nonzero ones."""
    n = draw(st.integers(0, 3))
    monos = [m for k in range(n + 1) for m in form_basis(n, k, 2)]
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6,
                           unique=True))
    zeros = draw(st.integers(1, len(picked)))
    return PolyForm(n, AlgElement(form_algebra(n), {
        m: Fraction(0) if i < zeros else draw(COEFFS)
        for i, m in enumerate(picked)}))


def _moves(n):
    """(pullback, reference) pairs for every face and degeneracy of the
    n-simplex."""
    out = [(lambda f, i=i: f.degen(i), lambda f, i=i: reference_degen(f, i))
           for i in range(n + 1)]
    if n:
        out += [(lambda f, i=i: f.face(i), lambda f, i=i: reference_face(f, i))
                for i in range(n + 1)]
    return out


class _CountingFills:
    """Counts the table entries `graded.multiplicative` fills, one
    `row_product` each, while installed."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        self.original = graded.row_product

        def counted(*args):
            self.calls += 1
            return self.original(*args)

        graded.row_product = counted
        return self

    def __exit__(self, *exc):
        graded.row_product = self.original


def _empty_tables():
    """Empty the tables of `plforms` as `verify_stokes` does on entry."""
    plforms._MOVES.clear()


def _tails(mono):
    """The monomials a pullback table fills for `mono`: the monomial, then
    it with its first letter taken off once, and so on, the unit left
    out."""
    out = []
    while mono:
        out.append(mono)
        (o, p), mono = mono[0], mono[1:]
        if p > 1:
            mono = ((o, p - 1),) + mono
    return out


@contextmanager
def _counting_leibniz():
    """The monomials passed to the Leibniz kernel `Derivation.columns`
    while installed, whether a differential matrix passes them or
    `Derivation.leibniz` one at a time."""
    calls = []
    original = graded.Derivation.columns

    def counted(self, monos, index=None):
        monos = list(monos)
        calls.extend(monos)
        return original(self, monos, index)

    graded.Derivation.columns = counted
    try:
        yield calls
    finally:
        graded.Derivation.columns = original


# ----- tests -----

@settings(max_examples=150, deadline=None)
@given(derivation_cases())
def test_derivation_matches_letterwise_leibniz(case):
    d, x = case
    assert d.apply(x) == reference_derivation_apply(d, x)


@settings(max_examples=150, deadline=None)
@given(derivation_cases())
def test_leibniz_kernel_matches_letterwise_leibniz(case):
    """d of each monomial, as nonzero integers over the derivation's one
    common denominator."""
    d, x = case
    for m in x.terms:
        den, terms = d.leibniz(m)
        assert den == d.den and type(den) is int and den > 0
        assert all(type(c) is int and c for c in terms.values())
        want = reference_derivation_apply(d, AlgElement(d.algebra,
                                                        {m: Fraction(1)}))
        assert {n: Fraction(c, den) for n, c in terms.items()} == want.terms


@st.composite
def kernel_cases(draw):
    """A derivation, the monomials of an element, and either no index or
    an index, in a shuffled order, of the monomials of the degrees d
    reaches from them, capped at a word length that may drop some."""
    d, x = draw(derivation_cases())
    monos = list(x.terms)
    if draw(st.booleans()):
        return d, monos, None
    cap = draw(st.one_of(st.none(), st.integers(0, 3)))
    degrees = {d.algebra.mono_degree(m) + d.shift for m in monos}
    targets = sorted({n for k in degrees if k >= 0
                      for n in d.algebra.basis_of_degree(k, word_max=cap)})
    targets = draw(st.permutations(targets))
    return d, monos, {n: i for i, n in enumerate(targets)}


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_columns_kernel_matches_letterwise_leibniz_through_an_index(case):
    """Each column of `Derivation.columns` is d of its monomial by the
    reference Leibniz rule, as nonzero integers over `den`, keyed through
    the index with what it lacks dropped, or by monomial with no index;
    `leibniz` is the kernel on one monomial."""
    d, monos, index = case
    key = (lambda n: n) if index is None else index.get
    cols = d.columns(monos, index)
    assert len(cols) == len(monos)
    for m, col in zip(monos, cols):
        want = reference_derivation_apply(d, AlgElement(d.algebra,
                                                        {m: Fraction(1)}))
        assert all(type(c) is int and c for c in col.values())
        assert {n: Fraction(c, d.den) for n, c in col.items()} == {
            key(n): c for n, c in want.terms.items() if key(n) is not None}
        assert d.leibniz(m) == (d.den, d.columns((m,))[0])


def test_columns_kernel_on_vanishing_and_capped_products():
    """dz = xz/2 and dw = z^2/3 over den 6, x odd: d(xz) = -x dz has x
    twice and vanishes; d(z^2) = x z^2 and d(xw) = -x z^2 / 3 have word
    length 3, so the index of the degree-5 words of length <= 2, {zw},
    drops them."""
    alg = FreeAlgebra.build([("x", 1), ("z", 2), ("w", 3)])
    x, z, w = (alg.gen_elem(name) for name in "xzw")
    d = Derivation(alg, +1, {"z": (x * z).scale(Fraction(1, 2)),
                             "w": (z * z).scale(Fraction(1, 3))})
    xz, zz, xw, xzz, zw = (next(iter(e.terms)) for e in (
        x * z, z * z, x * w, x * z * z, z * w))
    assert d.den == 6
    assert d.columns([xz, zz, xw]) == [{}, {xzz: 6}, {xzz: -2}]
    assert alg.basis_of_degree(5, word_max=2) == [zw]
    assert d.columns([zz, xw], {zw: 0}) == [{}, {}]
    assert d.columns([zz, xw], {zw: 0, xzz: 1}) == [{1: 6}, {1: -2}]
    assert d.leibniz(xz) == (6, {})


def test_an_image_is_scaled_as_its_denominators_are_read():
    """The one pass over an image's terms grows its denominator as it
    meets them, 1, 2, 6, rescaling the integers it has already written:
    dw = a^2 + ab/2 - b^2 + ac/3 is 6 dw = 6a^2 + 3ab - 6b^2 + 2ac."""
    alg = FreeAlgebra.build([("a", 2), ("b", 2), ("c", 2), ("w", 3)])
    aa, ab, bb, ac = ((0, 2),), ((0, 1), (1, 1)), ((1, 2),), ((0, 1), (2, 1))
    image = AlgElement(alg, {aa: Fraction(1), ab: Fraction(1, 2),
                             bb: Fraction(-1), ac: Fraction(1, 3)})
    d = Derivation(alg, +1, {"w": image})
    assert d.den == 6
    assert d.columns([((3, 1),)]) == [{aa: 6, ab: 3, bb: -6, ac: 2}]


def _assert_diff_matrices(c, top):
    for k in range(top + 1):
        got = c.diff_matrix(k)
        assert got == reference_diff_matrix(c, k), f"degree {k}"
        assert all(type(x) is int and x for row in got.num
                   for x in row.values())
        if c.is_free and got.cols:  # the Leibniz kernel's, as they are
            assert got.den == c.differential.den


@settings(max_examples=150, deadline=None)
@given(cdga_cases())
def test_diff_matrix_matches_the_element_assembly(c):
    _assert_diff_matrices(c, 8)


@st.composite
def extension_cases(draw):
    """A free unchecked CDGA with its differential matrices of degrees
    0..7 built, and a new generator t of degree 1..5 with a random dt."""
    d, _ = draw(derivation_cases(shifts=(1,)))
    c = Cdga("c", d.algebra, d, check=False)
    for k in range(8):
        c.diff_matrix(k)
    degree = draw(st.integers(1, 5))
    alg = c.algebra.extend([("t", degree)])
    dt = _combination(draw, alg, alg.basis_of_degree(degree + 1), MIXED)
    return c, degree, dt


@settings(max_examples=60, deadline=None)
@given(extension_cases())
def test_extend_carries_old_columns_and_assembles_new_ones(case):
    c, degree, dt = case
    new = c.extend([("t", degree)], {"t": dt})
    _assert_diff_matrices(new, 7)


@st.composite
def extension_chains(draw):
    """A free unchecked CDGA over a `derivation_cases` derivation and one
    to three steps (degrees to read, then generators to adjoin with their
    images): a new generator of degree 1..6 sits below, among or above
    the old ones, and its image, if any, has denominators up to 12, so
    den may grow."""
    d, _ = draw(derivation_cases(shifts=(1,)))
    alg, steps = d.algebra, []
    for step in range(draw(st.integers(1, 3))):
        read = draw(st.lists(st.integers(0, 7), unique=True))
        specs = [(f"t{step}_{i}", draw(st.integers(1, 6)))
                 for i in range(draw(st.integers(1, 2)))]
        alg = alg.extend(specs)
        images = {name: _combination(draw, alg, alg.basis_of_degree(deg + 1),
                                     MIXED)
                  for name, deg in specs if draw(st.booleans())}
        steps.append((read, specs, images))
    return Cdga("c", d.algebra, d, check=False), steps


@settings(max_examples=80, deadline=None)
@given(extension_chains())
def test_an_extension_chain_re_indexes_what_it_reads(chain):
    """`extend` asks the Leibniz kernel for nothing, and a matrix of d
    read later asks it only for the monomials that no ancestor's matrix
    of that degree had; every matrix equals a fresh CDGA's, entry for
    entry over the same den."""
    c, steps = chain
    built, asked, columns = {}, [], Cdga._d_columns

    def counted(self, k, monos):
        asked.append((k, list(monos)))
        return columns(self, k, monos)

    def read(k):
        asked.clear()
        c.diff_matrix(k)
        assert asked == [(k, [x for x in c.basis(k)
                              if x not in built.get(k, ())])]
        built[k] = set(c.basis(k))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cdga, "_d_columns", counted)
        for degrees, specs, images in steps:
            for k in degrees:
                read(k)
            asked.clear()
            c = c.extend(specs, images)
            assert asked == []
        for k in range(8):
            read(k)
    for k in range(8):
        got = c.diff_matrix(k)
        want = Cdga("fresh", c.algebra, c.differential,
                    check=False).diff_matrix(k)
        assert (got.num, got.den, got.cols) == (want.num, want.den, want.cols)


NAMED_CDGAS = {
    "wedge S2vS3": lambda: wedge_cohomology(2, 3),
    "CP3": lambda: cp_cohomology(3),
    "H(CP2) (x) elliptic6": lambda: tensor_product(
        cp_cohomology(2), elliptic_six())[0],
    "H(S3vS3) (x) S2": lambda: tensor_product(
        load_cdga(ROOT / "data" / "h_wedge_s3s3.cdga"), sphere_model(2))[0],
    **{f"elliptic6 words<={n}": lambda n=n: word_length_quotient(
        elliptic_six(), n)[0] for n in (1, 2, 3)},
    **{path.stem: lambda path=path: load_cdga(path)
       for path in sorted((ROOT / "data").glob("*.cdga"))
       if "rel " in path.read_text()},
}


@pytest.mark.parametrize("name", sorted(NAMED_CDGAS))
def test_named_quotients_match_the_element_assembly(name):
    _assert_diff_matrices(NAMED_CDGAS[name](), 14)


def test_free_loop_ranks_apply_no_derivation_per_monomial(monkeypatch):
    """The free-loop model of S2xS2xS4 and its h_dim through degree 10:
    the 27 calls are the model's own d^2 check and S on the three
    differentials; the differential matrices call the Leibniz kernel
    `Derivation.columns` alone, once per degree (1,014 calls when they
    went through `apply` one monomial at a time)."""
    calls = 0
    original = graded.Derivation.apply

    def counted(self, elem):
        nonlocal calls
        calls += 1
        return original(self, elem)

    model = Cdga.build("S2xS2xS4", [("y", 2), ("z", 3), ("y_2", 2),
                                    ("z_2", 3), ("y_3", 4), ("z_3", 7)],
                       {"z": "y^2", "z_2": "y_2^2", "z_3": "y_3^2"})
    monkeypatch.setattr(graded.Derivation, "apply", counted)
    loops = free_loop_model(model)
    dims = [loops.h_dim(k) for k in range(11)]
    assert dims == [1, 2, 3, 5, 8, 11, 14, 17, 20, 24, 29]
    assert calls == 27


def test_free_loop_ranks_make_no_fraction():
    """h_dim through degree 10 of a built free-loop model of S2xS2xS4
    whose d has denominator 6: the Leibniz kernel's integers reach the
    elimination as they are, so cProfile sees no `Fraction` made."""
    model = Cdga.build("S2xS2xS4", [("y", 2), ("z", 3), ("y_2", 2),
                                    ("z_2", 3), ("y_3", 4), ("z_3", 7)],
                       {"z": "1/2*y^2", "z_2": "-2/3*y_2^2",
                        "z_3": "3*y_3^2"})
    loops = free_loop_model(model)
    assert loops.differential.den == 6
    profile = cProfile.Profile()
    dims = profile.runcall(lambda: [loops.h_dim(k) for k in range(11)])
    assert dims == [1, 2, 3, 5, 8, 11, 14, 17, 20, 24, 29]
    made = [calls for (path, _, name), (calls, *_) in
            pstats.Stats(profile).stats.items()
            if name == "__new__" and pathlib.Path(path).name == "fractions.py"]
    assert sum(made) == 0


@settings(max_examples=150, deadline=None)
@given(reduce_cases())
def test_reduce_matches_plain_elimination(case):
    c, x = case
    assert c.reduce(x) == reference_reduce(c, x)


@settings(max_examples=150, deadline=None)
@given(renaming_cases())
def test_renamed_matches_the_reference_substitution(case):
    """Each renamed image is its source image with letter o renamed to
    names[o] and every other letter sent to 0, and only the generators of
    `names` with an image have one."""
    d, names, alg = case
    move = {o: alg.gen_elem(name) for o, name in names.items()}
    got = d.renamed(names, alg)
    assert got.keys() == {names[o] for o in d.images if o in names}
    for o, name in names.items():
        want = reference_substitute(d.images.get(o, d.algebra.zero()), move,
                                    alg, missing_zero=True)
        assert got.get(name, alg.zero()) == want


@st.composite
def growth_cases(draw):
    """(algebra, its extension or itself, shift, first images, second
    images) from a `derivation_cases` derivation: over itself its images
    split in two, over `extend` all of them first and a new generator t
    second.  The second half is scaled by 1/q, q prime to every MIXED
    denominator, so that the common denominator grows when q > 1."""
    d, _ = draw(derivation_cases())
    alg, shift = d.algebra, d.shift
    q = Fraction(1, draw(st.sampled_from([1, 13, 17])))
    if draw(st.booleans()):
        second = draw(st.sets(st.sampled_from(
            [g.ordinal for g in alg.generators])))
        return alg, alg, shift, {
            o: e for o, e in d.images.items() if o not in second}, {
            alg.by_ordinal(o).name: e.scale(q)
            for o, e in d.images.items() if o in second}
    degree = draw(st.integers(2, 4))
    big = alg.extend([("t", degree)])
    dt = _combination(draw, big, big.basis_of_degree(degree + shift), MIXED)
    return alg, big, shift, d.images, {"t": dt.scale(q)}


@settings(max_examples=150, deadline=None)
@given(growth_cases())
def test_grown_derivation_matches_the_one_built_at_once(case):
    """`extended` gives the images, den, scaled rows and Leibniz columns
    of the derivation built from all the images at once.  It shares each
    old row while den stays and leaves the derivation it grows as it was."""
    alg, big, shift, first, second = case
    small = Derivation(alg, shift, first)
    rows = {o: list(row) for o, row in small._scaled.items()}
    grown = small.extended(big, second)
    fresh = Derivation(big, shift, {
        **{o: AlgElement(big, e.terms) for o, e in first.items()}, **second})
    assert grown == fresh and grown.images == fresh.images
    assert grown.den == fresh.den and grown._scaled == fresh._scaled
    for k in range(7):
        for m in big.basis_of_degree(k):
            assert grown.leibniz(m) == fresh.leibniz(m)
    assert small._scaled == rows
    for o, row in small._scaled.items():
        assert (grown._scaled[o] is row) == (grown.den == small.den)


@settings(max_examples=100, deadline=None)
@given(morphism_cases())
def test_morphism_matches_reduction_after_every_product(case):
    phi, x = case
    want = reference_morphism_apply(phi, x)
    assert phi.apply(x) == want
    # with a table of monomial images: filled by the first call, then read
    tabled = CdgaMorphism(phi.source, phi.target, phi.images, check=False,
                          table={})
    assert tabled.apply(x) == want
    assert tabled.apply(x) == want


@settings(max_examples=150, deadline=None)
@given(memo_cases())
def test_memo_linear_matches_the_fraction_loop(case):
    f, x, target = case
    ref_table, table, calls = {}, {}, []

    def counted(e):
        calls.append(e)
        return f(e)

    def apply():  # f on monomials, as the `scaled` terms of f(m)
        maps = [(lambda m: scaled(counted(AlgElement(
            x.algebra, {m: Fraction(1)})).terms), table)]
        return AlgElement(target, ratios(*memo_linear(x.terms, maps)))

    want = reference_memo_linear(f, x, ref_table, target)
    got = apply()
    assert got == want
    assert all(type(c) is Fraction and c for c in got.terms.values())
    assert table.keys() == ref_table.keys() == {m for m, c in x.terms.items()
                                                if c}
    # a mutated result leaves the table as it was, and a repeat reads it
    got.terms.clear()
    got.terms[()] = Fraction(7)
    calls.clear()
    assert apply() == want
    assert calls == []


def reference_scaled_sum(coeffs, rows):
    """sum of c * rows[k] as Fractions over the terms with a nonzero
    coefficient, each key placed where it first appears, zeros dropped;
    with the lcm of those terms' denominators (coefficient times row)."""
    out, dens = {}, [1]
    for k, c in coeffs.items():
        if not c:
            continue
        den, row = rows[k]
        if row:
            dens.append(Fraction(c).denominator * den)
        for j, x in row.items():
            out[j] = out.get(j, 0) + Fraction(c) * x / den
    return math.lcm(*dens), {j: v for j, v in out.items() if v}


SCALED_ROWS = st.tuples(
    st.sampled_from([1, 1, 2, 3, 4, 6]),
    st.dictionaries(st.integers(0, 5),
                    st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=4))


@st.composite
def scaled_sum_cases(draw):
    """Coefficients (int or Fraction, some zero) over `scaled` rows (some
    empty, denominators mixed); a zero coefficient's row may be missing."""
    rows = draw(st.lists(SCALED_ROWS, max_size=6))
    coeffs = {k: draw(st.one_of(st.integers(-3, 3), MIXED))
              for k in range(len(rows))}
    coeffs.update(dict.fromkeys(
        draw(st.lists(st.integers(6, 8), max_size=2)), 0))
    return coeffs, dict(enumerate(rows))


@settings(max_examples=300, deadline=None)
@given(scaled_sum_cases())
@example(({1: 0, 0: 1, 2: Fraction(0)}, {0: (1, {3: 2})}))  # zeros, no rows
@example(({0: 1, 1: 1, 2: 1}, {0: (2, {0: 1, 1: 1}), 1: (3, {1: 1, 2: 1}),
                               2: (4, {2: -1, 0: 1})}))  # 2, then 3, then 4
@example(({0: Fraction(1, 2), 1: 3, 2: -2},
          {0: (1, {}), 1: (5, {}), 2: (3, {4: 1})}))  # empty rows add no den
@example(({0: 1, 1: -1}, {0: (2, {1: 1}), 1: (2, {1: 1})}))  # cancels
def test_scaled_sum_matches_the_fraction_sum(case):
    """One pass gives the two-pass result: the lcm of the denominators
    read, the same integers over it, and the keys in first-seen order."""
    coeffs, rows = case
    common, terms = scaled_sum(coeffs, rows)
    want_common, want = reference_scaled_sum(coeffs, rows)
    assert common == want_common
    assert list(terms) == list(want)
    assert all(type(x) is int and x == want[j] * common
               for j, x in terms.items())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(form_basis(2, 1, 2)), min_size=1,
                max_size=4, unique=True),
       st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=4,
                max_size=4),
       st.sampled_from([1, 2, 3]), st.sampled_from([2, 3, 5]))
def test_form_equality_over_any_denominators(monos, values, den, k):
    """Forms over different denominators are equal when their Fractions
    are (2 against 6, say), and forms over one denominator differ when
    one entry does, as their elements do."""
    row = dict(zip(monos, values))
    a = PolyForm._of(2, (den, row))
    b = PolyForm._of(2, (den * k, {m: x * k for m, x in row.items()}))
    assert a == b and b == a and a.element == b.element
    first = next(iter(row))
    for c in (row[first] + 1, -row[first]):
        other = PolyForm._of(2, (den, {**row, first: c}))
        assert a != other and other != a and a.element != other.element
    fewer = PolyForm._of(2, (den, dict(list(row.items())[1:])))
    assert a != fewer and fewer != a


@settings(max_examples=150, deadline=None)
@given(multiplicative_cases())
def test_every_tail_of_a_shared_table_matches_the_reference(case):
    """Two maps share one table, the first defined on the letters of
    ordinal < first alone, as the morphisms of successive synthesis
    stages are: the table keeps every tail of every monomial met, and
    each entry, like each image, is what `reference_substitute` gives."""
    alg, images, first, x, y = case
    letters = {o: scaled(e.terms) for o, e in images.items()}
    table = {}
    low = multiplicative({o: r for o, r in letters.items() if o < first},
                         MULT_TARGET, table)
    high = multiplicative(letters, MULT_TARGET, table)
    assert high[1] is table
    for z, maps in ((x, [low]), (y, [high])):
        assert AlgElement(MULT_TARGET, ratios(*memo_linear(z.terms, maps))) \
            == reference_substitute(z, images, MULT_TARGET, missing_zero=True)
    assert table.keys() == {t for z in (x, y) for m in z.terms
                            for t in _tails(m) or [m]}
    for mono, row in table.items():
        assert AlgElement(MULT_TARGET, ratios(*row)) == reference_substitute(
            AlgElement(alg, {mono: Fraction(1)}), images, MULT_TARGET,
            missing_zero=True)


def test_substitute_fills_a_long_power_in_a_loop():
    """x^5000 is 5000 tails deep, past the interpreter's recursion
    limit."""
    alg, tgt = FreeAlgebra.build([("x", 2)]), FreeAlgebra.build([("w", 2)])
    half = tgt.element({((0, 1),): Fraction(1, 2)})
    x = alg.element({((0, 5000),): 3})
    assert substitute(x, {0: half}, tgt).terms == {
        ((0, 5000),): Fraction(3, 2 ** 5000)}


@pytest.mark.parametrize("text, ordinal", [
    ("a*e + b*c^2", 3), ("b*c^2 + a*e", 1), ("a*c*e + b", 2), ("a^2", None)])
def test_a_missing_image_names_the_first_in_term_and_letter_order(
        text, ordinal):
    """a alone has an image: the error names the first letter without
    one, in the order of the terms and then of their letters, as the
    element-by-element `substitute` did; with missing_zero those terms
    are dropped."""
    alg = FreeAlgebra.build([("a", 2), ("b", 3), ("c", 2), ("e", 3)])
    tgt = FreeAlgebra.build([("w", 2)])
    images = {0: tgt.element({((0, 1),): Fraction(2, 3)})}
    x = alg.parse(text)
    assert substitute(x, images, tgt, missing_zero=True) == \
        reference_substitute(x, images, tgt, missing_zero=True)
    if ordinal is None:
        assert substitute(x, images, tgt) == reference_substitute(
            x, images, tgt)
    else:
        with pytest.raises(AlgebraError) as got:
            substitute(x, images, tgt)
        with pytest.raises(AlgebraError) as want:
            reference_substitute(x, images, tgt)
        assert str(got.value) == str(want.value) == (
            f"no image for generator ordinal {ordinal}")


@settings(max_examples=100, deadline=None)
@given(form_cases())
def test_face_and_degeneracy_match_explicit_image_tables(form):
    n = form.dim
    for i in range(n + 1):
        if n:
            assert form.face(i) == reference_face(form, i)
        assert form.degen(i) == reference_degen(form, i)


@pytest.mark.parametrize("n", range(4))
def test_letter_by_letter_tables_match_substitute(n):
    """Filled one letter at a time from every monomial of
    form_basis(n, k, 3), each pullback table holds, for every monomial it
    keeps, what `reference_substitute` gives with the reference coordinate
    images: every face and every codegeneracy of the n-simplex."""
    monos = [m for k in range(n + 1) for m in form_basis(n, k, 3)]
    maps = [(n - 1, ("face", i), reference_face_images(n, i))
            for i in range(n + 1) if n]
    maps += [(n + 1, ("degen_word", (i,)), reference_degen_images(n, i))
             for i in range(n + 1)]
    for m, move, images in maps:
        _empty_tables()
        [(image, table)] = plforms._moves(n, *move)[1]
        memo_linear(dict.fromkeys(monos, 1), [(image, table)])
        assert table.keys() >= set(monos)
        for mono, (den, row) in table.items():
            want = reference_substitute(
                AlgElement(form_algebra(n), {mono: Fraction(1)}), images,
                form_algebra(m))
            assert den == 1 and row == want.terms


@settings(max_examples=100, deadline=None)
@given(raw_form_cases())
def test_pullbacks_drop_explicit_zero_coefficients(form):
    for move, reference in _moves(form.dim):
        image = move(form)
        assert image == reference(form)
        assert all(image.element.terms.values())


@settings(max_examples=100, deadline=None)
@given(form_cases())
def test_repeated_pullbacks_read_the_table(form):
    """From empty tables, a face or a codegeneracy fills one entry per
    tail of each monomial of the form; a repeat fills none."""
    fills = len({tail for m, c in form.element.terms.items() if c
                 for tail in _tails(m)})
    for move, reference in _moves(form.dim):
        want = reference(form)
        _empty_tables()
        with _CountingFills() as first:
            assert move(form) == want
        with _CountingFills() as again:
            assert move(form) == want
        assert (first.calls, again.calls) == (fills, 0)


@settings(max_examples=100, deadline=None)
@given(form_cases())
def test_mutating_a_pullback_does_not_poison_the_table(form):
    one = Fraction(1)
    for move, reference in _moves(form.dim):
        want = reference(form)
        image = move(form)
        terms = image.element.terms
        for m in list(terms):
            terms[m] += one
        terms[()] = terms.get((), 0) + 7
        assert move(form) == want
        move(form).element.terms.clear()
        assert move(form) == want


def _words(n, length):
    """Every normalised degeneracy word of the given length that applies
    to the n-simplex (outermost letter first)."""
    if length == 0:
        return [()]
    return [(j,) + w for w in _words(n, length - 1)
            for j in range(n + length)
            if normalize_word((j,) + w) == (j,) + w]


@settings(max_examples=60, deadline=None)
@given(form_cases())
def test_degeneracy_words_match_composed_references(form):
    for length in range(3):
        for word in _words(form.dim, length):
            want = form
            for j in reversed(word):
                want = reference_degen(want, j)
            assert form.degen_word(word) == want


def test_stokes_work_does_not_depend_on_earlier_calls():
    """verify_stokes starts from empty pullback tables, so repeating a
    call repeats its table fills instead of reading the first call's (55
    fills: no block is built, and no face of a sampled form is moved,
    where no k-forms are)."""
    counts = []
    for _ in range(2):
        with _CountingFills() as counter:
            assert verify_stokes(builtin_complex("delta2"), 3, 2, seed=1).ok
        counts.append(counter.calls)
    assert counts == [55, 55]


def test_stokes_on_a_reused_complex_repeats_its_work(monkeypatch):
    """verify_stokes also empties the kernels kept on the complex, so a
    second call on the same object solves its eight systems (two for each
    degree of delta3) and fills its tables again."""
    K, kernels, counts = builtin_complex("delta3"), [], []
    monkeypatch.setattr(plforms, "kernel_basis",
                        lambda m: kernels.append(m) or kernel_basis(m))
    for _ in range(2):
        kernels.clear()
        with _CountingFills() as counter:
            assert verify_stokes(K, 20, 3, 1).ok
        counts.append((len(kernels), counter.calls))
    assert counts[0] == counts[1] and counts[0][0] == 8


@settings(max_examples=100, deadline=None)
@given(form_cases())
def test_form_differential_reads_its_table(form):
    """The table keeps the bound `leibniz` it was made with, so a repeat
    is profiled rather than patched: cProfile sees no `leibniz` call."""
    diff = plforms._moves(form.dim, "d")[1][0][0].__self__
    want = PolyForm(form.dim, reference_derivation_apply(diff, form.element))
    assert form.d() == want
    profile = cProfile.Profile()
    assert profile.runcall(form.d) == want
    assert [name for _, _, name in pstats.Stats(profile).stats
            if name == "leibniz"] == []


def test_stokes_differentials_do_not_depend_on_earlier_calls():
    """verify_stokes also starts from empty tables of d."""
    counts = []
    for _ in range(2):
        with _counting_leibniz() as calls:
            assert verify_stokes(builtin_complex("delta2"), 3, 2, seed=1).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_stokes_integrals_do_not_depend_on_earlier_calls(monkeypatch):
    """verify_stokes also starts from an empty table of integrals: each
    monomial's Dirichlet integral is computed afresh in every call."""
    calls = []
    monkeypatch.setattr(plforms, "factorial",
                        lambda n: calls.append(n) or math.factorial(n))
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_stokes(builtin_complex("delta2"), 3, 2, seed=1).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ----- monomial bases -----

WORD_MAX = st.one_of(st.none(), st.integers(0, 5))


@st.composite
def shuffled_algebras(draw):
    """0..8 generators of degrees 1..7 with scattered ordinals, declared
    in a shuffled order."""
    degrees = draw(st.lists(st.integers(1, 7), max_size=8))
    ordinals = draw(st.lists(st.integers(0, 40), min_size=len(degrees),
                             max_size=len(degrees), unique=True))
    gens = [Generator(f"g{o}", d, o) for d, o in zip(degrees, ordinals)]
    return FreeAlgebra(draw(st.permutations(gens)))


@st.composite
def basis_queries(draw):
    """Degrees -1..16 with repeats, asked ascending, descending or in a
    random order, each with a word cap or none."""
    degrees = draw(st.lists(st.integers(-1, 16), min_size=1, max_size=10))
    order = draw(st.sampled_from(["ascending", "descending", "random"]))
    if order != "random":
        degrees.sort(reverse=order == "descending")
    return [(n, draw(WORD_MAX)) for n in degrees]


@contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@settings(max_examples=150, deadline=None)
@given(shuffled_algebras(), basis_queries())
def test_basis_table_matches_the_search_in_any_order(alg, queries):
    for n, word_max in queries:
        assert (alg.basis_of_degree(n, word_max=word_max)
                == reference_basis(alg, n, word_max))


@settings(max_examples=60, deadline=None)
@given(shuffled_algebras(), basis_queries())
def test_mutating_a_basis_does_not_poison_the_table(alg, queries):
    for n, word_max in queries:
        got = alg.basis_of_degree(n, word_max=word_max)
        got.append(((0, 99),))
        got.reverse()
        alg.basis_of_degree(n).clear()
        assert (alg.basis_of_degree(n, word_max=word_max)
                == reference_basis(alg, n, word_max))


@settings(max_examples=60, deadline=None)
@given(shuffled_algebras(), st.lists(st.integers(1, 7), min_size=1,
                                     max_size=3),
       basis_queries())
def test_extended_algebra_builds_its_own_basis_table(alg, new_degrees, queries):
    for n in range(17):
        alg.basis_of_degree(n)
    ext = alg.extend([(f"h{i}", d) for i, d in enumerate(new_degrees)])
    for n, word_max in queries:
        assert (ext.basis_of_degree(n, word_max=word_max)
                == reference_basis(ext, n, word_max))
        assert alg.basis_of_degree(n) == reference_basis(alg, n)


def test_basis_refuses_degree_zero_generators():
    alg = FreeAlgebra.build([("t", 0), ("y", 1)], allow_degree0=True)
    for n in (0, 1, 3, 0):
        with pytest.raises(AlgebraError, match="degrees >= 1"):
            alg.basis_of_degree(n)
    assert alg.basis_of_degree(-1) == []


def test_threads_filling_one_algebra_get_the_reference_bases():
    rng = random.Random(3)
    for trial in range(6):
        alg = FreeAlgebra.build([(f"g{i}", rng.randint(1, 7))
                                 for i in range(rng.randint(4, 8))])
        want = {n: reference_basis(alg, n) for n in range(-1, 17)}
        start = Barrier(4)

        def ask(seed):
            local = random.Random(seed)
            start.wait()
            return [(n, alg.basis_of_degree(n))
                    for n in (local.randint(-1, 16) for _ in range(12))]

        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(ask, range(4 * trial, 4 * trial + 4)))
        for n, got in (a for batch in answers for a in batch):
            assert got == want[n]


def test_bases_past_a_thousand_generators():
    """The table has no recursion, so a model with more generators than
    the interpreter's recursion limit still gets its bases."""
    rng = random.Random(1)
    low = {0: 2, 300: 3, 600: 2, 900: 5, 1199: 3}
    gens = [Generator(f"g{o}", low.get(o, rng.randint(6, 8)), o)
            for o in range(1200)]
    rng.shuffle(gens)
    alg = FreeAlgebra(gens)
    got = {n: alg.basis_of_degree(n) for n in (8, 5, 7)}
    with _recursion_limit(5000):
        for n, basis in got.items():
            assert basis == reference_basis(alg, n)


# ----- minimal models against the rebuilding synthesis -----


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _synthesis_targets():
    """(label, target builder, N): every simply connected `data/*.cdga`,
    H*(CP^2..4), four wedges of spheres, and the benchmark's seeded
    `.cdga` texts for seeds 0-3."""
    out = []
    for path in sorted((ROOT / "data").glob("*.cdga")):
        if load_cdga(path).h_dim(1) == 0:
            out.append((path.stem, lambda path=path: load_cdga(path), 9))
    out += [(f"cp{n}", lambda n=n: cp_cohomology(n), 2 * n + 4)
            for n in (2, 3, 4)]
    out += [(f"wedge{spheres}", lambda s=spheres: wedge_cohomology(*s), top)
            for spheres, top in [((2, 2), 10), ((3, 3), 14), ((2, 3), 12),
                                 ((2, 2, 2), 8)]]
    workloads = _workloads()
    for seed in range(4):
        for p, _, _, top in workloads.ModelSynthesis.cases:
            text = workloads.seeded_cdga_text(p, seed)
            out.append((f"{p[0]}-seed{seed}",
                        lambda t=text: parse_cdga_file(t, "<seeded>"), top))
    return out


SYNTHESIS_TARGETS = _synthesis_targets()
_RESULTS = {}


def _result(label, build, top):
    if label not in _RESULTS:
        _RESULTS[label] = minimal_model(build(), top)
    return _RESULTS[label]


def _phi_images(res):
    return {g.name: format_element(res.quasi_iso.image_of(g.name))
            for g in res.model.algebra.generators}


@pytest.mark.parametrize("label, build, top", SYNTHESIS_TARGETS,
                         ids=[t[0] for t in SYNTHESIS_TARGETS])
def test_minimal_model_matches_the_rebuilding_synthesis(label, build, top):
    got = _result(label, build, top)
    want = reference_minimal_model(build(), top)
    assert format_cdga(got.model) == format_cdga(want.model)
    assert _phi_images(got) == _phi_images(want)
    assert got.stages == want.stages
    assert got.certified_degree == want.certified_degree


@pytest.mark.parametrize("label, build, top", SYNTHESIS_TARGETS,
                         ids=[t[0] for t in SYNTHESIS_TARGETS])
def test_rebuilt_closing_checks_pass_on_every_model(label, build, top):
    """The checks the synthesis no longer runs at its end, run on a model
    and a morphism built afresh from the result's generator images."""
    res = _result(label, build, top)
    alg = res.model.algebra
    model = Cdga(res.model.name, alg,
                 Derivation(alg, +1, res.model.differential.images),
                 check=True)
    phi = CdgaMorphism(model, res.quasi_iso.target, res.quasi_iso.images,
                       check=True)
    assert check_minimal_sullivan(model) or not alg.generators
    assert check_quasi_iso(phi, top - 1).ok


# ----- the face-compatibility system against its per-face assembly -----

BLOCK_COMPLEXES = {
    "delta2": lambda: builtin_complex("delta2"),
    "delta3": lambda: builtin_complex("delta3"),
    "bddelta3": lambda: builtin_complex("bddelta3"),
    "s2_one_cell": lambda: load_scomplex(ROOT / "data" / "s2_one_cell.scx"),
}


@pytest.mark.parametrize("poly_cap", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BLOCK_COMPLEXES))
def test_blocks_built_once_match_the_per_face_assembly(
        monkeypatch, name, poly_cap):
    """Every degree, open and closed: the kernel equals that of the
    per-(simplex, face) assembly, keys (pivots) and rational rows in key
    order, and for the open system so do the rows handed to
    `kernel_basis`.  The closed system hands it only d within the open
    kernel."""
    K = BLOCK_COMPLEXES[name]()
    seen = []
    monkeypatch.setattr(plforms, "kernel_basis",
                        lambda m: seen.append(m) or kernel_basis(m))
    for degree in range(K.top_dim + 1):
        for closed in (False, True):
            seen.clear()
            kernel = plforms._compatibility_kernel(K, degree, poly_cap,
                                                   closed)[3]
            want = RatMatrix.from_rows(*reference_compatibility_rows(
                K, degree, poly_cap, closed))
            assert len(seen) == 1
            assert closed or seen == [want]
            basis = kernel_basis(want)
            assert list(kernel) == basis.pivots
            assert [{j: Fraction(x, p) for j, x in row.items()}
                    for p, row in kernel.values()] == basis.rows


@st.composite
def restricted_systems(draw):
    """Integer rows A and D over a few columns, some rows of D combined
    from those of A, and a denominator for D."""
    cols = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=cols, max_size=cols)
    a = draw(st.lists(row, max_size=6))
    d = draw(st.lists(row, max_size=4))
    for coeffs in draw(st.lists(st.lists(entry, min_size=len(a),
                                         max_size=len(a)), max_size=2)):
        d.append([sum(c * r[j] for c, r in zip(coeffs, a))
                  for j in range(cols)])
    sparse = [[{j: x for j, x in enumerate(r) if x} for r in m]
              for m in (a, d)]
    return cols, *sparse, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(restricted_systems())
def test_a_kernel_within_a_kernel_is_that_of_both_systems(case):
    """The kernel of D within that of A, from D times the rows of A's
    kernel alone, has the keys and rational rows of the kernel of A and D
    stacked."""
    cols, a, d, den = case
    inner = kernel_basis(RatMatrix(a, cols)).scaled_rows
    got = plforms._restricted_kernel(inner, d, den)
    want = kernel_basis(RatMatrix(a + d, cols))
    assert list(got) == want.pivots
    assert [ratios(p, row) for p, row in got.values()] == want.rows


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_closed_samples_at_cap_3_are_closed(name):
    """Every closed sample at cap 3, in every degree, has d = 0 on every
    simplex, and some is not zero in each degree below the top."""
    K = BLOCK_COMPLEXES[name]()
    for degree in range(K.top_dim + 1):
        samples = [plforms.sample_closed_global_form(K, degree, 3, seed)
                   for seed in range(4)]
        assert all(gf.d().is_zero() for gf in samples)
        assert degree == K.top_dim or not all(gf.is_zero()
                                              for gf in samples)


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_samples_do_not_depend_on_the_order_of_the_system_rows(
        monkeypatch, name):
    """The integer rows of `kernel_basis` are not canonical (their scale,
    and so the pivot entry, can change with the order of the rows), but
    `_sample` reads only their rational values: with the rows of every
    system shuffled, every sampled family is the same form."""
    def samples():
        K = BLOCK_COMPLEXES[name]()
        return [sample(K, degree, 3, seed).assignment
                for degree in range(K.top_dim + 1) for seed in (0, 7)
                for sample in (plforms.sample_global_form,
                               plforms.sample_closed_global_form)]

    want, rng = samples(), random.Random(3)

    def shuffled(m):
        rows = list(m.num)
        rng.shuffle(rows)
        return kernel_basis(RatMatrix(rows, m.cols, m.den))

    monkeypatch.setattr(plforms, "kernel_basis", shuffled)
    assert samples() == want


# ----- face checks on scaled rows against PolyForm.face / degen_word -----

def _perturbations(K, degree, form, rng):
    """Forms to put in place of `form` (on a simplex of K): one monomial
    of the right degree added, a monomial of the wrong degree in place of
    the form or added to it, an explicit zero coefficient, and a form on
    the wrong dimension."""
    n, alg = form.dim, form.element.algebra
    same = form_basis(n, degree, 2)
    wrong = form_basis(n, degree + 1, 2) + form_basis(n, degree - 1, 2)
    out = [PolyForm(n + 1, one(form_algebra(n + 1)))]
    if same:
        out.append(PolyForm(n, form.element + AlgElement(
            alg, {rng.choice(same): Fraction(rng.choice([-2, 1, 3]), 2)})))
        out.append(PolyForm(n, AlgElement(
            alg, {**form.element.terms, rng.choice(same): Fraction(0)})))
    if wrong:
        mono = rng.choice(wrong)
        out.append(PolyForm(n, AlgElement(alg, {mono: Fraction(1)})))
        out.append(PolyForm(n, form.element + AlgElement(
            alg, {mono: Fraction(1)})))
    return out


SHAPES = ("disagrees with", "not a homogeneous form", "has degree")


@pytest.mark.parametrize("name", sorted(BLOCK_COMPLEXES))
def test_validate_matches_the_face_and_degeneracy_path(name):
    """Sampled forms changed on one simplex at a time: the defects found
    on scaled rows equal those found by comparing `PolyForm.face` with
    `PolyForm.degen_word`, message for message.  s2_one_cell reaches
    every face of its 2-cell through the word s0."""
    K, rng, kinds = BLOCK_COMPLEXES[name](), random.Random(5), set()
    for degree in range(K.top_dim + 1):
        gf = plforms.sample_global_form(K, degree, 2, seed=degree)
        assert gf.validate() == reference_validate(gf) == []
        for sid in sorted(K.dims):
            for form in _perturbations(K, degree, gf.form(sid), rng):
                bad = GlobalForm(K, degree, {**gf.assignment, sid: form},
                                 check=False)
                defects = bad.validate()
                assert defects == reference_validate(bad)
                kinds.update(kind for d in defects for kind in SHAPES
                             if kind in d)
    assert kinds == set(SHAPES)


def test_validate_refuses_an_out_of_range_degeneracy_as_before():
    """On an unchecked complex whose face word does not apply to its
    target, validate raises the FormError of `PolyForm.degen_word`."""
    K = SimplicialComplexFin("bad", {"p": 0, "T": 2},
                             {("T", i): ("p", (3,)) for i in range(3)},
                             check=False)
    gf = GlobalForm(K, 0, {"p": poly_form(0, "1"),
                           "T": poly_form(2, "1")}, check=False)
    with pytest.raises(FormError) as want:
        reference_validate(gf)
    with pytest.raises(FormError) as got:
        gf.validate()
    assert str(got.value) == str(want.value) == (
        "degeneracy index 3 out of range for dimension 0")


@pytest.mark.parametrize("name", sorted(BLOCK_COMPLEXES))
def test_a_bad_target_of_a_face_with_no_k_forms_is_reported_as_before(name):
    """On a simplex of dimension <= k the face of a k-form is not moved:
    each target of such a face, changed, gives the defects of the
    `PolyForm.face` path, message for message, and some of them are face
    defects of the simplex whose face is not moved."""
    K, rng, vacuous = BLOCK_COMPLEXES[name](), random.Random(9), set()
    for degree in range(1, K.top_dim + 1):
        gf = plforms.sample_global_form(K, degree, 2, seed=degree)
        for (sid, i), (tgt, _) in sorted(K.faces.items()):
            if K.dims[sid] > degree:
                continue
            for form in _perturbations(K, degree, gf.form(tgt), rng):
                bad = GlobalForm(K, degree, {**gf.assignment, tgt: form},
                                 check=False)
                defects = bad.validate()
                assert defects == reference_validate(bad)
                vacuous.update(d for d in defects
                               if d == f"face {i} of {sid} disagrees "
                                       f"with {tgt}")
    assert vacuous


def test_a_word_that_does_not_apply_raises_on_a_face_with_no_k_forms():
    """The face of the 1-form on the edge e is not moved, but the word s1
    of that face, which does not apply to the vertex p, still raises."""
    K = SimplicialComplexFin("bad", {"p": 0, "e": 1},
                             {("e", i): ("p", (1,)) for i in range(2)},
                             check=False)
    gf = GlobalForm(K, 1, {"e": poly_form(1, "y1")}, check=False)
    with pytest.raises(FormError) as want:
        reference_validate(gf)
    with pytest.raises(FormError) as got:
        gf.validate()
    assert str(got.value) == str(want.value) == (
        "degeneracy index 1 out of range for dimension 0")


def test_validate_reports_a_face_word_landing_on_the_wrong_dimension():
    """On an unchecked complex whose faces of T land on a vertex with no
    degeneracy, the zero forms on both sides still disagree: the face of
    T lives on dimension 1, the vertex form on dimension 0."""
    K = SimplicialComplexFin("bad", {"p": 0, "T": 2},
                             {("T", i): ("p", ()) for i in range(3)},
                             check=False)
    gf = GlobalForm(K, 0, {}, check=False)
    assert gf.validate() == reference_validate(gf) == [
        f"face {i} of T disagrees with p" for i in range(3)]
