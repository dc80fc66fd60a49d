"""Sullivan model synthesis and fibration-style constructions.

Minimal models are built degree by degree against any degreewise-finite
target: at stage n we first adjoin closed generators hitting the cokernel
of H^n(phi), then degree-n generators killing the kernel of H^(n+1)(phi),
with all representative choices delegated to the deterministic echelon
conventions of the linear algebra layer.  The model is extended, not
rebuilt, and stage n certifies what has become final: d^2 = 0 and the
chain-map identity on its generators, and H^(n-1)(phi) an isomorphism,
since no generator of degree n or more changes H^(n-1).

The based path space is realized as an inductively corrected acyclic
closure (D vbar = v - C with C solved degreewise so that D^2 = 0), the
unbased path space by the divided-power series differential, and the free
loop space by the suspension-derivation formula; the path/free-loop pair
is related by pushout along the multiplication map.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .cdga import Cdga, CdgaError, CdgaMorphism
from .graded import (
    AlgElement,
    Derivation,
    FreeAlgebra,
    mono_word,
    substitute,
)
from .linalg import (
    NoSolution,
    RatMatrix,
    combine,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
    scaled,
    scaled_sum,
    solve,
)

__all__ = [
    "ModelError",
    "RelativeSullivanAlgebra",
    "MinimalModelResult",
    "check_minimal_sullivan",
    "minimal_model",
    "fiber_model",
    "pushout_model",
    "acyclic_closure",
    "loop_cohomology",
    "LoopCohomology",
    "path_space_model",
    "multiplication_morphism",
    "free_loop_model",
]


class ModelError(CdgaError):
    pass


def _require_free(c, what):
    if not c.is_free:
        raise ModelError(f"{what} needs a free CDGA, got {c.name}")


def _require_simply_connected(c, what):
    for g in c.algebra.generators:
        if g.degree < 2:
            raise ModelError(
                f"{what}: generator {g.name} has degree {g.degree} < 2 "
                f"(not simply connected)")


def check_minimal_sullivan(c):
    """True iff every generator's differential lies in words of length >= 2.
    Raises on non-free input or generators of degree < 2."""
    _require_free(c, "minimality check")
    _require_simply_connected(c, "minimality check")
    return all(mono_word(m) >= 2 for dg in c.differential.images.values()
               for m in dg.terms)


def _require_minimal(c, what):
    _require_free(c, what)
    if not check_minimal_sullivan(c):
        raise ModelError(f"{what} needs a minimal model")


def degree_counts(c):
    """{degree: number of generators of that degree}."""
    counts = {}
    for g in c.algebra.generators:
        counts[g.degree] = counts.get(g.degree, 0) + 1
    return counts


class RelativeSullivanAlgebra:
    """Base CDGA extended by well-ordered fiber generators with a twisted
    differential: D restricts to the base differential and D(w) only
    involves earlier fiber generators."""

    def __init__(self, base, fiber_names, total):
        self.base = base
        self.total = total
        self.fiber = tuple(total.algebra.generator(n) for n in fiber_names)
        _require_free(self.total, "relative Sullivan algebra")
        base_ords = {g.ordinal for g in self.base.algebra.generators}
        fiber_ords = [g.ordinal for g in self.fiber]
        if base_ords & set(fiber_ords):
            raise ModelError("fiber generators overlap the base")
        if set(fiber_ords) | base_ords != \
                {g.ordinal for g in self.total.algebra.generators}:
            raise ModelError("total algebra must be base plus fiber")
        zero = self.total.algebra.zero()
        for g in self.base.algebra.generators:
            want = self.base.differential.images.get(g.ordinal)
            want = want.in_algebra(self.total.algebra) if want is not None else zero
            got = self.total.differential.images.get(g.ordinal, zero)
            if want != got:
                raise ModelError(
                    f"D does not restrict to the base differential at {g.name}")
        allowed = set(base_ords)
        for g in self.fiber:
            dg = self.total.differential.images.get(g.ordinal)
            if dg is not None:
                for mono in dg.terms:
                    for o, _ in mono:
                        if o not in allowed:
                            bad = self.total.algebra.by_ordinal(o).name
                            raise ModelError(
                                f"D({g.name}) uses later fiber generator {bad}")
            allowed.add(g.ordinal)

    def __repr__(self):
        fib = ", ".join(f"{g.name}:{g.degree}" for g in self.fiber)
        return f"RelativeSullivanAlgebra({self.base.name}; {fib})"


def fiber_model(rel):
    """Quotient by the base: set base generators to zero."""
    specs = [(g.name, g.degree) for g in rel.fiber]
    alg = FreeAlgebra.build(specs)
    images = {g.ordinal: alg.gen_elem(g.name) for g in rel.fiber}
    d_images = {}
    for g in rel.fiber:
        dg = rel.total.differential.images.get(g.ordinal)
        if dg is None:
            continue
        img = substitute(dg, images, alg, missing_zero=True)
        if not img.is_zero():
            d_images[g.name] = img
    d = Derivation(alg, +1, d_images)
    return Cdga(f"{rel.total.name}-fiber", alg, d)


def pushout_model(phi, rel):
    """Base change of a relative algebra along phi: reuse the fiber, map
    base generators through phi in the twisting terms."""
    if not rel.base.algebra.same_universe(phi.source.algebra) \
            or rel.base.differential != phi.source.differential:
        raise ModelError("base mismatch: relative algebra is not over "
                         "the source of the morphism")
    target = phi.target
    _require_free(target, "pushout")
    specs = [(g.name, g.degree) for g in target.algebra.generators]
    fiber_specs = [(g.name, g.degree) for g in rel.fiber]
    alg = FreeAlgebra.build(specs + fiber_specs)
    sub = {}
    for g in rel.base.algebra.generators:
        sub[g.ordinal] = phi.image_of(g.name).in_algebra(alg)
    for g in rel.fiber:
        sub[g.ordinal] = alg.gen_elem(g.name)
    d_images = {}
    for g in target.algebra.generators:
        dg = target.differential.images.get(g.ordinal)
        if dg is not None:
            d_images[g.name] = dg.in_algebra(alg)
    for g in rel.fiber:
        dg = rel.total.differential.images.get(g.ordinal)
        if dg is not None:
            img = substitute(dg, sub, alg)
            if not img.is_zero():
                d_images[g.name] = img
    d = Derivation(alg, +1, d_images)
    total = Cdga(f"{target.name}(x){rel.total.name}-fiber", alg, d)
    return RelativeSullivanAlgebra(target, [g.name for g in rel.fiber], total)


def _bar_order(model):
    return sorted(model.algebra.generators, key=lambda g: (g.degree, g.ordinal))


def acyclic_closure(model, verify_to=0):
    """Extension by vbar (degree |v| - 1) with D vbar = v - C(v), the
    correction C solved degreewise so that D^2 vbar = 0; verified acyclic
    in degrees 1..verify_to."""
    _require_minimal(model, "acyclic closure")
    total = model
    bar_ordinals = set()
    for v in _bar_order(model):
        alg = total.algebra
        m = v.degree
        candidates = [mono for mono in alg.basis_of_degree(m)
                      if any(o in bar_ordinals for o, _ in mono)]
        dv = total.d(alg.gen_elem(v.name))
        correction = alg.zero()
        if not dv.is_zero():
            den, cols = total._d_columns(m, candidates)
            mat = RatMatrix.from_columns(cols, total.dim(m + 1), den)
            sol = solve(mat, total.coords(dv, m + 1))
            if isinstance(sol, NoSolution):
                raise ModelError(
                    f"acyclic closure correction unsolvable for {v.name} "
                    f"in degree {m}")
            correction = AlgElement(
                alg, {candidates[j]: c for j, c in sol.items()})
        bar = f"{v.name}_bar"
        total = total.extend([(bar, m - 1)],
                             {bar: alg.gen_elem(v.name) - correction})
        bar_ordinals.add(total.algebra.generator(bar).ordinal)
    alg = total.algebra
    total = Cdga(f"{model.name}-acyclic", alg,
                 Derivation(alg, +1, total.differential.images))
    rel = RelativeSullivanAlgebra(
        model, [g.name for g in alg.generators if g.ordinal in bar_ordinals],
        total)
    for k in range(1, verify_to + 1):
        if total.h_dim(k) != 0:
            raise ModelError(
                f"acyclic closure of {model.name} has H^{k} != 0")
    return rel


class LoopCohomology:
    """Loop-space cohomology dimensions (the free algebra on the
    desuspended generators) plus homotopy-group ranks of the input."""

    def __init__(self, model, max_degree):
        self.model = model
        self.max_degree = max_degree
        self.bar_specs = [(f"{g.name}_bar", g.degree - 1)
                          for g in _bar_order(model)]
        bar_alg = FreeAlgebra.build(self.bar_specs)
        self.dims = [len(bar_alg.basis_of_degree(k))
                     for k in range(max_degree + 1)]
        self.pi_ranks = degree_counts(model)

    def pi_rank(self, k):
        return self.pi_ranks.get(k, 0)


def loop_cohomology(model, max_degree):
    _require_minimal(model, "loop cohomology")
    return LoopCohomology(model, max_degree)


def path_space_model(model, series_cap=64):
    """Model of the unbased path space over two base copies: the fiber
    differential is D vbar = v_p1 - v_p0 - sum_n (SD)^n/n! (v_p0),
    evaluated term by term until it vanishes."""
    _require_minimal(model, "path space model")
    gens = list(model.algebra.generators)
    bars = _bar_order(model)
    specs = ([(f"{g.name}_p0", g.degree) for g in gens]
             + [(f"{g.name}_p1", g.degree) for g in gens]
             + [(f"{g.name}_bar", g.degree - 1) for g in bars])
    alg = FreeAlgebra.build(specs)

    def copy_diff(suffix):
        out = {}
        ren = {g.ordinal: alg.gen_elem(f"{g.name}{suffix}") for g in gens}
        for g in gens:
            dg = model.differential.images.get(g.ordinal)
            if dg is not None:
                out[f"{g.name}{suffix}"] = substitute(dg, ren, alg)
        return out

    d_images = copy_diff("_p0")
    d_images.update(copy_diff("_p1"))
    base_alg = FreeAlgebra.build(specs[:2 * len(gens)])
    base_d = Derivation(base_alg, +1,
                        {n: e.in_algebra(base_alg)
                         for n, e in d_images.items()})
    base = Cdga(f"{model.name}^2", base_alg, base_d)

    s_images = {}
    for g in gens:
        s_images[f"{g.name}_p0"] = alg.gen_elem(f"{g.name}_bar")
        s_images[f"{g.name}_p1"] = alg.gen_elem(f"{g.name}_bar")
    s = Derivation(alg, -1, s_images)

    for g in bars:
        partial = Derivation(alg, +1, d_images, check=False)
        v0 = alg.gen_elem(f"{g.name}_p0")
        v1 = alg.gen_elem(f"{g.name}_p1")
        total = v1 - v0
        term = v0
        n = 0
        while True:
            term = s.apply(partial.apply(term))
            if term.is_zero():
                break
            n += 1
            if n > series_cap:
                raise ModelError(
                    f"path-space series for {g.name} did not terminate "
                    f"within {series_cap} iterations")
            total = total - term.scale(Fraction(1, factorial(n)))
        d_images[f"{g.name}_bar"] = total
    d = Derivation(alg, +1, d_images)
    total_cdga = Cdga(f"{model.name}-paths", alg, d)
    return RelativeSullivanAlgebra(base, [f"{g.name}_bar" for g in bars],
                                   total_cdga)


def multiplication_morphism(model, doubled):
    """The product map from the doubled base (v_p0, v_p1 copies) back to
    the model: both copies of v map to v."""
    images = {}
    for g in model.algebra.generators:
        images[f"{g.name}_p0"] = model.algebra.gen_elem(g.name)
        images[f"{g.name}_p1"] = model.algebra.gen_elem(g.name)
    return CdgaMorphism(doubled, model, images)


def free_loop_model(model):
    """Model of the free loop space: adjoin vbar with D vbar = -S(dv),
    where S is the degree -1 derivation sending v to vbar."""
    _require_minimal(model, "free loop model")
    gens = list(model.algebra.generators)
    bars = _bar_order(model)
    alg = model.algebra.extend([(f"{g.name}_bar", g.degree - 1) for g in bars])
    s_images = {g.name: alg.gen_elem(f"{g.name}_bar") for g in gens}
    s = Derivation(alg, -1, s_images)
    d_images = {}
    for g in gens:
        dg = model.differential.images.get(g.ordinal)
        if dg is not None:
            d_images[g.name] = dg.in_algebra(alg)
    for g in bars:
        dg = model.differential.images.get(g.ordinal)
        if dg is not None:
            img = -s.apply(dg.in_algebra(alg))
            if not img.is_zero():
                d_images[f"{g.name}_bar"] = img
    d = Derivation(alg, +1, d_images)
    return Cdga(f"{model.name}-loops", alg, d)


class MinimalModelResult:
    def __init__(self, model, quasi_iso, certified_degree, stages):
        self.model = model
        self.quasi_iso = quasi_iso
        self.certified_degree = certified_degree
        self.stages = stages

    def generator_profile(self):
        return [(g.name, g.degree) for g in self.model.algebra.generators]

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in self.generator_profile())
        return f"MinimalModelResult({gens})"


def minimal_model(target, max_degree):
    """Construct the minimal Sullivan model of `target` with its
    quasi-isomorphism, certified through `max_degree` - 1.

    Requires H^0 = Q and H^1 = 0, and target bases computable through
    degree max_degree + 2.

    One model grows through the stages, carrying the differential
    matrices and ranks the next stage reads (`Cdga.extend`), and the
    morphisms share one table of phi per monomial and tail (unreduced),
    each filled once and emptied when the synthesis ends.
    H^k(phi) is taken only where H^k(target) != 0: elsewhere stage k adds
    no closed generator, and stage k - 1 kills all of H^k(model).
    Stage n certifies its generators (d^2 = 0 and the chain-map identity)
    and H^(n-1)(phi), which no later stage changes; the input checks
    cover H^0.
    """
    if target.dim(0) != 1:
        raise ModelError("target must be connected (degree 0 = Q)")
    if target.h_dim(1) != 0:
        raise ModelError("target has H^1 != 0; minimal model synthesis "
                         "needs a simply connected target")
    phi_table = {}
    model = Cdga.build(f"model({target.name})", [])
    phi = CdgaMorphism(model, target, {}, check=False, table=phi_table)
    stages = []

    for n in range(2, max_degree + 1):
        # H^(n-1) is final: no generator of degree n or more changes it.
        # Equal dimensions (from ranks) and a surjection make H^(n-1)(phi)
        # an isomorphism; only a nonzero target needs representatives.
        dim = target.h_dim(n - 1)
        if (model.h_dim(n - 1) != dim
                or (dim and rank(phi.h_matrix(n - 1)) != dim)):
            raise ModelError(f"constructed map is not a quasi-isomorphism "
                             f"in degree {n - 1}")
        new_d, new_phi = {}, {}

        def fresh_name():
            return f"v{n}_{len(new_phi) + 1}" if new_phi else f"v{n}"

        # (a) new closed generators spanning coker H^n(phi): none, and no
        # H^n(phi) taken, where H^n(target) = 0
        if target.h_dim(n):
            hmat = phi.h_matrix(n)
            full = image_basis(RatMatrix.identity(hmat.rows))
            for vec in quotient_basis(image_basis(hmat), full):
                new_phi[fresh_name()] = target.element(
                    n, combine(vec, target.h_basis(n)))
        cocycle_names = list(new_phi)

        # (b) generators of degree n killing ker H^(n+1)(phi), all of
        # H^(n+1)(model) where H^(n+1)(target) = 0; their d checked to be
        # cocycles in integers, over the columns of den * d_(n+1)
        zs = model.h_basis(n + 1)
        if target.h_dim(n + 1):
            zs = [combine(vec, zs)
                  for vec in kernel_basis(phi.h_matrix(n + 1)).rows]
        cols = dict(enumerate((1, col) for col in model.diff_matrix(
            n + 1).transpose().num)) if zs else {}
        if any(scaled_sum(scaled(z)[1], cols)[1] for z in zs):
            raise ModelError(f"d^2 != 0 on a generator of degree {n}")
        del cols
        for z in zs:
            zeta = model.element(n + 1, z)
            img = phi.apply(zeta)
            b = target.algebra.zero()
            if not img.is_zero():
                sol = solve(target.diff_matrix(n), target.coords(img, n + 1))
                if isinstance(sol, NoSolution):
                    raise ModelError(
                        f"internal consistency: phi of a kernel class is "
                        f"not exact in degree {n + 1}")
                b = target.element(n, sol)
            name = fresh_name()
            new_d[name], new_phi[name] = zeta, b

        if new_phi:
            model = model.extend([(name, n) for name in new_phi], new_d,
                                 range(n, n + 2) if n < max_degree else ())
            phi = CdgaMorphism(model, target, {**phi.images, **new_phi},
                               check=False, table=phi_table)
            for name in new_phi:  # d phi(v) = phi(dv)
                if target.d(phi.image_of(name)) != phi.apply(
                        model.differential.image_of(name)):
                    raise ModelError(f"not a chain map at {name}")
        stages.append({"degree": n, "cocycle_gens": cocycle_names,
                       "kernel_gens": list(new_d)})

    if not check_minimal_sullivan(model):
        raise ModelError("constructed model is not minimal")
    phi_table.clear()
    return MinimalModelResult(model, phi, max_degree, stages)
