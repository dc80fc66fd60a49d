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
is related by pushout along the multiplication map.  Each construction
moves a differential one way: it renames it (`Derivation.renamed`), or it
grows it by new images over an extension (`Derivation.extended`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
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
    RatMatrix,
    combine,
    image_basis,
    kernel_basis,
    memo_linear,
    quotient_basis,
    rank,
    ratios,
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
    "loop_factors",
    "expand_series",
    "loop_cohomology",
    "LoopCohomology",
    "path_space_model",
    "free_loop_model",
]

_SERIES_CAP = 64  # terms of the path-space series before it is refused


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
        base_d, total_d = self.base.differential, self.total.differential
        for g in self.base.algebra.generators:
            if self.total.algebra.by_ordinal(g.ordinal) != g:
                bad = self.base.algebra.foreign_generator(self.total.algebra)
                raise ModelError(f"base over another universe than the "
                                 f"total (generator {bad})")
            if base_d.image_of(g.name).terms != total_d.image_of(g.name).terms:
                raise ModelError(
                    f"D does not restrict to the base differential at {g.name}")
        allowed = set(base_ords)
        for g in self.fiber:
            for mono in total_d.image_of(g.name).terms:
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
    alg = FreeAlgebra.build([(g.name, g.degree) for g in rel.fiber])
    d = Derivation(alg, +1, rel.total.differential.renamed(
        {g.ordinal: g.name for g in rel.fiber}, alg))
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
    alg = target.algebra.extend([(g.name, g.degree) for g in rel.fiber])
    sub = {g.ordinal: AlgElement(alg, phi.image_of(g.name).terms)
           for g in rel.base.algebra.generators}
    sub.update((g.ordinal, alg.gen_elem(g.name)) for g in rel.fiber)
    d = target.differential.extended(alg, {
        g.name: substitute(rel.total.differential.image_of(g.name), sub, alg)
        for g in rel.fiber})
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
            if sol is None:
                raise ModelError(
                    f"acyclic closure correction unsolvable for {v.name} "
                    f"in degree {m}")
            correction = AlgElement(
                alg, {candidates[j]: c for j, c in sol.items()})
        bar = f"{v.name}_bar"
        total = total.extend([(bar, m - 1)],
                             {bar: alg.gen_elem(v.name) - correction})
        bar_ordinals.add(total.algebra.generator(bar).ordinal)
    total = Cdga(f"{model.name}-acyclic", total.algebra, total.differential)
    rel = RelativeSullivanAlgebra(
        model, [f"{v.name}_bar" for v in _bar_order(model)], total)
    for k in range(1, verify_to + 1):
        if total.h_dim(k) != 0:
            raise ModelError(
                f"acyclic closure of {model.name} has H^{k} != 0")
    return rel


def loop_factors(model):
    """The loop-space series of a model, prod (1+z^m) / prod (1-z^m), as
    (numerator, denominator) exponents: m = |v| - 1, in the numerator for
    an even generator v (its odd bar) and in the denominator for an odd
    one (its even bar)."""
    num, den = [], []
    for g in model.algebra.generators:
        (den if g.degree % 2 else num).append(g.degree - 1)
    return num, den


def expand_series(num, den, order):
    """Coefficients of z^0..z^order of prod (1+z^m) over `num` / prod
    (1-z^m) over `den`, exponents >= 1: the dimensions, degree by degree,
    of the free algebra on odd generators of degrees `num` and even ones
    of degrees `den`."""
    coeffs = [1] + [0] * order if order >= 0 else []
    for m in num:
        for i in range(order, m - 1, -1):
            coeffs[i] += coeffs[i - m]
    for m in den:
        for i in range(m, order + 1):
            coeffs[i] += coeffs[i - m]
    return coeffs


class LoopCohomology:
    """Loop-space cohomology dimensions (those of the free algebra on the
    desuspended generators, from its series) plus homotopy-group ranks of
    the input."""

    def __init__(self, model, max_degree):
        self.model = model
        self.max_degree = max_degree
        self.dims = expand_series(*loop_factors(model), max_degree)
        self.pi_ranks = degree_counts(model)


def loop_cohomology(model, max_degree):
    _require_minimal(model, "loop cohomology")
    return LoopCohomology(model, max_degree)


def path_space_model(model):
    """Model of the unbased path space over two base copies: the fiber
    differential is D vbar = v_p1 - v_p0 - sum_n (SD)^n/n! (v_p0),
    evaluated term by term until it vanishes, at most _SERIES_CAP terms."""
    _require_minimal(model, "path space model")
    gens = list(model.algebra.generators)
    bars = _bar_order(model)
    suffixes = ("_p0", "_p1")
    base_alg = FreeAlgebra.build([(f"{g.name}{suffix}", g.degree)
                                  for suffix in suffixes for g in gens])
    base_d = {}
    for suffix in suffixes:
        base_d.update(model.differential.renamed(
            {g.ordinal: f"{g.name}{suffix}" for g in gens}, base_alg))
    base = Cdga(f"{model.name}^2", base_alg,
                Derivation(base_alg, +1, base_d))
    alg = base_alg.extend([(f"{g.name}_bar", g.degree - 1) for g in bars])
    d = base.differential.extended(alg, {})

    s = Derivation(alg, -1, {f"{g.name}{suffix}": alg.gen_elem(f"{g.name}_bar")
                             for suffix in suffixes for g in gens})

    # d grows once per generator degree: a minimal d(v) has only letters
    # of degree < |v|, so no bar image reads a bar of its own degree; SD
    # is one `memo_linear` chain, S's table kept throughout, d's per group
    s_map = s.leibniz, {}
    for _, same_degree in groupby(bars, key=lambda g: g.degree):
        images, sd = {}, [(d.leibniz, {}), s_map]
        for g in same_degree:
            term = alg.gen_elem(f"{g.name}_p0")
            total = alg.gen_elem(f"{g.name}_p1") - term
            for n in range(1, _SERIES_CAP + 2):  # term n = (SD)^n (v_p0)
                term = AlgElement(alg, ratios(*memo_linear(term.terms, sd)))
                if term.is_zero():
                    break
                if n > _SERIES_CAP:
                    raise ModelError(
                        f"path-space series for {g.name} did not terminate "
                        f"within {_SERIES_CAP} iterations")
                total = total - term.scale(Fraction(1, factorial(n)))
            images[f"{g.name}_bar"] = total
        d = d.extended(alg, images)
    total_cdga = Cdga(f"{model.name}-paths", alg, d)
    return RelativeSullivanAlgebra(base, [f"{g.name}_bar" for g in bars],
                                   total_cdga)


def free_loop_model(model):
    """Model of the free loop space: adjoin vbar with D vbar = -S(dv),
    where S is the degree -1 derivation sending v to vbar."""
    _require_minimal(model, "free loop model")
    bars = _bar_order(model)
    alg = model.algebra.extend([(f"{g.name}_bar", g.degree - 1) for g in bars])
    s = Derivation(alg, -1, {g.name: alg.gen_elem(f"{g.name}_bar")
                             for g in bars})
    dv = model.differential.images
    d = model.differential.extended(alg, {
        f"{g.name}_bar": -s.apply(AlgElement(alg, dv[g.ordinal].terms))
        for g in bars if g.ordinal in dv})
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
                if sol is None:
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
