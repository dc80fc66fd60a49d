"""Ellipticity and hyperbolicity diagnostics for minimal Sullivan algebras.

The finiteness test works on the associated pure algebra: cohomology is
finite iff the quotient of the even polynomial part by the pure
differential's image is finite, and that quotient is a graded ring
generated in even-generator degrees D, so a run of D consecutive zero
dimensions certifies vanishing in all higher degrees.  Ellipticity then
pins the formal dimension through the exponent identity and is
re-verified on the full cohomology table.  Hyperbolic verdicts are
evidence, never proof: either pure-quotient mass above the
formal-dimension candidate within the scan bound, or (for space
classification) nonzero homotopy ranks inside the dichotomy window
[2n, 3n-2].
"""

from __future__ import annotations

from .cdga import Cdga, CdgaError, check_quasi_iso, word_length_quotient
from .graded import AlgElement, Derivation, FreeAlgebra, odd_letters
from .linalg import RatMatrix, homology_dim, rank
from .models import (check_minimal_sullivan, degree_counts, expand_series,
                     loop_factors, minimal_model)

__all__ = [
    "InvariantsError",
    "ExponentProfile",
    "is_pure",
    "associated_pure",
    "pure_filtration_homology",
    "Finite",
    "ExceededBound",
    "finiteness_test",
    "exponent_numerology",
    "euler_characteristics",
    "EllipticityReport",
    "report_json",
    "classify_ellipticity",
    "classify_space",
    "cuplength",
    "cat_bounds",
    "toomer_rank",
    "PoincareSeries",
    "loop_poincare_series",
    "gap_probe",
    "full_invariants",
]


class InvariantsError(CdgaError):
    pass


class ExponentProfile:
    """Even exponents a_j (degrees 2a_j) and odd exponents b_i (degrees
    2b_i - 1), with the formal-dimension candidate
    sum(2b_i - 1) - sum(2a_j - 1)."""

    def __init__(self, even_exponents, odd_exponents):
        self.even_exponents = sorted(even_exponents)
        self.odd_exponents = sorted(odd_exponents)

    @classmethod
    def of(cls, c):
        even = [g.degree // 2 for g in c.algebra.generators
                if g.degree % 2 == 0]
        odd = [(g.degree + 1) // 2 for g in c.algebra.generators
               if g.degree % 2 == 1]
        return cls(even, odd)

    @property
    def dim_even(self):
        return len(self.even_exponents)

    @property
    def dim_odd(self):
        return len(self.odd_exponents)

    @property
    def chi_v(self):
        return self.dim_even - self.dim_odd

    @property
    def formal_dimension_candidate(self):
        return (sum(2 * b - 1 for b in self.odd_exponents)
                - sum(2 * a - 1 for a in self.even_exponents))

    def __repr__(self):
        return (f"ExponentProfile(even={self.even_exponents}, "
                f"odd={self.odd_exponents})")


def _even_part(elem):
    alg = elem.algebra
    return alg.element({m: c for m, c in elem.terms.items()
                        if not odd_letters(alg, m)})


def is_pure(c):
    """d vanishes on even generators and maps odd generators into the
    even subalgebra."""
    if not c.is_free:
        raise InvariantsError("purity is defined for free CDGAs")
    return all(c.algebra.degree_of(o) % 2 and _even_part(dg) == dg
               for o, dg in c.differential.images.items())


def associated_pure(c):
    """Keep only the even-subalgebra summand of each odd generator's
    differential; the result is pure and squares to zero."""
    if not c.is_free:
        raise InvariantsError("associated pure algebra needs a free CDGA")
    images = c.differential.images  # Derivation drops a zero even part
    d = Derivation(c.algebra, +1, {
        g.ordinal: _even_part(images[g.ordinal]) for g in c.algebra.generators
        if g.degree % 2 and g.ordinal in images})
    return Cdga(f"{c.name}-pure", c.algebra, d)


def pure_filtration_homology(c, k, max_degree):
    """Dimension table (degrees 0..max_degree) of the odd-word-count k
    layer H_k = ker(d on count k) / d(count k+1) of a pure algebra."""
    if not is_pure(c):
        raise InvariantsError(f"{c.name} is not pure")
    alg, layers = c.algebra, {}  # degree -> {odd-letter count: monomials}

    def layer(j, m):
        if m not in layers:
            layers[m] = {}
            for mono in alg.basis_of_degree(m) if m >= 0 else ():
                layers[m].setdefault(len(odd_letters(alg, mono)),
                                     []).append(mono)
        return layers[m].get(j, [])

    def d_matrix(key):  # d on layer j of degree m
        j, m = key
        tgt = layer(j - 1, m + 1)
        index = {mono: i for i, mono in enumerate(tgt)}
        return RatMatrix.from_columns(c.differential.columns(
            layer(j, m), index), len(tgt), c.differential.den)

    return [homology_dim(len(layer(k, m)), (k, m), (k + 1, m - 1), {},
                         d_matrix) for m in range(max_degree + 1)]


class Finite:
    def __init__(self, total_dim, last_nonzero, h0_dims):
        self.total_dim = total_dim
        self.last_nonzero = last_nonzero
        self.h0_dims = h0_dims

    def __repr__(self):
        return f"Finite(total={self.total_dim}, last={self.last_nonzero})"


class ExceededBound:
    def __init__(self, bound, h0_dims):
        self.bound = bound
        self.h0_dims = h0_dims

    def __repr__(self):
        return f"ExceededBound({self.bound})"


def _zero_window_scan(dim, bound, window):
    """dim(m) for m = 0..bound until `window` zeros in a row above degree
    0: (dims, their top nonzero degree, or None if no window was found)."""
    dims, zeros = [], 0
    for m in range(bound + 1):
        dims.append(dim(m))
        zeros = zeros + 1 if m and not dims[-1] else 0
        if zeros >= window:
            return dims, max((i for i, v in enumerate(dims) if v), default=0)
    return dims, None


def finiteness_test(c, bound):
    """Decide finiteness of H* via the associated pure algebra's bottom
    filtration layer, scanning for a zero window of length >= the largest
    even generator degree.  Only the pure algebra is examined here;
    classify_ellipticity checks a Finite verdict against the cohomology of
    `c` itself."""
    pure = c if is_pure(c) else associated_pure(c)
    # H_0: the even polynomials modulo the ideal of the pure images
    even = FreeAlgebra([g for g in c.algebra.generators if g.degree % 2 == 0])
    h0 = Cdga(f"{pure.name}-H0", even, Derivation(even, +1, {}), relations=[
        AlgElement(even, dg.terms) for dg in pure.differential.images.values()],
        check=False)
    window = max((g.degree for g in even.generators), default=1)
    dims, last = _zero_window_scan(h0.dim, bound, window)
    if last is not None:
        return Finite(sum(dims), last, dims)
    return ExceededBound(bound, dims)


def exponent_numerology(profile, n):
    """The four elliptic constraints, evaluated exactly:
    (1) sum(2b-1) - sum(2a-1) = n, (2) sum 2a <= n,
    (3) sum(2b-1) <= 2n - 1, (4) dim V^even <= dim V^odd."""
    sum_odd = sum(2 * b - 1 for b in profile.odd_exponents)
    sum_even_m1 = sum(2 * a - 1 for a in profile.even_exponents)
    sum_even = sum(2 * a for a in profile.even_exponents)
    return (
        sum_odd - sum_even_m1 == n,
        sum_even <= n,
        sum_odd <= 2 * n - 1 if profile.odd_exponents else True,
        profile.dim_even <= profile.dim_odd,
    )


def euler_characteristics(c, max_degree, h_dims=None):
    """chi of H* (alternating sum over the computed range), chi_V, and the
    equivalence cluster chi_H > 0 <=> H^odd = 0 <=> chi_V = 0."""
    if h_dims is None:
        h_dims = [c.h_dim(k) for k in range(max_degree + 1)]
    chi_h = sum((-1 if k % 2 else 1) * d for k, d in enumerate(h_dims))
    profile = ExponentProfile.of(c)
    chi_v = profile.chi_v
    h_odd_zero = all(d == 0 for k, d in enumerate(h_dims) if k % 2)
    cluster = {"chi_H_positive": chi_h > 0,
               "H_odd_zero": h_odd_zero,
               "chi_V_zero": chi_v == 0}
    vals = set(cluster.values())
    return {"chi_H": chi_h, "chi_V": chi_v, "chi_pi": chi_v,
            "cluster": cluster, "cluster_consistent": len(vals) == 1}


class EllipticityReport:
    def __init__(self, verdict, *, bound=None, formal_dimension=None,
                 h_dims=None, numerology=None, profile=None, euler=None,
                 consequences=None, h0_dims=None, v_dims=None,
                 gap_report=None):
        self.verdict = verdict  # "Elliptic" | "HyperbolicEvidence" | "Inconclusive"
        self.bound = bound
        self.formal_dimension = formal_dimension
        self.h_dims = h_dims
        self.numerology = numerology
        self.profile = profile
        self.euler = euler
        self.consequences = consequences
        self.h0_dims = h0_dims
        self.v_dims = v_dims
        self.gap_report = gap_report

    def __repr__(self):
        return f"EllipticityReport({self.verdict})"


def report_json(rep):
    """The JSON keys of an ellipticity report, in document order; a key
    whose part of the report is absent is left out (`numerology` is then
    null)."""
    out = {"verdict": rep.verdict, "formalDimension": rep.formal_dimension}
    if rep.profile is not None:
        out["exponents"] = {"even": rep.profile.even_exponents,
                            "odd": rep.profile.odd_exponents}
    out["numerology"] = list(rep.numerology) if rep.numerology else None
    if rep.euler:
        out["chi"] = {"H": rep.euler["chi_H"], "V": rep.euler["chi_V"],
                      "pi": rep.euler["chi_pi"]}
    if rep.h_dims is not None:
        out["hDims"] = rep.h_dims
    if rep.h0_dims is not None:
        out["pureQuotientDims"] = rep.h0_dims
    if rep.v_dims is not None:
        out["vDims"] = {str(k): v for k, v in sorted(rep.v_dims.items())}
    if rep.gap_report is not None:
        out["gapProbe"] = [{"k": k, "status": s} for k, s in rep.gap_report]
    if rep.bound is not None:
        out["bound"] = rep.bound
    return out


def classify_ellipticity(c, bound):
    """Classify a minimal Sullivan algebra with finitely many generators.

    Elliptic verdicts carry the formal dimension (pinned by exponent
    identity (1) and confirmed by an explicit zero window of cohomology
    of length >= the maximal generator degree).  A scan that runs out of
    its bound yields hyperbolic evidence if the pure quotient is nonzero
    above the formal-dimension candidate, where an elliptic algebra's
    vanishes, and an inconclusive report otherwise.
    """
    if not check_minimal_sullivan(c):
        raise InvariantsError(f"{c.name} is not a minimal Sullivan algebra")
    profile = ExponentProfile.of(c)
    n = profile.formal_dimension_candidate
    ft = finiteness_test(c, bound)
    if isinstance(ft, ExceededBound):  # an elliptic H_0 vanishes above n
        verdict = ("HyperbolicEvidence" if any(ft.h0_dims[max(n + 1, 0):])
                   else "Inconclusive")
        return EllipticityReport(verdict, bound=bound, profile=profile,
                                 h0_dims=ft.h0_dims, v_dims=degree_counts(c))
    window = c.max_generator_degree()
    h_dims = [c.h_dim(k) for k in range(n + window + 1)]
    fdim = max((k for k, d in enumerate(h_dims) if d), default=0)
    if fdim != n:
        return EllipticityReport("Inconclusive", bound=bound, profile=profile,
                                 formal_dimension=fdim, h_dims=h_dims,
                                 h0_dims=ft.h0_dims, v_dims=degree_counts(c))
    numerology = exponent_numerology(profile, n)
    euler = euler_characteristics(c, n, h_dims=h_dims[:n + 1])
    consequences = {
        "V_below_2n": all(g.degree <= 2 * n - 1
                          for g in c.algebra.generators),
        "V_above_n_at_most_one": sum(1 for g in c.algebra.generators
                                     if g.degree > n) <= 1,
        "dim_V_at_most_n": len(c.algebra.generators) <= n,
    }
    return EllipticityReport("Elliptic", bound=bound, formal_dimension=n,
                             h_dims=h_dims, numerology=numerology,
                             profile=profile, euler=euler,
                             consequences=consequences, h0_dims=ft.h0_dims,
                             v_dims=degree_counts(c))


def gap_probe(v_dims, n, computed_to):
    """Check that every open window (k, k+n) in the computed range meets a
    nonzero homotopy rank; windows reaching past the range are
    inconclusive."""
    out = []
    for k in range(1, computed_to + 1):
        if k + n > computed_to + 1:
            out.append((k, "inconclusive"))
            continue
        hit = any(v_dims.get(i, 0) for i in range(k + 1, k + n))
        out.append((k, "ok" if hit else "fail"))
    return out


def classify_space(target, bound):
    """Dichotomy test for a space presented by a degreewise-finite CDGA:
    find the formal dimension n, synthesize the minimal model through
    3n - 2, and decide by the vanishing of homotopy ranks in [2n, 3n-2].
    Elliptic candidates are handed to classify_ellipticity; otherwise the
    report carries the generator growth table and the gap probe."""
    dims, fdim = _zero_window_scan(target.h_dim, bound,
                                   target.max_generator_degree())
    if fdim == 0 and not dims[0]:
        raise CdgaError(f"{target.name}: H^0 = 0, not a connected space")
    if fdim is None:
        return EllipticityReport("Inconclusive", bound=bound, h_dims=dims)
    if fdim == 0:
        return EllipticityReport("Elliptic", bound=bound, formal_dimension=0,
                                 h_dims=[1],
                                 profile=ExponentProfile([], []),
                                 numerology=(True, True, True, True),
                                 euler={"chi_H": 1, "chi_V": 0, "chi_pi": 0,
                                        "cluster_consistent": True,
                                        "cluster": {}},
                                 consequences={}, v_dims={})
    depth = 3 * fdim - 2
    res = minimal_model(target, depth)
    v_hist = degree_counts(res.model)
    in_window = [j for j in range(2 * fdim, 3 * fdim - 1)
                 if v_hist.get(j, 0)]
    if not in_window:
        return classify_ellipticity(res.model, bound)
    return EllipticityReport(
        "HyperbolicEvidence", bound=bound, formal_dimension=fdim,
        h_dims=dims, v_dims=v_hist,
        gap_report=gap_probe(v_hist, fdim, depth))


def cuplength(c, max_degree):
    """Longest nonzero product of positive-degree cohomology classes,
    within degrees <= max_degree."""
    ones = []
    for k in range(1, max_degree + 1):
        for r in c.h_representatives(k):
            ones.append((k, r))
    if not ones:
        return 0
    current = ones
    length = 1
    while True:
        nxt = []
        spans = {}
        for dk, e in current:
            for dj, r in ones:
                deg = dk + dj
                if deg > max_degree:
                    continue
                prod = c.mult(e, r)
                if prod.is_zero():
                    continue
                vec = c.class_coords(prod, deg)
                if not vec:
                    continue
                known = spans.setdefault(deg, [])
                # the vectors kept so far are independent
                if rank(RatMatrix.from_rows(known + [vec],
                                            c.h_dim(deg))) > len(known):
                    known.append(vec)
                    nxt.append((deg, prod))
        if not nxt:
            return length
        current = nxt
        length += 1


def cat_bounds(c, max_degree):
    """(cuplength lower bound, dimension/connectivity upper bound).

    The upper bound floor(fdim / r) needs a finite cohomology certificate
    within range: the table must end in a zero window of length >= the
    maximal generator degree; otherwise it is None.
    """
    low = cuplength(c, max_degree)
    h_dims = [c.h_dim(k) for k in range(max_degree + 1)]
    nonzero = [k for k, d in enumerate(h_dims) if d and k > 0]
    if not nonzero:
        return low, 0
    fdim = nonzero[-1]
    window = c.max_generator_degree()
    if max_degree - fdim < window:
        return low, None
    r = nonzero[0]
    return low, fdim // r


def toomer_rank(c, cap, max_degree):
    """Least word-length cap n <= cap whose quotient map is injective on
    cohomology through max_degree, with the per-degree rank tables."""
    if not check_minimal_sullivan(c):
        raise InvariantsError("word-length quotients need a minimal model")
    details = []
    for n in range(1, cap + 1):
        proj = word_length_quotient(c, n)[1]
        ranks = check_quasi_iso(proj, max_degree).table
        injective = all(row["injective"] for row in ranks)
        details.append({"n": n, "injective": injective, "ranks": ranks})
        if injective:
            return n, details
    return None, details


class PoincareSeries:
    """prod (1+z^m) / prod (1-z^m), expanded exactly to a given order."""

    def __init__(self, numerator_exponents, denominator_exponents, order):
        self.numerator_exponents = sorted(numerator_exponents)
        self.denominator_exponents = sorted(denominator_exponents)
        self.order = order
        for part, exps in (("numerator", self.numerator_exponents),
                           ("denominator", self.denominator_exponents)):
            if exps and exps[0] <= 0:
                raise InvariantsError(f"{part} factor exponent must be >= 1")
        self.coefficients = expand_series(self.numerator_exponents,
                                          self.denominator_exponents, order)

    def __repr__(self):
        num = "".join(f"(1+z^{m})" for m in self.numerator_exponents) or "1"
        den = "".join(f"(1-z^{m})" for m in self.denominator_exponents)
        return f"PoincareSeries({num}{'/' + den if den else ''})"


def loop_poincare_series(model, order):
    """Loop-space Poincare series of a minimal model: a factor (1+z^(2a-1))
    per even generator of degree 2a and 1/(1-z^(2b-2)) per odd generator
    of degree 2b-1."""
    if not check_minimal_sullivan(model):
        raise InvariantsError("loop series needs a minimal Sullivan algebra")
    return PoincareSeries(*loop_factors(model), order)


def full_invariants(model, max_degree, bound, report=None):
    """The whole battery on a minimal model, as one report dict
    (mirrors the documented JSON schema).  A classification report for
    the original presentation may be passed in; otherwise the model is
    classified directly."""
    if report is None:
        report = classify_ellipticity(model, bound)
    low, upper = cat_bounds(model, max_degree)
    cap = report.formal_dimension or max_degree
    toomer_n, _ = toomer_rank(model, max(cap, 1), max_degree)
    series = loop_poincare_series(model, max_degree)
    profile = report.profile or ExponentProfile.of(model)
    rep = report_json(report)
    return {
        "verdict": rep["verdict"],
        "formalDimension": rep["formalDimension"],
        "exponents": {"even": profile.even_exponents,
                      "odd": profile.odd_exponents},
        "numerology": rep["numerology"],
        "chi": rep.get("chi"),
        "cuplength": low,
        "catUpper": upper,
        "toomerN": toomer_n,
        "poincare": {
            "factors": {"numerator": series.numerator_exponents,
                        "denominator": series.denominator_exponents},
            "coeffs": series.coefficients,
        },
    }
