"""Polynomial differential forms on simplices and the integration map.

A form on the n-simplex lives in the coordinate algebra on t_1..t_n
(degree 0) and y_1..y_n (degree 1) with dt_i = y_i; the index-0
coordinates are always eliminated through t_0 = 1 - sum t_i and
y_0 = -sum y_i.  A form is its `scaled` integer row.  Faces, degeneracies
and d keep tables of their monomial images as scaled integers, a
pullback's that of `graded.multiplicative`; the sampler builds its
compatibility system from them and hands integer sums of its kernel rows
to the forms.  Finite simplicial sets are given by nondegenerate simplices
with face data carrying degeneracy words; integration sends a compatible
family of k-forms to a normalized rational k-cochain, exactly, via the
Dirichlet integral prod(a_i!) / (k + sum a_i)! of t^a dt_1...dt_k (a table).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm, prod

from .graded import (
    AlgElement,
    Derivation,
    FreeAlgebra,
    directives,
    int_field,
    monomial_columns,
    multiplicative,
    read_text,
    row_product,
)
from .linalg import (RatMatrix, homology_dim, kernel_basis, memo_linear,
                     rank, ratios, scaled, scaled_sum)

__all__ = [
    "FormError",
    "PolyForm",
    "form_basis",
    "SimplicialComplexFin",
    "GlobalForm",
    "Cochain",
    "normalize_word",
    "delta_complex",
    "boundary_delta",
    "builtin_complex",
    "BUILTIN_COMPLEXES",
    "sample_global_form",
    "sample_closed_global_form",
    "integrate",
    "cochain_differential",
    "cochain_cohomology",
    "cochain_cup",
    "verify_stokes",
    "parse_scomplex_file",
    "load_scomplex",
]


class FormError(ValueError):
    pass


_ALGEBRAS = {}


def form_algebra(n):
    """Coordinate algebra of the n-simplex in reduced coordinates."""
    if n not in _ALGEBRAS:
        specs = [(f"t{i}", 0) for i in range(1, n + 1)] \
            + [(f"y{i}", 1) for i in range(1, n + 1)]
        _ALGEBRAS[n] = FreeAlgebra.build(specs, allow_degree0=True)
    return _ALGEBRAS[n]


_MOVES = {}  # (n, move name, *args) -> what `_moves` gives for them


def _pullback(n, m, vertices):
    """The pullback along the simplicial map from the m-simplex with vertex
    map `vertices`: t_k and y_k go to the sums of t_j and y_j over the
    vertices j sent to k, and `graded.multiplicative` extends them."""
    letters = {}  # t_k has ordinal k - 1, y_k ordinal n + k - 1
    for first, at, unit in ((0, 0, {(): 1}), (n, m, {})):
        coords = {j + 1: (1, {((at + j, 1),): 1}) for j in range(m)}
        coords[0] = 1, {**unit, **{((at + j, 1),): -1 for j in range(m)}}
        for k in range(1, n + 1):
            letters[first + k - 1] = scaled_sum(
                {j: 1 for j, v in enumerate(vertices) if v == k}, coords)
    return multiplicative(letters, form_algebra(m))


def _moves(n, name, *args):
    """Where d, the integral, a face, a degeneracy or a degeneracy word
    (outermost first) of the n-simplex lands, and the maps of `memo_linear`
    it applies in turn, kept in `_MOVES`.  A word's maps are its letters',
    each checked at the dimension it applies to, so words share tables."""
    key = (n, name, *args)
    move = _MOVES.get(key)
    if move is None:
        if name == "d":
            alg = form_algebra(n)
            d = Derivation(alg, +1, {f"t{i}": alg.gen_elem(f"y{i}")
                                     for i in range(1, n + 1)})
            move = n, [(d.leibniz, {})]
        elif name == "integral":
            move = 0, [(lambda mono: _integral(n, mono), {})]
        elif name == "face":
            move = n - 1, [_pullback(
                n, n - 1, [j + (j >= args[0]) for j in range(n)])]
        elif name == "degen":
            if not 0 <= args[0] <= n:
                raise FormError(f"degeneracy index {args[0]} out of range "
                                f"for dimension {n}")
            move = n + 1, [_pullback(
                n, n + 1, [j - (j > args[0]) for j in range(n + 2)])]
        else:
            move = n + len(args[0]), [
                f for m, i in enumerate(reversed(args[0]), start=n)
                for f in _moves(m, "degen", i)[1]]
        _MOVES[key] = move  # returned as built: `verify_stokes` may empty it
    return move


class PolyForm:
    """A polynomial differential form on the n-simplex, kept as its
    `scaled` row (den, {monomial: int}) of `form_algebra(n)`: an element is
    brought over one denominator on entry (explicit zeros left out), and
    `element` is a Fraction view, built when read."""

    __slots__ = ("dim", "row")

    def __init__(self, dim, element):
        self.dim = dim
        self.row = scaled(element.terms)

    @classmethod
    def _of(cls, dim, row):
        form = cls.__new__(cls)
        form.dim, form.row = dim, row
        return form

    @property
    def element(self):
        return AlgElement(form_algebra(self.dim), ratios(*self.row))

    def is_zero(self):
        return not self.row[1]

    def d(self):
        """The exterior derivative, read through a table as faces are."""
        return self._move(*_moves(self.dim, "d"))

    def face(self, i):
        """Restriction along the i-th coface, landing on dimension n-1."""
        n = self.dim
        if n < 1:
            raise FormError("no faces on the 0-simplex")
        if not 0 <= i <= n:
            raise FormError(f"face index {i} out of range for dimension {n}")
        return self._move(*_moves(n, "face", i))

    def degen(self, i):
        """Pullback along the i-th codegeneracy, landing on dimension n+1."""
        return self.degen_word((i,))

    def degen_word(self, word):
        """Pullback along a degeneracy word (outermost first), in one
        pass; each letter is checked at the dimension it applies to."""
        if not word:
            return self
        return self._move(*_moves(self.dim, "degen_word", tuple(word)))

    def _move(self, m, maps):
        return PolyForm._of(m, memo_linear(self.row[1], maps, self.row[0]))

    def __add__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        self._same(other)
        return PolyForm._of(self.dim, scaled_sum(
            {0: 1, 1: 1}, {0: self.row, 1: other.row}))

    def __mul__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        self._same(other)
        return PolyForm._of(self.dim, row_product(
            form_algebra(self.dim), self.row, other.row))

    def _same(self, other):
        if self.dim != other.dim:
            raise FormError("forms live on different simplex dimensions")

    def __eq__(self, other):
        if not isinstance(other, PolyForm) or self.dim != other.dim:
            return False
        (den_a, a), (den_b, b) = self.row, other.row
        if den_a == den_b:
            return a == b
        return a.keys() == b.keys() and all(
            x * den_b == b[m] * den_a for m, x in a.items())

    def __repr__(self):
        return f"PolyForm(dim {self.dim}: {self.element})"


def form_basis(n, k, poly_cap):
    """Monomial basis of k-forms on the n-simplex with polynomial degree
    <= poly_cap, in a fixed deterministic order."""
    if k < 0 or k > n:
        return []
    out = []
    for exps in product(range(poly_cap + 1), repeat=n):
        if sum(exps) > poly_cap:
            continue
        tpart = tuple((i, e) for i, e in enumerate(exps) if e)
        for subset in combinations(range(1, n + 1), k):
            mono = tpart + tuple((n + i - 1, 1) for i in subset)
            out.append(mono)
    return out


# ----- finite simplicial sets -----

def normalize_word(word):
    """Rewrite a degeneracy word (outermost first) into the canonical
    strictly decreasing form using s_i s_j = s_(j+1) s_i for i <= j."""
    out = []
    for a in reversed(word):
        k = 0
        while k < len(out) and a <= out[k]:
            out[k] += 1
            k += 1
        out.insert(k, a)
    return tuple(out)


def _face_defect(dim, i, word):
    """Why face i of a dim-simplex, a degeneracy word (outermost first,
    the p-th letter landing on dimension dim - p) applied to a simplex,
    cannot exist; None when it can."""
    if dim < 1 or not 0 <= i <= dim:
        return f"face index {i} out of range for a {dim}-simplex"
    for p, j in enumerate(word, start=1):
        if not 0 <= j <= dim - 1 - p:
            return (f"degeneracy s{j} out of range in face {i} of a "
                    f"{dim}-simplex")
    return None


class SimplicialComplexFin:
    """Finite simplicial set: nondegenerate simplices with face data
    (target nondegenerate simplex plus a degeneracy word)."""

    def __init__(self, name, dims, faces, check=True):
        self.name = name
        self.dims = dict(dims)
        self.faces = {key: (tgt, normalize_word(tuple(word)))
                      for key, (tgt, word) in faces.items()}
        self.by_dim = {}
        for sid in sorted(self.dims):
            self.by_dim.setdefault(self.dims[sid], []).append(sid)
        self.top_dim = max(self.dims.values(), default=0)
        self._sample_cache = {}
        if check:
            defects = self.validate()
            if defects:
                raise FormError(f"{name}: " + "; ".join(defects))

    def simplices(self, k):
        return self.by_dim.get(k, [])

    def face_expr(self, expr, i):
        """Apply the i-th face to (simplex, degeneracy word in normal
        form), passing the face inward one letter at a time."""
        sid, word = expr
        outer = []  # the letters passed, as they stand after the face
        for p, j in enumerate(word):
            if j <= i <= j + 1:
                return sid, normalize_word(tuple(outer) + word[p + 1:])
            outer.append(j - (i < j))
            i -= i > j + 1
        try:
            tgt, w = self.faces[(sid, i)]
        except KeyError:
            raise FormError(f"missing face ({sid}, {i})") from None
        return tgt, normalize_word(tuple(outer) + w)

    def validate(self):
        defects = []
        for sid, dim in self.dims.items():
            if dim < 0:
                defects.append(f"simplex {sid} has negative dimension {dim}")
            for i in range(dim + 1):
                if dim > 0 and (sid, i) not in self.faces:
                    defects.append(f"simplex {sid} missing face {i}")
        if defects:
            return defects
        for (sid, i), (tgt, word) in self.faces.items():
            bad = _face_defect(self.dims.get(sid, 0), i, word)
            if bad:
                defects.append(f"face ({sid},{i}): {bad}")
                continue
            if tgt not in self.dims:
                defects.append(f"face ({sid},{i}) hits unknown simplex {tgt}")
                continue
            if self.dims[tgt] + len(word) != self.dims[sid] - 1:
                defects.append(
                    f"face ({sid},{i}) dimension mismatch: "
                    f"{self.dims[tgt]} + {len(word)} != {self.dims[sid]} - 1")
        if defects:
            return defects
        for sid, dim in self.dims.items():
            if dim < 2:
                continue
            for j in range(dim + 1):
                for i in range(j):
                    a = self.face_expr(self.face_expr((sid, ()), j), i)
                    b = self.face_expr(self.face_expr((sid, ()), i), j - 1)
                    if a != b:
                        defects.append(
                            f"simplicial identity d_{i} d_{j} = "
                            f"d_{j - 1} d_{i} fails on {sid}: {a} != {b}")
        return defects

    def __repr__(self):
        counts = ", ".join(f"{k}:{len(v)}" for k, v in sorted(self.by_dim.items()))
        return f"SimplicialComplexFin({self.name}; dims {counts})"


class GlobalForm:
    """A compatible family of degree-k polynomial forms, one per
    nondegenerate simplex."""

    def __init__(self, complex_, degree, assignment, check=True):
        self.complex = complex_
        self.degree = degree
        self.assignment = dict(assignment)
        if check:
            defects = self.validate()
            if defects:
                raise FormError("incompatible global form: "
                                + "; ".join(defects))

    def form(self, sid):
        return (self.assignment.get(sid)
                or PolyForm._of(self.complex.dims[sid], (1, {})))

    def validate(self):
        """Defects of the family.  Each face check compares the face of a
        form with the pullback of its target's form along the face's
        degeneracy word: two `PolyForm`s, each a `scaled` row carried
        through the move tables.  A monomial's degree is its y count."""
        dims, defects = self.complex.dims, []
        forms = {sid: self.form(sid) for sid in dims}
        for sid in sorted(dims):
            own = forms[sid]
            y1 = (own.dim,)  # sorts after each t letter, before each y
            degrees = {len(m) - bisect_left(m, y1) for m in own.row[1]}
            if own.dim != dims[sid] or len(degrees) > 1:
                defects.append(f"form on {sid} is not a homogeneous form "
                               f"on a {dims[sid]}-simplex")
            elif degrees - {self.degree}:
                defects.append(f"form on {sid} has degree {degrees.pop()}, "
                               f"expected {self.degree}")
            else:
                for i in range(own.dim + 1 if own.dim else 0):
                    tgt, word = self.complex.faces[(sid, i)]
                    if (forms[tgt].dim != dims[tgt] or own.face(i)
                            != forms[tgt].degen_word(word)):
                        defects.append(f"face {i} of {sid} disagrees "
                                       f"with {tgt}")
        return defects

    def d(self):
        return GlobalForm(self.complex, self.degree + 1,
                          {sid: f.d() for sid, f in self.assignment.items()},
                          check=False)

    def is_zero(self):
        return all(f.is_zero() for f in self.assignment.values())


class Cochain:
    """Normalized rational cochain: values on nondegenerate simplices."""

    def __init__(self, complex_, degree, values=None):
        self.complex = complex_
        self.degree = degree
        self.values = {sid: Fraction(v) for sid, v in (values or {}).items()
                       if v}

    def value(self, sid):
        return self.values.get(sid, Fraction(0))

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)

    def __repr__(self):
        vals = ", ".join(f"{sid}: {v}" for sid, v in sorted(self.values.items()))
        return f"Cochain(deg {self.degree}; {vals})"


def _integral(k, mono):
    exps = [p for o, p in mono if o < k]  # t_1..t_k come first
    return factorial(k + sum(exps)), {0: prod(map(factorial, exps))}


def integrate(gf):
    """The integration cochain map: integrate the top coefficient of each
    degree-k form over its k-simplex.  A monomial t^a y_1...y_k (the
    exterior part of a k-form on the k-simplex) integrates to the
    Dirichlet integral prod(a_i!) / (k + sum a_i)!, which `_integral`
    gives as a `scaled` row {0: numerator} and `_moves(k, "integral")`
    keeps."""
    K, k = gf.complex, gf.degree
    maps = _moves(k, "integral")[1]
    rows = {sid: gf.form(sid).row for sid in K.simplices(k)}
    return Cochain(K, k, {sid: ratios(*memo_linear(terms, maps, den)).get(0)
                          for sid, (den, terms) in rows.items()})


def cochain_differential(c):
    """(delta c)(x) = sum_i (-1)^i c(d_i x), degenerate faces giving 0:
    the rows of `_delta_matrix` applied to the values of c."""
    K, k = c.complex, c.degree
    values = [c.value(sid) for sid in K.simplices(k)]
    return Cochain(K, k + 1, {
        sid: sum(x * values[j] for j, x in row.items())
        for sid, row in zip(K.simplices(k + 1), _delta_matrix(K, k).num)})


def _delta_matrix(K, k):
    src = K.simplices(k)
    index = {sid: i for i, sid in enumerate(src)}
    rows = []
    for sid in K.simplices(k + 1):
        row = {}
        for i in range(k + 2):
            face, word = K.faces[(sid, i)]
            if not word:
                j = index[face]
                row[j] = row.get(j, 0) + (-1 if i % 2 else 1)
        rows.append(row)
    return RatMatrix.from_rows(rows, len(src))


def cochain_cohomology(K, max_degree):
    """Dimension table of the normalized cochain cohomology."""
    ranks = {-1: 0}
    return [homology_dim(len(K.simplices(k)), k, k - 1, ranks,
                         lambda j: _delta_matrix(K, j))
            for k in range(max_degree + 1)]


def _end_face(K, sid, p, back):
    """Front p-face (drop the trailing vertices one at a time), or back
    p-face (drop the leading ones)."""
    expr, dim = (sid, ()), K.dims[sid]
    while dim > p:
        expr = K.face_expr(expr, 0 if back else dim)
        dim -= 1
    return expr


def cochain_cup(a, b):
    """Simplicial cup product (front face / back face); used to record
    that integration is not multiplicative."""
    K = a.complex
    p, q = a.degree, b.degree
    values = {}
    for sid in K.simplices(p + q):
        fa, wa = _end_face(K, sid, p, back=False)
        fb, wb = _end_face(K, sid, q, back=True)
        if not wa and not wb:  # a degenerate face takes the value 0
            values[sid] = a.value(fa) * b.value(fb)
    return Cochain(K, p + q, values)


# ----- built-in complexes -----

def _subset_id(vertices):
    return "".join(str(v) for v in vertices)


def delta_complex(n):
    """The standard n-simplex with all its faces."""
    dims = {}
    faces = {}
    for k in range(n + 1):
        for vs in combinations(range(n + 1), k + 1):
            sid = _subset_id(vs)
            dims[sid] = k
            for i in range(k + 1):
                if k > 0:
                    rest = vs[:i] + vs[i + 1:]
                    faces[(sid, i)] = (_subset_id(rest), ())
    return SimplicialComplexFin(f"delta{n}", dims, faces)


def boundary_delta(n):
    """The boundary of the standard n-simplex."""
    full = delta_complex(n)
    dims = {sid: d for sid, d in full.dims.items() if d < n}
    faces = {key: val for key, val in full.faces.items()
             if full.dims[key[0]] < n}
    return SimplicialComplexFin(f"bddelta{n}", dims, faces)


_BUILTINS = {"delta2": (delta_complex, 2), "delta3": (delta_complex, 3),
             "bddelta3": (boundary_delta, 3)}
BUILTIN_COMPLEXES = tuple(_BUILTINS)


def builtin_complex(name):
    if name not in _BUILTINS:
        raise FormError(f"unknown builtin complex {name!r} "
                        f"(have {', '.join(BUILTIN_COMPLEXES)})")
    build, n = _BUILTINS[name]
    return build(n)


# ----- sampling and Stokes verification -----

def _compatibility_kernel(K, degree, poly_cap, closed=False):
    """Kernel basis of the face-compatibility system (plus closedness when
    asked) over the per-simplex monomial coefficient spaces: (simplices in
    column order, their form bases, their first columns, the kernel's
    `scaled_rows`)."""
    key = (degree, poly_cap, closed)
    if key in K._sample_cache:
        return K._sample_cache[key]
    order = sorted(K.dims, key=lambda sid: (K.dims[sid], sid))
    monos = {(n, k): form_basis(n, k, poly_cap)
             for n in range(K.top_dim + 1) for k in (degree, degree + 1)}
    indices = {nk: {m: i for i, m in enumerate(basis)}
               for nk, basis in monos.items()}
    bases, offsets, width = {}, {}, 0
    for sid in order:
        bases[sid] = monos[K.dims[sid], degree]
        offsets[sid], width = width, width + len(bases[sid])
    system, blocks = [], K._sample_cache.setdefault((degree, poly_cap), {})

    def equate(n, k, terms):
        """The equation sum(sign * move(form on sid)) = 0 in k-forms on the
        n-simplex, for terms (sid, sign, (move name, *args)).  The block of
        a move, integer columns over a denominator read from the tables of
        `_moves`, is built once per simplex dimension, and shared by the
        open and the closed system."""
        parts = []
        for sid, sign, move in terms:
            at = (K.dims[sid], *move)
            if at not in blocks:
                maps = _moves(*at)[1]
                blocks[at] = monomial_columns(
                    lambda m: memo_linear({m: 1}, maps), bases[sid],
                    indices[n, k])
            parts.append((sid, sign, blocks[at]))
        system.append((len(indices[n, k]), parts))

    for sid in order:
        dim = K.dims[sid]
        for i in range(dim + 1 if dim else 0):
            tgt, word = K.faces[(sid, i)]
            equate(dim - 1, degree, [(sid, 1, ("face", i)),
                                     (tgt, -1, ("degen_word", word))])
        if closed:
            equate(dim, degree + 1, [(sid, 1, ("d",))])
    den = lcm(*[d for _, parts in system for _, _, (d, _) in parts])
    rows = []
    for size, parts in system:
        block = [{} for _ in range(size)]
        for sid, sign, (d, cols) in parts:
            f = sign * (den // d)
            for j, col in enumerate(cols, offsets[sid]):
                for i, c in col.items():  # the terms' simplices differ
                    block[i][j] = f * c
        rows.extend(block)
    kernel = kernel_basis(RatMatrix(rows, width, den))
    result = (order, bases, offsets, kernel.scaled_rows)
    K._sample_cache[key] = result
    return result


def _sample(K, degree, poly_cap, seed, closed):
    order, bases, offsets, kernel = _compatibility_kernel(
        K, degree, poly_cap, closed)
    rng = random.Random(seed)
    den, vec = scaled_sum({c: rng.randint(-3, 3) for c in kernel}, kernel)
    return GlobalForm(K, degree, {sid: PolyForm._of(K.dims[sid], (den, {
        mono: c for j, mono in enumerate(bases[sid], offsets[sid])
        if (c := vec.get(j))})) for sid in order})


def sample_global_form(K, degree, poly_cap, seed):
    """A reproducible pseudorandom compatible family of degree-k forms:
    a random rational point of the compatibility solution space (the zero
    form when that space is trivial)."""
    return _sample(K, degree, poly_cap, seed, closed=False)


def sample_closed_global_form(K, degree, poly_cap, seed):
    """Like sample_global_form but restricted to d-closed families."""
    return _sample(K, degree, poly_cap, seed, closed=True)


class StokesReport:
    def __init__(self, complex_name, trials, cocycle_ranks, h_dims):
        self.complex_name = complex_name
        self.trials = trials
        self.cocycle_ranks = cocycle_ranks
        self.h_dims = h_dims

    @property
    def ok(self):
        """Every trial exact, and the sampled cocycles reach every class."""
        return (all(t["passed"] for t in self.trials)
                and all(r["sampled_rank"] == r["h_dim"]
                        for r in self.cocycle_ranks))

    @property
    def passed(self):
        return sum(1 for t in self.trials if t["passed"])

    def __repr__(self):
        return (f"StokesReport({self.complex_name}: "
                f"{self.passed}/{len(self.trials)})")


def verify_stokes(K, trials, poly_cap, seed):
    """Check integrate(d w) = delta(integrate(w)) exactly on sampled
    global forms, and compare the rank of integration on sampled cocycles
    with the cochain cohomology dimensions.  The tables of the moves
    (pullbacks, d and integrals) start empty, so a call does the same work
    whatever ran before it.  A complex with no simplices is refused: it
    leaves nothing to check."""
    if trials < 1:
        raise FormError("need at least one trial")
    if not K.dims:
        raise FormError(f"complex {K.name} has no simplices to check")
    _MOVES.clear()
    records = []
    for t in range(trials):
        degree = t % (K.top_dim + 1)
        gf = sample_global_form(K, degree, poly_cap, seed + t)
        lhs = integrate(gf.d())
        rhs = cochain_differential(integrate(gf))
        records.append({
            "trial": t,
            "degree": degree,
            "zero_form": gf.is_zero(),
            "passed": lhs == rhs,
        })
    h_dims = cochain_cohomology(K, K.top_dim)
    cocycle_ranks = []
    for k in range(K.top_dim + 1):
        index = {sid: i for i, sid in enumerate(K.simplices(k))}
        cocycles = [
            {index[sid]: v for sid, v in integrate(sample_closed_global_form(
                K, k, poly_cap, seed + 1000 + t)).values.items()}
            for t in range(trials)]
        # the rank of the sampled cocycles modulo the coboundaries
        bnd = _delta_matrix(K, k - 1).columns() if k else []
        sampled = (rank(RatMatrix.from_rows(bnd + cocycles, len(index)))
                   - rank(RatMatrix.from_rows(bnd, len(index))))
        cocycle_ranks.append({"degree": k, "sampled_rank": sampled,
                              "h_dim": h_dims[k]})
    return StokesReport(K.name, records, cocycle_ranks, h_dims)


# ----- file format -----

def parse_scomplex_file(text, filename="<scomplex>", check=True):
    """Parse the `scomplex/simplex/face` line format.  A refusal names the
    line being read, and line 1 when it is about the whole complex."""
    name, dims, faces = None, {}, {}
    lines = {}  # (simplex, face index) -> line
    lineno = 1
    try:
        for lineno, kw, rest in directives(text):
            parts = [kw] + rest.split()
            if kw == "scomplex":
                if len(parts) != 2:
                    raise FormError("expected: scomplex <name>")
                if name is not None:
                    raise FormError("repeated scomplex line")
                name = parts[1]
            elif kw == "simplex":
                if len(parts) != 3:
                    raise FormError("expected: simplex <id> <dim>")
                sid = parts[1]
                if sid in dims:
                    raise FormError(f"repeated simplex {sid}")
                dims[sid] = int_field(parts[2], FormError, "bad dimension")
                if dims[sid] < 0:
                    raise FormError(f"negative dimension {dims[sid]}")
            elif kw == "face":
                if len(parts) < 5 or parts[3] != "=":
                    raise FormError("expected: face <id> <i> = <target> "
                                    "[s<j> ...]")
                sid, tgt = parts[1], parts[4]
                i = int_field(parts[2], FormError, "bad face index")
                word = []
                for tok in parts[5:]:
                    what = f"bad degeneracy token {tok!r}"
                    if not tok.startswith("s"):
                        raise FormError(what)
                    word.append(int_field(tok[1:], FormError, what))
                if sid not in dims:
                    raise FormError(f"simplex {sid} not declared before use")
                if bad := _face_defect(dims[sid], i, word):
                    raise FormError(bad)
                if (sid, i) in faces:
                    raise FormError(f"repeated face {i} of {sid}")
                faces[(sid, i)] = (tgt, tuple(word))
                lines[(sid, i)] = lineno
            else:
                raise FormError(f"unknown keyword {kw!r}")
        lineno = 1
        if name is None:
            raise FormError("missing scomplex header line")
        for (sid, i), (tgt, _) in faces.items():
            if tgt not in dims:  # a later line may declare it
                lineno = lines[sid, i]
                raise FormError(f"face ({sid},{i}) hits unknown simplex {tgt}")
        return SimplicialComplexFin(name, dims, faces, check=check)
    except FormError as exc:
        raise FormError(f"{filename}:{lineno}: {exc}") from None


def load_scomplex(path):
    return parse_scomplex_file(read_text(path, FormError), filename=str(path))
