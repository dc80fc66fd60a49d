"""CDGA presentations and their degreewise homological machinery.

A Cdga is a free graded-commutative algebra with a degree +1 differential
given on generators, optionally cut down by one of two quotients:

* relation generators (`relations`): the quotient by the ideal they
  generate, handled purely by per-degree linear reduction (the span at
  degree k is generated by monomial multiples of the relation
  generators).  This is how truncated cohomology rings like H*(S^2n) or
  H*(CP^n) are presented as targets.
* a word-length cap (`word_cap`): the quotient by the ideal of words of
  length > n, used by the category machinery.

All per-degree data (bases, relation echelons, differential matrices,
cocycle/boundary/cohomology bases) is computed lazily and cached, with
deterministic echelon representatives throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import (
    AlgebraError,
    AlgElement,
    Derivation,
    FreeAlgebra,
    directives,
    format_element,
    memo_linear,
    monomial_columns,
    multiplicative,
    parse_poly,
    read_text,
    row_product,
    substitute,
)
from .linalg import (
    NoSolution,
    RatMatrix,
    homology_dim,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
    ratios,
    scaled,
    solve,
    span_basis,
)

__all__ = [
    "CdgaError",
    "CdgaFileError",
    "Cdga",
    "CdgaMorphism",
    "CohomologyReport",
    "QuasiIsoReport",
    "identity_morphism",
    "check_quasi_iso",
    "tensor_product",
    "fibered_product_augmented",
    "word_length_quotient",
    "parse_cdga_file",
    "load_cdga",
    "format_cdga",
]


class CdgaError(ValueError):
    pass


class CdgaFileError(CdgaError):
    def __init__(self, filename, line, msg):
        super().__init__(f"{filename}:{line}: {msg}")
        self.filename = filename
        self.line = line


class CohomologyReport:
    """Per-degree dimensions and deterministic cocycle representatives."""

    def __init__(self, max_degree, dims, representatives):
        self.max_degree = max_degree
        self.dims = dims
        self.representatives = representatives

    def __repr__(self):
        return f"CohomologyReport(dims={self.dims})"


class Cdga:
    def __init__(self, name, algebra, differential, relations=None,
                 word_cap=None, check=True):
        self.name = name
        self.algebra = algebra
        if differential.shift != 1:
            raise CdgaError("differential must have shift +1")
        self.differential = differential
        self.relations = list(relations) if relations else []
        if self.relations and word_cap is not None:
            raise CdgaError("relations and a word cap cannot be combined")
        self.word_cap = word_cap
        for g in algebra.generators:
            if g.degree < 1:
                raise CdgaError(f"generator {g.name} has degree {g.degree}")
        for r in self.relations:
            if r.is_zero() or not r.is_homogeneous():
                raise CdgaError("relations must be nonzero homogeneous")
        self._basis_cache = {}
        self._quotient_cache = {}
        self._rel_cache, self._rel_rows = {}, [
            (r.degree(), scaled(r.terms)) for r in self.relations]
        self._diff_cache = {}
        self._rank_cache = {}
        self._h_cache, self._class_mats = {}, {}
        if check:
            defects = self.validate()
            if defects:
                raise CdgaError(f"{name}: " + "; ".join(defects))

    # ----- constructors -----

    @classmethod
    def build(cls, name, gen_specs, diff_strings=None, relation_strings=None):
        """From (name, degree) generator pairs and polynomial strings."""
        alg = FreeAlgebra.build(gen_specs)
        diff_strings = diff_strings or {}
        images = {g: parse_poly(s, alg) for g, s in diff_strings.items()}
        d = Derivation(alg, +1, images)
        rels = [parse_poly(s, alg) for s in (relation_strings or [])]
        return cls(name, alg, d, relations=rels)

    @property
    def is_free(self):
        return not self.relations and self.word_cap is None

    def max_generator_degree(self):
        return max((g.degree for g in self.algebra.generators), default=1)

    # ----- quotient machinery -----

    def free_basis(self, k):
        if k not in self._basis_cache:
            monos = self.algebra.basis_of_degree(k, word_max=self.word_cap)
            self._basis_cache[k] = (monos, {m: i for i, m in enumerate(monos)})
        return self._basis_cache[k]

    def _rel_echelon(self, k):
        """Echelon basis of the relation ideal's degree-k component, spanned by
        the m * r: pivots (all `dim` reads) now, rows at its first `reduce`."""
        if k not in self._rel_cache:
            monos, index = self.free_basis(k)
            vectors = []
            for degree, row in self._rel_rows:
                vectors += monomial_columns(
                    lambda m, row=row: row_product(
                        self.algebra, (1, {m: 1}), row),
                    self.free_basis(k - degree)[0], index)[1]
            self._rel_cache[k] = span_basis(vectors, len(monos))
        return self._rel_cache[k]

    def _quotient_basis(self, k):
        """(degree-k quotient basis, its index): non-pivot monomials, or
        the free basis itself when there are no relations."""
        if not self.relations:
            return self.free_basis(k)
        if k not in self._quotient_cache:
            pivots = set(self._rel_echelon(k).pivots)
            monos = [m for i, m in enumerate(self.free_basis(k)[0])
                     if i not in pivots]
            self._quotient_cache[k] = monos, {m: i for i, m in enumerate(monos)}
        return self._quotient_cache[k]

    def basis(self, k):
        """Monomial labels of the degree-k quotient basis."""
        return self._quotient_basis(k)[0]

    def dim(self, k):
        return len(self.basis(k))

    def reduce(self, elem):
        """Canonical quotient representative of an element."""
        if self.word_cap is not None:
            elem = elem.word_truncate(self.word_cap)
        if not self.relations:
            return elem
        terms = {}
        for k, piece in elem.degree_parts().items():
            monos, index = self.free_basis(k)
            v = self._rel_echelon(k).reduce(
                {index[m]: c for m, c in piece.terms.items()})
            terms.update((monos[i], c) for i, c in v.items())
        return AlgElement(self.algebra, terms)

    def coords(self, elem, k):
        """Sparse coordinates {index: Fraction} in the degree-k basis."""
        index = self._quotient_basis(k)[1]
        v = {}
        for m, c in self.reduce(elem).terms.items():
            if self.algebra.mono_degree(m) != k:
                raise CdgaError(f"element not homogeneous of degree {k}")
            v[index[m]] = c
        return v

    def element(self, k, coords):
        """The degree-k element with sparse coordinates {index: value}."""
        basis = self.basis(k)
        for i in coords:
            if not 0 <= i < len(basis):
                raise CdgaError(f"coordinate {i} outside the degree-{k} "
                                f"basis of size {len(basis)}")
        return AlgElement(self.algebra, {
            basis[i]: c if type(c) is Fraction else Fraction(c)
            for i, c in coords.items() if c})

    def d(self, elem):
        return self.reduce(self.differential.apply(self.reduce(elem)))

    def extend(self, specs, images, carry=()):
        """This free CDGA with (name, degree) generators `specs` adjoined and
        d extended by `images` {name: element}.  It takes over, re-indexed,
        the differential matrices of the degrees in `carry`: d of an old
        monomial stays, so only new monomials need new columns, and an old
        one is scaled by new den // old den (d keeps the old images).  Below
        the lowest new degree d_k keeps its columns and gains zero rows, so
        its rank is carried too."""
        if not self.is_free:
            raise CdgaError(f"{self.name}: only a free CDGA extends")
        alg = self.algebra.extend(specs)
        new = Cdga(self.name, alg, Derivation(alg, +1, {
            k: AlgElement(alg, e.terms)
            for k, e in {**self.differential.images, **images}.items()},
            check=False), check=False)
        new._rank_cache = {k: r for k, r in self._rank_cache.items()
                           if all(k < deg for _, deg in specs)}
        for k in (k for k in carry if k in self._diff_cache):
            old_rows, rows = self.basis(k + 1), new._quotient_basis(k + 1)[1]
            m, den = self._diff_cache[k], new.differential.den
            old, s = dict(zip(self.basis(k), m.transpose().num)), den // m.den
            new._diff_cache[k] = RatMatrix.from_columns([
                {rows[old_rows[i]]: s * x for i, x in old[mono].items()}
                if mono in old else new._d_columns(k, [mono])[1][0]
                for mono in new.basis(k)], len(rows), den)
        return new

    def mult(self, a, b):
        return self.reduce(a * b)

    def _d_columns(self, k, monos):
        """d on degree-k basis monomials as (den, sparse columns over den)
        from the Leibniz kernel.  A word cap drops what its basis lacks;
        relations reduce each column in free coordinates, then reindex it."""
        index = self._quotient_basis(k + 1)[1]
        leibniz = self.differential.leibniz
        if not self.relations:
            return monomial_columns(leibniz, monos, index)
        free, free_index = self.free_basis(k + 1)
        rel = self._rel_echelon(k + 1)
        den, cols = monomial_columns(leibniz, monos, free_index)
        return den, [{index[free[i]]: c for i, c in rel.reduce(col).items()}
                     for col in cols]

    def diff_matrix(self, k):
        """Matrix of d: degree k -> degree k+1 over the quotient bases,
        assembled from its sparse columns over their den."""
        if k not in self._diff_cache:
            den, cols = self._d_columns(k, self.basis(k))
            self._diff_cache[k] = RatMatrix.from_columns(
                cols, self.dim(k + 1), den)
        return self._diff_cache[k]

    # ----- validation -----

    def validate(self):
        """Defect list: d^2 residues on generators, relation-span escape.
        Empty list means the presentation is a genuine CDGA."""
        defects = []
        for r in self.relations:
            dr = self.reduce(self.differential.apply(r))
            if not dr.is_zero():
                defects.append(
                    f"d does not preserve the relation span: "
                    f"d({format_element(r)}) = {format_element(dr)}")
        for g in self.algebra.generators:
            ge = self.algebra.gen_elem(g.name)
            res = self.d(self.d(ge))
            if not res.is_zero():
                defects.append(
                    f"d^2 {g.name} = {format_element(res)} != 0")
        return defects

    # ----- cohomology -----

    def _h_data(self, k):
        """(sparse H^k representatives, the SubspaceBasis B^k); the ranks
        of d_k and d_(k-1) this learns go to the table `h_dim` reads."""
        if k not in self._h_cache:
            z = kernel_basis(self.diff_matrix(k))
            b = image_basis(self.diff_matrix(k - 1))  # d_(-1) has no columns
            self._rank_cache[k] = self.dim(k) - z.dim
            self._rank_cache[k - 1] = b.dim
            self._h_cache[k] = (quotient_basis(b, z), b)
        return self._h_cache[k]

    def h_dim(self, k):
        """dim H^k = dim C^k - rank d_k - rank d_(k-1), from ranks alone;
        each rank is taken once, by `h_dim` or by `_h_data`."""
        return homology_dim(self.dim(k), k, k - 1, self._rank_cache,
                            self.diff_matrix)

    def h_basis(self, k):
        """Sparse coordinate rows of the chosen H^k representatives."""
        return self._h_data(k)[0]

    def h_representatives(self, k):
        return [self.element(k, v) for v in self.h_basis(k)]

    def class_coords(self, elem, k):
        """Sparse coordinates of a cocycle's class in the chosen H^k basis,
        solved against [reps | B^k basis], built on first use."""
        reps, b = self._h_data(k)
        if k not in self._class_mats:
            self._class_mats[k] = RatMatrix.from_columns(reps + b.rows,
                                                         self.dim(k))
        sol = solve(self._class_mats[k], self.coords(elem, k))
        if isinstance(sol, NoSolution):
            raise CdgaError(f"element of degree {k} is not a cocycle "
                            f"modulo boundaries")
        return {i: x for i, x in sol.items() if i < len(reps)}

    def cohomology(self, max_degree):
        reps = {k: self.h_representatives(k) for k in range(max_degree + 1)}
        return CohomologyReport(max_degree, [len(r) for r in reps.values()],
                                reps)

    def __repr__(self):
        return f"Cdga({self.name})"


class CdgaMorphism:
    """Algebra map determined by generator images; checked to commute
    with the differentials.  Generators without an image map to zero.
    `apply` extends the images by `multiplicative` in the free target, via
    `table` (shared by morphisms agreeing on its monomials; else fresh per
    call), and reduces once: exact, as relations and word caps are ideals."""

    def __init__(self, source, target, images, check=True, table=None):
        self.source = source
        self.target = target
        self._table = table
        imgs = {}
        for key, elem in images.items():
            g = (source.algebra.generator(key) if isinstance(key, str)
                 else source.algebra.by_ordinal(key))
            elem = target.reduce(elem)
            if elem.is_zero():
                continue
            if check:
                d = elem.degree()
                if d != g.degree:
                    raise CdgaError(f"image of {g.name} has degree {d}, "
                                    f"expected {g.degree}")
            imgs[g.ordinal] = elem
        self.images = imgs
        self._letters = {o: scaled(e.terms) for o, e in imgs.items()}
        if check:
            for g in source.algebra.generators:
                lhs = self.apply(source.d(source.algebra.gen_elem(g.name)))
                rhs = target.d(self.image_of(g.name))
                if lhs != rhs:
                    raise CdgaError(
                        f"not a chain map at {g.name}: phi(d{g.name}) = "
                        f"{format_element(lhs)}, d phi({g.name}) = "
                        f"{format_element(rhs)}")

    def image_of(self, name):
        g = self.source.algebra.generator(name)
        return self.images.get(g.ordinal, self.target.algebra.zero())

    def apply(self, elem):
        alg = self.target.algebra
        return self.target.reduce(AlgElement(alg, ratios(*memo_linear(
            elem.terms, [multiplicative(self._letters, alg, self._table)]))))

    def h_matrix(self, k):
        """Matrix of H^k(phi) from source to target class coordinates."""
        src_reps = self.source.h_representatives(k)
        cols = [self.target.class_coords(self.apply(r), k) for r in src_reps]
        return RatMatrix.from_columns(cols, self.target.h_dim(k))


def identity_morphism(c):
    return CdgaMorphism(c, c, {g.name: c.algebra.gen_elem(g.name)
                               for g in c.algebra.generators})


class QuasiIsoReport:
    def __init__(self, max_degree, table):
        self.max_degree = max_degree
        self.table = table  # per degree: dict with dims, rank, injective, surjective

    @property
    def ok(self):
        return all(row["injective"] and row["surjective"] for row in self.table)

    def __repr__(self):
        return f"QuasiIsoReport(ok={self.ok})"


def check_quasi_iso(phi, max_degree):
    table = []
    for k in range(max_degree + 1):
        m = phi.h_matrix(k)
        r = rank(m)
        table.append({
            "degree": k,
            "source_dim": m.cols,
            "target_dim": m.rows,
            "rank": r,
            "injective": r == m.cols,
            "surjective": r == m.rows,
        })
    return QuasiIsoReport(max_degree, table)


# ----- constructions -----

def _joined(factors):
    """The free algebra on the factors' generators, clashes renamed with
    _2, _3.., with their differentials and relations moved over:
    (per-factor renames {ordinal: name}, algebra, images, relations).
    Word-capped factors are refused."""
    used = set()
    renames = []
    specs = []
    for c in factors:
        if c.word_cap is not None:
            raise CdgaError("word-capped factors are not supported")
        rename = {}
        renames.append(rename)
        for g in c.algebra.generators:
            name = g.name
            n = 1
            while name in used:
                n += 1
                name = f"{g.name}_{n}"
            used.add(name)
            rename[g.ordinal] = name
            specs.append((name, g.degree))
    alg = FreeAlgebra.build(specs)
    images = {}
    relations = []
    for c, rename in zip(factors, renames):
        move = {o: alg.gen_elem(name) for o, name in rename.items()}
        for g in c.algebra.generators:
            dg = c.differential.images.get(g.ordinal)
            if dg is not None:
                images[rename[g.ordinal]] = substitute(dg, move, alg)
        relations.extend(substitute(r, move, alg) for r in c.relations)
    return renames, alg, images, relations


def tensor_product(a, b):
    """Tensor CDGA with the two inclusions; Kunneth holds degreewise."""
    renames, alg, images, relations = _joined([a, b])
    d = Derivation(alg, +1, images)
    t = Cdga(f"{a.name}(x){b.name}", alg, d, relations=relations)
    incl_a, incl_b = (CdgaMorphism(c, t, {
        g.name: alg.gen_elem(rename[g.ordinal])
        for g in c.algebra.generators}) for c, rename in zip((a, b), renames))
    return t, incl_a, incl_b


def fibered_product_augmented(factors, name=None):
    """Augmented fiber product: one degree-0 line, direct sum in positive
    degrees, cross products zero.  Presented as the quotient of the tensor
    by all cross products of generators from different factors; models the
    wedge of the factors' spaces."""
    if not factors:
        raise CdgaError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    renames, alg, images, relations = _joined(factors)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            for gi in factors[i].algebra.generators:
                for gj in factors[j].algebra.generators:
                    cross = (alg.gen_elem(renames[i][gi.ordinal])
                             * alg.gen_elem(renames[j][gj.ordinal]))
                    if not cross.is_zero():
                        relations.append(cross)
    d = Derivation(alg, +1, images)
    label = name or "(" + " v ".join(c.name for c in factors) + ")"
    return Cdga(label, alg, d, relations=relations)


def word_length_quotient(c, n):
    """Quotient by the ideal of words of length > n, with the projection."""
    if not c.is_free:
        raise CdgaError("word-length quotient needs a free CDGA")
    if n < 1:
        raise CdgaError("word cap must be >= 1")
    q = Cdga(f"{c.name}/words>{n}", c.algebra, c.differential, word_cap=n)
    proj = CdgaMorphism(c, q, {g.name: c.algebra.gen_elem(g.name)
                               for g in c.algebra.generators})
    return q, proj


# ----- file format -----

def parse_cdga_file(text, filename="<cdga>", check=True):
    """Parse the `cdga/gen/diff/rel` line format."""
    name = None
    specs = {}
    diffs = []
    rels = []
    for lineno, kw, rest in directives(text):
        if kw == "cdga":
            if name is not None:
                raise CdgaFileError(filename, lineno, "repeated cdga line")
            if not rest:
                raise CdgaFileError(filename, lineno, "missing name")
            name = rest
        elif kw == "gen":
            bits = rest.split()
            if len(bits) != 2:
                raise CdgaFileError(filename, lineno, "expected: gen <ident> <degree>")
            gname, deg = bits
            try:
                deg = int(deg)
            except ValueError:
                raise CdgaFileError(filename, lineno, f"bad degree {deg!r}") from None
            if gname in specs:
                raise CdgaFileError(filename, lineno, f"duplicate generator {gname}")
            if deg < 1:
                raise CdgaFileError(filename, lineno,
                                    f"generator {gname} has degree {deg}")
            specs[gname] = deg
        elif kw == "diff":
            if "=" not in rest:
                raise CdgaFileError(filename, lineno, "expected: diff <ident> = <poly>")
            gname, poly = rest.split("=", 1)
            diffs.append((lineno, gname.strip(), poly.strip()))
        elif kw == "rel":
            if ":" not in rest:
                raise CdgaFileError(filename, lineno, "expected: rel <degree> : <poly>")
            deg, poly = rest.split(":", 1)
            rels.append((lineno, deg.strip(), poly.strip()))
        else:
            raise CdgaFileError(filename, lineno, f"unknown keyword {kw!r}")
    if name is None:
        raise CdgaFileError(filename, 1, "missing cdga header line")
    alg = FreeAlgebra.build(specs.items())  # the gen lines have been checked
    images = {}
    for lineno, gname, poly in diffs:
        try:
            alg.generator(gname)
            if gname in images:
                raise AlgebraError(f"repeated diff for {gname}")
            images[gname] = parse_poly(poly, alg)
            Derivation(alg, +1, {gname: images[gname]})  # degree check here
        except AlgebraError as exc:
            raise CdgaFileError(filename, lineno, str(exc)) from None
    relations = []
    for lineno, deg, poly in rels:
        try:
            deg = int(deg)
        except ValueError:
            raise CdgaFileError(filename, lineno, f"bad degree {deg!r}") from None
        try:
            r = parse_poly(poly, alg)
            if r.is_zero():
                raise AlgebraError("relation is zero")
            if r.degree() != deg:
                raise AlgebraError(
                    f"relation has degree {r.degree()}, declared {deg}")
        except AlgebraError as exc:
            raise CdgaFileError(filename, lineno, str(exc)) from None
        relations.append(r)
    try:
        d = Derivation(alg, +1, images)
        return Cdga(name, alg, d, relations=relations, check=check)
    except (AlgebraError, CdgaError) as exc:
        raise CdgaFileError(filename, 1, str(exc)) from None


def load_cdga(path):
    return parse_cdga_file(read_text(path, CdgaError), filename=str(path))


def format_cdga(c, comments=()):
    lines = [f"cdga {c.name}"]
    lines.extend(f"# {text}" for text in comments)
    for g in c.algebra.generators:
        lines.append(f"gen {g.name} {g.degree}")
    for g in c.algebra.generators:
        dg = c.differential.images.get(g.ordinal)
        if dg is not None and not dg.is_zero():
            lines.append(f"diff {g.name} = {format_element(dg)}")
    for r in c.relations:
        lines.append(f"rel {r.degree()} : {format_element(r)}")
    return "\n".join(lines) + "\n"
