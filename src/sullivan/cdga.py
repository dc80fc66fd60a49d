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

Both quotients reduce through one linear map, `_project`, which sends a
free monomial to its canonical representative.  Like all per-degree data
(bases, relation echelons, differential matrices, cocycle/boundary/
cohomology bases) it is computed lazily and cached, with deterministic
echelon representatives throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import (
    AlgebraError,
    AlgElement,
    Derivation,
    FreeAlgebra,
    Generator,
    directives,
    format_element,
    int_field,
    mono_word,
    monomial_columns,
    multiplicative,
    read_text,
    row_product,
    substitute,
)
from .linalg import (
    RatMatrix,
    homology_dim,
    image_basis,
    kernel_basis,
    memo_linear,
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
        algebra.require_same(differential.algebra, CdgaError,
                             f"{name}: differential over another universe")
        for r in self.relations:
            algebra.require_same(r.algebra, CdgaError,
                                 f"{name}: relation over another universe")
            if r.is_zero() or not r.is_homogeneous():
                raise CdgaError("relations must be nonzero homogeneous")
        self._basis_cache = {}
        self._quotient_cache = {} if self.relations else self._basis_cache
        self._rel_cache, self._rel_rows = {}, [
            (r.degree(), scaled(r.terms)) for r in self.relations]
        self._diff_cache, self._rank_cache = {}, {}
        self._h_cache, self._class_mats, self._image_columns = {}, {}, {}
        self._projection_cache, self._recorded = {}, {}
        if check:
            defects = self.validate()
            if defects:
                raise CdgaError(f"{name}: " + "; ".join(defects))

    # ----- constructors -----

    @classmethod
    def build(cls, name, gen_specs, diff_strings=None, relation_strings=None):
        """From (name, degree) generator pairs and polynomial strings."""
        alg = FreeAlgebra.build(gen_specs)
        d = Derivation(alg, +1, {g: alg.parse(s)
                                 for g, s in (diff_strings or {}).items()})
        rels = [alg.parse(s) for s in (relation_strings or [])]
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
        the m * r: pivots (all `dim` reads) now, rows when `_project` first
        meets a pivot monomial of degree k."""
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
        the free basis itself (one table) when there are no relations."""
        if k in self._quotient_cache:
            return self._quotient_cache[k]
        if not self.relations:
            return self.free_basis(k)
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

    def _project(self, mono):
        """The canonical representative of a free monomial as a `scaled`
        row: under a word cap itself or 0; modulo relations itself unless
        it is a pivot c (not in the quotient index), which goes to
        -(r_c - p_c e_c) / p_c, r_c its integer reduced row, p_c at c."""
        if self.word_cap is not None:
            return 1, {mono: 1} if mono_word(mono) <= self.word_cap else {}
        k = self.algebra.mono_degree(mono)
        if mono in self._quotient_basis(k)[1]:
            return 1, {mono: 1}
        free, index = self.free_basis(k)
        c = index[mono]
        p, row = self._rel_echelon(k).scaled_rows[c]
        return p, {free[j]: -x for j, x in row.items() if j != c}

    def _projected(self, terms, maps=()):
        """`scaled` terms carried through the linear maps `maps` and then,
        in a quotient, `_project`, in one `memo_linear` chain."""
        if not self.is_free:
            maps = [*maps, (self._project, self._projection_cache)]
        return memo_linear(terms, maps)

    def reduce(self, elem):
        """Canonical quotient representative of an element, by `_project`."""
        self.algebra.require_same(elem.algebra, CdgaError, f"{self.name}: "
                                  "element over another universe")
        if self.is_free:
            return elem
        return AlgElement(self.algebra, ratios(*self._projected(elem.terms)))

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

    def extend(self, specs, images):
        """This free CDGA with (name, degree) generators `specs` adjoined and
        d grown by `images` {new name: element} (`Derivation.extended`,
        which keeps d on the old generators).  It records each matrix of d
        this CDGA has built or recorded, with its two bases, for
        `diff_matrix` to re-index when it is read, and keeps no reference
        to this CDGA.  Below the lowest new degree d_k keeps its columns
        and gains zero rows, so its rank is carried too; so are the columns
        `_h_data` kept, read only while dim C^k, and so C^k, is unchanged."""
        if not self.is_free:
            raise CdgaError(f"{self.name}: only a free CDGA extends")
        alg = self.algebra.extend(specs)
        new = Cdga(self.name, alg, self.differential.extended(alg, images),
                   check=False)
        new._rank_cache = {k: r for k, r in self._rank_cache.items()
                           if all(k < deg for _, deg in specs)}
        new._image_columns = dict(self._image_columns)
        new._recorded = {**self._recorded, **{
            k: (m, self.basis(k), self.basis(k + 1))
            for k, m in self._diff_cache.items()}}
        return new

    def mult(self, a, b):
        return self.reduce(a * b)

    def _d_columns(self, k, monos):
        """d on degree-k basis monomials as (den, sparse columns over den)
        from the Leibniz kernel `Derivation.columns`, keyed by the basis
        index.  A word cap drops what its basis lacks; modulo relations
        each d(m) goes through `_project`, in integers."""
        index, d = self._quotient_basis(k + 1)[1], self.differential
        if self.relations:
            return monomial_columns(lambda m: self._projected(
                {m: 1}, [(d.leibniz, {})]), monos, index)
        return d.den, d.columns(monos, index)

    def diff_matrix(self, k):
        """Matrix of d: degree k -> degree k+1 over the quotient bases,
        assembled from its sparse columns over their den.  A matrix that
        `extend` recorded for k is taken once: d of an old monomial stays,
        so its column is re-indexed by monomial and scaled by den // old
        den, and only the new monomials go through `_d_columns`."""
        if k not in self._diff_cache:
            basis, rows = self.basis(k), self._quotient_basis(k + 1)[1]
            m, old_cols, old_rows = self._recorded.pop(k, (None, (), ()))
            old = dict(zip(old_cols, m.transpose().num)) if old_cols else {}
            den, cols = self._d_columns(
                k, [x for x in basis if x not in old] if old else basis)
            if old:  # a fresh build takes its columns as they are
                s, fresh = den // m.den, iter(cols)
                cols = [{rows[old_rows[i]]: s * c for i, c in old[x].items()}
                        if x in old else next(fresh) for x in basis]
            self._diff_cache[k] = RatMatrix.from_columns(cols, len(rows), den)
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
        of d_k and d_(k-1) this learns go to the table `h_dim` reads.  The
        columns of d_k not free in its kernel, a basis of its image, are
        kept under (k, dim C^k), which names the domain basis they index."""
        if k not in self._h_cache:
            z = kernel_basis(self.diff_matrix(k))
            b = image_basis(self.diff_matrix(k - 1),  # d_(-1) has no columns
                            self._image_columns.get((k - 1, self.dim(k - 1))))
            self._image_columns[k, self.dim(k)] = sorted(
                set(range(self.dim(k))).difference(z.pivots))
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
        if sol is None:
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
    call), then the target's `_project` in the same `memo_linear` chain:
    exact, as the relation span and the words past a cap are ideals."""

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
        self.source.algebra.require_same(elem.algebra, CdgaError,
                                         "morphism applied across universes")
        alg = self.target.algebra
        return AlgElement(alg, ratios(*self.target._projected(
            elem.terms, [multiplicative(self._letters, alg, self._table)])))

    def h_matrix(self, k):
        """Matrix of H^k(phi) from source to target class coordinates."""
        src_reps = self.source.h_representatives(k)
        cols = [self.target.class_coords(self.apply(r), k) for r in src_reps]
        return RatMatrix.from_columns(cols, self.target.h_dim(k))


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
    _2, _3.., with their differentials (`renamed`, into one Derivation) and
    relations moved over: (per-factor renames {ordinal: name}, algebra,
    derivation, relations).  Word-capped factors are refused."""
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
        images.update(c.differential.renamed(rename, alg))
        move = {o: alg.gen_elem(name) for o, name in rename.items()}
        relations.extend(substitute(r, move, alg) for r in c.relations)
    return renames, alg, Derivation(alg, +1, images), relations


def tensor_product(a, b):
    """Tensor CDGA with the two inclusions; Kunneth holds degreewise."""
    renames, alg, d, relations = _joined([a, b])
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
    renames, alg, d, relations = _joined(factors)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            for gi in factors[i].algebra.generators:
                for gj in factors[j].algebra.generators:
                    cross = (alg.gen_elem(renames[i][gi.ordinal])
                             * alg.gen_elem(renames[j][gj.ordinal]))
                    if not cross.is_zero():
                        relations.append(cross)
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
    """Parse the `cdga/gen/diff/rel` line format.  A refusal names the line
    being read, and line 1 when it is about the whole presentation."""
    name, specs, diffs, rels, seen = None, {}, [], [], set()
    lineno = 1
    try:
        for lineno, kw, rest in directives(text):
            if kw == "cdga":
                if name is not None:
                    raise CdgaError("repeated cdga line")
                if not rest:
                    raise CdgaError("missing name")
                name = rest
            elif kw == "gen":
                bits = rest.split()
                if len(bits) != 2:
                    raise CdgaError("expected: gen <ident> <degree>")
                g = Generator(bits[0], int_field(
                    bits[1], CdgaError, f"bad degree {bits[1]!r}"), len(specs))
                if g.name in specs:
                    raise CdgaError(f"duplicate generator {g.name}")
                if g.degree < 1:
                    raise CdgaError(f"generator {g.name} has degree "
                                    f"{g.degree}")
                specs[g.name] = g
            elif kw == "diff":
                if "=" not in rest:
                    raise CdgaError("expected: diff <ident> = <poly>")
                gname, poly = rest.split("=", 1)
                diffs.append((lineno, gname.strip(), poly.strip()))
            elif kw == "rel":
                if ":" not in rest:
                    raise CdgaError("expected: rel <degree> : <poly>")
                deg, poly = rest.split(":", 1)
                rels.append((lineno, deg.strip(), poly.strip()))
            else:
                raise CdgaError(f"unknown keyword {kw!r}")
        lineno = 1
        if name is None:
            raise CdgaError("missing cdga header line")
        alg = FreeAlgebra(specs.values())  # the gen lines are checked

        def images():  # d reads one diff line at a time, and `lineno` with it
            nonlocal lineno
            for lineno, gname, poly in diffs:
                alg.generator(gname)  # an unknown name before its polynomial
                if gname in seen:
                    raise CdgaError(f"repeated diff for {gname}")
                seen.add(gname)
                yield gname, alg.parse(poly)
        d = Derivation(alg, +1, images())
        relations = []
        for lineno, deg, poly in rels:
            deg = int_field(deg, CdgaError, f"bad degree {deg!r}")
            r = alg.parse(poly)
            if r.is_zero():
                raise CdgaError("relation is zero")
            if r.degree() != deg:
                raise CdgaError(f"relation has degree {r.degree()}, "
                                f"declared {deg}")
            relations.append(r)
        lineno = 1
        return Cdga(name, alg, d, relations=relations, check=check)
    except (AlgebraError, CdgaError) as exc:
        raise CdgaFileError(filename, lineno, str(exc)) from None


def load_cdga(path):
    return parse_cdga_file(read_text(path, CdgaError), filename=str(path))


def format_cdga(c, comments=()):
    lines = [f"cdga {c.name}"]
    lines.extend(f"# {text}" for text in comments)
    for g in c.algebra.generators:
        lines.append(f"gen {g.name} {g.degree}")
    for g in c.algebra.generators:
        dg = c.differential.images.get(g.ordinal)
        if dg is not None:
            lines.append(f"diff {g.name} = {format_element(dg)}")
    for r in c.relations:
        lines.append(f"rel {r.degree()} : {format_element(r)}")
    return "\n".join(lines) + "\n"
