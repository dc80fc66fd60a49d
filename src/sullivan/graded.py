"""Free graded-commutative algebras over Q.

Generators carry an explicit ordinal giving the canonical monomial order.
A monomial is a sparse exponent tuple ((ordinal, power), ...) sorted by
ordinal; odd-degree generators never carry a power above 1 (their squares
vanish).  Elements store monomial -> Fraction maps with no zero
coefficients, so element equality is dict equality.  All values are
immutable by convention and all arithmetic is exact.

Two facts about the free algebra carry the rest of the package: a map out
of it is fixed by the images of the generators (`multiplicative`, the one
multiplicative extension, fills a table of `scaled` integer images one
letter at a time through `row_product`, for `substitute`, morphisms and
the face and degeneracy pullbacks of `plforms`), and so is a derivation
(`Derivation.columns`, the one Leibniz rule, in integers, which keys each
column of d by a basis index as it sums).  Other linear maps in monomial
bases are read off as integer columns over one denominator by one
assembler, `monomial_columns`, and memoised per monomial by
`linalg.memo_linear`.  Each algebra keeps those bases in a
per-degree table, each degree built once from the lower ones.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from math import lcm

from .linalg import memo_linear, ratios, scaled

__all__ = [
    "AlgebraError",
    "Generator",
    "FreeAlgebra",
    "AlgElement",
    "Derivation",
    "substitute",
    "row_product",
    "multiplicative",
    "monomial_columns",
    "memo_linear",
    "parse_poly",
    "format_element",
    "read_text",
    "directives",
]
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a generator name


class AlgebraError(ValueError):
    """Malformed algebra data, or an operation across different universes."""


class Generator(namedtuple("Generator", "name degree ordinal")):
    """A letter of a free algebra; its name is checked once, here."""
    __slots__ = ()

    def __new__(cls, name, degree, ordinal):
        if not NAME.fullmatch(name):
            raise AlgebraError(f"bad generator name {name!r}")
        return tuple.__new__(cls, (name, degree, ordinal))

    @property
    def is_odd(self):
        return self.degree % 2 == 1


# A monomial is a tuple of (ordinal, power) pairs, sorted by ordinal,
# powers > 0, odd generators with power exactly 1.  () is the unit.
UNIT = ()


class FreeAlgebra:
    """A fixed, ordered universe of generators.

    Degree-0 generators are only legal with allow_degree0=True (used by the
    polynomial-forms coordinate algebras); everything Sullivan-facing keeps
    degrees >= 1.
    """

    def __init__(self, generators, allow_degree0=False):
        gens = sorted(generators, key=lambda g: g.ordinal)
        self._by_ordinal, self._by_name = {}, {}
        for g in gens:
            name, degree, ordinal = g
            if degree < 0 or (degree == 0 and not allow_degree0):
                raise AlgebraError(f"generator {name} has degree {degree}")
            if name in self._by_name:
                raise AlgebraError(f"duplicate generator name {name}")
            if ordinal in self._by_ordinal:
                raise AlgebraError(f"duplicate ordinal {ordinal}")
            self._by_name[name] = self._by_ordinal[ordinal] = g
        self.generators = tuple(gens)
        self.allow_degree0 = allow_degree0
        self._degrees = {o: d for _, d, o in gens}
        # for `basis_of_degree`: an odd letter's top power is 1
        self._letters = [(o, d, d % 2 or None) for _, d, o in reversed(gens)]
        self._bases = {}

    @classmethod
    def build(cls, specs, allow_degree0=False):
        """Build from (name, degree) pairs; ordinals are assigned 0, 1, ..."""
        gens = [Generator(n, d, i) for i, (n, d) in enumerate(specs)]
        return cls(gens, allow_degree0=allow_degree0)

    def extend(self, specs):
        """New algebra with extra (name, degree) generators appended after
        the existing ones (ordinals continue, old monomials stay valid).
        It takes over each basis below the lowest new degree, the same list:
        the new generators come last, so `ends` gains ends[0] for each."""
        nxt = self.generators[-1].ordinal + 1 if self.generators else 0
        new = [Generator(n, d, nxt + i) for i, (n, d) in enumerate(specs)]
        alg = FreeAlgebra(self.generators + tuple(new),
                          allow_degree0=self.allow_degree0)
        alg._bases = {r: (basis, [ends[0]] * len(new) + ends)
                      for r, (basis, ends) in self._bases.items()
                      if all(r < g.degree for g in new)}
        return alg

    def generator(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name}") from None

    def by_ordinal(self, o):
        try:
            return self._by_ordinal[o]
        except KeyError:
            raise AlgebraError(f"unknown generator ordinal {o}") from None

    def degree_of(self, o):
        return self.by_ordinal(o).degree

    def same_universe(self, other):
        return self is other or self.generators == other.generators

    def foreign_generator(self, other):
        """Name a generator witnessing that two universes differ (as
        generator sets, since their ordinal-sorted tuples differ)."""
        unshared = set(self.generators) ^ set(other.generators)
        return next(g.name for g in self.generators + other.generators
                    if g in unshared)

    # ----- element constructors -----

    def zero(self):
        return AlgElement(self, {})

    def gen_elem(self, name):
        g = self.generator(name)
        return AlgElement(self, {((g.ordinal, 1),): Fraction(1)})

    def element(self, terms):
        """From a raw {monomial: coefficient} dict; validates monomials."""
        clean = {}
        for m, c in terms.items():
            c = Fraction(c)
            if not c:
                continue
            self._check_mono(m)
            clean[m] = c
        return AlgElement(self, clean)

    def _check_mono(self, m):
        last = -1
        for o, p in m:
            g = self.by_ordinal(o)
            if o <= last:
                raise AlgebraError(f"monomial not sorted at {g.name}")
            if p <= 0:
                raise AlgebraError(f"nonpositive power of {g.name}")
            if g.is_odd and p > 1:
                raise AlgebraError(f"odd generator {g.name} with power {p}")
            last = o

    def mono_degree(self, m):
        return sum(p * self._degrees[o] for o, p in m)

    def parse(self, text):
        return parse_poly(text, self)

    def basis_of_degree(self, n, word_max=None):
        """All monomials of total degree n, canonically ordered
        (lexicographic in the exponent vector over ordinals).

        Each degree is built once, from the lower ones, into the table
        `_bases[r] = (basis, ends)`: the monomials in the last k generators
        come first, and `ends[k]` is their count.  Refuses to enumerate
        when degree-0 generators exist, since their powers are unbounded.
        """
        if n < 0:
            return []
        if any(g.degree == 0 for g in self.generators):
            raise AlgebraError("basis enumeration needs all degrees >= 1")
        bases = self._bases
        for r in range(n + 1):
            if r in bases:
                continue
            basis, ends = ([UNIT], [1]) if r == 0 else ([], [0])
            for k, (o, deg, top) in enumerate(self._letters):
                if deg <= r:
                    for p in range(1, (top or r // deg) + 1):
                        lower, lower_ends = bases[r - p * deg]
                        head = ((o, p),)
                        basis += [head + m for m in lower[:lower_ends[k]]]
                ends.append(len(basis))
            # one store per degree: concurrent fillers store equal values
            bases[r] = (basis, ends)
        basis = bases[n][0]
        if word_max is None:
            return list(basis)
        return [m for m in basis if mono_word(m) <= word_max]

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"FreeAlgebra({gens})"


def mono_word(m):
    return sum(p for _, p in m)


def odd_letters(alg, m):
    """The odd-degree letters of a monomial, in order; each has power 1."""
    degrees = alg._degrees
    return [o for o, _ in m if degrees[o] % 2]


def mono_mul(m1, m2, odd1, odd2):
    """Product of two monomials: (sign, monomial), or None when an odd
    generator repeats.  The Koszul sign counts the odd-odd inversions
    needed to merge the two sorted letter sequences; `odd1` and `odd2`
    are the `odd_letters` of m1 and m2; the row loops keep them per term."""
    inversions = 0
    for a in odd1:
        k = bisect_left(odd2, a)
        if k < len(odd2) and odd2[k] == a:
            return None
        inversions += k
    mono = list(m2)
    for o, p in m1:
        k = bisect_left(mono, (o,))
        if k < len(mono) and mono[k][0] == o:
            mono[k] = (o, mono[k][1] + p)
        else:
            mono.insert(k, (o, p))
    return (-1 if inversions % 2 else 1), tuple(mono)


def _add_term(terms, m, c):
    """terms[m] += c in place for a nonzero c, dropping a zero sum."""
    if m in terms:
        s = terms[m] + c
        if s:
            terms[m] = s
        else:
            del terms[m]
    else:
        terms[m] = c


class AlgElement:
    """Sparse exact-rational combination of monomials, in canonical form."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def _need_same(self, other):
        if not self.algebra.same_universe(other.algebra):
            bad = self.algebra.foreign_generator(other.algebra)
            raise AlgebraError(f"operands over different universes "
                               f"(generator {bad})")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (self.algebra.same_universe(other.algebra)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.algebra.generators,
                     tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._need_same(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(terms, m, c)
        return AlgElement(self.algebra, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.algebra.zero()
        return AlgElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._need_same(other)
        return AlgElement(self.algebra, ratios(*row_product(
            self.algebra, scaled(self.terms), scaled(other.terms))))

    def degree(self):
        """Degree of a homogeneous element (None for 0); raises on
        inhomogeneous input."""
        degs = {self.algebra.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise AlgebraError(f"inhomogeneous element (degrees {sorted(degs)})")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.algebra.mono_degree(m) for m in self.terms}) <= 1

    def __repr__(self):
        return format_element(self)


class Derivation:
    """A degree-`shift` derivation given by generator images; extends to
    products by the graded Leibniz rule d(ab) = da*b + (-1)^|a| a*db.

    `images` {generator name or ordinal: element}, or its pairs, is read
    once, in order; a generator missing from it maps to zero.  `columns`
    reads them over one common denominator `den`, as integer terms; the
    one pass that scales an image's terms checks that each has degree
    |g| + shift."""

    def __init__(self, algebra, shift, images):
        self.algebra = algebra
        self.shift = shift
        degrees = algebra._degrees
        self.images, rows = {}, {}
        pairs = images.items() if isinstance(images, dict) else images
        for key, elem in pairs:
            g = (algebra.generator(key) if isinstance(key, str)
                 else algebra.by_ordinal(key))
            if elem.is_zero():
                continue
            if not elem.algebra.same_universe(algebra):
                raise AlgebraError(f"image of {g.name} lives elsewhere")
            want, row = g.degree + shift, []
            den = lcm(*[c.denominator for c in elem.terms.values()])
            for m, c in elem.terms.items():  # one pass: degree and row
                deg, odd = 0, []  # and the `odd_letters` of m
                for o, p in m:
                    deg += p * degrees[o]
                    if degrees[o] % 2:
                        odd.append(o)
                if deg != want:
                    raise AlgebraError(f"image of {g.name} has degree "
                                       f"{elem.degree()}, expected {want}")
                row.append((m, c.numerator * (den // c.denominator), odd))
            self.images[g.ordinal], rows[g.ordinal] = elem, (den, row)
        self.den = den = lcm(*[d for d, _ in rows.values()])
        self._scaled = {o: row if d == den else
                        [(m, c * (den // d), odd) for m, c, odd in row]
                        for o, (d, row) in rows.items()}

    def image_of(self, name):
        g = self.algebra.generator(name)
        return self.images.get(g.ordinal, self.algebra.zero())

    def extended(self, alg, images):
        """This derivation grown by `images` {name: element of `alg` or of
        this algebra} over `alg`, which starts with this algebra's
        generators; over another algebra no old generator takes an image,
        not even 0.  Old rows are shared, rescaled only if `den` grows."""
        old = self.algebra.generators
        if alg.generators[:len(old)] != old:
            raise AlgebraError(f"{alg} does not extend {self.algebra}")
        fixed = self.images if alg is self.algebra else self.algebra._degrees
        if twice := [k for k in images if alg.generator(k).ordinal in fixed]:
            raise AlgebraError(f"{twice[0]} already has an image")
        new = Derivation(alg, self.shift, {
            k: AlgElement(alg, e.terms)
            if e.algebra.same_universe(self.algebra) else e
            for k, e in images.items()})
        den = lcm(self.den, new.den)
        old_rows, new_rows = (d._scaled if den == d.den else {
            o: [(m, c * den // d.den, odd) for m, c, odd in row]
            for o, row in d._scaled.items()} for d in (self, new))
        kept = self.images if alg is self.algebra else {
            o: AlgElement(alg, e.terms) for o, e in self.images.items()}
        new._scaled = {**old_rows, **new_rows}  # no loop over old images:
        new.images = {**kept, **new.images}  # d may grow an image a call
        new.den = den
        return new

    def renamed(self, names, alg):
        """The images of the generators in `names` {ordinal: new name},
        moved to `alg` by `substitute` with each letter o renamed to
        names[o] and every other letter sent to 0, as {names[o]: image}."""
        move = {o: alg.gen_elem(name) for o, name in names.items()}
        return {name: substitute(self.images[o], move, alg, missing_zero=True)
                for o, name in names.items() if o in self.images}

    def columns(self, monos, index=None):
        """d of each monomial of `monos` as an integer column over `den`,
        {index[n]: c} for d(mono) = sum c/den * n; a monomial missing from
        `index` is dropped, and with no index the key is n itself.  The
        Leibniz rule letter by letter, with dg moved to the front,
        d(pre g^p suf) = (-1)^(|pre||g|) p dg (pre g^(p-1) suf), for any
        shift: d passing pre gives |pre| shift and dg moving to the front
        |pre| (|g| + shift), and the two shift terms cancel mod 2."""
        degrees, images = self.algebra._degrees, self._scaled
        cols = []
        for mono in monos:
            odd = odd_letters(self.algebra, mono)
            out = {}
            prefix_deg = 0
            for i, (o, p) in enumerate(mono):
                img = images.get(o)
                gdeg = degrees[o]
                if img is not None:
                    rest = (mono[:i] + ((o, p - 1),) + mono[i + 1:] if p > 1
                            else mono[:i] + mono[i + 1:])
                    rest_odd = [a for a in odd if a != o] if gdeg % 2 else odd
                    c0 = -p if prefix_deg * gdeg % 2 else p
                    for m, c, m_odd in img:
                        sm = mono_mul(m, rest, m_odd, rest_odd)
                        if sm is not None:
                            n = sm[1] if index is None else index.get(sm[1])
                            if n is not None:
                                x = c0 * c if sm[0] > 0 else -c0 * c
                                out[n] = out.get(n, 0) + x
                prefix_deg += p * gdeg
            cols.append({n: c for n, c in out.items() if c})
        return cols

    def leibniz(self, mono):
        """d of one monomial in integers, (den, {monomial: c}): `columns`."""
        return self.den, self.columns((mono,))[0]

    def apply(self, elem):
        """d of an element: `leibniz` of each monomial, through
        `memo_linear` with a fresh table."""
        alg = self.algebra
        if not elem.algebra.same_universe(alg):
            bad = alg.foreign_generator(elem.algebra)
            raise AlgebraError(f"derivation applied across universes "
                               f"(generator {bad})")
        return AlgElement(alg, ratios(*memo_linear(
            elem.terms, [(self.leibniz, {})])))

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return (self.shift == other.shift
                and self.algebra.same_universe(other.algebra)
                and {o: e.terms for o, e in self.images.items()}
                == {o: e.terms for o, e in other.images.items()})

    def __repr__(self):
        parts = ", ".join(
            f"{self.algebra.by_ordinal(o).name} -> {format_element(e)}"
            for o, e in sorted(self.images.items()))
        return f"Derivation(shift={self.shift}; {parts})"


def substitute(elem, images, target, missing_zero=False):
    """Multiplicative extension (`multiplicative`) of `images` {source
    ordinal: target element}.  An ordinal absent from it raises (the
    first in term and letter order), unless missing_zero is set (then it
    kills the term, as in setting base generators to zero)."""
    used = dict.fromkeys(o for mono in elem.terms for o, _ in mono)
    missing = [o for o in used if o not in images]
    if missing and not missing_zero:
        raise AlgebraError(f"no image for generator ordinal {missing[0]}")
    letters = {o: scaled(images[o].terms) for o in used if o in images}
    return AlgElement(target, ratios(*memo_linear(
        elem.terms, [multiplicative(letters, target)])))


def row_product(alg, a, b):
    """Product of two `scaled` rows (den, {monomial: int}) of `alg`, over
    the product of their denominators; `mono_mul` gives the Koszul sign."""
    out = {}
    right = [(m2, c2, odd_letters(alg, m2)) for m2, c2 in b[1].items()]
    for m1, c1 in a[1].items():
        odd1 = odd_letters(alg, m1)
        for m2, c2, odd2 in right:
            hit = mono_mul(m1, m2, odd1, odd2)
            if hit:
                out[hit[1]] = out.get(hit[1], 0) + hit[0] * c1 * c2
    return a[0] * b[0], {m: c for m, c in out.items() if c}


def multiplicative(letters, alg, table=None):
    """The algebra map sending letter o to the `scaled` row letters[o] of
    `alg` (0 if it has none), as the (image, table) pair of `memo_linear`;
    maps agreeing on a table's monomials may share it.  x * rest (x its
    first letter) goes to letters[x] * image(rest), tails kept, in a loop."""
    table = {} if table is None else table

    def image(mono):
        tails = []
        while mono and mono not in table:
            tails.append(mono)
            (o, p), mono = mono[0], mono[1:]
            mono = ((o, p - 1),) + mono if p > 1 else mono
        row = table.get(mono, (1, {UNIT: 1}))
        for tail in reversed(tails):
            row = table[tail] = row_product(
                alg, letters.get(tail[0][0], (1, {})), row)
        return row
    return image, table


def monomial_columns(f, monos, index):
    """A linear map in monomial bases as (den, integer columns): for each
    monomial m of `monos`, the sparse column {index[n]: c * (den // d)}
    over the terms n: c of f(m) = (d, {n: integer c}), as `row_product`
    and `memo_linear` chains give them, with den the lcm of the d.  A
    monomial missing from `index` is dropped.  d of a free CDGA takes no
    detour through here: `Derivation.columns` keys its sums by the index."""
    cols = [(d, {index[n]: c for n, c in terms.items() if n in index})
            for d, terms in map(f, monos)]
    den = lcm(*[d for d, _ in cols])
    return den, [v if d == den else
                 {i: c * (den // d) for i, c in v.items()} for d, v in cols]


# ----- parsing and printing -----

_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({NAME.pattern})|([-+*/^()]))")
_SEPARATORS = {"+": 1, "-": -1, "*": 0}  # a new term's sign, or 0 for `*`


def _tokenize(text):
    """Tokens: ints, generator names and operators; `#` starts a comment."""
    text = "\n".join(line.split("#", 1)[0]
                     for line in text.splitlines()).rstrip()
    pos = 0
    toks = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise AlgebraError(
                f"bad character {text[pos:].strip()[0]!r} in polynomial")
        num, name, op = m.groups()
        toks.append(int(num) if num is not None else name or op)
        pos = m.end()
    return toks


def read_text(path, error):
    """The text of a UTF-8 file, less a byte-order mark.  Undecodable
    bytes raise `error` naming the path and the line of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object lacks the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text "
                    f"(byte 0x{exc.object[exc.start]:02x})") from None


def directives(text):
    """(line number, keyword, rest) per line of a line format, skipping
    comments (`#` on) and blank lines; any whitespace ends the keyword."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            kw, *rest = line.split(None, 1)
            yield lineno, kw, "".join(rest)


def int_field(text, error, msg):
    """A line format's integer field, `-` and ASCII digits, or `error(msg)`."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise error(msg)
    return int(text)


def parse_poly(text, algebra):
    """Parse `rat*x^2*y - z + 1/2` style expressions over `algebra` in one
    pass, a separator and an item per step: a sign starts a term, which
    may open with a rational, and `*` multiplies in `name` or `name^k`
    by `mono_mul`.  A term ends where no `*` follows."""
    toks = _tokenize(text)
    if not toks:
        raise AlgebraError("empty polynomial")
    if not _SEPARATORS.get(toks[0]):
        toks.insert(0, "+")
    toks.append(None)
    terms = {}
    i = 0
    while toks[i] in _SEPARATORS:
        sign, tok = _SEPARATORS[toks[i]], toks[i + 1]
        i += 2
        if sign:
            coeff, mono = Fraction(sign), UNIT
        if sign and type(tok) is int:
            coeff *= tok
            if toks[i] == "/":
                den = toks[i + 1]
                if type(den) is not int or den == 0:
                    raise AlgebraError("expected a positive denominator")
                coeff /= den
                i += 2
        elif not (isinstance(tok, str) and tok.isidentifier()):
            raise AlgebraError(f"expected a generator name, got {tok!r}")
        else:
            g = algebra.generator(tok)
            power = 1
            if toks[i] == "^":
                power = toks[i + 1]
                if type(power) is not int or power <= 0:
                    raise AlgebraError("expected a positive exponent")
                i += 2
            if g.is_odd and power > 1:
                coeff = 0
            elif coeff:
                sign, mono = mono_mul(
                    mono, ((g.ordinal, power),), odd_letters(algebra, mono),
                    [g.ordinal] if g.is_odd else []) or (0, mono)
                coeff *= sign
        if coeff and toks[i] != "*":
            _add_term(terms, mono, coeff)
    if toks[i] is not None:
        raise AlgebraError("trailing junk in polynomial")
    return AlgElement(algebra, terms)


def _format_mono(alg, mono):
    parts = []
    for o, p in mono:
        name = alg.by_ordinal(o).name
        parts.append(name if p == 1 else f"{name}^{p}")
    return "*".join(parts)


def format_element(elem):
    """Canonical print form; parse(format(e)) == e."""
    if not elem.terms:
        return "0"
    alg = elem.algebra
    items = sorted(elem.terms.items(),
                   key=lambda mc: (alg.mono_degree(mc[0]), mc[0]))
    chunks = []
    for i, (m, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        if m == UNIT:
            body = str(mag)
        elif mag == 1:
            body = _format_mono(alg, m)
        else:
            body = f"{mag}*{_format_mono(alg, m)}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
