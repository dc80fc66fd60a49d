"""Exact linear algebra over the rationals, on sparse integer rows.

Vectors go in and out as sparse rows {index: Fraction} of their nonzero
entries; `combine` sums multiples of them fraction-free.  A `RatMatrix`
keeps sparse integer rows {column: int} over one positive denominator
`den`: integer entries, such as the Leibniz kernel's, go in as they are,
and rational ones are brought over one denominator once, on entry.  One
kernel does all elimination: `_eliminate` makes each integer row
primitive and cancels it in turn, fraction-free, against the pivot rows
kept so far (pivot: leftmost nonzero column, taken by the first row
there).  `rank` counts the kept rows and makes no Fraction.  A
`SubspaceBasis` keeps the rows it is given, a forward pass or a kernel's
reduced rows, with their pivots; `_reduced` back-substitutes them to the
reduced echelon form, each row up to its pivot entry, on first read.
Fractions are made only for the vectors that leave, most by `ratios`:
basis rows when first read, representatives and solutions, and the views
`columns()` and `data`.

The reduced echelon basis of a subspace is unique, so every result but
the NoSolution certificate is independent of the elimination order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

_ZERO = Fraction(0)
_SMALL = {k: Fraction(k) for k in (-2, -1, 1, 2)}  # shared coefficients
_NO_ROW = (1, {})


class LinalgError(ValueError):
    pass


def scaled(row):
    """A sparse rational row as (d, {index: integer numerator over d}); an
    explicit zero entry is left out."""
    den = lcm(*[x.denominator for x in row.values()])
    return den, {j: n for j, x in row.items()
                 if (n := x.numerator * (den // x.denominator))}


def ratio(num, den):
    """num/den as a Fraction (integers, den > 0); the values -2..2, nearly
    all matrix entries, share one Fraction each."""
    q, r = divmod(num, den)
    return (Fraction(num, den) if r else _SMALL[q] if q in _SMALL
            else Fraction(q))


def scaled_sum(coeffs, rows):
    """Sum of c * rows[k] over the coefficients {k: c} (int or Fraction)
    of `scaled` rows, in integers: a scaled row (den, {index: int}), an
    entry that cancels left out.  A term is skipped, before its
    coefficient is read, when its row is empty or missing (a zero
    coefficient needs no row)."""
    terms, common = [], 1
    for k, c in coeffs.items():
        row_den, row = rows.get(k, _NO_ROW)
        if row and c:
            d = c.denominator * row_den
            terms.append((c.numerator, d, row))
            common = lcm(common, d) if common % d else common
    acc = {}
    for num, d, row in terms:
        f = num * (common // d)
        for j, x in row.items():
            acc[j] = acc.get(j, 0) + f * x
    return common, {j: v for j, v in acc.items() if v}


def ratios(den, row):
    """A `scaled` row (den, {index: int}) as a sparse row of Fractions."""
    return {j: ratio(v, den) for j, v in row.items()}


def combine(coeffs, rows):
    """Sparse sum of c * rows[k] over the coefficients {k: c}, fraction-free:
    the rows, read as `scaled`, are summed by `scaled_sum`, and one
    `ratio` is made per entry of the sum."""
    return ratios(*scaled_sum(coeffs, {k: scaled(rows[k])
                                       for k, c in coeffs.items() if c}))


class RatMatrix:
    """Exact rational matrix: sparse integer rows `num` {column: int} of
    nonzero entries over one positive denominator `den`, so that entry
    (i, j) is num[i][j] / den."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, num, cols, den=1):
        """From sparse rows {column: value} of nonzero entries over `den`,
        kept as they are when all are integers, else cleared into den."""
        dens = {x.denominator for row in num for x in row.values()
                if type(x) is not int}
        if dens:
            d = lcm(*dens)
            num = [{j: x.numerator * (d // x.denominator)
                    for j, x in row.items()} for row in num]
            den *= d
        self.rows, self.cols, self.num, self.den = len(num), cols, num, den

    @classmethod
    def from_rows(cls, rows, cols):
        """From sparse rows {column: value}, zeros dropped."""
        return cls([{j: x for j, x in r.items() if x} for r in rows], cols)

    @classmethod
    def from_columns(cls, columns, rows, den=1):
        """From sparse columns {row: value} over `den`, in one pass."""
        num = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                if x:
                    num[i][j] = x
        return cls(num, len(columns), den)

    @staticmethod
    def identity(n):
        return RatMatrix([{i: 1} for i in range(n)], n)

    @property
    def data(self):
        """Dense Fraction rows, built on each read."""
        return [[Fraction(row[j], self.den) if j in row else _ZERO
                 for j in range(self.cols)] for row in self.num]

    def columns(self):
        """Sparse Fraction columns {row: value}."""
        return [ratios(self.den, col) for col in self.transpose().num]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.num):
            for j, x in row.items():
                out[j][i] = x
        return RatMatrix(out, self.rows, self.den)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.columns() == other.columns())

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix[{self.rows}x{self.cols}: {body}]"


# ----- the elimination kernel -----

def _cancel(v, row, c):
    """a v - b row (a, b coprime, a > 0) cancelling column c; in place
    unless v must be scaled."""
    p, f = row[c], v[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        v = {j: a * x for j, x in v.items()}
    for j, x in row.items():
        y = v.get(j)
        if y is None:
            v[j] = -b * x
        elif y == b * x:
            del v[j]
        else:
            v[j] = y - b * x
    if a != 1:
        g = gcd(*v.values())
        if g > 1:
            v = {j: x // g for j, x in v.items()}
    return v


def _eliminate(rows, full=False):
    """Forward pass over sparse integer rows (left as they are), in
    order: each, made primitive, is cancelled at its leftmost column while
    a kept row has its pivot there (with `full`, at every kept pivot,
    leftmost first), and what is left is kept, primitive with a positive
    leading entry, under its leftmost column.  Returns {pivot: row} in
    the order kept."""
    piv = {}
    for v in rows:
        g = gcd(*v.values())  # 0 for an empty row, which stays empty
        v = {j: x // g for j, x in v.items()} if g > 1 else dict(v)
        while v:
            c = (min((j for j in v if j in piv), default=None) if full
                 else min(v))
            if c not in piv:
                break
            v = _cancel(v, piv[c], c)
        if v:
            lead = min(v)
            g = gcd(*v.values())
            if v[lead] < 0:
                g = -g
            piv[lead] = {j: x // g for j, x in v.items()} if g != 1 else v
    return piv


def _reduced(piv):
    """Clear every pivot row at the other pivot columns, last pivot
    first: {pivot: row} in pivot order, the reduced echelon form with
    each row up to its (positive) pivot entry."""
    order = sorted(piv)
    for c in reversed(order):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            row = _cancel(row, piv[j], j)
        piv[c] = row
    return {c: piv[c] for c in order}


def rank(m):
    """Rank of a RatMatrix, from one forward pass."""
    return len(_eliminate(m.num))


def homology_dim(dim, d_out, d_in, ranks, matrix):
    """dim ker d_out / im d_in = dim - rank d_out - rank d_in, for maps out
    of and into a space of that dimension, keys that `matrix` builds;
    `ranks` {key: rank} keeps each rank (a fresh {} if no map is shared)."""
    for key in (d_out, d_in):
        if key not in ranks:
            ranks[key] = rank(matrix(key))
        dim -= ranks[key]
    return dim


def rref(m):
    """Reduced row echelon form: (RatMatrix, pivot columns, rank)."""
    red = SubspaceBasis(m.cols, _eliminate(m.num))
    return (RatMatrix.from_rows(red.rows + [{}] * (m.rows - red.dim), m.cols),
            red.pivots, red.dim)


class SubspaceBasis:
    """Subspace spanned by echelon rows {pivot: integer row}, as given: a
    forward pass, or rows already reduced.  Its pivots are known at once;
    `scaled_rows` is its reduced echelon basis in integers, {pivot: (pivot
    entry, the reduced row times that positive entry)} in pivot order,
    each a `scaled` row, and `rows` views them as sparse rows {column:
    Fraction}, 1 at their pivots: both built on first read."""

    def __init__(self, ambient, piv):
        self.ambient, self.pivots, self.dim = ambient, sorted(piv), len(piv)
        self._piv = piv

    @cached_property
    def scaled_rows(self):
        return {c: (row[c], row) for c, row in _reduced(self._piv).items()}

    @cached_property
    def rows(self):
        return [ratios(p, row) for p, row in self.scaled_rows.values()]

    def reduce(self, v):
        """Residue of a sparse row v modulo the subspace, as a sparse
        {column: Fraction}: its pivot coordinates eliminated."""
        coeffs = {c: -x for c, x in v.items() if c in self._piv}
        return ratios(*scaled_sum({-1: 1, **coeffs}, {-1: scaled(v), **{
            c: self.scaled_rows[c] for c in coeffs}}))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient})"


def span_basis(vectors, ambient):
    """Canonical SubspaceBasis spanned by sparse rows: its pivots from one
    forward pass, its rows reduced on first read."""
    return SubspaceBasis(ambient,
                         _eliminate(RatMatrix.from_rows(vectors, ambient).num))


def kernel_basis(m):
    """Canonical basis of {v : m v = 0}.

    With the columns of m reversed, the free-variable vector of a free
    column f is 1 at f and nonzero elsewhere only at pivots before f;
    back in the original order, these are the reduced echelon basis,
    each kept over the lcm of the pivot entries it reads."""
    n = m.cols
    red = _reduced(_eliminate([{n - 1 - j: x for j, x in r.items()}
                               for r in m.num]))
    terms = {f: [] for f in range(n - 1, -1, -1) if f not in red}
    for c, row in red.items():
        for j, x in row.items():
            if j != c:
                terms[j].append((n - 1 - c, x, row[c]))
    piv = {}
    for f, ts in terms.items():
        den = lcm(*[p for _, _, p in ts])
        piv[n - 1 - f] = {n - 1 - f: den,
                          **{c: -x * (den // p) for c, x, p in ts}}
    return SubspaceBasis(n, piv)


def image_basis(m):
    """Canonical basis of the column space."""
    return SubspaceBasis(m.rows, _eliminate(m.transpose().num))


def quotient_basis(sub, within):
    """Coset representatives spanning within/sub, as sparse rows.

    Representatives are drawn from `within`'s echelon vectors, in order,
    each reduced modulo `sub` and the representatives before it and
    scaled to leading entry 1; their count is dim(within) - dim(sub).
    """
    if sub.ambient != within.ambient:
        raise LinalgError("ambient dimensions differ")
    piv = _eliminate([row for b in (sub, within)
                      for _, row in b.scaled_rows.values()], full=True)
    if len(piv) != within.dim:
        i = next(i for i, v in enumerate(sub.rows) if within.reduce(v))
        raise LinalgError(f"containment violation: sub basis vector {i} "
                          f"is not in the larger subspace")
    return [ratios(row[c], row) for c, row in list(piv.items())[sub.dim:]]


class NoSolution:
    """Inconsistency certificate: y with y.m = 0 but y.b != 0."""

    __slots__ = ("row", "certificate")

    def __init__(self, row, certificate):
        self.row = row
        self.certificate = certificate

    def __bool__(self):
        return False

    def __repr__(self):
        return f"NoSolution(row {self.row})"


def solve(m, b):
    """One exact solution of m x = b for a sparse right-hand side
    b {row: value}: a sparse row {column: Fraction} with the free
    variables zero, or NoSolution.

    The NoSolution certificate y, a sparse row {row: Fraction}, satisfies
    y.m = 0 and y.b = 1: the first vector of the reduced echelon basis of
    the left kernel of m that is not orthogonal to b, scaled.
    """
    aug = list(m.num)  # row i of [num | den b], scaled to integers
    for i, x in b.items():
        if not 0 <= i < m.rows:
            raise LinalgError(f"rhs index {i} outside {m.rows} rows")
        if x:
            x *= m.den
            aug[i] = {j: x.denominator * y for j, y in aug[i].items()}
            aug[i][m.cols] = x.numerator
    piv = _eliminate(aug)
    if m.cols in piv:
        for y in kernel_basis(m.transpose()).rows:
            t = sum(x * b[i] for i, x in y.items() if i in b)
            if t:
                return NoSolution(len(piv) - 1,
                                  {i: x / t for i, x in y.items()})
    return {c: Fraction(row[m.cols], row[c])
            for c, row in _reduced(piv).items() if m.cols in row}
