"""Exact linear algebra over the rationals, on sparse rows.

Vectors go in and out as sparse rows {index: Fraction} of their nonzero
entries; `combine` sums multiples of them fraction-free.  A `RatMatrix`
keeps such rows, and builds its dense `data` only when read.  One kernel
does all elimination: rows become primitive integer rows {column: int}
that `_eliminate` cancels in turn, fraction-free, against the pivot rows
kept so far (pivot: leftmost nonzero column, taken by the first row
there).  `rank` counts the kept rows and makes no Fraction.  `_reduced`
back-substitutes to the reduced echelon form (rows up to scale) for
`rref`, `span_basis`, `image_basis`, `kernel_basis` and `solve`, which
make Fractions only for the rows they return.  `quotient_basis` clears
every kept pivot of each new row instead.

The reduced echelon basis of a subspace is unique, so every result but
the NoSolution certificate is independent of the elimination order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_SMALL = {k: Fraction(k) for k in (-2, -1, 1, 2)}  # shared coefficients


class LinalgError(ValueError):
    pass


def _sparse(row):
    """Copy of a sparse row {index: value}: Fraction values, zeros dropped."""
    return {j: x if type(x) is Fraction else Fraction(x)
            for j, x in row.items() if x}


def scaled(row):
    """A sparse rational row as (d, {index: integer numerator over d})."""
    den = lcm(*[x.denominator for x in row.values()])
    return den, {j: x.numerator * (den // x.denominator)
                 for j, x in row.items()}


def ratio(num, den):
    """num/den as a Fraction (integers, den > 0); the values -2..2, nearly
    all matrix entries, share one Fraction each."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else _SMALL.get(q) or Fraction(q)


def combine(coeffs, rows, prescaled=False):
    """Sparse sum of c * rows[k] over the coefficients {k: c}, fraction-free:
    the rows, read as `scaled` (or kept so, when `prescaled`), are summed
    in integers over one common denominator, and one `ratio` is made per
    nonzero entry of the sum.  An entry that cancels is left out."""
    terms = [(c.numerator, c.denominator,
              *(rows[k] if prescaled else scaled(rows[k])))
             for k, c in coeffs.items() if c]
    common = lcm(*[den * row_den for _, den, row_den, _ in terms])
    acc = {}
    for num, den, row_den, row in terms:
        f = num * (common // (den * row_den))
        for j, x in row.items():
            acc[j] = acc.get(j, 0) + f * x
    return {j: ratio(v, common) for j, v in acc.items() if v}


class RatMatrix:
    """Exact rational matrix kept as sparse rows {column: Fraction}."""

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, data, cols=None):
        """From dense rows (lists of numbers)."""
        data = [list(r) for r in data]
        if len({len(r) for r in data}) > 1:
            raise LinalgError("ragged rows")
        self.rows, self.cols = len(data), len(data[0]) if data else cols or 0
        self.sparse = [_sparse(dict(enumerate(r))) for r in data]

    @classmethod
    def from_rows(cls, rows, cols):
        """From sparse rows {column: value}."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.sparse = len(rows), cols, [_sparse(r) for r in rows]
        return m

    @classmethod
    def from_columns(cls, columns, rows):
        """From sparse columns {row: value}, in one pass."""
        m = cls.zero(rows, len(columns))
        for j, col in enumerate(columns):
            for i, x in col.items():
                if x:
                    m.sparse[i][j] = x if type(x) is Fraction else Fraction(x)
        return m

    @staticmethod
    def zero(rows, cols):
        return RatMatrix.from_rows([{}] * rows, cols)

    @staticmethod
    def identity(n):
        return RatMatrix.from_rows([{i: 1} for i in range(n)], n)

    @property
    def data(self):
        """Dense rows, built on each read."""
        return [[row.get(j, _ZERO) for j in range(self.cols)]
                for row in self.sparse]

    def columns(self):
        """Sparse columns {row: Fraction}."""
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row.items():
                out[j][i] = x
        return out

    def transpose(self):
        return RatMatrix.from_rows(self.columns(), self.rows)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.sparse == other.sparse)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix[{self.rows}x{self.cols}: {body}]"


# ----- the elimination kernel -----

def _int_row(row):
    """Primitive integer row proportional to a sparse rational row."""
    den = lcm(*[x.denominator for x in row.values()])
    out = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


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
    """Forward pass over sparse integer rows (consumed), in order: each
    is cancelled at its leftmost column while a kept row has its pivot
    there (with `full`, at every kept pivot, leftmost first), and what
    is left is kept, primitive with a positive leading entry, under its
    leftmost column.  Returns {pivot: row} in the order kept."""
    piv = {}
    for v in rows:
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
    first: [(pivot, row)] in pivot order, the reduced echelon form with
    each row up to its (positive) pivot entry."""
    order = sorted(piv)
    for c in reversed(order):
        row = piv[c]
        for j in [j for j in row if j != c and j in piv]:
            row = _cancel(row, piv[j], j)
        piv[c] = row
    return [(c, piv[c]) for c in order]


def _echelon(rows):
    """[(pivot, row)]: the reduced echelon form of sparse rational rows,
    each row 1 at its pivot."""
    red = _reduced(_eliminate([_int_row(r) for r in rows if r]))
    return [(c, {j: Fraction(x, row[c]) for j, x in row.items()})
            for c, row in red]


def rank(m):
    """Rank of a RatMatrix, from one forward pass."""
    return len(_eliminate([_int_row(r) for r in m.sparse if r]))


def rref(m):
    """Reduced row echelon form: (RatMatrix, pivot columns, rank)."""
    red = _echelon(m.sparse)
    rows = [row for _, row in red] + [{}] * (m.rows - len(red))
    return RatMatrix.from_rows(rows, m.cols), [c for c, _ in red], len(red)


class SubspaceBasis:
    """Subspace given by its reduced echelon basis: sparse rows
    {column: Fraction}, each 1 at its pivot column."""

    __slots__ = ("ambient", "rows", "pivots", "_by_pivot")

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._by_pivot = dict(zip(pivots, rows))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of a sparse row v modulo the subspace, as a sparse
        {column: Fraction}: its pivot coordinates eliminated."""
        coeffs = {c: -x for c, x in v.items() if c in self._by_pivot}
        if not coeffs:
            return _sparse(v)
        return combine({-1: 1, **coeffs}, {-1: v, **self._by_pivot})

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient})"


def span_basis(vectors, ambient):
    """Canonical SubspaceBasis spanned by sparse rows."""
    red = _echelon([_sparse(v) for v in vectors])
    return SubspaceBasis(ambient, [row for _, row in red],
                         [c for c, _ in red])


def kernel_basis(m):
    """Canonical basis of {v : m v = 0}.

    With the columns of m reversed, the free-variable vector of a free
    column f is 1 at f and nonzero elsewhere only at pivots before f;
    back in the original order, these are the reduced echelon basis."""
    n = m.cols
    red = dict(_echelon([{n - 1 - j: x for j, x in r.items()}
                         for r in m.sparse]))
    rows = {f: {n - 1 - f: Fraction(1)}
            for f in range(n - 1, -1, -1) if f not in red}
    for c, row in red.items():
        for j, x in row.items():
            if j != c:
                rows[j][n - 1 - c] = -x
    return SubspaceBasis(n, list(rows.values()), [n - 1 - f for f in rows])


def image_basis(m):
    """Canonical basis of the column space."""
    return span_basis(m.columns(), m.rows)


def quotient_basis(sub, within):
    """Coset representatives spanning within/sub, as sparse rows.

    Representatives are drawn from `within`'s echelon vectors, in order,
    each reduced modulo `sub` and the representatives before it and
    scaled to leading entry 1; their count is dim(within) - dim(sub).
    """
    if sub.ambient != within.ambient:
        raise LinalgError("ambient dimensions differ")
    piv = _eliminate(map(_int_row, sub.rows + within.rows), full=True)
    if len(piv) != within.dim:
        i = next(i for i, v in enumerate(sub.rows) if within.reduce(v))
        raise LinalgError(f"containment violation: sub basis vector {i} "
                          f"is not in the larger subspace")
    return [{j: Fraction(x, row[c]) for j, x in row.items()}
            for c, row in list(piv.items())[sub.dim:]]


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
    aug = [dict(r) for r in m.sparse]
    for i, x in b.items():
        if not 0 <= i < m.rows:
            raise LinalgError(f"rhs index {i} outside {m.rows} rows")
        if x:
            aug[i][m.cols] = Fraction(x)
    piv = _eliminate([_int_row(r) for r in aug if r])
    if m.cols in piv:
        for y in kernel_basis(m.transpose()).rows:
            t = sum(x * b[i] for i, x in y.items() if i in b)
            if t:
                return NoSolution(len(piv) - 1,
                                  {i: x / t for i, x in y.items()})
    x = {}
    for c, row in _reduced(piv):
        if m.cols in row:
            x[c] = Fraction(row[m.cols], row[c])
    return x
