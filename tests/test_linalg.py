"""Exact rational matrix routines."""

import pathlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sullivan import linalg
from sullivan.cdga import load_cdga
from sullivan.linalg import (
    LinalgError,
    RatMatrix,
    _eliminate,
    combine,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
    rref,
    solve,
    span_basis,
)


def dense(row, n):
    """The dense list of length n of a sparse row {index: value}."""
    return [row.get(j, Fraction(0)) for j in range(n)]


def sparse(vector):
    """The sparse row {index: value} of a dense list."""
    return {j: x for j, x in enumerate(vector) if x}


def vectors(basis):
    """A SubspaceBasis's rows as dense lists."""
    return [dense(r, basis.ambient) for r in basis.rows]


def apply(m, x):
    """m x as a dense list, for a sparse x."""
    return [sum((a * x.get(j, 0) for j, a in enumerate(row)), Fraction(0))
            for row in m.data]


def matrix(data, cols):
    """The RatMatrix with dense rows `data`."""
    return RatMatrix.from_rows([sparse(r) for r in data], cols)


def test_rref_dependent_rows():
    m = matrix([[1, 2], [2, 4]], 2)
    r, pivots, rank = rref(m)
    assert rank == 1
    assert pivots == [0]
    assert r.data[0] == [Fraction(1), Fraction(2)]


def test_rref_identity():
    m = RatMatrix.identity(3)
    r, pivots, rank = rref(m)
    assert r == m
    assert rank == 3


def test_rref_fractional_full_rank():
    m = matrix([[Fraction(1, 2), 1], [1, 3]], 2)
    _, _, rank = rref(m)
    assert rank == 2


def test_kernel_of_zero_map():
    m = RatMatrix([{}, {}], 3)
    k = kernel_basis(m)
    assert k.dim == 3
    assert image_basis(m).dim == 0


def test_kernel_simple():
    m = matrix([[1, 1]], 2)
    k = kernel_basis(m)
    assert vectors(k) == [[Fraction(1), Fraction(-1)]]


def test_quotient_basis_representative():
    sub = span_basis([sparse([1, 0, 0])], 3)
    within = span_basis([sparse([1, 0, 0]), sparse([0, 1, 0])], 3)
    reps = quotient_basis(sub, within)
    assert [dense(r, 3) for r in reps] == [[Fraction(0), Fraction(1),
                                            Fraction(0)]]


def test_quotient_containment_violation():
    sub = span_basis([sparse([0, 0, 1])], 3)
    within = span_basis([sparse([1, 0, 0]), sparse([0, 1, 0])], 3)
    with pytest.raises(LinalgError, match="containment"):
        quotient_basis(sub, within)


def test_solve_identity():
    m = RatMatrix.identity(3)
    b = [Fraction(5), Fraction(-1), Fraction(2, 3)]
    assert dense(solve(m, sparse(b)), 3) == b


def test_solve_zeroes_free_variables():
    m = matrix([[1, 1]], 2)
    assert dense(solve(m, sparse([2])), 2) == [Fraction(2), Fraction(0)]


def test_solve_no_solution_is_none():
    assert solve(matrix([[0]], 1), sparse([1])) is None


def test_solve_inconsistent_dependent_rows_is_none():
    m = matrix([[1, 2], [2, 4]], 2)
    assert solve(m, sparse([Fraction(1), Fraction(3)])) is None
    assert solve(m, sparse([Fraction(1), Fraction(2)])) == {0: 1}


def test_an_inconsistent_solve_eliminates_once(monkeypatch):
    """[m | b] is eliminated once; building a left-kernel certificate
    of the inconsistency took a second elimination, of the transpose."""
    calls = []

    def counted(rows, full=False):
        calls.append(full)
        return _eliminate(rows, full)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert solve(matrix([[1, 2], [2, 4]], 2), sparse([1, 3])) is None
    assert len(calls) == 1


def _random_matrix(rng, rows, cols):
    return matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)], cols)


def test_rank_nullity_sampled():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        _, _, rank = rref(m)
        assert rank + kernel_basis(m).dim == cols


def test_solve_recovers_constructed_solution():
    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = apply(m, sparse(x0))
        x = solve(m, sparse(b))
        assert x is not None
        assert apply(m, x) == b


def test_kernel_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        k = kernel_basis(m)
        for v in k.rows:
            assert all(x == 0 for x in apply(m, v))


def test_quotient_dimension_count():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(2, 6)
        vs = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
              for _ in range(rng.randint(1, n))]
        within = span_basis([sparse(v) for v in vs], n)
        k = rng.randint(0, within.dim)
        sub = span_basis(within.rows[:k], n)
        reps = quotient_basis(sub, within)
        assert len(reps) == within.dim - sub.dim


# ----- oracles the sparse kernel does not share -----
#
# A dense reference: the Fraction-row elimination that sullivan.linalg
# used before its sparse kernel, kept here unchanged in substance.

def _integerize(row):
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


def _forward_eliminate(rows, ncols):
    pivots = []
    pr = 0
    for c in range(ncols):
        sel = next((r for r in range(pr, len(rows)) if rows[r][c]), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        p = rows[pr][c]
        for r in range(pr + 1, len(rows)):
            f = rows[r][c]
            if f:
                new = [p * rows[r][j] - f * rows[pr][j] for j in range(ncols)]
                g = 0
                for v in new:
                    g = gcd(g, v)
                rows[r] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        pr += 1
        if pr == len(rows):
            break
    return pivots


def ref_rref(data, ncols):
    """(reduced rows, pivots) of a dense matrix, all rows kept."""
    rows = [_integerize([Fraction(x) for x in r]) for r in data]
    pivots = _forward_eliminate(rows, ncols)
    out = [[Fraction(x) for x in r] for r in rows]
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        out[i] = [x / out[i][c] for x in out[i]]
        for r in range(i):
            f = out[r][c]
            if f:
                out[r] = [out[r][j] - f * out[i][j] for j in range(ncols)]
    return out, pivots


def ref_span(vectors, n):
    out, pivots = ref_rref(vectors, n)
    return out[:len(pivots)]


def ref_kernel(data, ncols):
    out, pivots = ref_rref(data, ncols)
    vecs = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -out[i][f]
        vecs.append(v)
    return ref_span(vecs, ncols)


def ref_quotient(sub, within):
    """Each within vector reduced modulo sub and the earlier
    representatives, scaled to leading entry 1."""
    stack = [(v, next(j for j, x in enumerate(v) if x)) for v in sub]
    reps = []
    for w in within:
        v = list(w)
        changed = True
        while changed:
            changed = False
            for row, c in stack:
                if v[c]:
                    f = v[c] / row[c]
                    v = [a - f * b for a, b in zip(v, row)]
                    changed = True
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            v = [x / v[lead] for x in v]
            reps.append(v)
            stack.append((v, lead))
    return reps


def _domain(data, ncols):
    """The same matrix as a sympy DomainMatrix over QQ (or skip)."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r]
                         for r in data], (len(data), ncols), QQ)


def _from_domain(dm):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
            for row in dm.to_list()]


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
# the integer build's denominator is this times the lcm of the entries'
SCALES = st.integers(1, 3)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """(dense Fraction rows, column count, scale of the integer build)."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0 if rows == 0 else 1, max_cols))
    return ([draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
             for _ in range(rows)], cols, draw(SCALES))


def builds(data, cols, scale):
    """The matrix of `data` built twice: from its sparse Fraction rows, and
    from integer columns over den = scale * the lcm of its denominators,
    as the Leibniz kernel hands them over."""
    den = scale * lcm(1, *[x.denominator for r in data for x in r])
    columns = [{i: int(r[j] * den) for i, r in enumerate(data) if r[j]}
               for j in range(cols)]
    built = [matrix(data, cols),
             RatMatrix.from_columns(columns, len(data), den)]
    assert built[1].den == den
    for m in built:
        assert (m.rows, m.cols) == (len(data), cols)
        assert all(type(x) is int and x for r in m.num for x in r.values())
        assert m.data == [[Fraction(x) for x in r] for r in data]
        assert m.columns() == [
            {i: Fraction(r[j]) for i, r in enumerate(data) if r[j]}
            for j in range(cols)]
    assert built[0] == built[1]
    return built


EXAMPLES = [([], 3, 1), ([[Fraction(0)] * 4] * 3, 4, 2),
            ([[Fraction(2), Fraction(-1, 2), Fraction(0)]], 3, 3),
            ([[Fraction(3)], [Fraction(0)], [Fraction(-1, 3)]], 1, 2)]


def examples(f):
    for data in EXAMPLES:
        f = example(data)(f)
    return f


@settings(max_examples=150, deadline=None)
@given(matrices())
@examples
def test_rref_and_rank_match_dense_reference_and_sympy(mc):
    data, cols, scale = mc
    want, want_pivots = ref_rref(data, cols)
    dm = _domain(data, cols)
    sym, sym_pivots = dm.rref()
    for m in builds(data, cols, scale):
        red, pivots, rk = rref(m)
        assert (red.data, pivots, rk) == (want, want_pivots, len(want_pivots))
        assert rank(m) == rk
        assert list(sym_pivots) == pivots and dm.rank() == rk
        assert _from_domain(sym) == red.data


@settings(max_examples=150, deadline=None)
@given(matrices())
@examples
def test_kernel_and_image_match_dense_reference_and_sympy(mc):
    data, cols, scale = mc
    dm = _domain(data, cols)
    null = dm.nullspace()
    sym_kernel = _from_domain(null) if null.shape[0] else []
    transposed = [list(c) for c in zip(*data)] if data else []
    for m in builds(data, cols, scale):
        kernel, image = kernel_basis(m), image_basis(m)
        assert vectors(kernel) == ref_kernel(data, cols)
        assert vectors(image) == ref_span(transposed, len(data))
        assert vectors(kernel) == ref_span(sym_kernel, cols)
        assert kernel.dim == cols - dm.rank()
        assert image.dim == dm.rank()
        for v in kernel.rows:
            assert not any(apply(m, v))


@settings(max_examples=150, deadline=None)
@given(matrices())
@examples
def test_eliminate_keeps_primitive_rows_positive_at_their_pivots(mc):
    """The elimination kernel's contract, with and without `full`: one
    kept row per unit of rank, each primitive and positive at its
    pivot, its leftmost column; the matrix's rows are left as they
    are."""
    data, cols, scale = mc
    for m in builds(data, cols, scale):
        before = [dict(r) for r in m.num]
        for full in (False, True):
            piv = _eliminate(m.num, full)
            assert len(piv) == len(ref_span(data, cols))
            for c, row in piv.items():
                assert min(row) == c and row[c] > 0
                assert gcd(*row.values()) == 1
        assert m.num == before


@st.composite
def quotient_cases(draw):
    """A matrix whose rows span `within`, and integer combinations of
    within's basis spanning `sub`."""
    data, cols, scale = draw(matrices())
    dim = span_basis([sparse(r) for r in data], cols).dim
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim,
                                    max_size=dim), max_size=dim))
    return data, cols, scale, combos


@settings(max_examples=150, deadline=None)
@given(quotient_cases())
@example(([], 3, 1, []))
@example(([[Fraction(0)] * 4] * 3, 4, 2, []))
@example((EXAMPLES[2][0], 3, 3, [[1]]))
@example(([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]], 2, 2,
          [[0, 1]]))
def test_quotient_matches_dense_reference_and_sympy(case):
    """`within` spanned by the matrix's rows, and (built from integer
    columns) as the column space of its transpose."""
    data, cols, scale, combos = case
    transposed = [list(c) for c in zip(*data)] if data else [[]] * cols
    for within in [span_basis([sparse(r) for r in data], cols),
                   *map(image_basis, builds(transposed, len(data), scale))]:
        sub_vs = [[sum(a * v[j] for a, v in zip(co, vectors(within)))
                   for j in range(cols)] for co in combos]
        sub = span_basis([sparse(v) for v in sub_vs], cols)
        reps = [dense(r, cols) for r in quotient_basis(sub, within)]
        assert reps == ref_quotient(ref_span(sub_vs, cols),
                                    ref_span(data, cols))
        assert len(reps) == within.dim - sub.dim
        # sub and the representatives together span within
        both = vectors(sub) + reps
        assert ref_span(both, cols) == vectors(within)
        assert _domain(both, cols).rank() == within.dim


@st.composite
def systems(draw):
    data, cols, scale = draw(matrices())
    return data, cols, scale, draw(st.lists(ENTRIES, min_size=len(data),
                                            max_size=len(data)))


@settings(max_examples=150, deadline=None)
@given(systems())
@example(([], 3, 1, []))
@example(([[Fraction(0)] * 4] * 3, 4, 2, [Fraction(0), Fraction(1), 0]))
@example((EXAMPLES[2][0], 3, 3, [Fraction(5)]))
@example((EXAMPLES[3][0], 1, 2, [Fraction(1), Fraction(1), Fraction(0)]))
@example(([[Fraction(1, 2)]], 1, 3, [Fraction(1, 5)]))
def test_solve_matches_dense_reference_and_sympy(case):
    data, cols, scale, b = case
    aug = [r + [Fraction(bi)] for r, bi in zip(data, b)]
    red, pivots = ref_rref(aug, cols + 1)
    consistent = cols not in pivots
    assert consistent == (_domain(aug, cols + 1).rank()
                          == _domain(data, cols).rank())
    for m in builds(data, cols, scale):
        x = solve(m, sparse(b))
        if consistent:
            want = [Fraction(0)] * cols
            for i, c in enumerate(pivots):
                want[c] = red[i][cols]
            assert dense(x, cols) == want
            assert apply(m, x) == b
        else:
            assert x is None


def test_solve_rejects_rhs_index_outside_rows():
    m = RatMatrix.identity(2)
    for i in (2, -1):
        with pytest.raises(LinalgError, match="rhs index"):
            solve(m, {i: Fraction(1)})


def ref_combine(coeffs, rows):
    """sum of c * rows[k] in plain Fraction arithmetic, zeros dropped."""
    total = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            total[j] = total.get(j, Fraction(0)) + c * x
    return {j: x for j, x in total.items() if x}


COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))
NONZERO = st.builds(Fraction, st.sampled_from([i for i in range(-6, 7) if i]),
                    st.integers(1, 4))
ROWS = st.dictionaries(st.integers(0, 7), NONZERO, max_size=6)


@st.composite
def combinations(draw):
    """Sparse rows (some empty) and coefficients (some zero or negative),
    with a negated copy of row 0 at the same coefficient when asked, so
    that the sum cancels."""
    rows = draw(st.lists(ROWS, max_size=5))
    coeffs = draw(st.dictionaries(st.integers(0, len(rows) - 1), COEFFS,
                                  max_size=5)) if rows else {}
    if rows and draw(st.booleans()):
        rows.append({j: -x for j, x in rows[0].items()})
        coeffs[0] = coeffs[len(rows) - 1] = draw(COEFFS)
    return coeffs, rows


@settings(max_examples=200, deadline=None)
@given(combinations())
@example(({}, []))
@example(({0: 2, 1: 0}, [{}, {0: Fraction(1, 3)}]))
@example(({0: 1, 1: -1}, [{0: Fraction(1, 2), 1: Fraction(1, 3)},
                          {0: Fraction(1, 2), 2: Fraction(-5, 4)}]))
@example(({0: Fraction(-2, 3), 1: Fraction(1, 6)},
          [{0: Fraction(1, 4), 3: Fraction(3)}, {0: Fraction(1), 3: 12}]))
def test_combine_matches_fraction_sum(case):
    coeffs, rows = case
    got = combine(coeffs, rows)
    assert got == ref_combine(coeffs, rows)
    assert all(type(x) is Fraction and x for x in got.values())


ENTRIES = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-3, 3),
                    NONZERO)


@st.composite
def column_lists(draw):
    """(sparse columns, row count): zeros, ints and Fractions as values,
    some columns empty."""
    n = draw(st.integers(0, 6))
    col = (st.dictionaries(st.integers(0, n - 1), ENTRIES, max_size=n)
           if n else st.just({}))
    return draw(st.lists(col, max_size=6)), n


@settings(max_examples=200, deadline=None)
@given(column_lists())
@example(([], 0))
@example(([{}, {2: 0, 0: Fraction(0)}, {1: 3}], 3))
def test_from_columns_matches_the_transposed_rows(case):
    cols, n = case
    got = RatMatrix.from_columns(cols, n)
    assert got == RatMatrix.from_rows(cols, n).transpose()
    assert (got.rows, got.cols) == (n, len(cols))
    assert all(type(x) is int and x for row in got.num
               for x in row.values())
    assert got.columns() == [{i: Fraction(x) for i, x in col.items() if x}
                             for col in cols]


DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
# top degree of each file in the README commands; -N 12 otherwise
README_DEGREE = {"nonformal": 12, "h_cp2": 12, "model_s3": 20,
                 "model_s2": 12, "elliptic6": 40}


@pytest.mark.parametrize("path", sorted(DATA.glob("*.cdga")),
                         ids=lambda p: p.stem)
def test_rank_only_h_dim_matches_representatives(path):
    c = load_cdga(path)
    top = README_DEGREE.get(path.stem, 12)
    dims = [c.h_dim(k) for k in range(top + 1)]  # ranks only
    assert not c._h_cache
    assert dims == [len(c.h_representatives(k)) for k in range(top + 1)]
