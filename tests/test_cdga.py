"""CDGA validation, cohomology, morphisms, tensor/fibered products,
word-length quotients, and the file format."""

import pathlib
import random
from fractions import Fraction

import pytest

from sullivan.catalog import (
    cp_cohomology,
    cp_model,
    elliptic_six,
    nonformal_model,
    sphere_cohomology,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import (
    Cdga,
    CdgaError,
    CdgaFileError,
    CdgaMorphism,
    check_quasi_iso,
    fibered_product_augmented,
    format_cdga,
    load_cdga,
    parse_cdga_file,
    tensor_product,
    word_length_quotient,
)
from sullivan import linalg
from sullivan.graded import AlgElement, Derivation, FreeAlgebra
from sullivan.linalg import rank

from helpers import identity_morphism

ROOT = pathlib.Path(__file__).resolve().parent.parent


def all_fixtures():
    return [
        sphere_model(2), sphere_model(3), sphere_model(4),
        cp_model(2), cp_model(3),
        nonformal_model(), elliptic_six(),
        sphere_cohomology(2), cp_cohomology(2),
    ]


def test_validate_accepts_even_sphere():
    assert sphere_model(2).validate() == []


def test_validate_accepts_nonformal():
    assert nonformal_model().validate() == []


def test_validate_catches_broken_differential():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    d = Derivation(alg, +1, {"z": alg.parse("y^2"), "y": alg.parse("z")})
    c = Cdga("bad", alg, d, check=False)
    defects = c.validate()
    assert any("d^2 y = y^2" in msg for msg in defects)
    with pytest.raises(CdgaError):
        Cdga("bad", alg, d)


def test_validate_catches_a_relation_span_that_d_leaves():
    """d y = x^2 leaves the span of the relation y, which has nothing in
    degree 4."""
    with pytest.raises(CdgaError) as exc:
        Cdga.build("bad", [("x", 2), ("y", 3)], {"y": "x^2"}, ["y"])
    assert str(exc.value) == ("bad: d does not preserve the relation span: "
                              "d(y) = x^2")
    alg = FreeAlgebra.build([("x", 2), ("y", 3)])
    c = Cdga("bad", alg, Derivation(alg, +1, {"y": alg.parse("x^2")}),
             relations=[alg.parse("y")], check=False)
    assert c.validate() == [
        "d does not preserve the relation span: d(y) = x^2"]


def test_d_squared_zero_on_all_fixture_bases():
    for c in all_fixtures():
        for k in range(0, 10):
            for i in range(c.dim(k)):
                e = c.element(k, {i: 1})
                assert c.d(c.d(e)).is_zero()


def test_element_rejects_coordinate_outside_basis():
    c = sphere_cohomology(2)
    assert c.dim(2) == 1
    assert c.element(2, {0: 3}) == c.algebra.parse("3*y")
    for i in (1, -1):
        with pytest.raises(CdgaError, match="outside the degree-2 basis"):
            c.element(2, {i: 1})


def test_element_takes_fraction_coordinates_as_they_are():
    """A Fraction coordinate goes into the element itself, not a copy of
    it; an int coordinate becomes a Fraction."""
    c = sphere_cohomology(2)
    half = Fraction(1, 2)
    [kept] = c.element(2, {0: half}).terms.values()
    [made] = c.element(2, {0: 3}).terms.values()
    assert kept is half
    assert type(made) is Fraction and made == 3


def test_nonformal_cohomology_table():
    c = nonformal_model()
    rep = c.cohomology(12)
    assert rep.dims == [1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 0]
    # degree-8 classes are uw and vw, degree-11 class is uvw
    reps8 = rep.representatives[8]
    assert {str(r) for r in reps8} == {"u*w", "v*w"}
    assert [str(r) for r in rep.representatives[11]] == ["u*v*w"]


def test_odd_sphere_cohomology():
    rep = sphere_model(3).cohomology(7)
    assert rep.dims == [1, 0, 0, 1, 0, 0, 0, 0]


def test_even_sphere_model_cohomology():
    rep = sphere_model(2).cohomology(8)
    assert rep.dims == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_quotient_presentation_cohomology():
    rep = sphere_cohomology(2).cohomology(6)
    assert rep.dims == [1, 0, 1, 0, 0, 0, 0]
    rep = cp_cohomology(3).cohomology(8)
    assert rep.dims == [1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_relation_quotient_dims_take_no_back_substitution(monkeypatch):
    """The relation span's pivots come from one forward pass, so `dim`
    back-substitutes nothing; its rows are reduced at the first `reduce`
    in a degree, and only there."""
    c, calls = cp_cohomology(3), []
    original = linalg._reduced
    monkeypatch.setattr(linalg, "_reduced",
                        lambda piv: calls.append(piv) or original(piv))
    assert [c.dim(k) for k in range(13)] == [1, 0] * 4 + [0] * 5
    assert calls == []
    u4 = c.algebra.parse("u^4")
    assert c.reduce(u4).is_zero() and c.reduce(u4.scale(3)).is_zero()
    assert len(calls) == 1


def test_a_quotient_basis_monomial_is_projected_from_the_index(
        monkeypatch):
    """Modulo a*b = a^2, the degree-4 span has one pivot, a*b (leftmost
    in the basis order b^2, a*b, a^2): b^2 and a^2 are their own
    representatives, read off the quotient index with no `_reduced` call;
    a*b goes to a^2 through the reduced row, with one."""
    c = Cdga.build("q", [("a", 2), ("b", 2)], relation_strings=["a^2 - a*b"])
    calls = []
    original = linalg._reduced
    monkeypatch.setattr(linalg, "_reduced",
                        lambda piv: calls.append(piv) or original(piv))
    a2, ab, b2 = (c.algebra.parse(s) for s in ("a^2", "a*b", "b^2"))
    assert c.basis(4) == [next(iter(b2.terms)), next(iter(a2.terms))]
    for x in (a2, b2.scale(3), a2 - b2):
        assert c.reduce(x) == x
    assert calls == []
    assert c.reduce(ab.scale(2) + b2) == a2.scale(2) + b2
    assert len(calls) == 1


@pytest.mark.parametrize("build, images, x, want", [
    (lambda: wedge_cohomology(2, 3), {"s": "y", "t": "2*x"},
     "s^2 + s*t + 1/2*t", "x"),
    (lambda: word_length_quotient(elliptic_six(), 2)[0],
     {"s": "a", "t": "-x"}, "1/3*s*t + s^2*t + s", "-1/3*a*x + a"),
], ids=["relations", "word cap"])
def test_morphisms_into_quotients_call_no_reduce(monkeypatch, build, images,
                                                 x, want):
    """`CdgaMorphism.apply` projects each image monomial in the one
    `memo_linear` chain that extends the images, so a map into a relation
    quotient or a word-capped one calls `Cdga.reduce` zero times."""
    target = build()
    source = Cdga.build("src", [("s", 2), ("t", 3)])
    phi = CdgaMorphism(source, target, {
        g: target.algebra.parse(e) for g, e in images.items()})
    calls = []
    original = Cdga.reduce
    monkeypatch.setattr(Cdga, "reduce",
                        lambda self, e: calls.append(e) or original(self, e))
    assert phi.apply(source.algebra.parse(x)) == target.algebra.parse(want)
    assert calls == []


def test_kernel_rows_take_no_back_substitution(monkeypatch):
    """`kernel_basis` builds its rows reduced already, so reading them, as
    integers or as Fractions, back-substitutes nothing; they are the
    reduced echelon basis all the same."""
    c = elliptic_six()
    kernels = [linalg.kernel_basis(c.diff_matrix(k)) for k in range(12)]
    assert sum(z.dim for z in kernels) > 10
    calls = []
    original = linalg._reduced
    monkeypatch.setattr(linalg, "_reduced",
                        lambda piv: calls.append(piv) or original(piv))
    rows = [(list(z.scaled_rows), z.rows) for z in kernels]
    assert calls == []
    for z, (pivots, fractions) in zip(kernels, rows):
        assert pivots == z.pivots
        assert fractions == linalg.span_basis(fractions, z.ambient).rows


def test_a_free_cdga_reads_one_basis_table(monkeypatch):
    """Without relations the quotient basis is the free basis, kept in one
    table: after a degree's first read, `basis`, `dim`, `coords` and the
    differential read it without calling `free_basis` again."""
    c, calls = elliptic_six(), []
    original = Cdga.free_basis
    monkeypatch.setattr(Cdga, "free_basis",
                        lambda self, k: calls.append(k) or original(self, k))
    dims = [c.dim(k) for k in range(12)]
    assert calls == list(range(12))
    calls.clear()
    for k in range(11):
        assert len(c.basis(k)) == c.dim(k) == dims[k]
        assert c.diff_matrix(k).cols == dims[k]
        if dims[k]:
            assert c.coords(c.element(k, {dims[k] - 1: 2}), k) == {
                dims[k] - 1: 2}
    assert calls == []


def _chain_text(n):
    """A presentation with n `diff` lines: d y_i = x_i^2 + x_(i-1) x_i."""
    gens = "".join(f"gen x{i} 2\ngen y{i} 3\n" for i in range(n))
    diffs = "".join(f"diff y{i} = x{i}^2" + (f" + x{i - 1}*x{i}" if i else "")
                    + "\n" for i in range(n))
    return f"cdga chain\n{gens}{diffs}"


@pytest.mark.parametrize("text, images", [
    ((ROOT / "data" / "elliptic6.cdga").read_text(encoding="utf-8"), 4),
    (_chain_text(400), 400)], ids=["elliptic6", "chain400"])
def test_parsing_a_file_builds_d_once_and_checks_each_image_once(
        monkeypatch, text, images):
    """The parser makes one `Derivation`, which reads the `diff` lines one
    at a time, so the rows that the parse's derivations hold are one per
    image: the work is linear in the number of lines.  Growing d a line at
    a time with `extended` made one derivation per line, each holding
    every row before it.  The scaling pass checks each image's degree term
    by term, so no element is asked for its degree in a separate pass."""
    made, degrees = [], []
    init, degree = Derivation.__init__, AlgElement.degree
    monkeypatch.setattr(Derivation, "__init__", lambda self, alg, shift, ims:
                        made.append(self) or init(self, alg, shift, ims))
    monkeypatch.setattr(AlgElement, "degree", lambda self:
                        degrees.append(self) or degree(self))
    got = parse_cdga_file(text, check=False)
    assert len(made) == 1 and made[0] is got.differential
    assert sum(len(d._scaled) for d in made) == images
    assert degrees == []


def test_a_parsed_file_has_the_differential_built_at_once():
    assert load_cdga(ROOT / "data" / "elliptic6.cdga").differential \
        == elliptic_six().differential
    got = parse_cdga_file(_chain_text(30)).differential
    alg = got.algebra
    assert got == Derivation(alg, +1, {
        f"y{i}": alg.parse(f"x{i}^2" + (f" + x{i - 1}*x{i}" if i else ""))
        for i in range(30)})


@pytest.mark.parametrize("build, k", [
    (elliptic_six, 5), (lambda: wedge_cohomology(2, 3), 4),
    (lambda: cp_model(3), 4)], ids=["elliptic_six", "h_s2_v_s3", "cp3"])
def test_h_dim_reads_the_ranks_representatives_learned(monkeypatch, build, k):
    """Choosing H^k representatives ranks d_k and d_(k-1) on the way, so
    `h_dim(k)` ranks nothing more and `h_dim(k + 1)` ranks d_(k+1) alone."""
    want = build().h_dim(k + 1)
    c, calls = build(), []
    original = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda m: calls.append(m) or original(m))
    reps = c.h_basis(k)
    assert c.h_dim(k) == len(reps) and len(calls) == 0
    assert c.h_dim(k + 1) == want and len(calls) == 1


def test_euler_identity_dims_vs_ranks():
    # dim H^k = dim A^k - rank d^k - rank d^(k-1), exactly
    from sullivan.linalg import rref
    for c in all_fixtures():
        for k in range(0, 9):
            rk = rref(c.diff_matrix(k))[2]
            rk_prev = rref(c.diff_matrix(k - 1))[2] if k else 0
            assert c.h_dim(k) == c.dim(k) - rk - rk_prev


def test_identity_is_quasi_iso_on_fixtures():
    for c in all_fixtures():
        assert check_quasi_iso(identity_morphism(c), 8).ok


def test_even_sphere_model_to_cohomology_quasi_iso():
    m = sphere_model(2)
    h = sphere_cohomology(2)
    phi = CdgaMorphism(m, h, {"y": h.algebra.gen_elem("y")})
    assert check_quasi_iso(phi, 10).ok


def test_inclusion_fails_quasi_iso_at_degree_four():
    base = Cdga.build("poly-y", [("y", 2)])
    m = sphere_model(2)
    phi = CdgaMorphism(base, m, {"y": m.algebra.gen_elem("y")})
    rep = check_quasi_iso(phi, 4)
    assert not rep.ok
    row = rep.table[4]
    assert row["source_dim"] == 1 and row["rank"] == 0


def _assert_carries_ranks_below(old, new, degree):
    """`new` holds every rank of d_k that `old` had for k below the degree
    of its new generators, and only those, each the rank of its own d_k."""
    assert set(new._rank_cache) == {k for k in old._rank_cache if k < degree}
    for k, r in new._rank_cache.items():
        assert r == rank(new.diff_matrix(k))


def test_extension_carries_the_matrices_it_is_asked_for():
    """Every differential matrix of an extension, carried over or built
    afresh, is the one a CDGA built from scratch on the same data has;
    the ranks below the new degree come along unchanged."""
    base = nonformal_model()
    for k in range(12):
        base.diff_matrix(k)
        base.h_dim(k)
    ext = base.extend([("t", 4)], {}, carry=range(12))
    _assert_carries_ranks_below(base, ext, 4)
    for k in range(12):
        ext.diff_matrix(k)
        ext.h_dim(k)
    t = ext.algebra.gen_elem("t")
    old, ext = ext, ext.extend([("s", 7)], {"s": t * t}, carry=range(3, 9))
    _assert_carries_ranks_below(old, ext, 7)
    assert ext._rank_cache[5] == 1  # d w = uv
    fresh = Cdga("fresh", ext.algebra, ext.differential)
    assert ext.differential.image_of("s").terms == (t * t).terms
    for k in range(12):
        assert ext.diff_matrix(k) == fresh.diff_matrix(k)
    with pytest.raises(CdgaError, match="free"):
        sphere_cohomology(2).extend([("t", 3)], {})


def test_morphism_rejects_non_chain_map():
    m = sphere_model(2)
    # dropping z in an endomorphism of the free model breaks phi(dz) = d(phi z)
    with pytest.raises(CdgaError, match="chain map"):
        CdgaMorphism(m, m, {"y": m.algebra.gen_elem("y")})
    h = sphere_cohomology(2)
    with pytest.raises(CdgaError, match="degree"):
        CdgaMorphism(m, h, {"z": h.algebra.gen_elem("y")})


def test_tensor_product_two_odd_spheres():
    t, ia, ib = tensor_product(sphere_model(3), sphere_model(3))
    rep = t.cohomology(6)
    assert rep.dims == [1, 0, 0, 2, 0, 0, 1]
    assert ia.apply(sphere_model(3).algebra.gen_elem("x")).degree() == 3


def test_tensor_unit():
    unit = Cdga.build("Q", [])
    t, _, _ = tensor_product(sphere_model(2), unit)
    assert t.cohomology(6).dims == sphere_model(2).cohomology(6).dims


def test_tensor_kunneth_s2_s3():
    t, _, _ = tensor_product(sphere_model(2), sphere_model(3))
    rep = t.cohomology(5)
    assert rep.dims[5] == 1
    assert rep.dims == [1, 0, 1, 1, 0, 1]


def test_kunneth_random_pairs():
    rng = random.Random(31)
    pool = [sphere_model(2), sphere_model(3), sphere_model(4), cp_model(2)]
    for _ in range(6):
        a = rng.choice(pool)
        b = rng.choice(pool)
        t, _, _ = tensor_product(a, b)
        ra, rb, rt = a.cohomology(8), b.cohomology(8), t.cohomology(8)
        for n in range(9):
            expect = sum(ra.dims[p] * rb.dims[n - p] for p in range(n + 1))
            assert rt.dims[n] == expect


def test_fibered_product_wedge_s2_s3():
    w = wedge_cohomology(2, 3)
    rep = w.cohomology(6)
    assert rep.dims == [1, 0, 1, 1, 0, 0, 0]


def test_fibered_product_single_factor():
    c = sphere_cohomology(2)
    assert fibered_product_augmented([c]) is c


def test_products_refuse_word_capped_factors():
    q, _ = word_length_quotient(sphere_model(3), 1)
    with pytest.raises(CdgaError, match="word-capped"):
        tensor_product(q, sphere_model(2))
    with pytest.raises(CdgaError, match="word-capped"):
        tensor_product(sphere_model(2), q)
    with pytest.raises(CdgaError, match="word-capped"):
        fibered_product_augmented([sphere_model(2), q])


def test_fibered_product_cross_terms_vanish():
    w = wedge_cohomology(2, 2)
    assert w.cohomology(4).dims == [1, 0, 2, 0, 0]
    g1 = w.algebra.gen_elem("y")
    g2 = w.algebra.gen_elem("y_2")
    assert w.mult(g1, g2).is_zero()
    assert not w.mult(g1, g1).is_zero() or True  # y^2 = 0 in H*(S2) too
    assert w.mult(g1, g1).is_zero()


def test_word_length_quotient_odd_sphere_unchanged():
    c = sphere_model(3)
    q, proj = word_length_quotient(c, 1)
    assert q.cohomology(7).dims == c.cohomology(7).dims
    assert check_quasi_iso(proj, 7).ok


def test_word_length_quotient_even_sphere():
    c = sphere_model(2)
    q, proj = word_length_quotient(c, 1)
    # (Q + Qy + Qz, 0): dims 1,0,1,1 and zero differential
    assert [q.dim(k) for k in range(4)] == [1, 0, 1, 1]
    assert q.d(q.algebra.gen_elem("z")).is_zero()
    assert q.cohomology(5).dims == [1, 0, 1, 1, 0, 0]


def test_word_length_quotient_large_cap_is_identity_range():
    c = cp_model(2)
    q, _ = word_length_quotient(c, 40)
    assert q.cohomology(10).dims == c.cohomology(10).dims


def test_word_cap_validates_d_squared():
    for n in (1, 2, 3):
        q, _ = word_length_quotient(elliptic_six(), n)
        assert q.validate() == []


def test_file_roundtrip():
    c = elliptic_six()
    text = format_cdga(c)
    c2 = parse_cdga_file(text)
    assert [g.name for g in c2.algebra.generators] == \
        [g.name for g in c.algebra.generators]
    assert c2.differential == c.differential
    assert c2.cohomology(8).dims == c.cohomology(8).dims


def test_file_errors_carry_line_numbers():
    with pytest.raises(CdgaFileError, match=":3:"):
        parse_cdga_file("cdga t\ngen y 2\ngen y 2\n", filename="f")
    with pytest.raises(CdgaFileError, match=":2:"):
        parse_cdga_file("cdga t\ndiff y (no equals)\n", filename="f")
    with pytest.raises(CdgaFileError, match="declared"):
        parse_cdga_file("cdga t\ngen y 2\nrel 6 : y^2\n", filename="f")
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file("cdga t\n# y\n\ngen y 0\n", filename="f")
    assert str(exc.value) == "f:4: generator y has degree 0"


def test_a_file_whose_d_squares_to_nonzero_is_refused_at_line_1():
    """d^2 is a property of the whole presentation, so it is named at the
    header line."""
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file("cdga bad\ngen a 3\ngen b 4\ngen c 5\n"
                        "diff a = b\ndiff b = c\n", filename="f")
    assert str(exc.value) == "f:1: bad: d^2 a = c != 0"
    assert exc.value.line == 1


def test_zero_relation_is_named_at_its_line():
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file("cdga t\ngen x 3\nrel 6 : x^2\n", filename="f")
    assert str(exc.value) == "f:3: relation is zero"
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file("cdga t\ngen y 2\n\nrel 4 : 0\n", filename="f")
    assert str(exc.value) == "f:4: relation is zero"


# a comment and a blank line first, so that line 1 would be wrong
WRONG_DEGREE_DIFF = "cdga a\n# x squared\n\ngen x 2\ngen z 3\ndiff z = x\n"
REPEATED_DIFF = "cdga a\ngen x 2\ngen z 3\ndiff z = x^2\ndiff z = 5*x^2\n"


def test_diff_errors_name_their_own_line():
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file(WRONG_DEGREE_DIFF, filename="f")
    assert str(exc.value) == "f:6: image of z has degree 2, expected 4"
    assert exc.value.line == 6
    with pytest.raises(CdgaFileError, match="^f:6: inhomogeneous"):
        parse_cdga_file(WRONG_DEGREE_DIFF.replace("= x", "= x^2 + x"),
                        filename="f")
    with pytest.raises(CdgaFileError) as exc:
        parse_cdga_file(REPEATED_DIFF, filename="f")
    assert str(exc.value) == "f:5: repeated diff for z"
    # a zero image has no degree, and stays allowed
    c = parse_cdga_file(WRONG_DEGREE_DIFF.replace("= x", "= 0"))
    assert c.differential.images == {}


def test_file_relation_presentation():
    text = """\
cdga h_s2
# cohomology of the 2-sphere
gen y 2
rel 4 : y^2
"""
    c = parse_cdga_file(text)
    assert c.cohomology(6).dims == [1, 0, 1, 0, 0, 0, 0]
