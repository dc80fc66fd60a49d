"""Polynomial forms on simplices, simplicial sets, integration, Stokes."""

import cProfile
import operator
import pathlib
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import plforms
from sullivan.graded import AlgElement
from sullivan.linalg import kernel_basis
from sullivan.plforms import (
    Cochain,
    FormError,
    GlobalForm,
    PolyForm,
    SimplicialComplexFin,
    _compatibility_kernel,
    boundary_delta,
    builtin_complex,
    cochain_cohomology,
    cochain_cup,
    cochain_differential,
    delta_complex,
    form_algebra,
    form_basis,
    integrate,
    load_scomplex,
    normalize_word,
    parse_scomplex_file,
    sample_closed_global_form,
    sample_global_form,
    verify_stokes,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


# ----- faces and degeneracies on the coordinate algebras -----

def test_face_of_t1_on_the_interval():
    f = PolyForm.parse(1, "t1")
    assert f.face(0) == PolyForm.parse(0, "1")
    assert f.face(1).is_zero()


def test_face_of_constant():
    f = PolyForm.parse(2, "1")
    for i in range(3):
        assert f.face(i) == PolyForm.parse(1, "1")


def test_degeneracies_of_t1_on_the_interval():
    f = PolyForm.parse(1, "t1")
    assert f.degen(1) == PolyForm.parse(2, "t1 + t2")
    assert f.degen(0) == PolyForm.parse(2, "t2")


def test_degen_word_checks_each_letter_where_it_applies():
    """A word (outermost first) applies its letters from the innermost
    up, each to the simplex the one before it landed on."""
    f = PolyForm.parse(1, "t1")
    assert f.degen_word(()) is f
    assert f.degen_word((2, 0)) == f.degen(0).degen(2)
    with pytest.raises(FormError,
                       match="^degeneracy index 2 out of range for "
                             "dimension 1$"):
        f.degen_word((0, 2))
    with pytest.raises(FormError,
                       match="^degeneracy index 3 out of range for "
                             "dimension 2$"):
        f.degen_word((3, 0))


@pytest.mark.parametrize("other", [2, Fraction(1, 2), "t1"])
@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_forms_meet_foreign_operands_with_type_error(op, other):
    """A form meets a non-form in + or * with `NotImplemented`, so Python
    raises its `TypeError` whichever operand comes first."""
    f = PolyForm.parse(1, "t1")
    for a, b in ((f, other), (other, f)):
        with pytest.raises(TypeError):
            op(a, b)


def test_form_differential():
    assert PolyForm.parse(1, "t1^2").d() == PolyForm.parse(1, "2*t1*y1")
    assert PolyForm.parse(2, "t1*y2").d() == PolyForm.parse(2, "y1*y2")
    assert PolyForm.parse(1, "y1").d().is_zero()


def _random_form(rng, n, k, cap=2):
    basis = form_basis(n, k, cap)
    from sullivan.plforms import form_algebra
    from sullivan.graded import AlgElement
    terms = {m: Fraction(rng.randint(-3, 3)) for m in basis
             if rng.random() < 0.4}
    terms = {m: c for m, c in terms.items() if c}
    return PolyForm(n, AlgElement(form_algebra(n), terms))


def test_simplicial_identities_on_random_forms():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 3)
        k = rng.randint(0, n)
        w = _random_form(rng, n, k)
        # faces: d_i d_j = d_(j-1) d_i for i < j
        for j in range(n + 1):
            for i in range(j):
                assert w.face(j).face(i) == w.face(i).face(j - 1)
        # degeneracies: s_i s_j = s_(j+1) s_i for i <= j
        for j in range(n + 1):
            for i in range(j + 1):
                assert w.degen(j).degen(i) == w.degen(i).degen(j + 1)
        # mixed identities
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = w.degen(j).face(i)
                if i < j:
                    assert lhs == w.face(i).degen(j - 1)
                elif i in (j, j + 1):
                    assert lhs == w
                else:
                    assert lhs == w.face(i - 1).degen(j)


def test_faces_and_degeneracies_commute_with_d():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(0, n - 1)
        w = _random_form(rng, n, k)
        for i in range(n + 1):
            assert w.face(i).d() == w.d().face(i)
            assert w.degen(i).d() == w.d().degen(i)


def test_d_squared_zero_on_random_forms():
    rng = random.Random(5)
    for _ in range(30):
        w = _random_form(rng, 3, rng.randint(0, 2), cap=3)
        assert w.d().d().is_zero()


class _ForgetfulTable(dict):
    """A move table that keeps nothing, like one emptied by a concurrent
    `verify_stokes` just after each store."""

    def __setitem__(self, key, value):
        pass


def test_moves_return_what_they_build_when_the_table_forgets_it(
        monkeypatch):
    form = PolyForm.parse(2, "t1*y2")
    want = [form.face(0), form.d(), form.degen_word((1, 0))]
    monkeypatch.setattr(plforms, "_MOVES", _ForgetfulTable())
    assert [form.face(0), form.d(), form.degen_word((1, 0))] == want


# ----- degeneracy words -----

def test_normalize_word():
    assert normalize_word(()) == ()
    assert normalize_word((0, 0)) == (1, 0)
    assert normalize_word((2, 0, 1)) == (3, 2, 0)
    assert normalize_word((3, 1)) == (3, 1)


# ----- complexes -----

def test_delta_and_boundary_counts():
    d3 = delta_complex(3)
    assert [len(d3.simplices(k)) for k in range(4)] == [4, 6, 4, 1]
    b3 = boundary_delta(3)
    assert [len(b3.simplices(k)) for k in range(3)] == [4, 6, 4]
    assert b3.top_dim == 2


def test_builtin_names():
    assert builtin_complex("delta2").top_dim == 2
    with pytest.raises(FormError, match="unknown builtin"):
        builtin_complex("nope")


def test_simplicial_identity_validation_catches_bad_gluing():
    # a triangle whose edges point at the wrong vertices
    dims = {"a": 0, "b": 0, "c": 0, "e0": 1, "e1": 1, "e2": 1, "T": 2}
    faces = {
        ("e0", 0): ("a", ()), ("e0", 1): ("b", ()),
        ("e1", 0): ("a", ()), ("e1", 1): ("c", ()),
        ("e2", 0): ("b", ()), ("e2", 1): ("c", ()),
        ("T", 0): ("e0", ()), ("T", 1): ("e1", ()),
        ("T", 2): ("e0", ()),   # wrong: repeats e0 incompatibly
    }
    from sullivan.plforms import SimplicialComplexFin
    with pytest.raises(FormError, match="identity"):
        SimplicialComplexFin("bad", dims, faces)


def test_scomplex_file_roundtrip_with_degeneracy_word():
    text = """\
scomplex circle
simplex p 0
simplex e 1
face e 0 = p
face e 1 = p
"""
    K = parse_scomplex_file(text)
    assert K.dims == {"p": 0, "e": 1}
    assert cochain_cohomology(K, 1) == [1, 1]


CIRCLE = ("scomplex circle\nsimplex p 0\nsimplex e 1\n"
          "face e 0 = p\nface e 1 = p\n")
REPEATED_SCX = {
    "scomplex": (CIRCLE + "scomplex circle2\n", 6, "repeated scomplex line"),
    "simplex": (CIRCLE + "simplex e 1\n", 6, "repeated simplex e"),
    "simplex-redeclared": (CIRCLE + "simplex e 2\n", 6, "repeated simplex e"),
    "face": (CIRCLE + "face e 0 = p\n", 6, "repeated face 0 of e"),
    "face-elsewhere": (CIRCLE.replace("face e 1 = p\n", "face e 0 = p\n"),
                       5, "repeated face 0 of e"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_SCX))
def test_repeated_scx_line_is_an_error_at_its_own_line(name):
    text, line, what = REPEATED_SCX[name]
    with pytest.raises(FormError) as exc:
        parse_scomplex_file(text, filename="c.scx")
    assert str(exc.value) == f"c.scx:{line}: {what}"


# ----- cochains -----

def test_cochain_cohomology_boundary_delta3():
    assert cochain_cohomology(boundary_delta(3), 2) == [1, 0, 1]


def test_cochain_cohomology_delta3_acyclic():
    assert cochain_cohomology(delta_complex(3), 3) == [1, 0, 0, 0]


def test_delta_squared_zero_on_random_cochains():
    rng = random.Random(3)
    K = boundary_delta(3)
    for _ in range(20):
        c = Cochain(K, 0, {sid: rng.randint(-4, 4) for sid in K.simplices(0)})
        assert cochain_differential(cochain_differential(c)).is_zero()


def test_cup_product_of_the_two_edges_of_a_path():
    K = builtin_complex("delta2")
    a, b = Cochain(K, 1, {"01": 1}), Cochain(K, 1, {"12": 1})
    assert cochain_cup(a, b) == Cochain(K, 2, {"012": 1})
    assert cochain_cup(b, a).is_zero()


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_cup_product_satisfies_leibniz_on_random_cochains(name):
    """delta(a u b) = delta a u b + (-1)^p a u delta b."""
    K = (load_scomplex(DATA / "s2_one_cell.scx") if name == "s2_one_cell"
         else builtin_complex(name))
    rng = random.Random(5)
    nonzero = 0
    for p in range(K.top_dim):
        for q in range(K.top_dim - p):
            for _ in range(4):
                a, b = (Cochain(K, k, {sid: rng.randint(-3, 3)
                                       for sid in K.simplices(k)})
                        for k in (p, q))
                lhs = cochain_differential(cochain_cup(a, b))
                first = cochain_cup(cochain_differential(a), b)
                second = cochain_cup(a, cochain_differential(b))
                nonzero += not cochain_cup(a, b).is_zero()
                assert all(lhs.value(sid) == first.value(sid)
                           + (-1) ** p * second.value(sid)
                           for sid in K.simplices(p + q + 1))
    assert nonzero


# ----- integration -----

def test_integrate_volume_form_of_triangle():
    K = delta_complex(2)
    gf = GlobalForm(K, 2, {"012": PolyForm.parse(2, "y1*y2")}, check=False)
    ch = integrate(gf)
    assert ch.value("012") == Fraction(1, 2)


def test_integrate_t_y_on_interval():
    K = delta_complex(1)
    gf = GlobalForm(K, 1, {"01": PolyForm.parse(1, "t1*y1")}, check=False)
    assert integrate(gf).value("01") == Fraction(1, 2)


def test_integrate_dirichlet_monomial():
    K = delta_complex(2)
    gf = GlobalForm(K, 2, {"012": PolyForm.parse(2, "t1*t2*y1*y2")},
                    check=False)
    assert integrate(gf).value("012") == Fraction(1, 24)


def test_volume_normalization_top_monomial():
    for n in (1, 2, 3):
        K = delta_complex(n)
        top = "".join(str(v) for v in range(n + 1))
        expr = "*".join(f"y{i}" for i in range(1, n + 1))
        gf = GlobalForm(K, n, {top: PolyForm.parse(n, expr)}, check=False)
        import math
        assert integrate(gf).value(top) == Fraction(1, math.factorial(n))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_integrate_matches_sympy_iterated_integrals(k):
    """Every top-degree monomial of poly degree <= 3 on the k-simplex,
    against sympy's exact iterated integral over
    {t_i >= 0, t_1 + ... + t_k <= 1}; each form is integrated twice, so
    that the second value is read from the table of integrals."""
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols(f"t1:{k + 1}")
    K = delta_complex(k)
    top = "".join(str(v) for v in range(k + 1))
    alg = form_algebra(k)
    for mono in form_basis(k, k, 3):
        integrand = sympy.Integer(1)
        for o, p in mono:
            if o < k:
                integrand *= t[o] ** p
        for i in reversed(range(k)):
            integrand = sympy.integrate(integrand,
                                        (t[i], 0, 1 - sum(t[:i])))
        want = Fraction(int(integrand.p), int(integrand.q))
        form = PolyForm(k, AlgElement(alg, {mono: Fraction(3, 7)}))
        gf = GlobalForm(K, k, {top: form}, check=False)
        for _ in range(2):
            assert integrate(gf).values == {top: Fraction(3, 7) * want}


# ----- sampling and Stokes -----

def test_sample_is_deterministic():
    K = builtin_complex("delta2")
    a = sample_global_form(K, 1, 2, seed=7)
    b = sample_global_form(K, 1, 2, seed=7)
    assert a.assignment == {sid: f for sid, f in b.assignment.items()}
    c = sample_global_form(K, 1, 2, seed=8)
    assert any(a.assignment[s] != c.assignment[s] for s in a.assignment)


@pytest.mark.parametrize("name", ["delta2", "bddelta3"])
def test_a_sample_above_the_top_dimension_is_the_zero_family(name):
    """The compatibility system has no unknowns above the top dimension,
    so its kernel is zero: one zero form per simplex, integrating to the
    zero cochain."""
    K = builtin_complex(name)
    gf = sample_global_form(K, K.top_dim + 1, 3, 0)
    assert gf.is_zero() and gf.validate() == []
    assert set(gf.assignment) == set(K.dims)
    assert integrate(gf) == Cochain(K, K.top_dim + 1)
    assert sample_closed_global_form(K, K.top_dim + 1, 3, 0).is_zero()


def fractions_made(profile):
    return sum(calls for (path, _, name), (calls, *_) in
               pstats.Stats(profile).stats.items()
               if name == "__new__"
               and pathlib.Path(path).name == "fractions.py")


def test_compatibility_kernel_makes_no_fraction_until_rows_are_read(
        monkeypatch):
    """The delta3 system reaches `kernel_basis` in integers and its basis
    stays in `scaled_rows`: cProfile sees no `Fraction` made until the
    `Fraction` view `rows` is read, which makes at most one per entry
    (`ratios` shares one for each of the values -2..2)."""
    seen = []
    monkeypatch.setattr(plforms, "kernel_basis",
                        lambda m: seen.append(m) or kernel_basis(m))
    _compatibility_kernel(builtin_complex("delta3"), 1, 3)
    (system,) = seen
    profile = cProfile.Profile()
    basis = profile.runcall(kernel_basis, system)
    assert basis.dim and fractions_made(profile) == 0
    profile = cProfile.Profile()
    rows = profile.runcall(lambda: basis.rows)
    assert fractions_made(profile) <= sum(map(len, rows))
    assert rows == [{j: Fraction(x, p) for j, x in row.items()}
                    for p, row in basis.scaled_rows.values()]
    assert basis.rows is rows


def test_sampled_forms_are_compatible():
    for name in ("delta2", "bddelta3"):
        K = builtin_complex(name)
        for k in range(K.top_dim + 1):
            gf = sample_global_form(K, k, 2, seed=11 + k)
            assert gf.validate() == []


def test_closed_samples_are_closed():
    K = builtin_complex("bddelta3")
    for k in (0, 1, 2):
        gf = sample_closed_global_form(K, k, 2, seed=5 + k)
        assert gf.d().is_zero()


def test_nonzero_solution_space_on_boundary_sphere():
    K = builtin_complex("bddelta3")
    gf = sample_global_form(K, 2, 2, seed=7)
    assert not gf.is_zero()


COMPLEXES = {
    "delta2": lambda: builtin_complex("delta2"),
    "bddelta3": lambda: builtin_complex("bddelta3"),
    "s2_one_cell": lambda: load_scomplex(DATA / "s2_one_cell.scx"),
}


def _dense_sample(K, degree, poly_cap, seed, closed):
    """The sampler as it was before sparse rows: the kernel vectors, read
    as Fractions from their integer rows over their pivot entries, summed
    into a dense list of Fractions, one scaled entry at a time, and each
    simplex's form built from an element of those Fractions."""
    order, bases, var_index, kernel = _compatibility_kernel(
        K, degree, poly_cap, closed)
    rng = random.Random(seed)
    vec = [Fraction(0)] * len(var_index)
    for pivot_entry, row in kernel.values():
        c = rng.randint(-3, 3)
        if c:
            for i, x in row.items():
                vec[i] += c * Fraction(x, pivot_entry)
    assignment = {}
    for sid in order:
        n = K.dims[sid]
        assignment[sid] = PolyForm(n, AlgElement(form_algebra(n), {
            mono: vec[var_index[sid, idx]]
            for idx, mono in enumerate(bases[sid])
            if vec[var_index[sid, idx]]}))
    return GlobalForm(K, degree, assignment)


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_sampled_families_match_the_dense_loop(name):
    K = (load_scomplex(DATA / "s2_one_cell.scx") if name == "s2_one_cell"
         else builtin_complex(name))
    for degree in range(K.top_dim + 1):
        for poly_cap in (1, 2, 3):
            for seed in (1, 7, 301):
                for closed, sample in ((False, sample_global_form),
                                       (True, sample_closed_global_form)):
                    want = _dense_sample(K, degree, poly_cap, seed, closed)
                    got = sample(K, degree, poly_cap, seed)
                    assert got.assignment == want.assignment


def _nonzero_sample(K, degree):
    for seed in range(50):
        gf = sample_global_form(K, degree, 2, seed)
        if not gf.is_zero():
            return gf
    raise AssertionError(f"no nonzero degree-{degree} sample on {K.name}")


def _constrained_monomial(K, gf):
    """A simplex and a monomial of its form basis with a nonzero face:
    changing that coefficient moves a face restriction of the simplex
    and nothing it is compared with."""
    for sid in sorted(K.dims):
        n = K.dims[sid]
        for mono in form_basis(n, gf.degree, 2) if n else ():
            form = PolyForm(n, AlgElement(form_algebra(n), {mono: Fraction(1)}))
            if any(not form.face(i).is_zero() for i in range(n + 1)):
                return sid, form
    raise AssertionError(f"no constrained monomial on {K.name}")


@pytest.mark.parametrize("name", sorted(COMPLEXES))
@pytest.mark.parametrize("degree", [0, 1])
def test_validation_rejects_a_changed_coefficient(name, degree):
    K = COMPLEXES[name]()
    gf = _nonzero_sample(K, degree)
    GlobalForm(K, degree, gf.assignment)
    sid, bump = _constrained_monomial(K, gf)
    assignment = dict(gf.assignment)
    assignment[sid] = gf.form(sid) + bump
    with pytest.raises(FormError, match="incompatible global form"):
        GlobalForm(K, degree, assignment)


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_validation_rejects_the_wrong_exterior_degree(name):
    K = COMPLEXES[name]()
    gf = _nonzero_sample(K, 0)
    with pytest.raises(FormError, match="incompatible global form: "
                       r"form on \S+ has degree 0, expected 1"):
        GlobalForm(K, 1, gf.assignment)


@pytest.mark.parametrize("form", [PolyForm.parse(1, "t1"),
                                  PolyForm.parse(2, "t1 + y1")],
                         ids=["wrong-dimension", "inhomogeneous"])
def test_validation_reports_a_form_that_is_no_form_on_its_simplex(form):
    K = builtin_complex("delta2")
    assert GlobalForm(K, 0, {"012": form}, check=False).validate() == [
        "form on 012 is not a homogeneous form on a 2-simplex"]
    with pytest.raises(FormError, match="incompatible global form: "
                       "form on 012 is not a homogeneous form"):
        GlobalForm(K, 0, {"012": form})


def test_validation_reports_a_face_target_on_the_wrong_dimension():
    """The vertex of s2_one_cell is every face of T through s0; a form of
    dimension 1 on it is reported, and so is each face of T, without
    pulling that form back."""
    K = load_scomplex(DATA / "s2_one_cell.scx")
    gf = GlobalForm(K, 0, {"p": PolyForm.parse(1, "t1")}, check=False)
    assert gf.validate() == [
        "face 0 of T disagrees with p", "face 1 of T disagrees with p",
        "face 2 of T disagrees with p",
        "form on p is not a homogeneous form on a 0-simplex"]


def test_validation_reads_an_explicit_zero_coefficient_as_zero():
    """A vertex form that stores 0 for its one monomial is the zero form:
    its faces of the edges agree with it."""
    K = builtin_complex("delta2")
    zero = PolyForm(0, AlgElement(form_algebra(0), {(): Fraction(0)}))
    assert GlobalForm(K, 0, {"0": zero}, check=False).validate() == []


def test_an_explicit_zero_coefficient_is_no_term():
    """A form is brought over one denominator on entry, which drops an
    explicit zero coefficient: such a form is the zero form."""
    for n in range(3):
        alg = form_algebra(n)
        zero = PolyForm(n, AlgElement(alg, {(): Fraction(0)}))
        assert zero.is_zero()
        assert zero == PolyForm.parse(n, "0")
        assert zero.element.terms == {}
    t1 = PolyForm(1, AlgElement(form_algebra(1), {
        ((0, 1),): Fraction(1), ((1, 1),): Fraction(0)}))
    assert t1 == PolyForm.parse(1, "t1")
    assert t1.element.terms == {((0, 1),): 1}


def test_rows_differing_by_a_common_factor_are_one_form():
    """Two rows are compared as fractions, by cross-multiplication, so
    rows that differ by a common factor are one form."""
    t1 = ((0, 1),)
    half = PolyForm._of(1, (2, {t1: 1}))
    assert PolyForm._of(1, (4, {t1: 2})) == half
    assert PolyForm._of(1, (6, {t1: 6})) == PolyForm.parse(1, "t1")
    assert PolyForm._of(1, (6, {t1: 6})) != PolyForm._of(2, (1, {t1: 1}))
    assert PolyForm._of(1, (4, {t1: 3})) != half
    assert half + half == PolyForm.parse(1, "t1")


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_stokes_makes_no_element_view(monkeypatch, name):
    """Sampling, checking, d and integration read the forms' integer rows
    alone: with `PolyForm.element` raising, the report is the same."""
    K = (load_scomplex(DATA / "s2_one_cell.scx") if name == "s2_one_cell"
         else builtin_complex(name))

    def report():
        rep = verify_stokes(K, 8, 2, 3)
        return rep.trials, rep.cocycle_ranks, rep.h_dims

    want = report()

    def refuse(form):
        raise AssertionError("a form was read as an element")

    monkeypatch.setattr(PolyForm, "element", property(refuse))
    assert report() == want
    assert all(t["passed"] for t in want[0])


def test_stokes_refuses_a_complex_with_no_simplices():
    K = parse_scomplex_file("scomplex empty\n")
    with pytest.raises(FormError, match="complex empty has no simplices"):
        verify_stokes(K, 3, 2, 1)


@pytest.mark.parametrize("name", ["delta3", "bddelta3", "s2_one_cell"])
def test_compatibility_system_reaches_the_kernel_as_integers(monkeypatch,
                                                              name):
    """Blocks read from the integer memo tables: the matrix handed to
    `kernel_basis` holds only int entries, over one denominator."""
    K = (load_scomplex(DATA / "s2_one_cell.scx") if name == "s2_one_cell"
         else builtin_complex(name))
    seen = []
    monkeypatch.setattr(plforms, "kernel_basis",
                        lambda m: seen.append(m) or kernel_basis(m))
    for degree in range(K.top_dim + 1):
        sample_closed_global_form(K, degree, 3, seed=1)
        sample_global_form(K, degree, 3, seed=1)
    assert len(seen) == 2 * (K.top_dim + 1)
    assert all(type(x) is int and x for m in seen for row in m.num
               for x in row.values())
    assert all(type(m.den) is int and m.den > 0 for m in seen)


def test_stokes_builds_each_face_block_once(monkeypatch):
    """One block per (simplex dimension, map), shared by the open and the
    closed system and read from the pullback tables: 64 blocks for the
    four degrees of delta3, where one per (simplex, face) took 5,232 face
    pullbacks.  Every other face pullback is one of the 2,800 checks of a
    sampled form in `GlobalForm.validate`, one `PolyForm.face` each."""
    calls = {"monomial_columns": 0, "face": 0}
    for name, owner in (("monomial_columns", plforms),
                        ("face", plforms.PolyForm)):
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert verify_stokes(builtin_complex("delta3"), 20, 3, 1).ok
    assert calls == {"monomial_columns": 64, "face": 2800}


def test_stokes_delta2():
    rep = verify_stokes(builtin_complex("delta2"), 12, 2, seed=1)
    assert rep.ok
    assert rep.passed == 12


def test_stokes_boundary_sphere_and_cocycle_ranks():
    rep = verify_stokes(builtin_complex("bddelta3"), 9, 2, seed=1)
    assert rep.ok
    ranks = {r["degree"]: r for r in rep.cocycle_ranks}
    assert ranks[2]["h_dim"] == 1
    # a sampled degree-2 cocycle with nonzero class certifies H^2 != 0
    assert ranks[2]["sampled_rank"] == 1
    assert ranks[0]["sampled_rank"] == 1


def test_stokes_zero_form_trivially_passes():
    K = builtin_complex("delta2")
    gf = GlobalForm(K, 1, {}, check=False)
    assert integrate(gf.d()) == cochain_differential(integrate(gf))


def test_integration_is_not_multiplicative():
    # f = t1 (a 0-form) and w = y1 on the interval: the integral of f*w is
    # 1/2 but the cup product of the integrals vanishes.  Recorded, not a
    # failure: the integration map is a cochain map, not an algebra map.
    K = delta_complex(1)
    f = GlobalForm(K, 0, {
        "01": PolyForm.parse(1, "t1"),
        "0": PolyForm.parse(0, "0"),
        "1": PolyForm.parse(0, "1"),
    })
    w = GlobalForm(K, 1, {"01": PolyForm.parse(1, "y1")})
    fw = GlobalForm(K, 1, {sid: f.form(sid) * w.form(sid)
                           for sid in K.dims})
    lhs = integrate(fw)
    rhs = cochain_cup(integrate(f), integrate(w))
    assert lhs.value("01") == Fraction(1, 2)
    assert rhs.value("01") == 0
    assert lhs != rhs


# ----- malformed .scx input -----

@pytest.mark.parametrize("lines, message", [
    (["simplex a -1"], "negative dimension -1"),
    (["simplex v 0", "simplex e 1", "face e 5 = v"],
     "face index 5 out of range for a 1-simplex"),
    (["simplex p 0", "simplex T 2", "face T 0 = p s5"],
     "degeneracy s5 out of range in face 0 of a 2-simplex"),
    # a forward reference (a) stays allowed; c is never declared
    (["simplex b 1", "face b 0 = a", "simplex a 0", "face b 1 = c"],
     "face (b,1) hits unknown simplex c"),
], ids=["negative-dimension", "face-index", "degeneracy-index",
        "unknown-target"])
def test_malformed_scx_is_rejected_at_its_line(tmp_path, lines, message):
    path = tmp_path / "bad.scx"
    path.write_text("\n".join(["scomplex bad"] + lines) + "\n")
    with pytest.raises(FormError) as exc:
        load_scomplex(path)
    assert str(exc.value) == f"{path}:{len(lines) + 1}: {message}"


def test_validate_reports_out_of_range_faces():
    K = SimplicialComplexFin("k", {"v": 0, "e": 1, "a": -1},
                             {("e", 0): ("v", ()), ("e", 1): ("v", ()),
                              ("e", 5): ("v", ())}, check=False)
    assert K.validate() == ["simplex a has negative dimension -1"]
    del K.dims["a"]
    assert K.validate() == [
        "face (e,5): face index 5 out of range for a 1-simplex"]


def test_validate_reports_unknown_face_targets_and_dimension_mismatches():
    K = SimplicialComplexFin("k", {"v": 0, "e": 1},
                             {("e", 0): ("v", ()), ("e", 1): ("w", ())},
                             check=False)
    assert K.validate() == ["face (e,1) hits unknown simplex w"]
    K.faces[("e", 1)] = ("e", ())
    assert K.validate() == [
        "face (e,1) dimension mismatch: 1 + 0 != 1 - 1"]


# ----- faces of degenerate simplices -----

def _operator(dim, word):
    """The monotone surjection [dim + len(word)] -> [dim] of the degeneracy
    word (outermost first) s_w0 ... s_wk x = (sigma^wk o ... o sigma^w0)^* x,
    sigma^j hitting j twice, as the tuple of its values."""
    values = range(dim + len(word) + 1)
    for j in word:
        values = [v - (v > j) for v in values]
    return tuple(values)


def _word(surjection):
    """The strictly decreasing degeneracy word of a monotone surjection:
    s_j for every j that it sends to the same place as j + 1."""
    return tuple(sorted((j for j in range(len(surjection) - 1)
                         if surjection[j] == surjection[j + 1]),
                        reverse=True))


def _face_by_maps(K, sid, word, i):
    """d_i of s_word(sid), by composing monotone maps: the operator with
    its i-th value dropped either stays onto [dim sid], or misses one
    vertex v and factors through d_v sid, whose face data gives a
    simplex and a word to compose with."""
    dim = K.dims[sid]
    op = _operator(dim, word)
    op = op[:i] + op[i + 1:]
    missing = set(range(dim + 1)) - set(op)
    if not missing:
        return sid, _word(op)
    v = missing.pop()
    tgt, w = K.faces[(sid, v)]
    outer = _operator(K.dims[tgt], w)
    return tgt, _word(tuple(outer[x - (x > v)] for x in op))


def _words(dim, length):
    """Every degeneracy word of that length that applies to a dim-simplex
    (the innermost letter at most dim, the next at most dim + 1, ...)."""
    if not length:
        return [()]
    return [(j,) + w for w in _words(dim, length - 1)
            for j in range(dim + length)]


def _one_vertex_three_sphere():
    return SimplicialComplexFin(
        "s3", {"v": 0, "S": 3}, {("S", i): ("v", (1, 0)) for i in range(4)})


def _three_simplex_with_a_collapsed_edge():
    """The 3-simplex [0123] with its edge [01] collapsed to the vertex p:
    q = 2, r = 3, e1 = [pq], e2 = [pr], e3 = [qr], f = [pqr], and the
    faces [013] and [012] of T become s0 e2 and s0 e1."""
    dims = {"p": 0, "q": 0, "r": 0, "e1": 1, "e2": 1, "e3": 1, "f": 2,
            "T": 3}
    faces = {("e1", 0): ("q", ()), ("e1", 1): ("p", ()),
             ("e2", 0): ("r", ()), ("e2", 1): ("p", ()),
             ("e3", 0): ("r", ()), ("e3", 1): ("q", ()),
             ("f", 0): ("e3", ()), ("f", 1): ("e2", ()), ("f", 2): ("e1", ()),
             ("T", 0): ("f", ()), ("T", 1): ("f", ()),
             ("T", 2): ("e2", (0,)), ("T", 3): ("e1", (0,))}
    return SimplicialComplexFin("collapsed", dims, faces)


@pytest.mark.parametrize("build", [_one_vertex_three_sphere,
                                   _three_simplex_with_a_collapsed_edge],
                         ids=["s3", "collapsed-edge"])
def test_faces_of_degenerate_simplices_compose_as_monotone_maps(build):
    K, branches = build(), set()
    for sid, dim in K.dims.items():
        for length in range(3):
            for word in _words(dim, length):
                expr = (sid, normalize_word(word))
                for i in range(dim + length + (dim + length > 0)):
                    if expr[1]:
                        j = expr[1][0]
                        branches.add("<" if i < j else ">" if i > j + 1
                                     else "=")
                    assert K.face_expr(expr, i) == _face_by_maps(
                        K, sid, word, i), (expr, i)
    assert branches == {"<", "=", ">"}


# ----- fuzzing the .scx format -----

SCX_SEEDS = [
    ["scomplex circle", "simplex p 0", "simplex e 1",
     "face e 0 = p", "face e 1 = p"],
    (DATA / "s2_one_cell.scx").read_text().splitlines(),
    ["scomplex interval", "simplex a 0", "simplex b 0", "simplex e 1",
     "face e 0 = b", "face e 1 = a"],
    ["scomplex empty"],
    [],
]
SCX_IDS = st.sampled_from(["p", "a", "b", "e", "T", "q"])
SCX_NUMBERS = st.one_of(st.integers(-2, 4).map(str),
                        st.sampled_from(["x", "1.5", ""]))
SCX_LINES = st.one_of(
    st.builds("scomplex {}".format, SCX_IDS),
    st.builds("simplex {} {}".format, SCX_IDS, SCX_NUMBERS),
    st.builds("face {} {} {} {} {}".format, SCX_IDS, SCX_NUMBERS,
              st.sampled_from(["=", "->"]), SCX_IDS,
              st.lists(st.sampled_from(["s0", "s1", "s2", "s-1", "sx", "t0",
                                        "s"]), max_size=3).map(" ".join)),
    st.sampled_from(["scomplex", "simplex p", "face T 0 =", "vertex p",
                     "# comment", ""]),
)


@st.composite
def scx_texts(draw):
    """A valid .scx file, or none, with a few lines deleted or inserted."""
    lines = list(draw(st.sampled_from(SCX_SEEDS)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        if lines and draw(st.booleans()):
            del lines[min(i, len(lines) - 1)]
        else:
            lines.insert(i, draw(SCX_LINES))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(scx_texts())
def test_scx_parser_and_stokes_raise_only_form_errors(text):
    try:
        K = parse_scomplex_file(text)
    except FormError:
        return
    try:
        verify_stokes(K, 2, 1, 0)
    except FormError:
        pass
