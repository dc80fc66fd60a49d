"""Acceptance suite: one test per criterion, all checked exactly.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion; every assertion is exact rational equality (no tolerances
anywhere).
"""

import json
import pathlib
import random
from fractions import Fraction

from sullivan.catalog import (
    cp_cohomology,
    cp_model,
    elliptic_six,
    nonformal_model,
    product_model,
    sphere_cohomology,
    sphere_model,
)
from sullivan.cdga import tensor_product
from sullivan.graded import Derivation, FreeAlgebra
from sullivan.invariants import (
    cat_bounds,
    classify_ellipticity,
    cuplength,
    loop_poincare_series,
    toomer_rank,
)
from sullivan.linalg import RatMatrix, kernel_basis, rref
from sullivan.models import (
    acyclic_closure,
    fiber_model,
    free_loop_model,
    loop_cohomology,
    minimal_model,
    path_space_model,
    pushout_model,
)
from sullivan.plforms import (
    GlobalForm,
    PolyForm,
    builtin_complex,
    cochain_cohomology,
    delta_complex,
    form_basis,
    integrate,
    verify_stokes,
)

from helpers import bar_algebra_dims, multiplication_morphism, poly_form

HERE = pathlib.Path(__file__).resolve().parent


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def _run_cli_json(capsys, *argv):
    from sullivan.cli import main
    assert main(list(argv) + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_01_nonformal_cohomology(capsys):
    dims = nonformal_model().cohomology(12).dims
    assert dims == [1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 0]
    doc = _run_cli_json(capsys, "cohomology",
                        str(HERE.parent / "data" / "nonformal.cdga"),
                        "-N", "12")
    assert doc["dims"] == dims
    assert set(doc["representatives"]["8"]) == {"u*w", "v*w"}
    _report(1, "nonformal example has H dims (1,0,0,2,0,0,0,0,2,0,0,1,0) "
               "with degree-8 classes u*w, v*w")


def test_criterion_02_minimal_models(capsys):
    cases = [
        ("h_s3.cdga", 9, [3], None),
        ("h_s2.cdga", 8, [2, 3], 2),
        ("h_cp2.cdga", 10, [2, 5], 3),
        ("h_cp3.cdga", 16, [2, 7], 4),
    ]
    for fname, n, degrees, power in cases:
        doc = _run_cli_json(capsys, "minimal-model",
                            str(HERE.parent / "data" / fname), "-N", str(n))
        assert [g["degree"] for g in doc["generators"]] == degrees
        if power is None:
            assert doc["differentials"] == {}
        else:
            even, odd = [g["name"] for g in doc["generators"]]
            assert doc["differentials"] == {odd: f"{even}^{power}"}
    # library-level double check on the even sphere
    res = minimal_model(sphere_cohomology(2), 8)
    y, z = res.model.algebra.generators
    assert res.model.differential.images[z.ordinal] == \
        res.model.algebra.parse(f"{y.name}^2")
    _report(2, "minimal models of spheres and projective spaces match "
               "(x3;0), (y2,z3;dz=y^2), (u2,x5;dx=u^3), (u2,x7;dx=u^4)")


def test_criterion_03_loop_space_dimensions():
    s3 = loop_cohomology(sphere_model(3), 20)
    assert s3.dims == [1 if k % 2 == 0 else 0 for k in range(21)]
    s2 = loop_cohomology(sphere_model(2), 20)
    assert s2.dims == [1] * 21
    _report(3, "loop cohomology: odd sphere gives a polynomial line, "
               "even sphere is one-dimensional in every degree")


def test_criterion_04_free_loop_vs_path_space_pushout():
    models = [sphere_model(2), sphere_model(3), cp_model(2),
              product_model(sphere_model(3), sphere_model(3))]
    for m in models:
        rel = path_space_model(m)
        po = pushout_model(multiplication_morphism(m, rel.base), rel)
        fl = free_loop_model(m)
        assert po.total.algebra.generators == fl.algebra.generators
        assert po.total.differential == fl.differential
    _report(4, "pushout of the path-space model along multiplication "
               "equals the free-loop model for S2, S3, CP2, S3xS3")


def test_criterion_05_free_loop_growth_probe():
    with open(HERE / "data" / "free_loop_growth.json") as fh:
        frozen = json.load(fh)
    n = frozen["max_degree"]
    fl_s3 = free_loop_model(sphere_model(3))
    fl_t = free_loop_model(product_model(sphere_model(3), sphere_model(3)))
    dims_s3 = [fl_s3.h_dim(k) for k in range(n + 1)]
    dims_t = [fl_t.h_dim(k) for k in range(n + 1)]
    assert dims_s3 == frozen["s3_free_loop_dims"]
    assert dims_t == frozen["s3xs3_free_loop_dims"]
    partial_s3 = [sum(dims_s3[:k + 1]) for k in range(n + 1)]
    partial_t = [sum(dims_t[:k + 1]) for k in range(n + 1)]
    assert all(partial_t[k] > partial_s3[k] for k in range(6, n + 1))
    increments = [partial_s3[k + 1] - partial_s3[k] for k in range(2, n)]
    assert increments == [1] * len(increments)
    _report(5, "free-loop Betti sums of S3xS3 strictly dominate S3 from "
               "degree 6 on; S3 grows by a constant increment")


def test_criterion_06_acyclic_closures():
    for m in [sphere_model(2), sphere_model(3), cp_model(2)]:
        rel = acyclic_closure(m)
        for k in range(1, 13):
            assert rel.total.h_dim(k) == 0
        fib = fiber_model(rel)
        assert all(e.is_zero() for e in fib.differential.images.values())
    _report(6, "acyclic closures of S2, S3, CP2 are acyclic through "
               "degree 12 with zero differential on their fibers")


def test_criterion_07_stokes():
    total = 0
    for name in ("delta2", "delta3", "bddelta3"):
        rep = verify_stokes(builtin_complex(name), 20, 3, seed=1)
        assert rep.ok
        total += rep.passed
    assert total == 60
    assert cochain_cohomology(builtin_complex("bddelta3"), 2) == [1, 0, 1]
    K = delta_complex(2)
    vol = GlobalForm(K, 2, {"012": poly_form(2, "y1*y2")}, check=False)
    assert integrate(vol).value("012") == Fraction(1, 2)
    tt = GlobalForm(K, 2, {"012": poly_form(2, "t1*t2*y1*y2")},
                    check=False)
    assert integrate(tt).value("012") == Fraction(1, 24)
    _report(7, "60/60 exact Stokes identities; H(bd delta3) = (1,0,1); "
               "volume 1/2 and Dirichlet value 1/24")


def test_criterion_08_ellipticity(capsys):
    doc = _run_cli_json(capsys, "classify",
                        str(HERE.parent / "data" / "elliptic6.cdga"),
                        "-N", "40", "-B", "60")
    assert doc["verdict"] == "Elliptic"
    assert doc["numerology"] == [True, True, True, True]
    assert doc["chi"]["V"] == -2
    six = classify_ellipticity(elliptic_six(), 60)
    assert six.verdict == "Elliptic"
    assert six.numerology == (True, True, True, True)
    s2 = classify_ellipticity(sphere_model(2), 30)
    assert s2.verdict == "Elliptic"
    assert s2.formal_dimension == 2
    b, a = s2.profile.odd_exponents[0], s2.profile.even_exponents[0]
    assert (2 * b - 1) - (2 * a - 1) == 3 - 1 == 2
    assert s2.euler["chi_V"] == 0
    s3 = classify_ellipticity(sphere_model(3), 30)
    assert s3.euler["chi_V"] == -1
    assert -s3.euler["chi_V"] == 1  # the torus-rank bound
    _report(8, "elliptic verdicts with full numerology; chi_V = 0, -1, -2 "
               "for S2, S3, six-generator example; torus rank of S3 is 1")


def test_criterion_09_category():
    for n in (2, 3):
        c = cp_model(n)
        assert cuplength(c, 2 * n) == n
        low, upper = cat_bounds(c, 2 * n + 8)
        assert low == n and upper == n
    first, _ = toomer_rank(sphere_model(3), 3, 7)
    assert first == 1
    first, _ = toomer_rank(cp_model(2), 4, 8)
    assert first == 2
    _report(9, "cuplength and cat upper bound equal n for CP2, CP3; "
               "word-length injectivity at 1 for S3 and 2 for CP2")


def test_criterion_10_poincare_series_cross_check():
    fixtures = [sphere_model(2), sphere_model(3), cp_model(2), cp_model(3),
                elliptic_six(),
                product_model(sphere_model(3), sphere_model(3))]
    for m in fixtures:
        assert loop_poincare_series(m, 20).coefficients == \
            loop_cohomology(m, 20).dims == bar_algebra_dims(m, 20)
    _report(10, "loop Poincare series expansions equal loop cohomology "
                "tables and bar-algebra basis counts to degree 20 on all "
                "fixtures")


def test_criterion_11_property_suites():
    rng = random.Random(20260811)
    alg = FreeAlgebra.build([("a", 2), ("x", 3), ("b", 4), ("v", 5)])
    d = Derivation(alg, +1, {"x": alg.parse("a^2"), "v": alg.parse("a*b")})

    def rand_elem(deg):
        return alg.element({m: Fraction(rng.randint(-4, 4))
                            for m in alg.basis_of_degree(deg)
                            if rng.random() < 0.7})

    for _ in range(200):
        p, q = rng.choice([2, 3, 4, 5]), rng.choice([2, 3, 4, 5])
        a, b, c = rand_elem(p), rand_elem(q), rand_elem(rng.choice([2, 3]))
        sign = -1 if (p % 2 and q % 2) else 1
        assert a * b == (b * a).scale(sign)
        assert (a * b) * c == a * (b * c)
        leib = d.apply(a) * b + (a * d.apply(b)).scale(-1 if p % 2 else 1)
        assert d.apply(a * b) == leib

    for m in [sphere_model(2), cp_model(3), nonformal_model(),
              elliptic_six()]:
        for k in range(9):
            for i in range(m.dim(k)):
                e = m.element(k, {i: 1})
                assert m.d(m.d(e)).is_zero()

    t, _, _ = tensor_product(sphere_model(2), cp_model(2))
    ra = sphere_model(2).cohomology(8)
    rb = cp_model(2).cohomology(8)
    rt = t.cohomology(8)
    for n in range(9):
        assert rt.dims[n] == sum(ra.dims[p] * rb.dims[n - p]
                                 for p in range(n + 1))

    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = RatMatrix.from_rows([
            {j: Fraction(rng.randint(-4, 4)) for j in range(cols)}
            for _ in range(rows)], cols)
        assert rref(mat)[2] + kernel_basis(mat).dim == cols

    for _ in range(12):
        n = rng.randint(2, 3)
        k = rng.randint(0, n)
        basis = form_basis(n, k, 2)
        from sullivan.graded import AlgElement
        from sullivan.plforms import form_algebra
        w = PolyForm(n, AlgElement(form_algebra(n), {
            m: Fraction(rng.randint(-3, 3)) for m in basis
            if rng.random() < 0.4}))
        for j in range(n + 1):
            for i in range(j):
                assert w.face(j).face(i) == w.face(i).face(j - 1)
            for i in range(j + 1):
                assert w.degen(j).degen(i) == w.degen(i).degen(j + 1)
    _report(11, "randomized seeded property suites: commutativity, "
                "associativity, Leibniz (200 samples), d^2 = 0, Kunneth, "
                "rank-nullity (200 samples), simplicial identities")
