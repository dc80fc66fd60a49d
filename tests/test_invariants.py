"""Purity, finiteness, ellipticity numerology, category bounds, series."""

import pathlib

import pytest

from sullivan.catalog import (
    cp_cohomology,
    cp_model,
    elliptic_six,
    nonformal_model,
    product_model,
    sphere_cohomology,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import Cdga, load_cdga
from sullivan.invariants import (
    ExceededBound,
    ExponentProfile,
    Finite,
    InvariantsError,
    associated_pure,
    cat_bounds,
    classify_ellipticity,
    classify_space,
    cuplength,
    euler_characteristics,
    exponent_numerology,
    finiteness_test,
    full_invariants,
    gap_probe,
    is_pure,
    loop_poincare_series,
    pure_filtration_homology,
    toomer_rank,
    torus_rank_bound,
)
from sullivan.models import loop_cohomology, minimal_model

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


# ----- purity -----

def test_six_generator_example_is_not_pure_but_its_pure_part_is():
    c = elliptic_six()
    assert not is_pure(c)
    p = associated_pure(c)
    assert is_pure(p)
    alg = p.algebra
    assert p.differential.image_of("u") == alg.parse("a^2")
    assert p.differential.image_of("b").is_zero()
    assert p.differential.image_of("v") == alg.parse("a*b")
    assert p.differential.image_of("w") == alg.parse("b^2")


def test_zero_differential_is_pure_and_fixed():
    c = sphere_model(3)
    assert is_pure(c)
    assert associated_pure(c).differential == c.differential


def test_even_sphere_model_is_pure():
    assert is_pure(sphere_model(2))


# ----- filtration homology -----

def test_h0_of_even_sphere_is_truncated_polynomial():
    dims = pure_filtration_homology(sphere_model(2), 0, 8)
    assert dims == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_filtration_vanishes_above_odd_count():
    c = sphere_model(2)
    assert pure_filtration_homology(c, 2, 8) == [0] * 9
    c2 = associated_pure(elliptic_six())
    assert pure_filtration_homology(c2, 5, 10) == [0] * 11


def test_top_class_sits_in_layer_r():
    # r = dim V^odd - dim V^even for elliptic pure fixtures
    for c in [sphere_model(2), sphere_model(3),
              associated_pure(elliptic_six())]:
        odd = sum(1 for g in c.algebra.generators if g.degree % 2)
        even = len(c.algebra.generators) - odd
        r = odd - even
        prof = ExponentProfile.of(c)
        n = prof.formal_dimension_candidate
        dims = pure_filtration_homology(c, r, n)
        assert dims[n] > 0


@pytest.mark.parametrize("path", sorted(DATA.glob("*.cdga")),
                         ids=lambda path: path.stem)
def test_bottom_filtration_layer_matches_the_even_subalgebra_quotient(path):
    """H_0 of the odd-letter filtration of the pure algebra, from the whole
    basis bucketed by odd-letter count, against `finiteness_test`, which
    works over the even subalgebra alone, on every shipped model (a
    cohomology file through its minimal model to degree 10)."""
    c = load_cdga(path)
    model = c if c.is_free else minimal_model(c, 10).model
    pure = model if is_pure(model) else associated_pure(model)
    want = finiteness_test(model, 24).h0_dims
    assert pure_filtration_homology(pure, 0, len(want) - 1) == want


# ----- finiteness -----

def test_finiteness_even_sphere():
    res = finiteness_test(sphere_model(2), 30)
    assert isinstance(res, Finite)
    assert res.total_dim == 2
    assert res.last_nonzero == 2


def test_finiteness_six_generator_example():
    res = finiteness_test(elliptic_six(), 40)
    assert isinstance(res, Finite)
    # H_0 of the pure part is spanned by 1, a, b
    assert res.total_dim == 3
    assert res.last_nonzero == 4


def test_finiteness_trivial_for_odd_generators_only():
    c = Cdga.build("odd2", [("x", 3), ("x2", 3)])
    res = finiteness_test(c, 20)
    assert isinstance(res, Finite)
    assert res.total_dim == 1


def test_finiteness_exceeded_for_polynomial_algebra():
    c = Cdga.build("poly2", [("y", 2), ("y2", 2)])
    res = finiteness_test(c, 30)
    assert isinstance(res, ExceededBound)
    assert res.bound == 30


# ----- classification -----

def test_classify_even_sphere():
    rep = classify_ellipticity(sphere_model(2), 30)
    assert rep.verdict == "Elliptic"
    assert rep.formal_dimension == 2
    assert rep.numerology == (True, True, True, True)
    prof = rep.profile
    assert prof.even_exponents == [1] and prof.odd_exponents == [2]
    # identity (1) instantiates as 3 - 1 = 2
    assert (2 * 2 - 1) - (2 * 1 - 1) == rep.formal_dimension
    assert rep.euler["chi_V"] == 0


@pytest.mark.parametrize("bound, verdict", [
    (2, "HyperbolicEvidence"),  # h0 dims 1 0 1 end in a nonzero
    (3, "Inconclusive"),        # 1 0 1 0: the scan stops in a zero run
    (4, "Elliptic"),            # 1 0 1 0 0: a zero run as long as deg y
])
def test_classify_even_sphere_by_scan_bound(bound, verdict):
    assert classify_ellipticity(sphere_model(2), bound).verdict == verdict


def test_classify_six_generator_example():
    rep = classify_ellipticity(elliptic_six(), 60)
    assert rep.verdict == "Elliptic"
    assert rep.formal_dimension == 14
    assert rep.numerology == (True, True, True, True)
    assert rep.euler["chi_V"] == -2
    assert rep.consequences == {"V_below_2n": True,
                                "V_above_n_at_most_one": True,
                                "dim_V_at_most_n": True}


def test_classify_spheres_chi_and_torus_rank():
    s3 = classify_ellipticity(sphere_model(3), 30)
    assert s3.euler["chi_V"] == -1
    assert torus_rank_bound(s3) == 1
    s2 = classify_ellipticity(sphere_model(2), 30)
    assert torus_rank_bound(s2) == 0
    t2 = classify_ellipticity(
        product_model(sphere_model(3), sphere_model(3)), 30)
    assert torus_rank_bound(t2) == 2


def test_classify_nonformal_model_elliptic():
    rep = classify_ellipticity(nonformal_model(), 40)
    assert rep.verdict == "Elliptic"
    assert rep.formal_dimension == 11


def test_classify_rejects_non_minimal():
    c = Cdga.build("cone", [("u", 3), ("v", 2)], {"v": "u"})
    with pytest.raises(InvariantsError, match="minimal"):
        classify_ellipticity(c, 20)


def test_classify_space_wedge_is_hyperbolic_evidence():
    rep = classify_space(wedge_cohomology(3, 3), 30)
    assert rep.verdict == "HyperbolicEvidence"
    assert rep.formal_dimension == 3
    # rank pi_7 = 2 sits inside the window [6, 7]
    assert rep.v_dims.get(7, 0) == 2
    assert any(flag == "ok" for _, flag in rep.gap_report)
    assert all(flag != "fail" for _, flag in rep.gap_report)


def test_classify_space_projective_space_elliptic():
    rep = classify_space(cp_cohomology(3), 40)
    assert rep.verdict == "Elliptic"
    assert rep.formal_dimension == 6


def test_gap_probe_windows():
    v = {3: 2, 5: 1, 7: 2, 9: 3, 11: 6}
    out = dict(gap_probe(v, 3, 12))
    assert out[3] == "ok"      # window (3,6) contains 5
    assert out[11] == "inconclusive"   # window (11,14) leaves the range


# ----- numerology and Euler characteristics -----

def test_numerology_odd_sphere():
    prof = ExponentProfile([], [2])
    assert exponent_numerology(prof, 3) == (True, True, True, True)


def test_numerology_product_of_odd_spheres():
    prof = ExponentProfile([], [2, 3])
    assert exponent_numerology(prof, 8) == (True, True, True, True)


def test_euler_cluster_even_sphere():
    e = euler_characteristics(sphere_model(2), 4)
    assert e["chi_H"] == 2
    assert e["chi_V"] == 0
    assert e["cluster_consistent"]


def test_euler_cluster_odd_sphere():
    e = euler_characteristics(sphere_model(3), 5)
    assert e["chi_H"] == 0
    assert e["chi_V"] == -1
    assert e["cluster_consistent"]


def test_euler_six_generator():
    e = euler_characteristics(elliptic_six(), 14)
    assert e["chi_V"] == -2


# ----- category -----

def test_cuplength_projective_spaces():
    for n in (2, 3):
        c = cp_model(n)
        assert cuplength(c, 2 * n) == n
        low, up = cat_bounds(c, 2 * n + 8)
        assert (low, up) == (n, n)


def test_cuplength_spheres():
    assert cuplength(sphere_model(3), 9) == 1
    assert cuplength(sphere_model(2), 10) == 1


def test_cuplength_product_of_spheres():
    c = product_model(sphere_model(3), sphere_model(3))
    assert cuplength(c, 8) == 2


def test_cat_upper_none_when_window_not_visible():
    low, up = cat_bounds(cp_model(2), 5)
    assert up is None


def test_category_of_an_algebra_with_no_positive_classes():
    """L(u, v) with du = v is acyclic: no class to multiply, and H+ = 0
    gives the upper bound 0."""
    cone = Cdga.build("cone", [("u", 3), ("v", 4)], {"u": "v"})
    assert cuplength(cone, 8) == 0
    assert cat_bounds(cone, 8) == (0, 0)


def test_toomer_rank_with_no_injective_cap():
    first, details = toomer_rank(cp_model(2), 1, 8)
    assert first is None
    assert [(row["n"], row["injective"]) for row in details] == [(1, False)]


def test_toomer_rank_odd_sphere():
    first, details = toomer_rank(sphere_model(3), 3, 7)
    assert first == 1


def test_toomer_rank_cp2():
    first, details = toomer_rank(cp_model(2), 4, 8)
    assert first == 2
    assert details[0]["injective"] is False


def test_toomer_rank_product_of_odd_spheres():
    c = product_model(sphere_model(3), sphere_model(3))
    first, _ = toomer_rank(c, 4, 8)
    assert first == 2


# ----- series and growth -----

def test_loop_series_odd_sphere():
    s = loop_poincare_series(sphere_model(3), 10)
    assert s.coefficients == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_loop_series_even_sphere():
    s = loop_poincare_series(sphere_model(2), 10)
    assert s.coefficients == [1] * 11


def test_loop_series_matches_loop_cohomology_on_fixtures():
    fixtures = [sphere_model(2), sphere_model(3), cp_model(2), cp_model(3),
                elliptic_six(),
                product_model(sphere_model(3), sphere_model(3))]
    for m in fixtures:
        lc = loop_cohomology(m, 20)
        s = loop_poincare_series(m, 20)
        assert s.coefficients == lc.dims


def test_full_invariants_cp2():
    inv = full_invariants(cp_model(2), 12, 40)
    assert inv["verdict"] == "Elliptic"
    assert inv["formalDimension"] == 4
    assert inv["cuplength"] == 2
    assert inv["catUpper"] == 2
    assert inv["toomerN"] == 2
    assert inv["numerology"] == [True, True, True, True]
    assert inv["chi"] == {"H": 3, "V": 0, "pi": 0}
