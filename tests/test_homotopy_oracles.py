"""Models against theory the package does not implement: for wedges of
spheres the Bott-Samelson theorem, H*(Omega(S^a v S^b)) = the tensor
algebra on classes of degrees a-1 and b-1, and the graded-Witt ranks of
the free graded Lie algebra whose universal enveloping algebra that is;
for products the Kunneth formula on free loop spaces, L(X x Y) = LX x LY
(Vigue-Poirrier and Sullivan); and for any simply connected CDGA the
reduced bar construction, whose cohomology is H*(Omega X) with no model
built.  The series are computed here from their formulas alone."""

import pathlib

import pytest

from sullivan.catalog import (
    cp_model,
    elliptic_six,
    product_model,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import load_cdga
from sullivan.invariants import loop_poincare_series
from sullivan.models import free_loop_model, loop_cohomology, minimal_model

from helpers import bar_cohomology

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def tensor_algebra_series(degrees, order):
    """Coefficients of 1/(1 - sum_d t^d): H*(Omega) of a wedge of spheres
    of dimensions d + 1."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        coeffs[n] = sum(coeffs[n - d] for d in degrees if n >= d)
    return coeffs


def witt_ranks(series):
    """r_1, r_2, ... with prod_odd (1+t^n)^r_n / prod_even (1-t^n)^r_n
    equal to the series (the Poincare-Birkhoff-Witt product), found degree
    by degree: each factor starts 1 + r_n t^n."""
    order = len(series) - 1
    product = [1] + [0] * order
    ranks = {}
    for n in range(1, order + 1):
        r = series[n] - product[n]
        assert r >= 0, f"negative rank in degree {n}"
        ranks[n] = r
        for _ in range(r):
            if n % 2:  # times (1 + t^n)
                product = [product[i] + (product[i - n] if i >= n else 0)
                           for i in range(order + 1)]
            else:  # divided by (1 - t^n)
                for i in range(n, order + 1):
                    product[i] += product[i - n]
    return ranks


def generator_counts(res, top):
    counts = [0] * (top + 1)
    for g in res.model.algebra.generators:
        counts[g.degree] += 1
    return counts


@pytest.mark.parametrize("spheres, top, want", [
    ((2, 2, 2), 8, {2: 3, 3: 6, 4: 8, 5: 18, 6: 48, 7: 124, 8: 312}),
    ((3, 3), 13, {3: 2, 5: 1, 7: 2, 9: 3, 11: 6, 13: 9}),
])
def test_generator_counts_are_graded_witt_ranks(spheres, top, want):
    series = tensor_algebra_series([d - 1 for d in spheres], top - 1)
    # a loop generator of degree n is a model generator of degree n + 1
    ranks = {n + 1: r for n, r in witt_ranks(series).items()}
    assert {d: r for d, r in ranks.items() if r} == want
    counts = generator_counts(minimal_model(wedge_cohomology(*spheres), top),
                              top)
    assert {d: counts[d] for d in ranks} == ranks
    assert counts[:2] == [0, 0]


@pytest.mark.parametrize("a, b, top", [(2, 2, 11), (2, 3, 14), (3, 3, 20),
                                       (2, 4, 16)])
def test_loop_series_is_bott_samelson(a, b, top):
    model = minimal_model(wedge_cohomology(a, b), top).model
    got = loop_poincare_series(model, top - 2).coefficients
    assert got == tensor_algebra_series([a - 1, b - 1], top - 2)


def free_loop_dims(model, top):
    loops = free_loop_model(model)
    return [loops.h_dim(k) for k in range(top + 1)]


def convolution(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def test_free_loops_of_the_two_sphere():
    # LS^2: one class in degree 0 and one in every degree from 1 on
    assert free_loop_dims(sphere_model(2), 16) == [1] * 17


@pytest.mark.parametrize("a, b", [
    (sphere_model(2), cp_model(2)),
    (sphere_model(3), elliptic_six()),
    (cp_model(2), cp_model(3)),
], ids=["S2xCP2", "S3xelliptic6", "CP2xCP3"])
def test_free_loops_of_a_product_are_the_kunneth_convolution(a, b):
    top = 16
    assert free_loop_dims(product_model(a, b), top) == convolution(
        free_loop_dims(a, top), free_loop_dims(b, top))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.cdga")),
                         ids=lambda path: path.stem)
def test_loop_cohomology_is_the_bar_construction(path):
    """H^0..H^10(Omega X) of the model synthesized through degree 11,
    whose degree-11 generators give loop classes in degree 10, against the
    bar construction of the file itself.  Degree 10 keeps each bar complex
    small: at most 10,855 words in one degree (elliptic6, degree 11)."""
    c = load_cdga(path)
    model = minimal_model(c, 11).model
    assert loop_cohomology(model, 10).dims == bar_cohomology(c, 10)
