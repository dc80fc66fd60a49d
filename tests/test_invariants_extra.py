"""Cross-checks tying the finiteness machinery, category bounds, and the
documented cohomology table of the six-generator example together."""

import pytest

from sullivan import models
from sullivan.catalog import (
    cp_model,
    elliptic_six,
    nonformal_model,
    product_model,
    sphere_model,
)
from sullivan.cdga import Cdga
from sullivan.invariants import (
    ExceededBound,
    Finite,
    associated_pure,
    cat_bounds,
    finiteness_test,
)
from sullivan.models import ModelError, path_space_model


def test_pure_finiteness_matches_original_finiteness():
    # finite side: the pure test says Finite and the original cohomology
    # visibly dies out (zero window after the formal dimension)
    c = elliptic_six()
    assert isinstance(finiteness_test(c, 60), Finite)
    dims = [c.h_dim(k) for k in range(22)]
    assert dims[14] > 0 and all(d == 0 for d in dims[15:])
    # infinite side: the pure test exceeds its bound and the original
    # cohomology keeps producing classes
    poly = Cdga.build("poly2", [("y", 2), ("y2", 2)])
    assert isinstance(finiteness_test(poly, 30), ExceededBound)
    assert all(poly.h_dim(2 * k) > 0 for k in range(10))


def test_cuplength_below_cat_upper_bound():
    fixtures = [(sphere_model(2), 12), (sphere_model(3), 12),
                (cp_model(2), 12), (cp_model(3), 14),
                (product_model(sphere_model(3), sphere_model(3)), 12),
                (nonformal_model(), 16)]
    for c, n in fixtures:
        low, upper = cat_bounds(c, n)
        if upper is not None:
            assert low <= upper


def test_elliptic_six_pure_cohomology_table_is_frozen():
    # brute-force table of H*(pure part): note the classes involving x in
    # degrees 3, 5, 7, 10, 12, and that nothing survives above degree 14
    p = associated_pure(elliptic_six())
    dims = [p.h_dim(k) for k in range(22)]
    assert dims == [1, 0, 1, 1, 1, 1, 0, 2, 0, 1, 1, 1, 1, 0, 1,
                    0, 0, 0, 0, 0, 0, 0]
    alg = p.algebra
    # the two stated representatives are genuine nonzero classes
    assert p.class_coords(alg.parse("b*u - a*v"), 7)
    assert p.class_coords(alg.parse("a*w - b*v"), 9)
    # and the top class sits in degree 14, not 18
    assert p.h_dim(14) == 1 and p.h_dim(18) == 0


def test_path_space_series_cap_error_names_generator(monkeypatch):
    monkeypatch.setattr(models, "_SERIES_CAP", 1)
    with pytest.raises(ModelError, match="z.*did not terminate|did not terminate"):
        path_space_model(sphere_model(2))
