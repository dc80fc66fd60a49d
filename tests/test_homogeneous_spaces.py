"""Homogeneous spaces as oracles from Lie theory (ROADMAP item 4).

The Cartan model of an equal-rank G/H is a pure Sullivan algebra:
generators t of degree 2 for the torus of H, and y of degree 2d - 1 with
dy the basic Weyl invariants of G, written in the t.  Lie theory gives
its cohomology without this code: H is even, with Poincare polynomial
prod(1 - q^d) / prod(1 - q^e) in q = t^2, where the e are the degrees of
the invariants of H in the t, and chi = |W_G| / |W_H|.  The models are
read from `.cdga` text.
"""

from itertools import combinations

import pytest

from sullivan.cdga import parse_cdga_file
from sullivan.invariants import classify_space
from sullivan.models import minimal_model


def _cdga_text(name, gens, diffs):
    lines = [f"cdga {name}"]
    lines += [f"gen {g} {d}" for g, d in gens]
    lines += [f"diff {g} = {poly}" for g, poly in diffs]
    return "\n".join(lines) + "\n"


def flag_manifold(n):
    """U(n)/T: dy_(2k-1) = e_k(t1..tn); the invariants of T are n linear
    forms, those of U(n) have degrees 1..n."""
    ts = [f"t{i}" for i in range(1, n + 1)]
    gens = [(t, 2) for t in ts] + [(f"y{2 * k - 1}", 2 * k - 1)
                                   for k in range(1, n + 1)]
    diffs = [(f"y{2 * k - 1}", " + ".join("*".join(c)
                                          for c in combinations(ts, k)))
             for k in range(1, n + 1)]
    return _cdga_text(f"U({n})/T", gens, diffs), [1] * n, list(range(1, n + 1))


def grassmannian_2_4():
    """Gr_2(C^4) from c(E) c(F) = 1: c(F) in degrees 6 and 8 must vanish."""
    gens = [("c1", 2), ("c2", 4), ("y5", 5), ("y7", 7)]
    diffs = [("y5", "c1^3 - 2*c1*c2"), ("y7", "c1^4 - 3*c1^2*c2 + c2^2")]
    return _cdga_text("Gr2(C4)", gens, diffs), [1, 2], [3, 4]


def poincare(es, ds, top):
    """Coefficients through degree `top` of prod(1 - q^d) / prod(1 - q^e),
    q = t^2, as a list indexed by the degree in t."""
    half = [1] + [0] * (top // 2)
    for d in ds:
        for i in range(len(half) - 1, d - 1, -1):
            half[i] -= half[i - d]
    for e in es:
        for i in range(e, len(half)):
            half[i] += half[i - e]
    dims = [0] * (top + 1)
    for i, c in enumerate(half):
        if 2 * i <= top:
            dims[2 * i] = c
    return dims


# (model, formal dimension, |W_G| / |W_H|, minimal-model degrees)
SPACES = [
    (flag_manifold(2), 2, 2, [2, 3]),
    (flag_manifold(3), 6, 6, [2, 2, 3, 5]),
    (grassmannian_2_4(), 8, 24 // (2 * 2), [2, 4, 5, 7]),
]


@pytest.mark.parametrize("space, fdim, chi, model_degrees", SPACES,
                         ids=["U(2)/T", "U(3)/T", "Gr2(C4)"])
def test_cartan_model_against_lie_theory(space, fdim, chi, model_degrees):
    text, es, ds = space
    c = parse_cdga_file(text)
    top = fdim + 4
    dims = [c.h_dim(k) for k in range(top + 1)]
    assert dims == poincare(es, ds, top)
    assert dims[fdim] == 1 and not any(dims[fdim + 1:])
    assert sum(dims) == chi
    report = classify_space(c, 40)
    assert report.verdict == "Elliptic"
    assert report.formal_dimension == fdim
    model = minimal_model(c, 12).model
    assert sorted(g.degree for g in model.algebra.generators) == model_degrees


def test_poincare_oracle_is_the_known_series():
    assert poincare([1, 1], [1, 2], 4) == [1, 0, 1, 0, 0]
    assert poincare([1] * 3, [1, 2, 3], 8) == [1, 0, 2, 0, 2, 0, 1, 0, 0]
    assert poincare([1, 2], [3, 4], 10) == [1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 0]
