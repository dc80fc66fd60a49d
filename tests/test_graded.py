"""Graded-commutative arithmetic: signs, Leibniz, bases, parsing."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.graded import (
    AlgElement,
    AlgebraError,
    Derivation,
    FreeAlgebra,
    Generator,
    format_element,
    parse_poly,
)

from helpers import in_algebra, one


def test_koszul_sign_two_odd():
    alg = FreeAlgebra.build([("x", 3), ("y", 3)])
    x, y = alg.gen_elem("x"), alg.gen_elem("y")
    assert x * y == alg.parse("x*y")
    assert y * x == alg.parse("-x*y")


def test_odd_square_vanishes():
    alg = FreeAlgebra.build([("u", 3)])
    u = alg.gen_elem("u")
    assert (u * u).is_zero()


def test_even_odd_commute():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    y, z = alg.gen_elem("y"), alg.gen_elem("z")
    assert (y + z) * y == alg.parse("y^2 + y*z")
    assert z * y == y * z


def test_universe_mismatch_names_generator():
    a = FreeAlgebra.build([("x", 3)])
    b = FreeAlgebra.build([("w", 3)])
    with pytest.raises(AlgebraError, match="w|x"):
        a.gen_elem("x") * b.gen_elem("w")


def test_a_generator_is_an_immutable_value():
    """A generator hashes as the tuple of its fields, so set orders do not
    depend on its type, and it compares equal to that tuple."""
    g = Generator("x", 2, 0)
    assert hash(g) == hash(("x", 2, 0)) and g == ("x", 2, 0)
    assert repr(g) == "Generator(name='x', degree=2, ordinal=0)"
    assert (g.name, g.degree, g.ordinal) == ("x", 2, 0)
    for field in ("name", "degree", "ordinal", "other"):
        with pytest.raises(AttributeError):
            setattr(g, field, 1)
    assert not g.is_odd and Generator("y", 3, 1).is_odd
    assert Generator("x", 2, 0) == g and Generator("x", 2, 1) != g


BASE = [("a", 2), ("b", 3), ("c", 4), ("d", 5)]


@pytest.mark.parametrize("specs, forward, backward", [
    ([("a", 2), ("b", 3), ("e", 4), ("d", 5)], "c", "e"),
    ([("a", 2), ("b", 3), ("c", 6), ("d", 5)], "c", "c"),
    (BASE + [("e", 7)], "e", "e"),
    (BASE[:2] + BASE[3:], "c", "d")],
    ids=["renamed", "regraded", "added", "dropped"])
def test_foreign_generator_names_the_first_unshared_generator(
        specs, forward, backward):
    """Two universes that differ in one generator: each names the first
    generator, its own before the other's, that the other lacks."""
    a, b = FreeAlgebra.build(BASE), FreeAlgebra.build(specs)
    assert a.foreign_generator(b) == forward
    assert b.foreign_generator(a) == backward


@pytest.mark.parametrize("other", [2, Fraction(1, 2), "y"])
@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_foreign_operands_raise_type_error_in_either_order(op, other):
    """An element meets a non-element in + or * with `NotImplemented`, so
    Python raises its `TypeError` whichever operand comes first."""
    x = FreeAlgebra.build([("y", 2)]).gen_elem("y")
    for a, b in ((x, other), (other, x)):
        with pytest.raises(TypeError):
            op(a, b)


def test_derivation_matches_even_sphere_differential():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    d = Derivation(alg, +1, {"z": alg.parse("y^2")})
    yz = alg.parse("y*z")
    assert d.apply(yz) == alg.parse("y^3")


def test_derivation_kills_unit():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    d = Derivation(alg, +1, {"z": alg.parse("y^2")})
    assert d.apply(one(alg)).is_zero()


def test_shift_minus_one_derivation_on_square():
    alg = FreeAlgebra.build([("y", 2), ("ybar", 1)])
    s = Derivation(alg, -1, {"y": alg.gen_elem("ybar")})
    assert s.apply(alg.parse("y^2")) == alg.parse("2*y*ybar")


def test_derivation_rejects_bad_image_degree():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    with pytest.raises(AlgebraError, match="degree"):
        Derivation(alg, +1, {"z": alg.gen_elem("y")})


class _CountingTuple(tuple):
    """A generator tuple that counts the comparisons made with it."""

    def __eq__(self, other):
        self.compared += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def test_same_algebra_compares_no_generator_tuples():
    """Images over the derivation's own algebra, and an element over it,
    are known to share its universe without comparing generators; a copy
    of the universe is still compared, and still accepted."""
    alg = FreeAlgebra.build([("y", 2), ("z", 3), ("w", 5)])
    alg.generators = _CountingTuple(alg.generators)
    alg.generators.compared = 0
    d = Derivation(alg, +1, {"z": alg.parse("y^2"), "w": alg.parse("y^3")})
    assert d.apply(alg.parse("y*w")) == alg.parse("y^4")
    assert alg.gen_elem("y") * alg.gen_elem("z") == alg.parse("y*z")
    assert alg.generators.compared == 0
    copy = FreeAlgebra.build([("y", 2), ("z", 3), ("w", 5)])
    assert Derivation(alg, +1, {"z": copy.parse("y^2")}).images
    assert alg.generators.compared == 1


def test_basis_of_degree_exterior():
    alg = FreeAlgebra.build([("x", 3)])
    assert alg.basis_of_degree(3) == [((0, 1),)]
    assert alg.basis_of_degree(6) == []


def test_basis_of_degree_mixed():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    assert alg.basis_of_degree(6) == [((0, 3),)]
    assert alg.basis_of_degree(5) == [((0, 1), (1, 1))]


def test_basis_of_degree_two_gens_deg10():
    alg = FreeAlgebra.build([("u", 2), ("x", 5)])
    assert alg.basis_of_degree(10) == [((0, 5),)]


def test_basis_word_filter():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    assert alg.basis_of_degree(6, word_max=2) == []
    assert alg.basis_of_degree(4, word_max=2) == [((0, 2),)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=4),
       st.lists(st.lists(st.integers(1, 5), max_size=3), min_size=1,
                max_size=2),
       st.integers(0, 10))
def test_extended_algebras_keep_the_low_basis_tables(base, steps, top):
    """An algebra extended once or twice takes over the basis lists below
    its lowest new degree, the same lists, and every degree's table, the
    basis and its `ends`, is that of a fresh build."""
    specs = [(f"a{i}", d) for i, d in enumerate(base)]
    alg = FreeAlgebra.build(specs)
    alg.basis_of_degree(top)
    for step, degrees in enumerate(steps):
        new = [(f"b{step}_{i}", d) for i, d in enumerate(degrees)]
        ext = alg.extend(new)
        for r in range(min(degrees, default=top + 1)):
            if r in alg._bases:
                assert ext._bases[r][0] is alg._bases[r][0]
        specs += new
        fresh = FreeAlgebra.build(specs)
        top += 2
        assert ext.basis_of_degree(top) == fresh.basis_of_degree(top)
        assert ext._bases == fresh._bases
        alg = ext


def test_scaling_by_zero_gives_the_zero_element():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    e = alg.parse("y^2 + z")
    assert e.scale(0) == alg.zero() and e.scale(0).is_zero()
    assert e.scale("1/2").scale(2) == e


def test_parse_print_roundtrip():
    alg = FreeAlgebra.build([("y", 2), ("z", 3), ("w", 5)])
    rng = random.Random(11)
    monos = alg.basis_of_degree(10) + alg.basis_of_degree(7) + [()]
    for _ in range(50):
        terms = {}
        for m in monos:
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if c:
                    terms[m] = c
        e = alg.element(terms)
        assert parse_poly(format_element(e), alg) == e


def test_parse_rejects_unknown_generator():
    alg = FreeAlgebra.build([("y", 2)])
    with pytest.raises(AlgebraError, match="q"):
        alg.parse("y*q")


def test_degree_queries():
    alg = FreeAlgebra.build([("y", 2), ("z", 3)])
    assert alg.parse("y^3").degree() == 6
    assert alg.zero().degree() is None
    with pytest.raises(AlgebraError, match="inhomogeneous"):
        alg.parse("y + z").degree()


def _random_homogeneous(alg, rng, degree):
    monos = alg.basis_of_degree(degree)
    terms = {m: Fraction(rng.randint(-4, 4)) for m in monos
             if rng.random() < 0.7}
    return alg.element(terms)


def test_graded_commutativity_and_associativity_sampled():
    # >= 4 generators, >= 200 samples, exact
    alg = FreeAlgebra.build([("a", 2), ("x", 3), ("b", 4), ("v", 5), ("w", 7)])
    rng = random.Random(2026)
    for _ in range(200):
        p = rng.choice([2, 3, 4, 5, 7])
        q = rng.choice([2, 3, 4, 5, 7])
        r = rng.choice([2, 3, 4])
        a = _random_homogeneous(alg, rng, p)
        b = _random_homogeneous(alg, rng, q)
        c = _random_homogeneous(alg, rng, r)
        sign = -1 if (p % 2 and q % 2) else 1
        assert a * b == (b * a).scale(sign)
        assert (a * b) * c == a * (b * c)


def test_leibniz_sampled():
    alg = FreeAlgebra.build([("a", 2), ("x", 3), ("b", 4), ("v", 5)])
    d = Derivation(alg, +1, {
        "x": alg.parse("a^2"),
        "v": alg.parse("a*b"),
    })
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 4, 5, 6])
        q = rng.choice([2, 3, 4, 5])
        a = _random_homogeneous(alg, rng, p)
        b = _random_homogeneous(alg, rng, q)
        lhs = d.apply(a * b)
        rhs = d.apply(a) * b + (a * d.apply(b)).scale(-1 if p % 2 else 1)
        assert lhs == rhs


def test_basis_counts_match_series_oracle():
    # coefficient of z^n in prod 1/(1-z^|even|) * prod (1+z^|odd|)
    specs = [("a", 2), ("x", 3), ("b", 4), ("v", 5)]
    alg = FreeAlgebra.build(specs)
    N = 16
    series = [Fraction(0)] * (N + 1)
    series[0] = Fraction(1)
    for name, deg in specs:
        nxt = [Fraction(0)] * (N + 1)
        if deg % 2:
            for i in range(N + 1):
                nxt[i] = series[i] + (series[i - deg] if i >= deg else 0)
        else:
            # multiply by 1/(1-z^deg): running sum
            for i in range(N + 1):
                nxt[i] = series[i] + (nxt[i - deg] if i >= deg else 0)
        series = nxt
    for n in range(N + 1):
        assert len(alg.basis_of_degree(n)) == series[n]


def test_degree_zero_generators_guarded():
    with pytest.raises(AlgebraError):
        FreeAlgebra.build([("t", 0)])
    alg = FreeAlgebra.build([("t", 0), ("y", 1)], allow_degree0=True)
    with pytest.raises(AlgebraError):
        alg.basis_of_degree(1)


def test_extend_keeps_old_monomials_valid():
    alg = FreeAlgebra.build([("y", 2)])
    e = alg.parse("y^2")
    big = alg.extend([("z", 3)])
    e2 = in_algebra(e, big)
    assert e2 == big.parse("y^2")


def test_in_algebra_refuses_universes_that_disagree():
    x = FreeAlgebra.build([("x", 2), ("y", 3)]).gen_elem("x")
    with pytest.raises(AlgebraError) as info:
        in_algebra(x, FreeAlgebra.build([("w", 2)]))
    assert str(info.value) == "ordinal 0 disagrees between universes"


# u, y, x of degrees 1, 2, 3 have ordinals 0, 1, 2
PARSE_GENS = [("u", 1), ("y", 2), ("x", 3)]


@pytest.mark.parametrize("text, message", [
    ("", "empty polynomial"),
    ("é", "bad character 'é' in polynomial"),
    ("2 y", "trailing junk in polynomial"),
    ("y^2^3", "trailing junk in polynomial"),
    ("1/0*y", "expected a positive denominator"),
    ("y^0", "expected a positive exponent"),
    ("x*", "expected a generator name, got None"),
    ("(y)", "expected a generator name, got '('"),
    ("2*3", "expected a generator name, got 3"),
    ("y - - x", "expected a generator name, got '-'"),
    ("x^2*q", "unknown generator q"),
])
def test_parse_error_messages(text, message):
    alg = FreeAlgebra.build(PARSE_GENS)
    with pytest.raises(AlgebraError) as exc:
        parse_poly(text, alg)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, terms", [
    ("x*u", {((0, 1), (2, 1)): -1}),
    ("x*x", {}),
    ("y*y*y", {((1, 3),): 1}),
    ("0*x + 1", {(): 1}),
    ("-1/2*y*x - x*y", {((1, 1), (2, 1)): Fraction(-3, 2)}),
    ("+3", {(): 3}),
    ("y # c", {((1, 1),): 1}),
])
def test_parse_valid_inputs(text, terms):
    e = parse_poly(text, FreeAlgebra.build(PARSE_GENS))
    assert e.terms == terms
    assert all(type(c) is Fraction for c in e.terms.values())


def test_parse_does_no_element_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("parsing did element arithmetic")

    for name in ("__mul__", "__add__", "__neg__", "scale"):
        monkeypatch.setattr(AlgElement, name, refuse)
    e = parse_poly("2*x*u - 1/2*y^2*x + u + 3", FreeAlgebra.build(PARSE_GENS))
    assert list(e.terms.items()) == [
        (((0, 1), (2, 1)), -2), (((1, 2), (2, 1)), Fraction(-1, 2)),
        (((0, 1),), 1), ((), 3)]
