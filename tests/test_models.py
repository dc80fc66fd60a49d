"""Minimal models, acyclic closures, loop/path/free-loop constructions."""

import pytest

from sullivan import cdga, graded, linalg, models
from sullivan.catalog import (
    cp_cohomology,
    cp_model,
    nonformal_model,
    product_model,
    sphere_cohomology,
    sphere_model,
    wedge_cohomology,
)
from sullivan.cdga import Cdga, check_quasi_iso, tensor_product
from sullivan.models import (
    ModelError,
    acyclic_closure,
    check_minimal_sullivan,
    fiber_model,
    free_loop_model,
    loop_cohomology,
    minimal_model,
    multiplication_morphism,
    path_space_model,
    pushout_model,
)


def minimal_fixtures():
    return [sphere_model(2), sphere_model(3), cp_model(2), cp_model(3),
            nonformal_model(),
            product_model(sphere_model(3), sphere_model(3))]


# ----- minimality check -----

def test_even_sphere_model_is_minimal():
    assert check_minimal_sullivan(sphere_model(2))


def test_word_length_one_differential_is_not_minimal():
    c = Cdga.build("cone", [("u", 3), ("v", 2)], {"v": "u"})
    assert not check_minimal_sullivan(c)


def test_minimality_check_reads_word_lengths_from_monomials(monkeypatch):
    """The check reads each image's least word length from its monomials:
    it builds no word-length pieces."""
    def refuse(self):
        raise AssertionError("word_length_split called")

    monkeypatch.setattr(graded.AlgElement, "word_length_split", refuse)
    assert all(check_minimal_sullivan(m) for m in minimal_fixtures())
    assert not check_minimal_sullivan(
        Cdga.build("cone", [("u", 3), ("v", 2), ("w", 4)],
                   {"u": "v^2 + w"}))
    assert minimal_model(cp_cohomology(2), 8).generator_profile() == [
        ("v2", 2), ("v5", 5)]


def test_minimality_check_rejects_low_degrees():
    c = Cdga.build("circle-ish", [("t", 1)])
    with pytest.raises(ModelError, match="degree 1"):
        check_minimal_sullivan(c)


# ----- minimal models -----

def profile(res):
    return [(g.degree,
             str(res.model.differential.images.get(g.ordinal, "")) or "0")
            for g in res.model.algebra.generators]


def test_minimal_model_of_odd_sphere():
    res = minimal_model(sphere_cohomology(3), 9)
    assert [d for d, _ in profile(res)] == [3]
    assert profile(res)[0][1] == "0"
    assert check_quasi_iso(res.quasi_iso, 8).ok


def test_minimal_model_of_even_sphere():
    res = minimal_model(sphere_cohomology(2), 8)
    assert [d for d, _ in profile(res)] == [2, 3]
    y, z = res.model.algebra.generators
    dz = res.model.differential.images[z.ordinal]
    assert dz == res.model.algebra.parse(f"{y.name}^2")


@pytest.mark.parametrize("n,xdeg,power", [(2, 5, 3), (3, 7, 4)])
def test_minimal_model_of_projective_spaces(n, xdeg, power):
    res = minimal_model(cp_cohomology(n), 2 * n + 4)
    degs = [d for d, _ in profile(res)]
    assert degs == [2, xdeg]
    u, x = res.model.algebra.generators
    dx = res.model.differential.images[x.ordinal]
    assert dx == res.model.algebra.parse(f"{u.name}^{power}")


def test_minimal_model_output_is_minimal_and_quasi_iso():
    for target in [sphere_cohomology(2), sphere_cohomology(3),
                   cp_cohomology(2), wedge_cohomology(3, 3)]:
        res = minimal_model(target, 8)
        if res.model.algebra.generators:
            assert check_minimal_sullivan(res.model)
        assert check_quasi_iso(res.quasi_iso, 7).ok


def test_minimal_model_idempotence_on_formal_fixtures():
    # running synthesis on the model's own cohomology presentation gives the
    # same generator counts per degree and the same differential word ranks
    for target, model in [(sphere_cohomology(2), sphere_model(2)),
                          (cp_cohomology(2), cp_model(2))]:
        res = minimal_model(target, 9)
        got = sorted(g.degree for g in res.model.algebra.generators)
        want = sorted(g.degree for g in model.algebra.generators)
        assert got == want
        got_wl = sorted(
            max(e.word_length_split(), default=0)
            for e in res.model.differential.images.values())
        want_wl = sorted(
            max(e.word_length_split(), default=0)
            for e in model.differential.images.values())
        assert got_wl == want_wl


def test_minimal_model_resynthesis_of_nonformal_algebra():
    # the nonformal algebra is its own minimal model; synthesis against it
    # reproduces the generator profile and a word-length-2 differential
    res = minimal_model(nonformal_model(), 12)
    assert sorted(g.degree for g in res.model.algebra.generators) == [3, 3, 5]
    images = list(res.model.differential.images.values())
    assert len(images) == 1
    assert set(images[0].word_length_split()) == {2}


def test_minimal_model_of_wedge_grows():
    res = minimal_model(wedge_cohomology(3, 3), 8)
    hist = {}
    for g in res.model.algebra.generators:
        hist[g.degree] = hist.get(g.degree, 0) + 1
    assert hist[3] == 2
    assert hist[5] == 1
    assert hist[7] == 2


def test_minimal_model_rejects_non_simply_connected():
    bad = Cdga.build("h1", [("t", 1)])
    with pytest.raises(ModelError, match="H\\^1"):
        minimal_model(bad, 5)


def test_minimal_model_stage_log():
    res = minimal_model(sphere_cohomology(2), 6)
    by_degree = {s["degree"]: s for s in res.stages}
    assert by_degree[2]["cocycle_gens"] != []
    assert by_degree[3]["kernel_gens"] != []


@pytest.mark.parametrize("degrees, top, monomials", [
    ((2, 2), 10, 407), ((3, 3), 20, 306), ((2, 3), 12, 161)],
    ids=["h_s2_v_s2", "h_s3_v_s3", "h_s2_v_s3"])
def test_synthesis_fills_each_phi_table_entry_once(
        monkeypatch, degrees, top, monomials):
    """The stages' morphisms share one table of phi, kept whole until the
    synthesis ends, so no monomial or tail of one is filled twice."""
    fills = []
    original = cdga.multiplicative

    def counted(letters, alg, table=None):
        image, table = original(letters, alg, table)

        def filling(mono):
            before = set(table)
            row = image(mono)
            fills.extend(table.keys() - before)
            return row
        return filling, table

    monkeypatch.setattr(cdga, "multiplicative", counted)
    minimal_model(wedge_cohomology(*degrees), top)
    assert len(fills) == len(set(fills)) == monomials


# ----- the synthesis certificate -----

def test_synthesis_calls_the_leibniz_rule_at_most_half_as_often(
        monkeypatch):
    calls = 0
    original = graded.Derivation.leibniz

    def counted(self, mono):
        nonlocal calls
        calls += 1
        return original(self, mono)

    monkeypatch.setattr(graded.Derivation, "leibniz", counted)
    minimal_model(wedge_cohomology(2, 2), 10)
    # 1,949 calls of the then per-monomial `Derivation.apply` at commit
    # 7a3e530, which rebuilt the model at every stage and once more for
    # the closing checks
    assert calls <= 1949 // 2


def test_synthesis_takes_each_kernel_once(monkeypatch):
    """Stage n takes the kernel of d_(n+1) for H^(n+1); the next stage's
    H^(n+1) check reads ranks alone, and H(S2 v S2) is zero above degree
    2, so no stage takes that kernel again and none is carried.  Taking
    it afresh at every stage once made 37 calls.  Taking H(phi) also
    where the target has no cohomology made 29: 9 more kernels of 0-row
    H(phi) matrices and 8 more of 0x0 differentials.  What is left takes
    each nontrivial kernel (7x6 ... 471x300) once."""
    calls = 0
    original = cdga.kernel_basis

    def counted(m):
        nonlocal calls
        calls += 1
        return original(m)

    monkeypatch.setattr(cdga, "kernel_basis", counted)
    monkeypatch.setattr(models, "kernel_basis", counted)
    minimal_model(wedge_cohomology(2, 2), 10)
    assert calls == 12


def test_synthesis_ranks_each_differential_once(monkeypatch):
    """Stage n ranks the model's d_(n-1) for its H^(n-1) check and reads
    the rank of d_(n-2) carried by `Cdga.extend`, which d_(n-2) keeps as
    it gains only zero rows.  Carrying the matrix of d_(n-2) instead, to
    rank it again, made 31 calls."""
    calls = 0
    original = linalg.rank

    def counted(m):
        nonlocal calls
        calls += 1
        return original(m)

    for module in (linalg, models):
        monkeypatch.setattr(module, "rank", counted)
    minimal_model(wedge_cohomology(2, 2), 10)
    assert calls == 23


def test_synthesis_takes_h_phi_only_where_the_target_has_cohomology(
        monkeypatch):
    """H(S2 v S2) is zero above degree 2, so H^k(phi) is taken in degree 2
    alone: by stage (a) of stage 2 and by the H^2 check of stage 3."""
    degrees = []
    original = cdga.CdgaMorphism.h_matrix

    def recorded(self, k):
        degrees.append(k)
        return original(self, k)

    monkeypatch.setattr(cdga.CdgaMorphism, "h_matrix", recorded)
    target = wedge_cohomology(2, 2)
    minimal_model(target, 10)
    assert degrees == [2, 2]
    assert all(target.h_dim(k) for k in degrees)


def test_a_non_exact_image_is_caught_where_the_target_has_no_cohomology(
        monkeypatch):
    """S2 model with an acyclic pair a, b (da = b) beside it: H^4 = 0, so
    stage 3 kills H^4(model) = <v2^2> without taking H^4(phi).  Adding the
    non-cocycle x*a to phi(v2^2) must still fail the preimage solve."""
    target = Cdga.build("S2+ab", [("x", 2), ("y", 3), ("a", 2), ("b", 3)],
                        {"y": "x^2", "a": "b"})
    assert [target.h_dim(k) for k in range(7)] == [1, 0, 1, 0, 0, 0, 0]
    assert minimal_model(target, 6).generator_profile() == [("v2", 2),
                                                            ("v3", 3)]
    original = cdga.CdgaMorphism.apply
    bump = target.algebra.parse("x*a")

    def perturbed(self, elem):
        img = original(self, elem)
        return img + bump if elem and elem.degree() == 4 else img

    monkeypatch.setattr(cdga.CdgaMorphism, "apply", perturbed)
    with pytest.raises(ModelError, match="not exact in degree 4"):
        minimal_model(target, 6)


def test_certificate_catches_a_flipped_kernel_differential(monkeypatch):
    """dv3 = -v2^2 still squares to zero, so only the chain-map identity
    d phi(v3) = phi(dv3) can see the flip."""
    original = Cdga.extend

    def flip_first(self, specs, images, carry=()):
        images = dict(images)
        for name in list(images)[:1]:
            images[name] = -images[name]
        return original(self, specs, images, carry)

    monkeypatch.setattr(Cdga, "extend", flip_first)
    with pytest.raises(ModelError, match="not a chain map at v3"):
        minimal_model(sphere_model(2), 6)


def test_certificate_catches_a_perturbed_preimage(monkeypatch):
    original = models.solve

    def doubled(m, b):
        return {j: 2 * x for j, x in original(m, b).items()}

    monkeypatch.setattr(models, "solve", doubled)
    with pytest.raises(ModelError, match="not a chain map at v3"):
        minimal_model(sphere_model(2), 6)


def test_certificate_catches_a_differential_that_is_no_cocycle(monkeypatch):
    """Shift the model's first cohomology representative off the cocycles:
    the kernel generators built from it get a d that squares to nonzero."""
    original = Cdga.h_basis

    def shifted(self, k):
        reps = original(self, k)
        if not self.is_free or k < 5 or not reps:
            return reps
        return [{**reps[0], 0: reps[0].get(0, 0) + 1}] + reps[1:]

    monkeypatch.setattr(Cdga, "h_basis", shifted)
    with pytest.raises(ModelError, match="d\\^2 != 0"):
        minimal_model(wedge_cohomology(2, 2), 6)


@pytest.mark.parametrize("edit", [lambda vecs: vecs[:-1],
                                  lambda vecs: vecs + vecs[-1:],
                                  lambda vecs: vecs[:1] * len(vecs)],
                         ids=["dropped", "extra", "collapsed"])
def test_certificate_catches_a_wrong_set_of_cocycle_generators(
        monkeypatch, edit):
    """One cocycle generator too few, or one too many, gives H^2 of the
    model the wrong dimension; two on one class give the right dimension
    but a map that is not onto."""
    original = models.quotient_basis
    monkeypatch.setattr(models, "quotient_basis",
                        lambda sub, within: edit(original(sub, within)))
    with pytest.raises(ModelError,
                       match="not a quasi-isomorphism in degree 2"):
        minimal_model(wedge_cohomology(2, 2), 6)



# ----- relative algebras: fiber, pushout -----

def test_fiber_model_of_odd_cone():
    # (Lu -> L(u, v), Dv = u), u odd: fiber is a polynomial line
    base = Cdga.build("Lu", [("u", 3)])
    total = Cdga.build("cone", [("u", 3), ("v", 2)], {"v": "u"})
    from sullivan.models import RelativeSullivanAlgebra
    rel = RelativeSullivanAlgebra(base, ["v"], total)
    fib = fiber_model(rel)
    assert fib.d(fib.algebra.gen_elem("v")).is_zero()
    assert [fib.h_dim(k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 1]


def test_fiber_model_keeps_what_survives_the_base_going_to_zero():
    """Over L(x), a has no D and Db = a^2 + x*a: the fiber keeps a closed
    and db = a^2, the model of S^2."""
    from sullivan.models import RelativeSullivanAlgebra
    base = Cdga.build("Lx", [("x", 2)])
    total = Cdga.build("total", [("x", 2), ("a", 2), ("b", 3)],
                       {"b": "a^2 + x*a"})
    fib = fiber_model(RelativeSullivanAlgebra(base, ["a", "b"], total))
    alg = fib.algebra
    assert [(g.name, g.degree) for g in alg.generators] == [("a", 2),
                                                            ("b", 3)]
    assert fib.differential.images == {
        alg.generator("b").ordinal: alg.parse("a^2")}
    assert [fib.h_dim(k) for k in range(7)] == [1, 0, 1, 0, 0, 0, 0]


def test_pushout_along_identity_is_unchanged():
    from sullivan.cdga import identity_morphism
    m = sphere_model(2)
    rel = acyclic_closure(m)
    out = pushout_model(identity_morphism(m), rel)
    assert out.total.differential == rel.total.differential


def test_pushout_to_unit_gives_fiber():
    m = sphere_model(2)
    rel = acyclic_closure(m)
    unit = Cdga.build("Q", [])
    from sullivan.cdga import CdgaMorphism
    aug = CdgaMorphism(m, unit, {})
    out = pushout_model(aug, rel)
    fib = fiber_model(rel)
    assert [g.degree for g in out.fiber] == \
        [g.degree for g in fib.algebra.generators]
    for g in out.fiber:
        dg = out.total.differential.images.get(g.ordinal)
        assert dg is None or dg.is_zero()


def test_pushout_base_mismatch():
    from sullivan.cdga import identity_morphism
    rel = acyclic_closure(sphere_model(2))
    with pytest.raises(ModelError, match="base mismatch"):
        pushout_model(identity_morphism(sphere_model(3)), rel)


# ----- acyclic closures -----

def test_acyclic_closure_of_odd_sphere():
    rel = acyclic_closure(sphere_model(3), verify_to=10)
    d = rel.total.differential
    xbar = rel.total.algebra.generator("x_bar")
    assert d.images[xbar.ordinal] == rel.total.algebra.gen_elem("x")


def test_acyclic_closure_of_even_sphere_correction():
    rel = acyclic_closure(sphere_model(2), verify_to=10)
    alg = rel.total.algebra
    d = rel.total.differential
    assert d.images[alg.generator("y_bar").ordinal] == alg.gen_elem("y")
    assert d.images[alg.generator("z_bar").ordinal] == alg.parse("z - y*y_bar")


def test_acyclic_closure_acyclic_on_fixtures():
    for m in [sphere_model(2), sphere_model(3), cp_model(2)]:
        rel = acyclic_closure(m, verify_to=12)
        for k in range(1, 13):
            assert rel.total.h_dim(k) == 0


def test_fiber_of_acyclic_closure_has_zero_differential():
    for m in minimal_fixtures():
        rel = acyclic_closure(m)
        fib = fiber_model(rel)
        assert all(e.is_zero() for e in fib.differential.images.values())


# ----- loop cohomology -----

def test_loop_cohomology_odd_sphere():
    lc = loop_cohomology(sphere_model(3), 20)
    assert lc.dims == [1 if k % 2 == 0 else 0 for k in range(21)]
    assert lc.pi_rank(3) == 1 and lc.pi_rank(2) == 0


def test_loop_cohomology_even_sphere():
    lc = loop_cohomology(sphere_model(2), 20)
    assert lc.dims == [1] * 21


def test_loop_cohomology_cp3_pi_ranks():
    lc = loop_cohomology(cp_model(3), 10)
    assert lc.pi_rank(2) == 1 and lc.pi_rank(7) == 1
    assert sum(lc.pi_ranks.values()) == 2


def test_loop_cohomology_matches_acyclic_closure_fiber():
    for m in [sphere_model(2), sphere_model(4), cp_model(2)]:
        lc = loop_cohomology(m, 10)
        fib = fiber_model(acyclic_closure(m))
        assert [fib.h_dim(k) for k in range(11)] == lc.dims


# ----- path space and free loops -----

def test_path_space_even_sphere_differentials():
    rel = path_space_model(sphere_model(2))
    alg = rel.total.algebra
    d = rel.total.differential
    assert d.images[alg.generator("y_bar").ordinal] == \
        alg.parse("y_p1 - y_p0")
    assert d.images[alg.generator("z_bar").ordinal] == \
        alg.parse("z_p1 - z_p0 - y_p0*y_bar - y_bar*y_p1")


def test_path_space_zero_differential_model():
    rel = path_space_model(sphere_model(3))
    alg = rel.total.algebra
    assert rel.total.differential.images[alg.generator("x_bar").ordinal] == \
        alg.parse("x_p1 - x_p0")


def test_free_loop_even_sphere():
    fl = free_loop_model(sphere_model(2))
    alg = fl.algebra
    assert fl.differential.images[alg.generator("z_bar").ordinal] == \
        alg.parse("-2*y*y_bar")
    assert fl.h_dim(1) == 1
    assert [str(r) for r in fl.cohomology(3).representatives[1]] == ["y_bar"]
    assert fl.h_dim(3) == 1
    reps3 = fl.cohomology(3).representatives[3]
    assert [str(r) for r in reps3] == ["y_bar*z_bar"]


def test_free_loop_odd_sphere_dims():
    fl = free_loop_model(sphere_model(3))
    assert [fl.h_dim(k) for k in range(7)] == [1, 0, 1, 1, 1, 1, 1]


def test_pushout_of_path_space_equals_free_loop():
    for m in [sphere_model(2), sphere_model(3), cp_model(2),
              product_model(sphere_model(3), sphere_model(3))]:
        rel = path_space_model(m)
        mult = multiplication_morphism(m, rel.base)
        po = pushout_model(mult, rel)
        fl = free_loop_model(m)
        assert po.total.algebra.generators == fl.algebra.generators
        assert po.total.differential == fl.differential
