"""The germ layer against the frozen re-substituting solves in reference_micro.

Inputs are seeded ``rand_affine_core_micromorphism`` pairs at core dimensions
1-3 and orders 1-4, drawn under their own label, so none of them is in
``tests/golden/micro.txt``.  Equality is exact: same ``x_out``/``p_out`` and
same generating function.  ``compose_germs`` is checked against the frozen
direct substitution on extracted, composed, identity and hand-built germs,
some with a core restriction that is not affine.  The tangent relation read
off the terms is checked against the derivative-then-evaluate reference on
drawn generating functions, and on seeded valid, violating and base-Hessian
ones, where the relation it builds unchecked must also equal a validated one.
``graph_of_germ``, which checks a germ against its potential alone, must
reject exactly the perturbed germs that the deleted Jacobian test or
pairwise closedness identities rejected, and give the reference graph of the
others.  The integer affine core inverse must raise where the ``Fraction``
reference raises, with the same message, and return the same values where
it does not.  ``compose``, which solves its middle point at half the order,
must write the same record as the frozen composition at one order above,
and ``stationary_middle`` the same middle point, on seeded pairs, on
identity, unit and point-morphism operands, and on inner operands whose
terms with a base variable start just above fiber degree K // 2, exactly at
it, or nowhere; only the first and the last take the middle point from its
seed without a solve.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_linsympl as ref_linsympl
import reference_micro as ref
import reference_sampling as ref_sampling
from microsympl import micro
from microsympl.errors import (InternalInvariantError, ShapeError, UnsupportedCoreError,
                               ValidityError)
from microsympl.jetalg import FiberGradedPoly
from microsympl.linsympl import LinCanonicalRelation, _integer_rows, is_lagrangian
from microsympl.micro import (CoreMap, GermJet, compose_germs, extract_germ, graph_of_germ,
                              identity_germ, invert_germ, unit_exp)
from microsympl.sampling import (rand_affine_core_micromorphism, rand_fraction,
                                 rand_micromorphism, rand_point, rand_poly,
                                 rand_violating_gen, rng_for)
from microsympl.textio import format_morphism
from reference_sampling import rand_exponents
from test_golden import layered_micromorphism

SHAPES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)]


def same_germ(a, b):
    return (a.dim, a.order, a.x_out, a.p_out) == (b.dim, b.order, b.x_out, b.p_out)


@pytest.mark.parametrize("case", range(2 * len(SHAPES)))
def test_germ_solves_match_the_reference(case):
    n, k = SHAPES[case % len(SHAPES)]
    rng = rng_for(case, "micro-oracle")
    f1 = rand_affine_core_micromorphism(rng, n, k)
    f2 = rand_affine_core_micromorphism(rng, n, k)
    g1, g2 = extract_germ(f1), extract_germ(f2)
    assert same_germ(g1, ref.extract_germ(f1))
    assert same_germ(g2, ref.extract_germ(f2))
    # the reference inverse of the larger germs takes tens of seconds
    assert same_germ(invert_germ(g1), ref.invert_germ(g1))
    for germ in (g1, compose_germs(g2, g1)):
        graph = graph_of_germ(germ)
        assert graph.gen == ref.graph_of_germ(germ).gen
        assert same_germ(extract_germ(graph), ref.extract_germ(graph))


def test_invert_germ_on_a_large_germ_is_the_identity_both_ways():
    # X components of 249 terms; the re-substituting solve took seconds here
    germ = extract_germ(rand_affine_core_micromorphism(rng_for(33, "golden-micro"), 3, 3))
    inverse = invert_germ(germ)
    ident = identity_germ(3, 3)
    assert compose_germs(inverse, germ) == ident
    assert compose_germs(germ, inverse) == ident


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_invert_germ_on_a_composed_germ_is_the_identity_both_ways(n, k):
    # composed germs are not extracted ones: their X block carries its own
    # top-degree data, and at (3, 2) they reach hundreds of terms
    rng = rng_for(10 * n + k, "invert-composed")
    g1, g2 = (extract_germ(rand_affine_core_micromorphism(rng, n, k)) for _ in range(2))
    germ = compose_germs(g2, g1)
    inverse = invert_germ(germ)
    ident = identity_germ(n, k)
    assert compose_germs(inverse, germ) == ident
    assert compose_germs(germ, inverse) == ident


def test_a_fiber_value_off_the_core_is_an_internal_error():
    # the solves never produce one; if they did, it is a broken invariant of
    # the solve, not a filtration error in the caller's input
    w = FiberGradedPoly.fiber_var(2, 1, 2, 1)
    folded = [w * w]
    off_core = FiberGradedPoly.constant(1, 1, 2, 1)
    with pytest.raises(InternalInvariantError, match="left the core"):
        micro._corrected(folded, [None, off_core])


def test_the_remainder_drops_exactly_the_linear_part():
    # shifted to X = phi(x) + w, the positions read x + A w + N(p, w) and the
    # momenta C p + N(p, w); the fold -L^-1 N, taken before the shift with L^-1
    # the linear part of phi or C^-1, is the solve L^-1 (targets - shifted) + v
    # of the whole shifted system, L read off its terms c v_j alone, and has
    # no such term
    rng = rng_for(0, "germ-remainder")
    for n in (1, 2, 3):
        germ = extract_germ(rand_affine_core_micromorphism(rng, n, 2))
        phi = micro._core_inverse(germ)
        base = (0,) * n
        a_inv = ref.affine_parts(phi)[0]
        c_inv = ref_linsympl.mat_inverse(
            [[p.coefficient(unit_exp(n, j), base) for j in range(n)] for p in germ.p_out])
        xvars = [FiberGradedPoly.base_var(2 * n, n, 2, j) for j in range(n)]
        zeros = [FiberGradedPoly.zero(2 * n, n, 2)] * n
        for offset, equations, inverse, low, targets in ((n, germ.x_out, a_inv, 1, xvars),
                                                         (0, germ.p_out, c_inv, 2, zeros)):
            shifted = micro._shifted(equations, phi, n, 2)
            lone = [(unit_exp(2 * n, offset + j), base) for j in range(n)]
            linear = [[p.terms.get(key, 0) for key in lone] for p in shifted]
            assert ref_linsympl.mat_inverse(linear) == inverse
            folded = micro._shifted(micro._folded(equations, inverse, low), phi, n, 2)
            for i, (row, f) in enumerate(zip(inverse, folded)):
                assert not set(lone) & f.terms.keys()
                want = FiberGradedPoly.fiber_var(2 * n, n, 2, offset + i)
                for c, goal, eq in zip(row, targets, shifted):
                    want = want + (goal - eq).scale(c)
                assert f == want


# -- composition -----------------------------------------------------------------------


def _random_operands(case):
    """A seeded composable pair (g, f), dims 0-3, K 1-8, base degree 0-2 and
    1-5 terms per operand; the middle dimension is 1-3, since the middle
    point of a middle of dimension 0 is empty (the special operands have one)."""
    rng = rng_for(case, "compose-oracle")
    m, mid, n, k = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3), 1 + case % 8
    f = rand_micromorphism(rng, m, mid, k, terms=rng.randint(1, 5),
                           max_base_deg=rng.randint(0, 2))
    g = rand_micromorphism(rng, mid, n, k, terms=rng.randint(1, 5),
                           max_base_deg=rng.randint(0, 2))
    return g, f


def _affine_operands(case):
    """A seeded pair of affine-core morphisms of dimension 1-3 at K 1-8: a
    core of full rank keeps the middle point nonzero in every degree."""
    rng = rng_for(case, "compose-oracle-affine")
    n, k = 1 + case % 3, 1 + case % 8
    return rand_affine_core_micromorphism(rng, n, k), rand_affine_core_micromorphism(rng, n, k)


def _special_operands(case):
    """Identity, unit and point-morphism operands around a seeded morphism."""
    g, f = _random_operands(case)
    k = f.order
    mid, n = f.target, g.target
    tail = rand_poly(rng_for(case, "compose-oracle-tail"), mid.core_dim, 0, k, terms=3,
                     min_fiber_deg=1)
    point = micro.point_morphism(mid, tail)
    unit = micro.unit_to(mid, k)
    yield g, micro.identity(mid, k)
    yield micro.identity(n, k), g
    yield f, micro.unit_to(f.source, k)
    yield point, f
    yield point, unit
    yield g, unit
    yield micro.unit_to(n, k), micro.point_morphism(n, FiberGradedPoly.zero(n.core_dim, 0, k))


def _same_composition(g, f):
    assert format_morphism(micro.compose(g, f)) == format_morphism(ref.compose(g, f))
    ys, qs = micro.stationary_middle(g, f)
    ref_ys, ref_qs = ref.stationary_middle(g, f)
    assert [p.to_text() for p in (*ys, *qs)] == [p.to_text() for p in (*ref_ys, *ref_qs)]
    assert (ys, qs) == (ref_ys, ref_qs)


def _y_start(f):
    """The lowest fiber degree of a term of S_f with a base variable, or None."""
    return min((sum(pe) for pe, xe in f.gen.terms if any(xe)), default=None)


def _layered_operands(case, family):
    """A seeded pair (g, f) at K 2-8 whose inner S_f has its terms with a y
    from fiber degree K // 2 + 1 on (family 1) or from K // 2 on (family 0),
    at dims 1-3 around a middle of dimension 1-3, or none at all (family
    None), at dims 0-3."""
    rng = rng_for(case, f"compose-oracle-layered-{family}")
    k = 2 + case % 7
    low = 0 if family is None else 1
    m, mid, n = rng.randint(low, 3), rng.randint(low, 3), rng.randint(0, 3)
    start = k + 1 if family is None else k // 2 + family
    f = layered_micromorphism(rng, m, mid, k, start)
    g = rand_micromorphism(rng, mid, n, k, terms=rng.randint(1, 5),
                           max_base_deg=rng.randint(0, 2))
    assert _y_start(f) == (None if family is None else start)
    return g, f


def test_compose_matches_the_reference():
    for case in range(400):
        _same_composition(*_random_operands(case))
    for case in range(48):
        _same_composition(*_affine_operands(case))
    for case in range(40):
        for g, f in _special_operands(case):
            _same_composition(g, f)


def test_a_middle_point_is_taken_from_its_seed_exactly_when_it_is_exact(solver_work):
    # compose solves at K // 2 and stationary_middle at K; each skips the
    # solve exactly when S_f has no term with a y of fiber degree <= its order
    for family, composes, middles in ((1, False, True), (0, True, True), (None, False, False)):
        for case in range(42):
            g, f = _layered_operands(case, family)
            k = f.order
            del solver_work.solves[:]
            _same_composition(g, f)
            solves = [initial[0].order if initial else None
                      for initial, _, _ in solver_work.solves]
            assert solves == [k // 2] * composes + [k] * middles


# -- germ composition -----------------------------------------------------------------


def one_term_germ(rng, n, k):
    """The germ of a seeded affine-core micromorphism with one extra term,
    drawn by the frozen sampler, which still takes that count."""
    return extract_germ(ref_sampling.rand_affine_core_micromorphism(rng, n, k, 1))


@pytest.mark.parametrize("n, k", SHAPES)
def test_compose_germs_matches_the_reference(n, k):
    # one extra term per draw keeps the Fraction reference near a second in
    # all: some (3, 3) and (3, 4) draws compose to thousands of terms
    rng = rng_for(10 * n + k, "germ-composition")
    g1, g2 = (one_term_germ(rng, n, k) for _ in range(2))
    composed, ident = compose_germs(g2, g1), identity_germ(n, k)
    assert same_germ(composed, ref.compose_germs(g2, g1))
    for outer, inner in ((g1, composed), (composed, g1), (ident, composed), (composed, ident),
                         (ident, ident)):
        assert same_germ(compose_germs(outer, inner), ref.compose_germs(outer, inner))


def hand_built_germ(rng, n, k, core):
    """A GermJet with three random terms of fiber degree 1..K in every
    component, its positions added to a core restriction X(x, 0) that is a
    polynomial of degree 2-3, a nonzero constant or zero in each position."""
    def terms(fiber_degrees, base_degrees, count):
        out = {}
        for _ in range(count):
            pe, xe = [0] * n, [0] * n
            for _ in range(rng.choice(fiber_degrees)):
                pe[rng.randrange(n)] += 1
            for _ in range(rng.choice(base_degrees)):
                xe[rng.randrange(n)] += 1
            out[(tuple(pe), tuple(xe))] = F(rng.choice([-3, -2, -1, 1, 2, 3]),
                                            rng.choice([1, 2, 5, 7]))
        return out

    cores = {"polynomial": lambda: {**terms([0], [0, 1], 2), **terms([0], [2, 3], 2)},
             "constant": lambda: terms([0], [0], 1), "zero": dict}
    fiber = range(1, k + 1)
    xs = tuple(FiberGradedPoly(n, n, k, {**cores[core](), **terms(fiber, [0, 1, 2], 3)})
               for _ in range(n))
    ps = tuple(FiberGradedPoly(n, n, k, terms(fiber, [0, 1, 2], 3)) for _ in range(n))
    return GermJet(n, k, xs, ps)


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_compose_germs_off_the_affine_class_matches_the_reference(n, k):
    # the shift needs no affine core: it expands at any polynomial X(x, 0)
    rng = rng_for(10 * n + k, "germ-composition-hand-built")
    germs = [hand_built_germ(rng, n, k, core) for core in ("polynomial", "constant", "zero")]
    core_degrees = [{sum(xe) for c in g.core_restriction().components for _, xe in c.terms}
                    for g in germs]
    assert max(core_degrees[0]) in (2, 3) and core_degrees[1:] == [{0}, set()]
    germs.append(one_term_germ(rng, n, k))
    for outer in germs:
        for inner in germs:
            assert same_germ(compose_germs(outer, inner), ref.compose_germs(outer, inner))


def test_compose_germs_in_dimension_zero():
    for k in (0, 1, 2, 3):
        empty = identity_germ(0, k)
        assert same_germ(compose_germs(empty, empty), ref.compose_germs(empty, empty))
        assert compose_germs(empty, empty) == GermJet(0, k, (), ())
        assert same_germ(invert_germ(empty), ref.invert_germ(empty))
        assert invert_germ(empty) == GermJet(0, k, (), ())


def test_compose_germs_rejects_what_the_reference_rejects():
    rng = rng_for(0, "germ-composition-errors")
    for n, k in ((1, 1), (2, 2), (3, 3)):
        germ = one_term_germ(rng, n, k)
        for xe in ((0,) * n, unit_exp(n, n - 1)):
            # a momentum output with a fiber-degree-0 term leaves the core
            off = with_added_terms(germ, n, {((0,) * n, xe): F(2, 3)})
            got = outcome(compose_germs, germ, off)
            assert got == outcome(ref.compose_germs, germ, off)
            assert got == ("ValidityError", "inner germ does not preserve the core")
            # only the inner germ is checked
            assert same_germ(compose_germs(off, germ), ref.compose_germs(off, germ))
    with pytest.raises(ShapeError, match="dimensions differ: 1 vs 2"):
        compose_germs(identity_germ(1, 2), identity_germ(2, 2))
    with pytest.raises(ShapeError, match="orders differ: 2 vs 3"):
        compose_germs(identity_germ(2, 2), identity_germ(2, 3))


@pytest.mark.parametrize("seed", range(4))
def test_core_map_matches_the_reference(seed):
    # the core read off the degree-1 terms in one pass, against one fiber
    # derivative per source dimension; includes zero components and m = 0
    rng = rng_for(seed, "micro-oracle-core")
    for m in range(4):
        for n in range(4):
            for k, terms in ((1, 3), (2, 8), (4, 8)):
                f = rand_micromorphism(rng, m, n, k, terms=terms)
                assert f.core.domain_dim == n
                assert f.core.components == ref.core_components(f.gen)


# -- tangent relations ----------------------------------------------------------------

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
HUGE = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**70))
COEFF = st.one_of(SMALL, HUGE)
POINT_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-2**90, 2**90), SMALL, HUGE)
# every coordinate over its own large denominator
LARGE_DEN_ENTRY = st.builds(F, st.integers(-2**40, 2**40), st.integers(2**30, 2**35))


@st.composite
def generating_functions(draw):
    """Any S(p, x) at m, n in 0..3 and K in 1..4, normal form or not: terms of
    fiber degree 0-3 (at most K) with base exponents up to 4."""
    m, n, order = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        pe = [0] * m
        if m:
            for i in draw(st.lists(st.integers(0, m - 1), max_size=min(order, 3))):
                pe[i] += 1
        xe = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        terms[(tuple(pe), xe)] = draw(COEFF)
    return FiberGradedPoly(m, n, order, terms)


@given(gen=generating_functions(), data=st.data())
def test_tangent_relation_matches_the_reference(gen, data):
    point = tuple(data.draw(POINT_ENTRY) for _ in range(gen.base_arity))
    for b in (point, tuple(data.draw(LARGE_DEN_ENTRY) for _ in point)):
        got = micro.linearized_relation(gen, b)
        assert got.vectors == ref.linearized_relation(gen, b).vectors
        assert got.subspace._rows == tuple(_integer_rows(got.vectors))
        assert all(type(v) is F for vec in got.vectors for v in vec)
    with pytest.raises(ShapeError, match="point has dimension"):
        micro.linearized_relation(gen, point + (1,))
    # every entry is read as an exact rational before the length is checked
    for bad in (point + (0.5,), (0.5,) + point, (0.5,) * gen.base_arity):
        if bad:
            with pytest.raises(TypeError, match="expected an exact rational"):
                micro.linearized_relation(gen, bad)


def test_tangent_relation_of_a_violator_has_a_base_hessian():
    # S = p1*x1 + 3*p1*p2 - 2*p2^2*x2 + x1^2*x2^3 + 1/2*x1*x2: every block is nonzero
    gen = FiberGradedPoly(2, 2, 3, {((1, 0), (1, 0)): F(1), ((1, 1), (0, 0)): F(3),
                                    ((0, 2), (0, 1)): F(-2), ((0, 0), (2, 3)): F(1),
                                    ((0, 0), (1, 1)): F(1, 2)})
    point = (F(-3, 2), 5)
    got = micro.linearized_relation(gen, point)
    assert got.vectors == ref.linearized_relation(gen, point).vectors
    # the x2 columns end in the p2 block: d2S/dx2 at (-3/2, 5)
    sxx = [vec[6:] for vec in got.vectors[2:]]
    assert sxx == [(F(250), F(-449, 2)), (F(-449, 2), F(135, 2))]


def _with_base_hessian(rng, m, n, k):
    """A generating function with base terms of degree 2 and 3, so d2S/dx2 != 0."""
    gen = rand_poly(rng, m, n, k, terms=4, max_base_deg=3)
    for degree in (2, 3):
        gen = gen + FiberGradedPoly.monomial(m, n, k, rand_fraction(rng, nonzero=True),
                                             (0,) * m, rand_exponents(rng, n, degree))
    return gen


@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(4)])
def test_trusted_tangent_relations_match_the_reference_and_a_validated_build(m, n):
    # linearized_relation builds its relation unchecked: it must be the
    # reference's, lagrangian, with the integer rows of its vectors, and the
    # same value as the relation validated from those vectors
    rng = rng_for(m * 4 + n, "trusted-tangent")
    for k in (1, 2, 3, 4):
        gens = [rand_micromorphism(rng, m, n, k).gen, rand_violating_gen(rng, m, n, k)]
        if n:
            gens.append(_with_base_hessian(rng, m, n, k))
        for gen in gens:
            for point in micro._sample_core_points(n) + [rand_point(rng, n, 9, 9)]:
                got = micro.linearized_relation(gen, point)
                assert got.vectors == ref.linearized_relation(gen, point).vectors
                assert is_lagrangian(got.subspace.space, got.vectors)
                assert got.subspace._rows == tuple(_integer_rows(got.vectors))
                validated = LinCanonicalRelation.from_vectors(m, n, got.vectors)
                assert got == validated and hash(got) == hash(validated)
                assert repr(got) == repr(validated)


# -- the symplectic check of a germ and the affine core ------------------------------


def outcome(call, *args):
    """``("ok", value)`` when ``call(*args)`` returns, else the type and text
    of the ValidityError or UnsupportedCoreError it raises."""
    try:
        return "ok", call(*args)
    except (ValidityError, UnsupportedCoreError) as exc:
        return type(exc).__name__, str(exc)


def with_added_terms(germ, row, terms):
    """``germ`` with the terms ``{(pe, xe): c}`` added to component ``row`` of
    (X, P)."""
    n, k = germ.dim, germ.order
    comps = [*germ.x_out, *germ.p_out]
    comps[row] = comps[row] + FiberGradedPoly(n, n, k, terms)
    return GermJet(n, k, tuple(comps[:n]), tuple(comps[n:]))


def frozen_rejection(germ):
    """The message of the first of the deleted checks to reject ``germ``:
    the Jacobian test at the sample points, then the pairwise closedness
    identities on the graph form; None when both accept it."""
    try:
        ref.symplectic_jacobian_check(germ, micro._sample_core_points(germ.dim))
        ref.closedness_check(*ref.graph_form(germ), germ.order)
    except ValidityError as exc:
        return str(exc)
    return None


def sheared(rng, germ):
    """``germ`` with X moved by -A grad_p h, A the linear part of its core
    and h a random term of fiber degree K + 1: the graph form's x_hat moves
    by grad_p h at degree K, p_hat stays, so the germ stays symplectic."""
    n, k = germ.dim, germ.order
    a_rows, _ = ref.affine_parts(germ.core_restriction())
    pe, c = rand_exponents(rng, n, k + 1), rand_fraction(rng, nonzero=True)
    grad = [FiberGradedPoly(n, n, k, {(pe[:j] + (e - 1,) + pe[j + 1:], (0,) * n): c * e})
            if e else FiberGradedPoly.zero(n, n, k) for j, e in enumerate(pe)]
    xs = tuple(x - sum((g.scale(a) for a, g in zip(row, grad)), FiberGradedPoly.zero(n, n, k))
               for x, row in zip(germ.x_out, a_rows))
    return GermJet(n, k, xs, germ.p_out)


def perturbed_germs(rng, germ):
    """Copies of ``germ`` with terms of fiber degree >= 1 added: per row of
    (X, P), c p_i x_j, which moves the Jacobian at (1, ..., 1), c p_i (x_1^2 -
    x_1), which moves it only at (1/2, -1/2, ...), and a random term of fiber
    degree 1 and one of fiber degree K; then c p_1 x^(1, ..., 1) over 2^33
    in P1, and three symplectic shears, one after the other."""
    n, k = germ.dim, germ.order
    for row in range(2 * n):
        pi = unit_exp(n, row % n)
        yield with_added_terms(germ, row, {(pi, unit_exp(n, (row + 1) % n)): F(1, 7)})
        yield with_added_terms(germ, row, {(pi, (2,) + (0,) * (n - 1)): F(-3, 5),
                                           (pi, unit_exp(n, 0)): F(3, 5)})
        for degree in (1, k):
            term = (rand_exponents(rng, n, degree), rand_exponents(rng, n, rng.randint(0, 2)))
            yield with_added_terms(germ, row, {term: rand_fraction(rng, nonzero=True)})
    yield with_added_terms(germ, n, {(unit_exp(n, 0), (1,) * n): F(1, 2**33)})
    for _ in range(3):
        germ = sheared(rng, germ)
        yield germ


def test_graph_of_germ_rejects_exactly_what_the_deleted_checks_rejected():
    # extracted and composed germs and their perturbed copies: graph_of_germ
    # raises ValidityError exactly when the Jacobian test or the pairwise
    # closedness identities rejected, and returns the reference graph otherwise
    counts = {"ok": 0, "ValidityError": 0}
    first_to_reject = set()
    for n, k in SHAPES:
        rng = rng_for(10 * n + k, "germ-rejection")
        g1, g2 = (one_term_germ(rng, n, k) for _ in range(2))
        for germ in (g1, compose_germs(g2, g1)):
            for copy in (germ, *perturbed_germs(rng, germ)):
                got = outcome(graph_of_germ, copy)
                rejection = frozen_rejection(copy)
                if rejection is None:
                    assert got == ("ok", ref.graph_of_germ(copy))
                else:
                    assert got[0] == "ValidityError"
                    first_to_reject.add("Jacobian" if rejection.startswith("linearization")
                                        else "pairwise")
                counts[got[0]] += 1
    assert min(counts.values()) >= 100
    # both deleted checks are the first to reject some copies
    assert first_to_reject == {"Jacobian", "pairwise"}


def affine_core_maps(rng):
    """Core maps of domain 0-3: invertible and singular affine ones with
    components over different denominators, non-square and non-affine ones."""
    def comp(n, coeffs, const):
        terms = {((), unit_exp(n, j)): c for j, c in enumerate(coeffs)}
        terms[((), (0,) * n)] = const
        return FiberGradedPoly(0, n, 0, terms)

    def entry():
        return F(rng.randint(-6, 6), rng.choice([1, 2, 3, 7, 2**40]))

    maps = []
    for n in range(4):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        maps.append(CoreMap(n, tuple(comp(n, r, entry()) for r in rows)))
        if n:
            # a repeated direction makes the linear part singular
            singular = rows[:-1] + [[2 * v for v in rows[0]]]
            maps.append(CoreMap(n, tuple(comp(n, r, entry()) for r in singular)))
            maps.append(CoreMap(n, tuple(comp(n, r, entry()) for r in rows[:-1])))
            curved = comp(n, rows[0], entry()) + FiberGradedPoly(
                0, n, 0, {((), (2,) + (0,) * (n - 1)): F(1, 3)})
            maps.append(CoreMap(n, (curved,) + tuple(comp(n, r, 0) for r in rows[1:])))
    return maps


@pytest.mark.parametrize("seed", range(6))
def test_affine_core_inverse_matches_the_reference(seed):
    maps = affine_core_maps(random.Random(seed))
    kinds = set()
    for core in maps:
        got = outcome(CoreMap.affine_inverse, core)
        assert got == outcome(ref.affine_inverse, core)
        kinds.add(got[1] if got[0] != "ok" else "ok")
        if got[0] == "ok":
            inverse = got[1]
            assert inverse.compose(core) == CoreMap.identity(core.domain_dim)
            assert all(a.den == b.den and a.nums == b.nums for a, b in
                       zip(inverse.components, ref.affine_inverse(core).components))
    assert kinds == {"ok", "core map is not square", "core map is not affine",
                     "linear part of the core map is not invertible"}
