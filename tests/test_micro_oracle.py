"""The germ layer against the frozen re-substituting solves in reference_micro.

Inputs are seeded ``rand_affine_core_micromorphism`` pairs at core dimensions
1-3 and orders 1-4, drawn under their own label, so none of them is in
``tests/golden/micro.txt``.  Equality is exact: same ``x_out``/``p_out`` and
same generating function.  The tangent relation read off the terms is checked
against the derivative-then-evaluate reference on drawn generating functions.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_micro as ref
from microsympl import micro
from microsympl.errors import InternalInvariantError, ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import (compose_germs, extract_germ, graph_of_germ,
                              identity_germ, invert_germ)
from microsympl.sampling import rand_affine_core_micromorphism, rand_micromorphism, rng_for

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
    shifted = [w * w]
    off_core = FiberGradedPoly.constant(1, 1, 2, 1)
    with pytest.raises(InternalInvariantError, match="left the core"):
        micro._corrected([off_core], [off_core], shifted, [None, off_core], ((1,),))


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
    got = micro.linearized_relation(gen, point)
    assert got.vectors == ref.linearized_relation(gen, point).vectors
    assert all(type(v) is F for vec in got.vectors for v in vec)
    with pytest.raises(ShapeError, match="point has dimension"):
        micro.linearized_relation(gen, point + (1,))


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
