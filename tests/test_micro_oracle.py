"""The germ layer against the frozen re-substituting solves in reference_micro.

Inputs are seeded ``rand_affine_core_micromorphism`` pairs at core dimensions
1-3 and orders 1-4, drawn under their own label, so none of them is in
``tests/golden/micro.txt``.  Equality is exact: same ``x_out``/``p_out`` and
same generating function.
"""

import pytest

import reference_micro as ref
from microsympl import micro
from microsympl.errors import InternalInvariantError
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
