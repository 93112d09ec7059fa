"""The polynomial samplers against their frozen copies.

``tests/reference_sampling.py`` holds the samplers as they drew before they
built packed keys: exponent tuples, ``Fraction`` coefficients, ``randint``
and the public constructor.  Every seeded corpus, golden file and benchmark
digest follows their draw order, so each library sampler must return the
same stored form ``(den, nums)`` and leave the generator in the same state.
"""

from microsympl.errors import ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import MicroObject, extract_germ, graph_of_germ, invert_germ
from microsympl.operad import random_L_element
from microsympl.sampling import (rand_affine_core_micromorphism, rand_core_map, rand_fraction,
                                 rand_micromorphism, rand_poly, rand_violating_gen, rng_for)

import reference_sampling as ref

ARITIES = range(4)
ORDERS = range(6)


def form(poly):
    return poly.space(), poly.den, poly.nums


def outcome(draw, rng):
    # the drawn form, or the error a draw raises
    try:
        return "ok", form(draw(rng))
    except ShapeError as exc:
        return "error", str(exc)


def test_scalar_draws_match_the_frozen_copies():
    for seed in range(20):
        rng, ref_rng = rng_for(seed, "scalars"), rng_for(seed, "scalars")
        for max_num in (0, 1, 9, 2**70):
            for max_den in (1, 2, 9, 3**40):
                for nonzero in (False, True):
                    if nonzero and not max_num:
                        continue
                    got = rand_fraction(rng, max_num, max_den, nonzero)
                    assert got == ref.rand_fraction(ref_rng, max_num, max_den, nonzero)
                    assert rng.getstate() == ref_rng.getstate()


def test_rand_poly_matches_the_frozen_copy():
    # min_fiber_deg runs up to one above the order, where no term is kept
    for seed in range(2):
        rng, ref_rng = rng_for(seed, "rand-poly"), rng_for(seed, "rand-poly")
        for m in ARITIES:
            for n in ARITIES:
                for k in ORDERS:
                    for terms in range(5):
                        for max_base_deg in range(4):
                            for low in sorted({0, 1, 2, k + 1}):
                                args = (m, n, k, terms, low, max_base_deg)
                                got = rand_poly(rng, *args)
                                assert form(got) == form(ref.rand_poly(ref_rng, *args))
                                assert rng.getstate() == ref_rng.getstate()


def test_morphism_samplers_match_the_frozen_copies():
    for seed in range(3):
        rng, ref_rng = rng_for(seed, "morphisms"), rng_for(seed, "morphisms")
        for m in ARITIES:
            for n in ARITIES:
                for k in range(1, 6):
                    for terms in range(5):
                        for max_base_deg in range(4):
                            got = rand_micromorphism(rng, m, n, k, terms, max_base_deg)
                            want = ref.rand_poly(ref_rng, m, n, k, terms, 1, max_base_deg)
                            assert form(got.gen) == form(want)
                            assert rng.getstate() == ref_rng.getstate()
                for k in ORDERS:
                    got = rand_violating_gen(rng, m, n, k)
                    assert form(got) == form(ref.rand_violating_gen(ref_rng, m, n, k))
                    assert rng.getstate() == ref_rng.getstate()
                for max_deg in range(4):
                    for terms in range(5):
                        args = (m, n, max_deg, terms)
                        got = rand_core_map(rng, *args)
                        want = ref.rand_core_map(ref_rng, *args)
                        assert [form(c) for c in got.components] == \
                            [form(c) for c in want.components]
                        assert rng.getstate() == ref_rng.getstate()


def test_affine_and_diagonal_samplers_match_the_frozen_copies():
    for seed in range(10):
        rng, ref_rng = rng_for(seed, "affine-and-L"), rng_for(seed, "affine-and-L")
        for dim in range(1, 4):
            for k in ORDERS:
                # order 0 has no room for the fiber-degree-1 core terms
                got = outcome(lambda r: rand_affine_core_micromorphism(r, dim, k).gen, rng)
                want = outcome(lambda r: ref.rand_affine_core_micromorphism(r, dim, k).gen,
                               ref_rng)
                assert got == want
                assert got[0] == ("error" if k == 0 else "ok")
                assert rng.getstate() == ref_rng.getstate()
        for n in ARITIES:
            for arity in ARITIES:
                for k in range(1, 6):
                    got = random_L_element(rng, MicroObject(n), arity, k)
                    want = ref.random_L_element(ref_rng, MicroObject(n), arity, k)
                    assert got.arity == want.arity
                    assert form(got.morphism.gen) == form(want.morphism.gen)
                    assert rng.getstate() == ref_rng.getstate()


def test_affine_sampler_in_dimension_zero():
    # nothing to draw: no matrix entries, no constants and no noise terms,
    # and the germ of the zero morphism extracts, inverts and graphs
    for k in range(1, 6):
        rng = rng_for(k, "affine-dim-0")
        state = rng.getstate()
        f = rand_affine_core_micromorphism(rng, 0, k)
        assert rng.getstate() == state
        assert f.gen == FiberGradedPoly.zero(0, 0, k)
        germ = extract_germ(f)
        assert invert_germ(germ) == germ
        assert graph_of_germ(germ) == f
