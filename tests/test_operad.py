from fractions import Fraction as F

import pytest

import reference_sampling as ref
from microsympl.errors import ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import (Micromorphism, MicroObject, compose, extract_germ,
                              graph_of_germ, identity, invert_germ, unit_to)
from microsympl.operad import (OperadElement, check_operad_axioms, diagonal_lift,
                               is_in_L, operad_compose, random_L_element,
                               unit_element)
from microsympl.sampling import rand_affine_core_micromorphism, rand_core_map, rng_for


ONE = MicroObject(1)


def test_diagonal_lift_arity_one_is_identity():
    assert diagonal_lift(ONE, 1, 3).morphism == identity(ONE, 3)


def test_diagonal_lift_arity_zero_is_unit_morphism():
    assert diagonal_lift(ONE, 0, 3).morphism == unit_to(ONE, 3)


def test_diagonal_lift_generating_function():
    assert diagonal_lift(ONE, 2, 2).morphism.gen == FiberGradedPoly(
        2, 1, 2, {((1, 0), (1,)): F(1), ((0, 1), (1,)): F(1)})


def test_diagonal_core_components():
    lift3 = diagonal_lift(MicroObject(2), 3, 2)
    comps = lift3.morphism.core.components
    assert len(comps) == 6
    assert [c.to_text() for c in comps] == ["x1", "x2"] * 3


def test_operad_element_shape_validation():
    with pytest.raises(ShapeError):
        OperadElement(ONE, 2, identity(ONE, 2))


def test_unit_axiom():
    rng = rng_for(1, "unit")
    for _ in range(10):
        arity = rng.randint(1, 3)
        f = random_L_element(rng, ONE, arity, 3)
        assert operad_compose(f, (unit_element(ONE, 3),) * arity).morphism == f.morphism


def test_identity_composed_with_one_argument_returns_it():
    rng = rng_for(2, "id")
    g = random_L_element(rng, ONE, 2, 3)
    assert operad_compose(unit_element(ONE, 3), (g,)).morphism == g.morphism


def test_diagonal_composition_closes_exactly():
    d2 = diagonal_lift(ONE, 2, 3)
    d3 = diagonal_lift(ONE, 3, 3)
    ident = unit_element(ONE, 3)
    assert operad_compose(d2, (d2, ident)).morphism == d3.morphism
    assert operad_compose(d2, (ident, d2)).morphism == d3.morphism


def test_unit_insertion_drops_arity():
    d2 = diagonal_lift(ONE, 2, 3)
    e = diagonal_lift(ONE, 0, 3)
    ident = unit_element(ONE, 3)
    assert operad_compose(d2, (ident, e)).morphism == ident.morphism
    assert operad_compose(d2, (e, ident)).morphism == ident.morphism


def test_diagonal_lifts_detected_in_L():
    for arity in range(6):
        assert is_in_L(diagonal_lift(ONE, arity, 2))


def test_non_diagonal_core_not_in_L():
    gen = FiberGradedPoly(2, 1, 2, {((1, 0), (1,)): F(1), ((0, 1), (2,)): F(1)})
    elem = OperadElement(ONE, 2, Micromorphism(MicroObject(2), ONE, gen))
    assert not is_in_L(elem)


def test_L_closed_under_composition():
    rng = rng_for(3, "closure")
    for _ in range(10):
        f = random_L_element(rng, ONE, rng.randint(1, 2), 3)
        gs = tuple(random_L_element(rng, ONE, rng.randint(0, 2), 3)
                   for _ in range(f.arity))
        assert is_in_L(operad_compose(f, gs))


def test_arity_one_elements_form_a_group():
    rng = rng_for(4, "group")
    for _ in range(5):
        f = random_L_element(rng, ONE, 1, 3)
        inverse = graph_of_germ(invert_germ(extract_germ(f.morphism)))
        assert compose(f.morphism, inverse) == identity(ONE, 3)
        assert compose(inverse, f.morphism) == identity(ONE, 3)
        assert is_in_L(OperadElement(ONE, 1, inverse))


def test_axiom_report_passes_and_is_deterministic():
    report = check_operad_axioms(ONE, seed=7, max_arity=3, levels=2, samples=10)
    assert report.passed
    again = check_operad_axioms(ONE, seed=7, max_arity=3, levels=2, samples=10)
    assert report.format() == again.format()
    assert report.format().rstrip().splitlines()[-1].startswith("#summary ")


def test_axiom_report_on_dimension_two_base():
    report = check_operad_axioms(MicroObject(2), seed=9, max_arity=2, levels=2,
                                 samples=5)
    assert report.passed


def test_samplers_draw_what_their_frozen_copies_drew():
    # the same values and the same generator state afterwards, since every
    # seeded corpus follows the draw order
    for seed in range(400):
        rng, ref_rng = rng_for(seed, "poly-samplers"), rng_for(seed, "poly-samplers")
        for domain in range(4):
            for codomain in range(4):
                args = (domain, codomain, (seed + domain) % 4, (seed + codomain) % 4)
                assert rand_core_map(rng, *args) == ref.rand_core_map(ref_rng, *args)
                assert rng.getstate() == ref_rng.getstate()
        for n in range(3):
            for arity in range(4):
                args = (MicroObject(n), arity, seed % 4 + 1)
                got, want = random_L_element(rng, *args), ref.random_L_element(ref_rng, *args)
                assert (got.arity, got.morphism) == (want.arity, want.morphism)
                assert rng.getstate() == ref_rng.getstate()
        for n in range(1, 4):
            for k in range(1, 5):
                got = rand_affine_core_micromorphism(rng, n, k)
                assert got == ref.rand_affine_core_micromorphism(ref_rng, n, k)
                assert rng.getstate() == ref_rng.getstate()
