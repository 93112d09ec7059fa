import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from microsympl import micro
from microsympl.errors import (NormalFormError, ShapeError, UnsupportedCoreError,
                               ValidityError)
from microsympl.jetalg import FiberGradedPoly
from microsympl.linsympl import (check_linear_micromorphism, identity_relation,
                                 is_lagrangian, subspace_equal)
from microsympl.micro import (CoreMap, GermJet, Micromorphism, MicroObject,
                              compose, compose_germs, cotangent_lift,
                              extract_germ, graph_of_germ, identity,
                              identity_germ, invert_germ, is_micromorphism,
                              linearized_relation, point_morphism,
                              stationary_middle, symmetry, tangent_relation_at,
                              tensor, unit_object, unit_to)
from microsympl.sampling import (rand_affine_core_micromorphism, rand_core_map,
                                 rand_micromorphism, rng_for)


def morphism(m, n, k, terms):
    return Micromorphism(MicroObject(m), MicroObject(n), FiberGradedPoly(m, n, k, terms))


@st.composite
def micromorphisms(draw):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return rand_micromorphism(rng, m, n, k, terms=3)


# -- objects and identity --------------------------------------------------------


def test_objects_equal_by_core_dimension():
    assert MicroObject(2, "a") == MicroObject(2, "b")
    assert MicroObject(1) != MicroObject(2)
    assert unit_object() == MicroObject(0)


def test_identity_generating_function():
    assert identity(MicroObject(1), 2).gen == FiberGradedPoly(
        1, 1, 2, {((1,), (1,)): F(1)})
    assert identity(unit_object(), 2).gen.is_zero()


@given(micromorphisms())
def test_identity_is_two_sided_unit(f):
    assert compose(f, identity(f.source, f.order)) == f
    assert compose(identity(f.target, f.order), f) == f


def test_unit_law_exact_on_worked_instance():
    f = morphism(1, 1, 2, {((1,), (1,)): F(1), ((2,), (1,)): F(1)})
    assert compose(identity(f.target, 2), f) == f
    assert compose(f, identity(f.source, 2)) == f


# -- cotangent lift ---------------------------------------------------------------


def test_lift_of_square_map():
    phi = CoreMap.from_terms(1, [{((), (2,)): F(1)}])
    lifted = cotangent_lift(phi, 2)
    assert lifted.gen == FiberGradedPoly(1, 1, 2, {((1,), (2,)): F(1)})
    assert lifted.core == phi
    with pytest.raises(ShapeError):
        cotangent_lift(phi, 0)


def test_lift_of_diagonal():
    lifted = cotangent_lift(CoreMap.diagonal(1, 2), 2)
    assert lifted.gen == FiberGradedPoly(
        2, 1, 2, {((1, 0), (1,)): F(1), ((0, 1), (1,)): F(1)})


def test_lift_core_differential_matches_tangent_relation():
    rng = rng_for(2, "lift-tangent")
    for _ in range(10):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        phi = rand_core_map(rng, n, m)
        lifted = cotangent_lift(phi, 3)
        b = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
        rel = tangent_relation_at(lifted, b)
        assert check_linear_micromorphism(rel, phi.jacobian_at(b))


@pytest.mark.parametrize("phi, point, values, jacobian", [
    (CoreMap(2, ()), (1, 2), (), ()),
    (CoreMap(0, (FiberGradedPoly.constant(0, 0, 0, 3),)), (), (F(3),), ((),)),
    (CoreMap(1, (FiberGradedPoly.base_var(0, 1, 0, 0),)), (F(1, 2),), (F(1, 2),), ((F(1),),)),
], ids=["no-components", "domain-0", "identity"])
def test_core_map_points_must_match_the_domain(phi, point, values, jacobian):
    assert phi.evaluate(point) == values and phi.jacobian_at(point) == jacobian
    for bad in {point + (5,), point[1:]} - {point}:
        for call in (phi.evaluate, phi.jacobian_at):
            with pytest.raises(ShapeError, match="evaluation point does not match arities"):
                call(bad)


def test_linearized_relations_reject_points_of_the_wrong_length():
    gen = identity(MicroObject(2), 2).gen
    good = (1, F(1, 3))
    assert micro._linearized_relations(gen, [good, good]) == [linearized_relation(gen, good)] * 2
    for point in [(1,), (1, 2, 3), ()]:
        with pytest.raises(ShapeError, match="point has dimension"):
            linearized_relation(gen, point)
        with pytest.raises(ShapeError, match="point has dimension"):
            micro._linearized_relations(gen, [good, point])


def test_lift_functoriality_exact():
    rng = rng_for(3, "lift-compose")
    for _ in range(15):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        phi = rand_core_map(rng, n, m)
        psi = rand_core_map(rng, q, n)
        k = rng.randint(1, 3)
        assert compose(cotangent_lift(psi, k), cotangent_lift(phi, k)) == \
            cotangent_lift(phi.compose(psi), k)


# -- composition ------------------------------------------------------------------


def test_compose_deformation_coefficients_add():
    # stationarity gives Y = x3 + 2b p1, Q = p1; cross terms cancel
    a, b = F(2, 3), F(1, 5)
    f = morphism(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): a})
    g = morphism(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): b})
    assert compose(g, f).gen == FiberGradedPoly(
        1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): a + b})


def test_compose_lifts_of_powers():
    f = morphism(1, 1, 2, {((1,), (2,)): F(1)})   # lift of x^2
    g = morphism(1, 1, 2, {((1,), (3,)): F(1)})   # lift of x^3
    assert compose(g, f).gen == FiberGradedPoly(1, 1, 2, {((1,), (6,)): F(1)})


def test_compose_requires_matching_objects_and_orders():
    f = rand_micromorphism(rng_for(4, "a"), 1, 2, 2)
    g = rand_micromorphism(rng_for(4, "b"), 1, 1, 2)
    with pytest.raises(ShapeError):
        compose(g, f)
    h = rand_micromorphism(rng_for(4, "c"), 2, 1, 3)
    with pytest.raises(ShapeError):
        compose(h, f)


def test_stationary_middle_solves_both_equations():
    rng = rng_for(5, "middle")
    f = rand_micromorphism(rng, 2, 1, 3)
    g = rand_micromorphism(rng, 1, 2, 3)
    ybar, qbar = stationary_middle(g, f)
    space = (2, 2, 3)
    lhs = [g.gen.partial_fiber(0).substitute(list(qbar), [None, None], space=space)]
    assert [y.at_order(3) for y in lhs] == [y for y in ybar]


def test_composition_associative_on_random_triples():
    rng = rng_for(6, "assoc")
    for _ in range(10):
        dims = [rng.randint(1, 2) for _ in range(4)]
        k = rng.randint(1, 3)
        f = rand_micromorphism(rng, dims[0], dims[1], k)
        g = rand_micromorphism(rng, dims[1], dims[2], k)
        h = rand_micromorphism(rng, dims[2], dims[3], k)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_composition_closure_and_core_reversal():
    rng = rng_for(7, "closure")
    for _ in range(10):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 3)
        f = rand_micromorphism(rng, m, n, k)
        g = rand_micromorphism(rng, n, q, k)
        gf = compose(g, f)
        assert is_micromorphism(gf.gen, gf.source, gf.target)
        assert gf.core == f.core.compose(g.core)


# -- tensor and symmetry -----------------------------------------------------------


def test_tensor_of_identities_is_identity():
    one = MicroObject(1)
    assert tensor(identity(one, 2), identity(one, 2)) == identity(MicroObject(2), 2)


def test_tensor_with_unit_block_is_literal():
    f = rand_micromorphism(rng_for(8, "t"), 2, 1, 2)
    e = identity(unit_object(), 2)
    assert tensor(e, f) == f
    assert tensor(f, e) == f


def test_tensor_is_associative_in_flat_blocks():
    rng = rng_for(9, "tassoc")
    f1 = rand_micromorphism(rng, 1, 1, 2)
    f2 = rand_micromorphism(rng, 2, 1, 2)
    f3 = rand_micromorphism(rng, 1, 2, 2)
    assert tensor(tensor(f1, f2), f3) == tensor(f1, tensor(f2, f3))


def test_interchange_on_random_instances():
    rng = rng_for(10, "inter")
    for _ in range(8):
        dims = [rng.randint(1, 2) for _ in range(6)]
        k = rng.randint(1, 3)
        f1 = rand_micromorphism(rng, dims[0], dims[1], k, terms=2)
        g1 = rand_micromorphism(rng, dims[1], dims[2], k, terms=2)
        f2 = rand_micromorphism(rng, dims[3], dims[4], k, terms=2)
        g2 = rand_micromorphism(rng, dims[4], dims[5], k, terms=2)
        assert compose(tensor(g1, g2), tensor(f1, f2)) == \
            tensor(compose(g1, f1), compose(g2, f2))


def test_symmetry_on_unit_factors_is_identity():
    e = unit_object()
    assert symmetry(e, e, 2) == identity(e, 2)
    one = MicroObject(1)
    assert symmetry(e, one, 2) == identity(one, 2)


def test_symmetry_squares_to_identity():
    a, b = MicroObject(1), MicroObject(1)
    assert compose(symmetry(b, a, 2), symmetry(a, b, 2)) == identity(a.tensor(b), 2)


def test_symmetry_naturality_square():
    rng = rng_for(11, "nat")
    for _ in range(8):
        dims = [rng.randint(1, 2) for _ in range(4)]
        k = rng.randint(1, 3)
        f1 = rand_micromorphism(rng, dims[0], dims[1], k, terms=2)
        f2 = rand_micromorphism(rng, dims[2], dims[3], k, terms=2)
        lhs = compose(symmetry(MicroObject(dims[1]), MicroObject(dims[3]), k),
                      tensor(f1, f2))
        rhs = compose(tensor(f2, f1),
                      symmetry(MicroObject(dims[0]), MicroObject(dims[2]), k))
        assert lhs == rhs


# -- unit object and point morphisms -------------------------------------------------


def test_unit_to_unit_is_identity():
    assert unit_to(unit_object(), 3) == identity(unit_object(), 3)


def test_only_zero_validates_out_of_unit():
    n = 2
    nonzero = FiberGradedPoly(0, n, 2, {((), (1, 0)): F(1)})
    assert not is_micromorphism(nonzero, unit_object(), MicroObject(n))
    assert is_micromorphism(FiberGradedPoly.zero(0, n, 2), unit_object(),
                            MicroObject(n))


def test_compose_with_unit_morphism_collapses():
    rng = rng_for(12, "unitcomp")
    for _ in range(8):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, 3)
        f = rand_micromorphism(rng, m, n, k)
        assert compose(f, unit_to(f.source, k)) == unit_to(f.target, k)


def test_point_morphism_core_point():
    tail = FiberGradedPoly(1, 0, 2, {((1,), ()): F(3, 2)})
    nu = point_morphism(MicroObject(1), tail)
    assert nu.core.evaluate(()) == (F(3, 2),)


def test_point_morphism_curvature_in_tangent_relation():
    a, c = F(2), F(5, 3)
    tail = FiberGradedPoly(1, 0, 2, {((1,), ()): a, ((2,), ()): c / 2})
    nu = point_morphism(MicroObject(1), tail)
    rel = tangent_relation_at(nu, ())
    assert subspace_equal(rel.vectors, ((c, F(1)),))


def test_point_morphism_rejects_constant_term():
    with pytest.raises(NormalFormError):
        point_morphism(MicroObject(1), FiberGradedPoly(1, 0, 2, {((0,), ()): F(1)}))


def test_point_morphism_composes_through_unit():
    tail = FiberGradedPoly(2, 0, 2, {((1, 0), ()): F(1), ((0, 2), ()): F(1, 2)})
    nu = point_morphism(MicroObject(2), tail)
    assert compose(nu, unit_to(MicroObject(2), 2)) == identity(unit_object(), 2)


# -- validity checking ----------------------------------------------------------------


def test_is_micromorphism_accepts_identity_shape():
    gen = FiberGradedPoly(1, 1, 2, {((1,), (1,)): F(1)})
    assert is_micromorphism(gen, MicroObject(1), MicroObject(1))


def test_is_micromorphism_names_offending_monomials():
    gen = FiberGradedPoly(1, 1, 2, {((1,), (1,)): F(1), ((0,), (2,)): F(1)})
    res = is_micromorphism(gen, MicroObject(1), MicroObject(1))
    assert not res
    assert "x1^2" in res.reasons[0]


def test_is_micromorphism_builds_the_gradient_of_s_once(monkeypatch):
    # m + n derivatives of S per call, shared by the three sample points
    calls = []
    for name in ("partial_fiber", "partial_base"):
        def counted(self, index, original=getattr(FiberGradedPoly, name), name=name):
            calls.append((self, name, index))
            return original(self, index)
        monkeypatch.setattr(FiberGradedPoly, name, counted)
    rng = rng_for(21, "gradient-once")
    for m, n in ((1, 1), (2, 3), (3, 2), (0, 2), (2, 1)):
        gen = rand_micromorphism(rng, m, n, 3).gen
        calls.clear()
        assert is_micromorphism(gen, MicroObject(m), MicroObject(n))
        assert sorted((name, i) for g, name, i in calls if g is gen) == \
            [("partial_base", j) for j in range(n)] + [("partial_fiber", i) for i in range(m)]


def test_constructor_rejects_normal_form_violation():
    with pytest.raises(NormalFormError):
        morphism(1, 1, 2, {((0,), (1,)): F(1)})


def test_curved_violator_fails_the_linear_check():
    # S = p x + x^2 linearizes with a nonzero base Hessian block, so the
    # intersection with the horizontal is not the graph of the core map
    gen = FiberGradedPoly(1, 1, 2, {((1,), (1,)): F(1), ((0,), (2,)): F(1)})
    rel = linearized_relation(gen, (F(0),))
    assert not check_linear_micromorphism(rel, ((F(1),),))


def test_random_morphisms_pass_sampled_linear_checks():
    rng = rng_for(13, "valid")
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_micromorphism(rng, m, n, rng.randint(1, 3))
        assert is_micromorphism(f.gen, f.source, f.target)


# -- tangent relations ------------------------------------------------------------------


def test_tangent_relation_of_identity():
    rel = tangent_relation_at(identity(MicroObject(2), 2), (F(1), F(-1)))
    assert subspace_equal(rel.vectors, identity_relation(2).vectors)


def test_tangent_relation_of_square_lift():
    lifted = cotangent_lift(CoreMap.from_terms(1, [{((), (2,)): F(1)}]), 2)
    rel = tangent_relation_at(lifted, (F(1),))
    # dx1 = 2 dx2 and dp2 = 2 dp1 at the point x = 1
    assert subspace_equal(rel.vectors, ((F(0), F(1), F(0), F(2)),
                                        (F(2), F(0), F(1), F(0))))


def test_lift_image_of_core_vector_is_differential_preimage():
    # a horizontal source vector Dphi(b) w has, through the tangent relation
    # of a lift, exactly the preimage {v : Dphi(b) v = Dphi(b) w} inside the
    # target zero section
    from microsympl.linsympl import (AffineSubspace, image_of_point, mat_vec,
                                     nullspace, reduce_span, zero_vector)
    rng = rng_for(21, "preimage")
    for _ in range(10):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        phi = rand_core_map(rng, n, m)
        lifted = cotangent_lift(phi, 2)
        b = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
        jac = phi.jacobian_at(b)
        w = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        u = mat_vec(jac, w) + zero_vector(m)
        img = image_of_point(tangent_relation_at(lifted, b), u)
        dirs = reduce_span([v + zero_vector(n) for v in nullspace(jac, ncols=n)])
        assert img == AffineSubspace(2 * n, w + zero_vector(n), dirs)


def test_tangent_relation_always_lagrangian():
    rng = rng_for(14, "tangent")
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_micromorphism(rng, m, n, rng.randint(1, 4))
        b = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
        rel = tangent_relation_at(f, b)
        assert is_lagrangian(rel.subspace.space, rel.vectors)


# -- germs ------------------------------------------------------------------------------


def test_extract_germ_of_identity():
    assert extract_germ(identity(MicroObject(2), 3)) == identity_germ(2, 3)


def test_extract_germ_of_affine_lift():
    # lift of phi(x) = 2x + 1: germ is x2 = (x1 - 1)/2, p2 = 2 p1
    phi = CoreMap.from_terms(1, [{((), (1,)): F(2), ((), (0,)): F(1)}])
    germ = extract_germ(cotangent_lift(phi, 2))
    assert germ.x_out[0] == FiberGradedPoly(
        1, 1, 2, {((0,), (1,)): F(1, 2), ((0,), (0,)): F(-1, 2)})
    assert germ.p_out[0] == FiberGradedPoly(1, 1, 2, {((1,), (0,)): F(2)})


def test_extract_germ_worked_instance():
    f = morphism(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): F(1, 2)})
    germ = extract_germ(f)
    assert germ.x_out[0] == FiberGradedPoly(
        1, 1, 2, {((0,), (1,)): F(1), ((1,), (0,)): F(-1)})
    assert germ.p_out[0] == FiberGradedPoly.fiber_var(1, 1, 2, 0)


def test_extract_germ_requires_affine_invertible_core():
    curved = morphism(1, 1, 2, {((1,), (2,)): F(1)})
    with pytest.raises(UnsupportedCoreError):
        extract_germ(curved)
    rectangular = rand_micromorphism(rng_for(15, "r"), 1, 2, 2)
    with pytest.raises(UnsupportedCoreError):
        extract_germ(rectangular)


def test_graph_of_identity_germ():
    assert graph_of_germ(identity_germ(2, 3)) == identity(MicroObject(2), 3)


def test_germ_roundtrip_on_random_morphisms():
    rng = rng_for(16, "roundtrip")
    for _ in range(20):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        f = rand_affine_core_micromorphism(rng, n, k)
        assert graph_of_germ(extract_germ(f)) == f


def test_graph_functoriality_against_germ_composition():
    rng = rng_for(17, "functor")
    for _ in range(10):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        f1 = rand_affine_core_micromorphism(rng, n, k)
        f2 = rand_affine_core_micromorphism(rng, n, k)
        g1, g2 = extract_germ(f1), extract_germ(f2)
        assert graph_of_germ(compose_germs(g2, g1)) == compose(f2, f1)


def test_graph_of_germ_rejects_non_symplectic_data():
    k = 2
    x2 = FiberGradedPoly(1, 1, k, {((0,), (1,)): F(2)})
    p2 = FiberGradedPoly.fiber_var(1, 1, k, 0)
    with pytest.raises(ValidityError):
        graph_of_germ(GermJet(1, k, (x2,), (p2,)))


def _jets(n, k, *components):
    return tuple(FiberGradedPoly(n, n, k, terms) for terms in components)


@pytest.mark.parametrize("n, x_terms, p_terms, message", [
    # P = p1 + x1*p1 along X = x1: S = 3/2*p1*x1 + 1/3*p1*x1^2, so
    # dS/dx1 = 3/2*p1 + 2/3*p1*x1
    (1, [{((0,), (1,)): F(1)}], [{((1,), (0,)): F(1), ((1,), (1,)): F(1)}],
     "P1 != dS/dx1"),
    # P = (p1 + x2*p1, p2 - x1*p1) along X = x: S = p1*x1 + p2*x2, so dS/dp = X
    # but dS/dx1 = P1 - x2*p1
    (2, [{((0, 0), (1, 0)): F(1)}, {((0, 0), (0, 1)): F(1)}],
     [{((1, 0), (0, 0)): F(1), ((1, 0), (0, 1)): F(1)},
      {((0, 1), (0, 0)): F(1), ((1, 0), (1, 0)): F(-1)}],
     "P1 != dS/dx1"),
    # X1 = x1 + p2 moves only x_hat1 = x1 - p2, so dX1/dp2 = -1 and dX2/dp1 = 0
    (2, [{((0, 0), (1, 0)): F(1), ((0, 1), (0, 0)): F(1)}, {((0, 0), (0, 1)): F(1)}],
     [{((1, 0), (0, 0)): F(1)}, {((0, 1), (0, 0)): F(1)}],
     "dX1/dp2 != dX2/dp1"),
], ids=["X", "P", "dX/dp"])
def test_graph_of_germ_names_the_identity_that_fails(n, x_terms, p_terms, message):
    germ = GermJet(n, 2, _jets(n, 2, *x_terms), _jets(n, 2, *p_terms))
    with pytest.raises(ValidityError) as err:
        graph_of_germ(germ)
    assert str(err.value) == f"jet data is not lagrangian: {message}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graph_of_germ_rejects_order_0_germs(n):
    # P vanishes on the core, so at order 0 it is zero and not invertible
    xs = tuple(FiberGradedPoly.base_var(n, n, 0, i) for i in range(n))
    zeros = (FiberGradedPoly.zero(n, n, 0),) * n
    with pytest.raises(ValidityError) as err:
        graph_of_germ(GermJet(n, 0, xs, zeros))
    assert str(err.value) == "linearization of an order-0 germ is not symplectic"
    # the core checks still come first
    curved = (xs[0] * xs[0], *xs[1:])
    with pytest.raises(UnsupportedCoreError, match="core restriction is not affine"):
        graph_of_germ(GermJet(n, 0, curved, zeros))
    off_core = (FiberGradedPoly.constant(n, n, 0, 1), *zeros[1:])
    with pytest.raises(ValidityError, match="germ does not preserve the core"):
        graph_of_germ(GermJet(n, 0, xs, off_core))
    # dimension 0 has no linearization to check, and no micromorphism of order 0
    with pytest.raises(ShapeError, match="fiber order K >= 1"):
        graph_of_germ(identity_germ(0, 0))


def test_graph_of_germ_rejects_core_breaking_data():
    k = 2
    x2 = FiberGradedPoly.base_var(1, 1, k, 0)
    p2 = FiberGradedPoly.fiber_var(1, 1, k, 0) + FiberGradedPoly.constant(1, 1, k, 1)
    with pytest.raises(ValidityError):
        graph_of_germ(GermJet(1, k, (x2,), (p2,)))


def test_extract_is_a_section_of_graph():
    rng = rng_for(19, "section")
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        germ = extract_germ(rand_affine_core_micromorphism(rng, n, k))
        assert extract_germ(graph_of_germ(germ)) == germ


def test_composed_germs_match_reextraction_up_to_slack():
    # the position block of a composed jet carries degree-K data that the
    # order-K graph cannot retain; one order below they must agree, and the
    # momentum block agrees exactly
    rng = rng_for(20, "slack")
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        g1 = extract_germ(rand_affine_core_micromorphism(rng, n, k))
        g2 = extract_germ(rand_affine_core_micromorphism(rng, n, k))
        comp = compose_germs(g2, g1)
        back = extract_germ(graph_of_germ(comp))
        assert back.p_out == comp.p_out
        for a, b in zip(back.x_out, comp.x_out):
            assert a.at_order(k - 1) == b.at_order(k - 1)


def test_compose_through_zero_dimensional_middle():
    # nu: [2] -> E then the unit morphism E -> [1]: the middle block is empty
    tail = FiberGradedPoly(2, 0, 2, {((1, 0), ()): F(2), ((1, 1), ()): F(1, 3)})
    nu = point_morphism(MicroObject(2), tail)
    out = compose(unit_to(MicroObject(1), 2), nu)
    assert out.source == MicroObject(2) and out.target == MicroObject(1)
    assert out.gen == tail.embed(2, 1)
    assert out.core.evaluate((F(7),)) == (F(2), F(0))


def test_invert_germ_gives_two_sided_inverse():
    rng = rng_for(18, "inverse")
    for _ in range(10):
        n, k = rng.randint(1, 2), rng.randint(1, 3)
        f = rand_affine_core_micromorphism(rng, n, k)
        germ = extract_germ(f)
        inv = invert_germ(germ)
        assert compose_germs(germ, inv) == identity_germ(n, k)
        assert compose_germs(inv, germ) == identity_germ(n, k)
        assert compose(f, graph_of_germ(inv)) == identity(MicroObject(n), k)


def _germ(k, x_terms, p_terms):
    x = FiberGradedPoly(1, 1, k, x_terms)
    p = FiberGradedPoly(1, 1, k, p_terms)
    return GermJet(1, k, (x,), (p,))


P1 = {((1,), (0,)): F(1)}
X1 = {((0,), (1,)): F(1)}
CURVED_CORE = {((0,), (2,)): F(1)}
FLAT_CORE = {((0,), (0,)): F(5)}


@pytest.mark.parametrize("func", [graph_of_germ, invert_germ])
@pytest.mark.parametrize("x_terms, message", [
    (CURVED_CORE, "core restriction is not affine"),
    (FLAT_CORE, "core restriction is not invertible"),
])
def test_germ_functions_reject_unsupported_core_restriction(func, x_terms, message):
    with pytest.raises(UnsupportedCoreError) as err:
        func(_germ(2, x_terms, P1))
    assert str(err.value) == message


@pytest.mark.parametrize("p_terms, message", [
    ({((1,), (0,)): F(1), ((1,), (1,)): F(1)},
     "momentum linearization varies along the core; inversion is supported "
     "only for the affine class"),
    ({((2,), (0,)): F(1)}, "momentum linearization is not invertible"),
])
def test_invert_germ_rejects_unsupported_momentum_linearization(p_terms, message):
    with pytest.raises(UnsupportedCoreError) as err:
        invert_germ(_germ(2, X1, p_terms))
    assert str(err.value) == message


def test_invert_germ_rejects_core_breaking_data():
    # the core check comes first, even ahead of a curved core restriction
    with pytest.raises(ValidityError) as err:
        invert_germ(_germ(2, CURVED_CORE, {**P1, ((0,), (1,)): F(1)}))
    assert str(err.value) == "germ does not preserve the core"


def _run_germ_list():
    # a seeded germ list: extract two germs, graph their composite and
    # extract it again, invert the first
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            rng = rng_for(10 * n + k, "solver-work")
            g1, g2 = (extract_germ(rand_affine_core_micromorphism(rng, n, k)) for _ in range(2))
            extract_germ(graph_of_germ(compose_germs(g2, g1)))
            invert_germ(g1)


def test_germ_solves_take_a_fixed_amount_of_work(solver_work):
    # machine-independent counts of the filtered solver over the germ list:
    # an inversion runs the position solve of graph_of_germ, then one momentum
    # solve, both over n components; an added solve or update shows here
    _run_germ_list()
    assert (solver_work.calls, solver_work.updates) == (54, 105)


def test_germ_solves_take_a_fixed_number_of_substitutions(solver_work):
    # over the same germ list: each solve folds and shifts its equations in
    # one batch, and the first update of a position solve, at W = 0, is read
    # off the folded system's keys instead of substituted; so is the first
    # update of an inversion's momentum solve, C^-1 p, at p = 0
    _run_germ_list()
    assert (solver_work.batches, solver_work.polys) == (168, 375)


def _compose_list():
    # a seeded list of compositions, as (outer, inner) pairs
    for case in range(24):
        rng = rng_for(case, "compose-work")
        m, mid, n, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3), 1 + case % 8
        f = rand_micromorphism(rng, m, mid, k, terms=5)
        g = rand_micromorphism(rng, mid, n, k, terms=5)
        h, e = (rand_affine_core_micromorphism(rng, 1 + case % 3, k) for _ in range(2))
        yield from ((g, f), (h, e))


def test_compose_takes_a_fixed_amount_of_work(solver_work):
    # machine-independent counts over a seeded list of compositions: every
    # middle point that is solved is solved at order K // 2, in a fixed number
    # of updates and substitution batches; it is taken from its seed, with no
    # solve, exactly when S_f has no term with a y of fiber degree <= K // 2
    solved_ks, skipped = [], 0
    for outer, inner in _compose_list():
        k, calls = inner.order, solver_work.calls
        compose(outer, inner)
        y_free = all(sum(pe) > k // 2 or not any(xe) for pe, xe in inner.gen.terms)
        assert solver_work.calls == calls + (not y_free)
        if y_free:
            skipped += 1
        else:
            solved_ks.append(k)
    orders = [{p.order for p in initial} for initial, _, _ in solver_work.solves]
    assert orders == [{k // 2} for k in solved_ks]
    assert skipped == 11
    assert (solver_work.calls, solver_work.updates) == (37, 60)
    assert (solver_work.batches, solver_work.polys) == (120, 236)


def test_every_solve_ends_at_a_fixed_point_of_its_update(solver_work):
    # the solver returns once an update's lowest change reaches the order K,
    # without the update that would confirm it, so a non-contracting update
    # at degree K goes unseen there; run that update here after every solve
    _run_germ_list()
    for outer, inner in _compose_list():
        compose(outer, inner)
    assert len(solver_work.solves) == 54 + 37
    for _, update, result in solver_work.solves:
        assert tuple(update(result)) == result


@pytest.mark.parametrize("n", [1, 2])
def test_germs_of_order_0_compose_as_their_cores(n):
    # at order 0 a germ is its core restriction: the w of X = phi(x) + w are
    # truncated away, and P is zero, so it has no momentum linearization
    xs = tuple(FiberGradedPoly.base_var(n, n, 0, i) * 2 + FiberGradedPoly.constant(n, n, 0, i + 1)
               for i in range(n))
    zeros = (FiberGradedPoly.zero(n, n, 0),) * n
    germ = GermJet(n, 0, xs, zeros)
    twice = tuple(x * 2 + FiberGradedPoly.constant(n, n, 0, i + 1) for i, x in enumerate(xs))
    assert compose_germs(germ, germ) == GermJet(n, 0, twice, zeros)
    with pytest.raises(UnsupportedCoreError, match="momentum linearization is not invertible"):
        invert_germ(germ)
