import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from microsympl.errors import ConvergenceError, FiltrationError, ShapeError
from microsympl.jetalg import FiberGradedPoly, solve_triangular_fixed_point
from microsympl.textio import parse_polynomial


def poly(m, n, k, terms):
    return FiberGradedPoly(m, n, k, terms)


def naive_merge(term_maps):
    # independent oracle: plain counter merge of term dictionaries
    out = {}
    for terms in term_maps:
        for key, c in terms.items():
            out[key] = out.get(key, F(0)) + c
    return {k: v for k, v in out.items() if v}


def schoolbook_product(a, b):
    # independent oracle: untruncated distributive product
    out = {}
    for (pa, xa), ca in a.terms.items():
        for (pb, xb), cb in b.terms.items():
            key = (tuple(u + v for u, v in zip(pa, pb)),
                   tuple(u + v for u, v in zip(xa, xb)))
            out[key] = out.get(key, F(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@st.composite
def polys(draw, m=None, n=None, k=None, min_fiber_deg=0):
    m = draw(st.integers(0, 2)) if m is None else m
    n = draw(st.integers(0, 2)) if n is None else n
    k = draw(st.integers(min_fiber_deg, 3)) if k is None else k
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        if m == 0 and min_fiber_deg > 0:
            break
        pdeg = draw(st.integers(min_fiber_deg, k)) if m else 0
        pe = [0] * m
        for _ in range(pdeg):
            pe[draw(st.integers(0, m - 1))] += 1
        xe = [0] * n
        for _ in range(draw(st.integers(0, 2))):
            if n:
                xe[draw(st.integers(0, n - 1))] += 1
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[(tuple(pe), tuple(xe))] = F(num, den)
    return FiberGradedPoly(m, n, k, terms)


# -- construction ---------------------------------------------------------------


def test_zero_coefficients_dropped():
    p = poly(1, 1, 2, {((1,), (0,)): F(0), ((1,), (1,)): F(2)})
    assert p.terms == {((1,), (1,)): F(2)}


def test_fiber_degree_above_order_rejected():
    with pytest.raises(ShapeError):
        poly(1, 0, 2, {((3,), ()): F(1)})


def test_negative_exponent_rejected():
    with pytest.raises(ShapeError):
        poly(1, 1, 2, {((-1,), (0,)): F(1)})


def test_zero_polynomial_keeps_shape():
    z = FiberGradedPoly.zero(2, 1, 3)
    assert z.is_zero() and z.space() == (2, 1, 3)
    with pytest.raises(ShapeError):
        z + FiberGradedPoly.zero(1, 1, 3)


# -- add ------------------------------------------------------------------------


def test_add_additive_inverse():
    px = poly(1, 1, 2, {((1,), (1,)): F(1)})
    assert (px + (-px)).is_zero()


def test_add_coefficient_merge():
    a = poly(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): F(1, 2)})
    b = poly(1, 1, 2, {((2,), (0,)): F(1, 2)})
    assert a + b == poly(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): F(1)})


def test_add_matches_fold_oracle_any_order():
    rng = random.Random(7)
    ps = []
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            pe = (rng.randint(0, 2), rng.randint(0, 1))
            if sum(pe) > 3:
                continue
            xe = (rng.randint(0, 2),)
            terms[(pe, xe)] = F(rng.randint(-9, 9), rng.randint(1, 9))
        ps.append(poly(2, 1, 3, terms))
    total = FiberGradedPoly.zero(2, 1, 3)
    for p in ps:
        total = total + p
    reverse = FiberGradedPoly.zero(2, 1, 3)
    for p in reversed(ps):
        reverse = reverse + p
    expected = naive_merge([p.terms for p in ps])
    assert total.terms == expected == reverse.terms


@given(polys(m=1, n=1, k=2), polys(m=1, n=1, k=2))
def test_add_commutes(a, b):
    assert a + b == b + a


# -- mul ------------------------------------------------------------------------


def test_mul_truncation_kills_top_degree():
    p = FiberGradedPoly.fiber_var(1, 0, 1, 0)
    assert (p * p).is_zero()


def test_mul_exact_below_truncation():
    p = FiberGradedPoly.fiber_var(1, 1, 2, 0)
    x = FiberGradedPoly.base_var(1, 1, 2, 0)
    assert (p + x) * (p - x) == poly(1, 1, 2, {((2,), (0,)): F(1), ((0,), (2,)): F(-1)})


@given(polys(m=2, n=1, k=3), polys(m=2, n=1, k=3))
def test_mul_matches_schoolbook_when_truncation_free(a, b):
    big = sum(max((sum(pe) for pe, _ in p.terms), default=0) for p in (a, b))
    lifted_a, lifted_b = a.at_order(big), b.at_order(big)
    assert (lifted_a * lifted_b).terms == schoolbook_product(a, b)


@given(polys(m=1, n=1, k=3), polys(m=1, n=1, k=3), polys(m=1, n=1, k=3))
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- partial --------------------------------------------------------------------


def test_partial_fiber_basic():
    px = poly(1, 1, 2, {((1,), (1,)): F(1)})
    assert px.partial_fiber(0) == poly(1, 1, 2, {((0,), (1,)): F(1)})


def test_partial_base_power_rule():
    p = poly(1, 1, 2, {((1,), (2,)): F(1)})
    assert p.partial_base(0) == poly(1, 1, 2, {((1,), (1,)): F(2)})


def test_partial_index_out_of_range():
    p = FiberGradedPoly.zero(1, 1, 2)
    with pytest.raises(ShapeError):
        p.partial_fiber(1)
    with pytest.raises(ShapeError):
        p.partial_base(5)


def test_mixed_partials_commute_on_random_inputs():
    rng = random.Random(11)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            pe = (rng.randint(0, 2), rng.randint(0, 1))
            xe = (rng.randint(0, 3), rng.randint(0, 2))
            if sum(pe) <= 3:
                terms[(pe, xe)] = F(rng.randint(-9, 9), rng.randint(1, 9))
        p = poly(2, 2, 3, terms)
        i, j = rng.randint(0, 1), rng.randint(0, 1)
        assert p.partial_fiber(i).partial_base(j) == p.partial_base(j).partial_fiber(i)


# -- substitute -----------------------------------------------------------------


def test_substitute_base_map():
    # x := x'^2 sent through p*x
    px = poly(1, 1, 2, {((1,), (1,)): F(1)})
    psi = poly(1, 1, 2, {((0,), (2,)): F(1)})
    assert px.substitute([None], [psi]) == poly(1, 1, 2, {((1,), (2,)): F(1)})


def test_substitute_fiber_zero_is_core_restriction():
    s = poly(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): F(1)})
    zero = FiberGradedPoly.zero(1, 1, 2)
    assert s.substitute([zero], [None]).is_zero()


def test_substitute_rejects_fiber_degree_zero_values():
    s = FiberGradedPoly.fiber_var(1, 1, 2, 0)
    const = FiberGradedPoly.constant(1, 1, 2, 1)
    with pytest.raises(FiltrationError):
        s.substitute([const], [None])


@given(polys(m=1, n=1, k=2), polys(m=1, n=1, k=0, min_fiber_deg=0),
       st.integers(1, 2))
def test_substitute_matches_exact_oracle_at_inflated_order(s, val, fdeg):
    # fiber value with minimum degree >= 1, base value arbitrary
    pval = FiberGradedPoly.fiber_var(1, 1, 2, 0) ** fdeg
    xval = val.at_order(2)
    got = s.substitute([pval], [xval])
    # oracle: redo the substitution with truncation pushed out of reach
    big = 12
    exact = s.at_order(big).substitute([pval.at_order(big)], [xval.at_order(big)])
    assert got == exact.at_order(2)


@given(polys(m=1, n=1, k=3), polys(m=1, n=1, k=3))
def test_substitution_is_a_ring_homomorphism(a, b):
    pval = FiberGradedPoly.fiber_var(1, 1, 3, 0) + (
        FiberGradedPoly.fiber_var(1, 1, 3, 0) * FiberGradedPoly.base_var(1, 1, 3, 0))
    xval = FiberGradedPoly.base_var(1, 1, 3, 0) + FiberGradedPoly.constant(1, 1, 3, 2)
    sub = lambda p: p.substitute([pval], [xval])
    assert sub(a * b) == sub(a) * sub(b)
    assert sub(a + b) == sub(a) + sub(b)


def test_evaluate_exact_rational():
    s = poly(1, 1, 2, {((1,), (1,)): F(1), ((2,), (0,)): F(1, 2)})
    assert s.evaluate([F(2, 3)], [F(3)]) == F(2, 3) * 3 + F(1, 2) * F(4, 9)


# -- fixed point ----------------------------------------------------------------


def test_fixed_point_geometric_series():
    # z = c + p z at K = 2; iterating by hand: c, c + p c, c + p c + p^2 c
    k = 2
    c = FiberGradedPoly.base_var(1, 1, k, 0)
    p = FiberGradedPoly.fiber_var(1, 1, k, 0)
    z0 = FiberGradedPoly.zero(1, 1, k)
    got = solve_triangular_fixed_point([z0], lambda z: [c + p * z[0]])
    by_hand = z0
    for _ in range(3):
        by_hand = c + p * by_hand
    assert got[0] == by_hand == c + p * c + p * p * c


def test_fixed_point_identity_update_returns_initial():
    z = FiberGradedPoly.fiber_var(2, 0, 3, 1)
    assert solve_triangular_fixed_point([z], lambda s: list(s)) == (z,)


def test_fixed_point_quadratic_update():
    # z = p + z^2 at K = 3 gives p + p^2 + 2 p^3; residual vanishes at order 3
    k = 3
    p = FiberGradedPoly.fiber_var(1, 0, k, 0)
    update = lambda z: [p + z[0] * z[0]]
    got = solve_triangular_fixed_point([p], update)
    expected = poly(1, 0, k, {((1,), ()): F(1), ((2,), ()): F(1), ((3,), ()): F(2)})
    assert got[0] == expected
    assert (update(got)[0] - got[0]).is_zero()


def test_fixed_point_uniqueness_across_seeds():
    # distinct seeds with the same degree-0 part reach the same fixed point
    k = 3
    c = FiberGradedPoly.constant(1, 0, k, 3)
    p = FiberGradedPoly.fiber_var(1, 0, k, 0)
    update = lambda z: [c + p * z[0]]
    a = solve_triangular_fixed_point([c], update)
    b = solve_triangular_fixed_point([c + p.scale(F(5, 7))], update)
    assert a == b


def test_fixed_point_non_contracting_update_raises():
    k = 2
    one = FiberGradedPoly.constant(1, 0, k, 1)
    with pytest.raises(ConvergenceError):
        solve_triangular_fixed_point([one], lambda z: [z[0] + one])


def test_fixed_point_checks_the_component_count_of_every_update():
    # at order 1 the first update fixes degree 0 < K, so a second runs, and it
    # must still return one component per unknown; at order 0 the first does
    one = FiberGradedPoly.constant(0, 1, 1, 1)
    results = iter([[one], [one, one]])
    with pytest.raises(ShapeError, match="update changed the number of components"):
        solve_triangular_fixed_point([FiberGradedPoly.zero(0, 1, 1)], lambda z: next(results))
    one = FiberGradedPoly.constant(0, 1, 0, 1)
    with pytest.raises(ShapeError, match="update changed the number of components"):
        solve_triangular_fixed_point([FiberGradedPoly.zero(0, 1, 0)], lambda z: [one, one])


def test_fixed_point_runs_exactly_k_plus_1_updates():
    # each update moves the lowest changed degree up by one, 0 to K, and the
    # solver stops there: a next update could change only truncated degrees
    for k in range(4):
        p = FiberGradedPoly.fiber_var(1, 0, k, 0) if k else FiberGradedPoly.zero(1, 0, 0)
        one = FiberGradedPoly.constant(1, 0, k, 1)
        calls = []

        def update(z):
            calls.append(z)
            return [one + p * z[0]]
        got = solve_triangular_fixed_point([FiberGradedPoly.zero(1, 0, k)], update)
        assert got[0] == sum((p ** d for d in range(1, k + 1)), one)
        assert len(calls) == k + 1


# -- text and ordering ----------------------------------------------------------


def test_canonical_text_order():
    s = poly(1, 1, 3, {((2,), (1,)): F(1, 2), ((1,), (1,)): F(1), ((0,), (0,)): F(0)})
    assert s.to_text() == "p1*x1 + 1/2*p1^2*x1"


def test_serialized_terms_are_sorted_tuples():
    # equal total degree: the fiber-heavier monomial precedes
    s = poly(1, 1, 2, {((2,), (0,)): F(-1, 3), ((1,), (1,)): F(2)})
    assert s.serialized_terms() == (((2,), (0,), -1, 3), ((1,), (1,), 2, 1))


def test_all_coefficients_stay_fractions():
    a = poly(1, 1, 2, {((1,), (1,)): F(1, 3)})
    b = poly(1, 1, 2, {((1,), (0,)): F(3, 7)})
    for p in (a + b, a * b, a.partial_fiber(0), a.scale(5)):
        assert all(isinstance(c, F) for c in p.terms.values())


# -- canonical form -------------------------------------------------------------

COEFFS = st.one_of(st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
                   st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**90)))


@st.composite
def twins(draw):
    """Two polynomials that are equal but reached by different routes."""
    m, n, k = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    keys = st.tuples(st.lists(st.integers(0, k), min_size=m, max_size=m)
                     .filter(lambda pe: sum(pe) <= k).map(tuple),
                     st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple))
    items = st.lists(st.tuples(keys, COEFFS), max_size=5)
    a, b, c = (FiberGradedPoly(m, n, k, draw(items)) for _ in range(3))
    route = draw(st.sampled_from(["constructor", "sum", "distributive", "scale", "order",
                                  "embed", "substitute", "parse", "cancel"]))
    if route == "constructor":
        # repeated keys and unreduced coefficients merge to the summed map
        pairs = draw(items)
        doubled = [(key, v / 2) for key, v in pairs] * 2
        summed = {}
        for key, v in pairs:
            summed[key] = summed.get(key, 0) + v
        return FiberGradedPoly(m, n, k, doubled), FiberGradedPoly(m, n, k, summed)
    if route == "sum":
        return a + b, b + a
    if route == "distributive":
        return a * (b + c), a * b + a * c
    if route == "scale":
        v = draw(COEFFS.filter(bool))
        return a.scale(v).scale(1 / v), a
    if route == "order":
        return a.at_order(k + draw(st.integers(0, 2))).at_order(k), a.at_order(k)
    if route == "embed":
        shifted = {((0,) + pe, xe + (0,)): v for (pe, xe), v in a.terms.items()}
        return a.embed(m + 1, n + 1, 1, 0), FiberGradedPoly(m + 1, n + 1, k, shifted)
    if route == "substitute":
        ps = [FiberGradedPoly.fiber_var(m, n, k, i) for i in range(m)] if k else [None] * m
        xs = [FiberGradedPoly.base_var(m, n, k, j) for j in range(n)]
        return a.substitute(ps, xs, space=(m, n, k)), a
    if route == "parse":
        return parse_polynomial(a.to_text(), m, n, k), a
    return a + b - b, a


def assert_canonical(p):
    assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1 and 0 not in p.nums.values()
    for c in p.terms.values():
        assert type(c) is F and c != 0 and gcd(c.numerator, c.denominator) == 1


@given(twins())
def test_equal_polynomials_have_one_form_and_one_hash(pair):
    x, y = pair
    for p in (x, y, -x, x.scale(F(-3, 2))):
        assert_canonical(p)
    assert x == y and hash(x) == hash(y)
    assert (x.den, x.nums) == (y.den, y.nums) and x.terms == y.terms
    # cancellation to zero gives the zero polynomial of the same space
    for zero in (x - y, y - x, x + (-y), x.scale(0)):
        assert zero.space() == x.space()
        assert (zero.den, zero.nums, zero.terms) == (1, {}, {})
        assert zero == FiberGradedPoly.zero(*x.space())
        assert hash(zero) == hash(FiberGradedPoly.zero(*x.space()))
