"""The integer-numerator kernels of FiberGradedPoly against the frozen Fraction oracle.

Products, powers, substitutions, sums, scalings, derivatives, the reshaping
methods, the fixed-point residual and the built-in forms (zero, constants and
variables) must agree with
``tests/reference_jetalg.py`` exactly: the same arities, the same truncation
order, the same term map, and so equal polynomials with equal hashes.  Every
result must also keep the class invariants: a stored form in lowest terms
(positive denominator, no zero numerator, gcd 1), every public coefficient a
nonzero Fraction, and every fiber degree at most the order.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

import reference_jetalg as ref
from microsympl.errors import ShapeError
from microsympl.jetalg import (FiberGradedPoly, _lowest_change, solve_triangular_fixed_point,
                               substitute_many)

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
NEGATIVE_DEN = st.builds(F, st.integers(-9, 9), st.integers(-9, -1))
# pairwise coprime denominators, so the common denominator is their product
COPRIME = st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 5, 7, 11, 13, 49, 125]))
HUGE = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**70))
HUGE_DEN = st.builds(F, st.integers(-2**90, 2**90), st.integers(2**89, 2**90))
COEFF = st.one_of(SMALL, NEGATIVE_DEN, COPRIME, HUGE, HUGE_DEN)


def assert_invariants(p):
    assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
    # the public exponent tuples are exactly the stored keys, unpacked
    assert 0 not in p.nums.values() and len(p.terms) == len(p.nums)
    assert p.terms.keys() == {p.codec.unpack(key) for key in p.nums}
    assert {p.codec.pack(*key) for key in p.terms} == p.nums.keys()
    for (pe, xe), c in p.terms.items():
        assert type(c) is F and c != 0
        assert len(pe) == p.fiber_arity and len(xe) == p.base_arity
        assert sum(pe) <= p.order
        assert min(pe + xe, default=0) >= 0


def assert_same(got, want):
    assert_invariants(got)
    assert got.space() == want.space()
    assert got.terms == want.terms
    assert got == want and hash(got) == hash(want)


@st.composite
def polys(draw, m, n, k, min_fiber_deg=0, max_terms=6, max_base_exp=6):
    """Polynomials with base exponents up to ``max_base_exp`` per variable."""
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        if min_fiber_deg > k or (m == 0 and min_fiber_deg > 0):
            break
        pe = [0] * m
        for _ in range(draw(st.integers(min_fiber_deg, k)) if m else 0):
            pe[draw(st.integers(0, m - 1))] += 1
        xe = [draw(st.integers(0, max_base_exp)) for _ in range(n)]
        terms.append(((tuple(pe), tuple(xe)), draw(COEFF)))
    return FiberGradedPoly(m, n, k, terms)


SPACES = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))


@st.composite
def operand_pairs(draw):
    m, n, k = draw(SPACES)
    return draw(polys(m, n, k)), draw(polys(m, n, k))


@st.composite
def substitutions(draw, batch=1):
    """``batch`` polynomials of one space and values for each of its variables.

    A ``None`` value keeps the same-index target variable; fiber values have
    no fiber-degree-0 term.  Exponents of the substituted polynomials stay
    small enough that the reference finishes quickly.
    """
    m, n, k = draw(SPACES)
    sources = [draw(polys(m, n, k, max_terms=4, max_base_exp=3)) for _ in range(batch)]
    tm = draw(st.integers(1 if m else 0, 3))
    tn, tk = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    fiber = [None if i < tm and draw(st.booleans())
             else draw(polys(tm, tn, tk, min_fiber_deg=1, max_terms=3, max_base_exp=2))
             for i in range(m)]
    base = [None if j < tn and draw(st.booleans())
            else draw(polys(tm, tn, tk, max_terms=3, max_base_exp=2))
            for j in range(n)]
    return sources, fiber, base, (tm, tn, tk)


@given(operand_pairs())
def test_product_matches_oracle(pair):
    a, b = pair
    want = ref.mul(a, b)
    assert_same(a * b, want)
    assert_same(b * a, want)
    # the second product reads the cached integer forms
    assert_same(a * b, want)


@given(operand_pairs())
def test_product_cancelling_to_zero_terms(pair):
    # (a + b)(a - b): the cross terms cancel, and zeros must be dropped
    a, b = pair
    assert_same((a + b) * (a - b), ref.mul(a + b, a - b))
    assert_same(a * (b - b), ref.mul(a, b - b))


@given(SPACES.flatmap(lambda s: polys(*s, max_terms=3, max_base_exp=3)),
       st.integers(0, 6))
def test_power_matches_oracle(a, e):
    assert_same(a ** e, ref.power(a, e))


@given(SPACES.flatmap(lambda s: polys(*s)), COEFF)
def test_scalar_product_matches_oracle(a, c):
    assert_same(a * c, ref.mul(a, c))
    assert_same(a * 0, ref.mul(a, 0))


@given(substitutions())
def test_substitute_matches_oracle(case):
    (poly,), fiber, base, space = case
    assert_same(poly.substitute(fiber, base, space=space),
                ref.substitute(poly, fiber, base, space=space))


@given(substitutions(batch=3))
def test_substitute_many_shares_one_cache(case):
    polys_, fiber, base, space = case
    got = substitute_many(polys_, fiber, base, space)
    want = ref.substitute_many(polys_, fiber, base, space)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)
    for p, g in zip(polys_, got):
        assert_same(p.substitute(fiber, base, space=space), g)


@given(st.data())
def test_substitution_cancelling_to_zero(data):
    # q(x1) - q(x2) vanishes once x1 and x2 receive the same value
    m, k = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 4))
    q = data.draw(polys(m, 1, k, max_terms=4, max_base_exp=4))
    diff = q.embed(m, 2, 0, 0) - q.embed(m, 2, 0, 1)
    v = data.draw(polys(m, 2, k, max_terms=3, max_base_exp=2))
    fiber = [None] * m
    got = diff.substitute(fiber, [v, v], space=(m, 2, k))
    assert_same(got, ref.substitute(diff, fiber, [v, v], space=(m, 2, k)))
    assert got.is_zero()


@pytest.mark.parametrize("space", [(0, 0, 0), (2, 1, 0), (1, 2, 3)])
def test_zero_operands(space):
    zero = FiberGradedPoly.zero(*space)
    one = FiberGradedPoly.constant(*space, 1)
    assert_same(zero * one, ref.mul(zero, one))
    assert_same(zero ** 0, ref.power(zero, 0))
    assert_same(zero ** 3, ref.power(zero, 3))
    values = [None] * space[1]
    assert_same(zero.substitute([None] * space[0], values, space=space),
                ref.substitute(zero, [None] * space[0], values, space=space))
    assert substitute_many([], [None] * space[0], values, space) == []


def test_large_exponent_of_a_base_value():
    # powers are built one step at a time; a deep power must not recurse
    x = FiberGradedPoly.base_var(1, 1, 2, 0)
    p = FiberGradedPoly.monomial(1, 1, 2, F(2, 3), (1,), (1024,))
    v = x.scale(F(-1, 2)) + FiberGradedPoly.fiber_var(1, 1, 2, 0)
    assert_same(p.substitute([None], [v], space=(1, 1, 2)),
                ref.substitute(p, [None], [v], space=(1, 1, 2)))


# -- the batch cache of slot products ---------------------------------------------


@st.composite
def shared_monomial_batches(draw):
    """A batch of three polynomials drawn from one pool of monomials.  The
    monomials of the pool differ only in their positive exponents in the
    same two or three substituted slots, whose values are nonzero; the other
    slots are substituted or left ``None`` at random.  The first polynomial
    holds the whole pool."""
    m, n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    tk = draw(st.integers(2, 4))
    slots = [(0, i) for i in range(m)] + [(1, j) for j in range(n)]
    support = draw(st.lists(st.sampled_from(slots), min_size=2, max_size=3, unique=True))

    def value(block, index):
        if (block, index) not in support and draw(st.booleans()):
            return None
        v = polys(m, n, tk, min_fiber_deg=1 - block, max_terms=3, max_base_exp=2)
        return draw(v.filter(lambda p: not p.is_zero()))

    fiber = [value(0, i) for i in range(m)]
    base = [value(1, j) for j in range(n)]
    rest = {slot: draw(st.integers(0, 2)) for slot in slots if slot not in support}
    pool = set()
    for _ in range(draw(st.integers(2, 5))):
        exps = {slot: draw(st.integers(1, 3)) for slot in support} | rest
        pe = tuple(exps[(0, i)] for i in range(m))
        if sum(pe) <= k:
            pool.add((pe, tuple(exps[(1, j)] for j in range(n))))
    pool = sorted(pool)
    batch = [FiberGradedPoly(m, n, k, [(key, draw(COEFF)) for key in pool
                                       if not b or draw(st.booleans())]) for b in range(3)]
    return batch, fiber, base, (m, n, tk)


@given(shared_monomial_batches())
def test_substitute_many_with_shared_products_matches_oracle(case):
    batch, fiber, base, space = case
    want = ref.substitute_many(batch, fiber, base, space)
    for got, w in zip(substitute_many(batch, fiber, base, space), want):
        assert_same(got, w)


def test_products_of_slot_powers_match_oracle():
    # (3, 2, K=4) -> (3, 2, K=3): p1 and x2 keep their target variables, p2,
    # p3 and x1 receive values over different denominators
    space = (3, 2, 3)

    def poly(terms):
        return FiberGradedPoly(3, 2, 4, terms)

    p1, p2, p3 = (FiberGradedPoly.fiber_var(*space, i) for i in range(3))
    x1, x2 = (FiberGradedPoly.base_var(*space, j) for j in range(2))
    v2 = p2.scale(F(1, 3)) + (p1 * x2).scale(F(-2, 7))
    v3 = p3 + (p1 * p2).scale(F(5, 11))
    u1 = x1.scale(F(-1, 2)) + p1.scale(F(1, 9)) + FiberGradedPoly.constant(*space, F(3, 4))
    fiber, base = [None, v2, v3], [u1, None]
    batch = [
        # two and three substituted slots, shared across the batch
        poly({((0, 1, 0), (1, 0)): F(2, 5), ((0, 1, 1), (2, 1)): F(-7, 3),
              ((1, 1, 0), (1, 1)): 1}),
        poly({((0, 1, 0), (1, 0)): F(1, 6), ((0, 1, 1), (2, 1)): F(7, 3),
              ((0, 2, 1), (3, 0)): F(1, 2**40)}),
        # identity parts that reach the order: only fiber degree 0 of the
        # slot product survives, none when a fiber slot is in it, and none
        # past the order
        poly({((3, 0, 0), (1, 0)): F(5, 7), ((3, 0, 0), (2, 1)): F(-1, 4),
              ((3, 1, 0), (1, 0)): 3, ((3, 0, 1), (2, 0)): F(1, 8),
              ((4, 0, 0), (1, 0)): 1, ((3, 0, 0), (0, 0)): 1, ((2, 1, 0), (1, 0)): 3}),
        # a large exponent in a two-slot product
        poly({((0, 1, 0), (100, 0)): F(2, 3), ((0, 0, 1), (99, 1)): -1}),
    ]
    got = substitute_many(batch, fiber, base, space)
    want = ref.substitute_many(batch, fiber, base, space)
    for g, w in zip(got, want):
        assert_same(g, w)
    # x2 -> u1 as well: p2 x1^2 x2 - p2 x1 x2^2 cancels through two products
    cancel = poly({((0, 1, 0), (2, 1)): 1, ((0, 1, 0), (1, 2)): -1,
                   ((0, 1, 1), (1, 1)): F(1, 3)}) - poly({((0, 1, 1), (1, 1)): F(1, 3)})
    zero = substitute_many([cancel, cancel.scale(3)], fiber, [u1, u1], space)
    assert all(z.is_zero() and z.space() == space for z in zero)
    # the batch caches the slot product of every term in two or more
    # substituted slots (the term p1^4 x1 is cut before any product) ...
    cache = {}
    values = (fiber, base)
    for p in batch:
        p._substitute_cached(fiber, base, space, cache)
    # the cache is keyed by the source key of the substituted fields; read
    # each key as its (block, index, e) slots
    exponents = batch[0].codec.exponents
    products = {tuple((0, i, e) if i < 3 else (1, i - 3, e)
                      for i, e in enumerate(exponents(key)) if e): cache[key]
                for key in cache if key is not None}
    assert {((0, 1, 1), (1, 0, 1)), ((0, 2, 1), (1, 0, 2)),
            ((0, 1, 1), (0, 2, 1), (1, 0, 2)), ((0, 1, 2), (0, 2, 1), (1, 0, 3)),
            ((0, 1, 1), (1, 0, 100)), ((0, 2, 1), (1, 0, 99))} <= products.keys()
    # ... and every cached product, the prefixes and one-slot powers built on
    # the way included, is the truncated product of its slot powers
    # (the frozen powers v^e are built as v^(e-1) * v, one product each)
    powers = {}

    def power(block, index, e):
        if (block, index, e) not in powers:
            v = values[block][index]
            powers[block, index, e] = v if e == 1 else ref.mul(power(block, index, e - 1), v)
        return powers[block, index, e]

    for key in filter(None, products):
        den, rows = products[key]
        want = FiberGradedPoly.constant(*space, 1)
        for slot in key:
            want = ref.mul(want, power(*slot))
        assert rows == sorted(rows)
        assert_same(FiberGradedPoly._reduced(*space, den, dict(rows)), want)


@st.composite
def residual_pairs(draw):
    """``(new, old)`` of one space: unrelated, equal, or ``old`` plus a
    correction that may cancel terms of ``old`` or add new ones."""
    m, n, k = draw(SPACES)
    old = draw(polys(m, n, k))
    kind = draw(st.sampled_from(["unrelated", "equal", "corrected"]))
    if kind == "unrelated":
        return draw(polys(m, n, k)), old
    if kind == "equal":
        # equal terms, built apart, so no coefficient object is shared
        return FiberGradedPoly(m, n, k, {key: F(c.numerator, c.denominator)
                                         for key, c in old.terms.items()}), old
    part = draw(st.lists(st.sampled_from(sorted(old.terms, key=repr)), unique=True)) \
        if old.terms else []
    cancel = FiberGradedPoly(m, n, k, {key: -old.terms[key] for key in part})
    return old + cancel + draw(polys(m, n, k, max_terms=2)), old


@given(residual_pairs())
def test_lowest_change_matches_the_difference(pair):
    new, old = pair
    assert _lowest_change(new, old) == ref.lowest_change(new, old)
    assert _lowest_change(old, new) == ref.lowest_change(old, new)


@pytest.mark.parametrize("a, b", [((1, 1, 2), (1, 1, 3)), ((1, 1, 2), (2, 1, 2)),
                                  ((0, 2, 1), (0, 1, 1))])
def test_lowest_change_across_spaces_is_the_same_shape_error(a, b):
    new, old = FiberGradedPoly.zero(*a), FiberGradedPoly.constant(*b, 1)
    with pytest.raises(ShapeError) as want:
        ref.lowest_change(new, old)
    with pytest.raises(ShapeError) as got:
        _lowest_change(new, old)
    assert str(got.value) == str(want.value)


def _rand_poly(rng, m, n, k, min_fiber_deg=0):
    terms = {}
    for _ in range(rng.randint(0, 3) if min_fiber_deg <= k else 0):
        pe = [0] * m
        for _ in range(rng.randint(min_fiber_deg, k)):
            pe[rng.randrange(m)] += 1
        xe = tuple(rng.randint(0, 2) for _ in range(n))
        terms[tuple(pe), xe] = F(rng.randint(-5, 5), rng.randint(1, 5))
    return FiberGradedPoly(m, n, k, terms)


def _contracting_solve(rng, r, m, n, k):
    """A seed and the update z_i = c_i + p z_j + t z_a z_b over r components.
    Each update fixes one more fiber degree: p raises it, and t is free of
    fiber degree 0 unless neither c nor the seed has a term there, when no
    candidate has one either."""
    low = rng.randint(0, 1)
    cs = [_rand_poly(rng, m, n, k, min_fiber_deg=low) for _ in range(r)]
    seed = [_rand_poly(rng, m, n, k, min_fiber_deg=low) for _ in range(r)]
    ps = [FiberGradedPoly.fiber_var(m, n, k, rng.randrange(m)) if k
          else FiberGradedPoly.zero(m, n, k) for _ in range(r)]
    ts = [_rand_poly(rng, m, n, k, min_fiber_deg=1 - low) for _ in range(r)]
    picks = [(rng.randrange(r), rng.randrange(r), rng.randrange(r)) for _ in range(r)]

    def update(z):
        return [c + p * z[j] + t * z[a] * z[b]
                for c, p, t, (j, a, b) in zip(cs, ps, ts, picks)]
    return seed, update


def test_fixed_point_matches_the_frozen_solve_with_one_update_fewer_at_k():
    # the frozen solve runs until an update changes nothing; the library stops
    # one update earlier exactly when the last productive change was at K
    stopped = 0
    for case in range(120):
        rng = random.Random(case)
        r, m, n, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 1), case % 7
        seed, update = _contracting_solve(rng, r, m, n, k)
        ref_calls, lib_calls = [], []

        def recorded(calls):
            def step(z):
                calls.append((tuple(z), tuple(update(z))))
                return calls[-1][1]
            return step
        want = ref.solve_triangular_fixed_point(seed, recorded(ref_calls))
        got = solve_triangular_fixed_point(seed, recorded(lib_calls))
        for g, w in zip(got, want, strict=True):
            assert_same(g, w)
        changes = [min((d for d in map(ref.lowest_change, new, old) if d is not None),
                       default=None) for old, new in ref_calls]
        assert changes[-1] is None and None not in changes[:-1]
        at_k = len(changes) > 1 and changes[-2] == k
        stopped += at_k
        assert len(lib_calls) == len(ref_calls) - at_k
        assert lib_calls == ref_calls[:len(lib_calls)]
    assert 0 < stopped < 120


@given(operand_pairs(), COEFF)
def test_linear_operations_match_oracle(pair, c):
    a, b = pair
    assert_same(a + b, ref.add(a, b))
    assert_same(a - b, ref.sub(a, b))
    assert_same(-a, ref.neg(a))
    for value in (c, -c, 0, 1, -1, 3):
        assert_same(a.scale(value), ref.scale(a, value))
        assert_same(a * value, ref.scale(a, value))


@given(operand_pairs())
def test_sums_cancelling_to_zero(pair):
    a, b = pair
    # a + b - b - a passes through sums that cancel some or all terms
    partial = a + b - b
    assert_same(partial, ref.sub(ref.add(a, b), b))
    for zero in (a - a, a + (-a), partial - a, a.scale(0)):
        assert zero.is_zero() and zero.space() == a.space()
        assert (zero.den, zero.nums) == (1, {})
        assert_same(zero, ref.sub(a, a))


@given(SPACES.flatmap(lambda s: polys(*s)), st.data())
def test_partials_match_oracle(a, data):
    for i in range(a.fiber_arity):
        assert_same(a.partial_fiber(i), ref.partial_fiber(a, i))
    for j in range(a.base_arity):
        assert_same(a.partial_base(j), ref.partial_base(a, j))
    for index in (-1, max(a.fiber_arity, a.base_arity)):
        for name in ("partial_fiber", "partial_base"):
            with pytest.raises(ShapeError) as want:
                getattr(ref, name)(a, index)
            with pytest.raises(ShapeError) as got:
                getattr(a, name)(index)
            assert str(got.value) == str(want.value)


@given(SPACES.flatmap(lambda s: polys(*s)), st.data())
def test_reshaping_matches_oracle(a, data):
    for k in range(a.order + 3):
        down_up = a.at_order(k).at_order(a.order)
        assert_same(down_up, ref.at_order(ref.at_order(a, k), a.order))
        assert_same(a.at_order(k), ref.at_order(a, k))
    assert_same(a.core_part(), ref.core_part(a))
    m = a.fiber_arity + data.draw(st.integers(0, 2))
    n = a.base_arity + data.draw(st.integers(0, 2))
    fo = data.draw(st.integers(0, m - a.fiber_arity))
    bo = data.draw(st.integers(0, n - a.base_arity))
    assert_same(a.embed(m, n, fo, bo), ref.embed(a, m, n, fo, bo))
    for args in ((m, n, -1, 0), (a.fiber_arity - 1, n) if a.fiber_arity else (m, n, 0, -1),
                 (m, n, m + 1, 0), (m, n, 0, n + 1)):
        with pytest.raises(ShapeError) as want:
            ref.embed(a, *args)
        with pytest.raises(ShapeError) as got:
            a.embed(*args)
        assert str(got.value) == str(want.value)


def _outcome(build, *args):
    # the polynomial built, or the type and message of what was raised
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_built_in_forms_match_the_constructor_and_its_errors():
    for m in range(-1, 4):
        for n in range(-1, 4):
            for k in range(-1, 4):
                cases = [(FiberGradedPoly.zero, ref.zero, (m, n, k))]
                cases += [(FiberGradedPoly.constant, ref.constant, (m, n, k, value))
                          for value in (0, 1, F(-3, 4), 2**70, 0.5, "1")]
                cases += [(getattr(FiberGradedPoly, name), getattr(ref, name), (m, n, k, index))
                          for name in ("fiber_var", "base_var") for index in range(-1, 5)]
                for build, want, args in cases:
                    got, expected = _outcome(build, *args), _outcome(want, *args)
                    if isinstance(expected, FiberGradedPoly):
                        assert_same(got, expected)
                    else:
                        assert got == expected, (build.__name__, args)
