"""The packed monomial keys of ``jetalg.KeyCodec`` and the exponent limit.

Packing must be exact up to ``MAX_KEY_EXPONENT`` in every field, products and
substitutions near the limit must agree with the frozen oracle
``tests/reference_jetalg.py``, and any result with an exponent past the limit
must raise ShapeError naming the limit, never store a wrong key.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_jetalg as ref
from microsympl.errors import ShapeError
from microsympl.jetalg import MAX_KEY_EXPONENT, FiberGradedPoly, key_codec, substitute_many
from test_jetalg_oracle import assert_same

LIMIT_MESSAGE = f"exceeds the limit of {MAX_KEY_EXPONENT}"
HALF = (MAX_KEY_EXPONENT + 1) // 2
EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, MAX_KEY_EXPONENT),
                     st.integers(MAX_KEY_EXPONENT - 3, MAX_KEY_EXPONENT))


@st.composite
def exponent_vectors(draw):
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return (m, n, tuple(draw(st.lists(EXPONENT, min_size=m, max_size=m))),
            tuple(draw(st.lists(EXPONENT, min_size=n, max_size=n))))


@given(exponent_vectors(), exponent_vectors())
def test_pack_then_unpack_is_the_identity(a, b):
    m, n, pe, xe = a
    codec = key_codec(m, n)
    key = codec.pack(pe, xe)
    assert codec.unpack(key) == (pe, xe)
    assert key >> codec.degree_shift == sum(pe)
    assert not key & codec.guard
    # a key of fiber degree 0 is the same int in the pure base space
    if not any(pe):
        assert key_codec(0, n).unpack(key) == ((), xe)
    # keys order by fiber degree first
    pe2, xe2 = b[2][:m] + (0,) * (m - len(b[2][:m])), b[3][:n] + (0,) * (n - len(b[3][:n]))
    other = codec.pack(pe2, xe2)
    if sum(pe) < sum(pe2):
        assert key < other
    # the sum of two keys is the key of the product while no field passes the limit
    total = tuple(map(sum, zip(pe + xe, pe2 + xe2)))
    if max(total, default=0) <= MAX_KEY_EXPONENT:
        assert key + other == codec.pack(total[:m], total[m:])
        assert not (key + other) & codec.guard
    else:
        assert (key + other) & codec.guard


def test_pack_rejects_an_exponent_past_the_limit():
    with pytest.raises(ShapeError, match=LIMIT_MESSAGE):
        key_codec(1, 2).pack((0,), (1, MAX_KEY_EXPONENT + 1))


def _near_limit(m, n, k, base, offsets):
    # one term per (fiber exponents, base offsets, coefficient), with the
    # offsets added to ``base``
    return FiberGradedPoly(m, n, k, {(pe, tuple(base + e for e in xe)): c
                                     for pe, xe, c in offsets})


@pytest.mark.parametrize("m, n, k", [(0, 1, 0), (1, 1, 2), (2, 2, 3), (1, 3, 1)])
def test_products_near_the_limit_match_oracle(m, n, k):
    p1 = tuple(int(i == 0) for i in range(m)) if k else (0,) * m
    offsets = [(p1, (0,) * n, F(3, 2)), ((0,) * m, tuple(j % 2 for j in range(n)), F(-5, 7)),
               ((0,) * m, (1,) * n, F(1, 3))]
    a = _near_limit(m, n, k, HALF - 2, offsets)
    b = _near_limit(m, n, k, HALF - 3, offsets)
    c = _near_limit(m, n, k, HALF, [((0,) * m, (0,) * n, F(1))])
    for x, y in ((a, b), (b, a), (a, a), (a, c), (b, c)):
        assert_same(x * y, ref.mul(x, y))
    assert_same(a ** 2, ref.power(a, 2))
    # x^(HALF - 1) * x^HALF lands exactly on the limit
    assert max(max(xe) for _, xe in (a * c).terms) == MAX_KEY_EXPONENT


@pytest.mark.parametrize("m, n, k", [(1, 1, 2), (2, 2, 3), (1, 2, 2)])
def test_substitutions_near_the_limit_match_oracle(m, n, k):
    # each base value carries its own variable to about 2^30, so a term of
    # base degree at most 3 lands below MAX_KEY_EXPONENT
    big = 1 << 30
    polys = [FiberGradedPoly(m, n, k, {
        (tuple(int(i == j) for j in range(m)), tuple((j + s) % 3 for j in range(n))): F(s + 1, 3)
        for i in range(m) for s in range(3)}),
        FiberGradedPoly(m, n, k, {((0,) * m, (3,) * n): F(-2), ((0,) * m, (0,) * n): F(1, 5)})]
    base = [FiberGradedPoly(m, n, k, {
        ((0,) * m, tuple(big + s if i == j else s % 2 for i in range(n))): F(1, s + 1)
        for s in range(3)}) for j in range(n)]
    one = FiberGradedPoly.constant(m, n, k, 1)
    fiber = [FiberGradedPoly.fiber_var(m, n, k, i) * (one + base[0]) for i in range(m)]
    for fiber_values in (fiber, [None] * m):
        got = substitute_many(polys, fiber_values, base, (m, n, k))
        assert max(max(xe) for p in got for _, xe in p.terms) > 3 * big
        for p, q in zip(got, polys):
            assert_same(p, ref.substitute(q, fiber_values, base, space=(m, n, k)))


def test_crossing_the_limit_raises_shape_error():
    message = f"exponent {MAX_KEY_EXPONENT + 1} exceeds the limit of {MAX_KEY_EXPONENT}"
    x = FiberGradedPoly.monomial(1, 1, 2, 1, (0,), (HALF,))
    px = FiberGradedPoly.monomial(1, 1, 2, 1, (1,), (HALF,))
    square = FiberGradedPoly.monomial(1, 1, 2, 1, (0,), (2,))
    # x1^HALF * x2, with x2 -> x1^HALF: the identity monomial passes the limit
    mixed = FiberGradedPoly.monomial(1, 2, 2, 1, (0,), (HALF, 1))
    x_in_2 = x.embed(1, 2)
    for route in (lambda: x * x, lambda: x ** 2, lambda: px * x,
                  lambda: square.substitute([None], [x], space=(1, 1, 2)),
                  lambda: substitute_many([square], [px], [x], (1, 1, 2)),
                  lambda: mixed.substitute([None], [None, x_in_2], space=(1, 2, 2)),
                  lambda: FiberGradedPoly(0, 1, 0, {((), (MAX_KEY_EXPONENT + 1,)): 1}),
                  lambda: x ** (MAX_KEY_EXPONENT + 1)):
        with pytest.raises(ShapeError) as err:
            route()
        assert str(err.value) == message
    # one below on the other side is accepted
    assert (x * x.partial_base(0)).terms == {((0,), (MAX_KEY_EXPONENT,)): F(HALF)}


def test_fiber_truncation_applies_before_the_exponent_limit():
    # a product past the order is dropped before its base exponent is checked
    px = FiberGradedPoly.monomial(1, 1, 1, 1, (1,), (HALF,))
    assert (px * px).is_zero()
