import random
from fractions import Fraction as F

import pytest

from microsympl.errors import ParseError, ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import MicroObject, Micromorphism, extract_germ
from microsympl.sampling import rand_micromorphism, rng_for
from microsympl.textio import (format_germ, format_matrix, format_morphism,
                               parse_core_map, parse_matrix, parse_morphism,
                               parse_polynomial, parse_vector)


# -- polynomial grammar ----------------------------------------------------------


def test_parse_simple_polynomial():
    p = parse_polynomial("p1*x1 + 1/2*p1^2*x1", 1, 1, 3)
    assert p == FiberGradedPoly(1, 1, 3, {((1,), (1,)): F(1), ((2,), (1,)): F(1, 2)})


def test_parse_signs_and_constants():
    p = parse_polynomial("-2*x1 + x1^2 - 3/4", 0, 1, 0)
    assert p == FiberGradedPoly(
        0, 1, 0, {((), (1,)): F(-2), ((), (2,)): F(1), ((), (0,)): F(-3, 4)})


def test_parse_zero():
    assert parse_polynomial("0", 2, 1, 2).is_zero()


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_polynomial("p1 + * x1", 1, 1, 2)
    assert err.value.line == 1 and err.value.column == 6


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("p2*x1", 1, 1, 2)
    assert "outside arity" in str(err.value)


def test_parse_rejects_fiber_degree_above_order():
    with pytest.raises(ShapeError):
        parse_polynomial("p1^3", 1, 0, 2)


@pytest.mark.parametrize("text, arities, message", [
    ("p1", (1, -1, 2), "arities must be non-negative"),
    ("#", (1, -1, 2), "arities must be non-negative"),
    ("p1", (-1, 1, 2), "arities must be non-negative"),
    ("p1", (1, 1, -1), "truncation order must be non-negative"),
])
def test_parse_checks_the_space_before_the_text(text, arities, message):
    # the constructor's error, before any variable name or term is read
    with pytest.raises(ShapeError) as err:
        parse_polynomial(text, *arities)
    assert type(err.value) is ShapeError and str(err.value) == message


def test_polynomial_text_roundtrip_random():
    rng = rng_for(20, "roundtrip")
    for _ in range(100):
        f = rand_micromorphism(rng, rng.randint(1, 3), rng.randint(1, 3),
                               rng.randint(1, 4))
        text = f.gen.to_text()
        again = parse_polynomial(text, f.gen.fiber_arity, f.gen.base_arity, f.order)
        assert again == f.gen


# -- morphism records -------------------------------------------------------------


IDENTITY_TEXT = """\
source=1 target=1 order=2
S = p1*x1
"""


def test_parse_identity_record():
    f = parse_morphism(IDENTITY_TEXT)
    assert f.source == MicroObject(1) and f.order == 2
    assert f.gen == FiberGradedPoly(1, 1, 2, {((1,), (1,)): F(1)})


def test_parse_rejects_normal_form_violation_with_monomial():
    from microsympl.errors import NormalFormError
    with pytest.raises(NormalFormError) as err:
        parse_morphism("source=1 target=1 order=2\nS = p1*x1 + x1^2\n")
    assert "x1^2" in str(err.value)


def test_parse_checks_declared_core_lines():
    good = "source=1 target=1 order=2\ncore f1 = x1^2\nS = p1*x1^2\n"
    assert parse_morphism(good).core.components[0].to_text() == "x1^2"
    with pytest.raises(ParseError) as err:
        parse_morphism("source=1 target=1 order=2\ncore f1 = x1\nS = p1*x1^2\n")
    assert "disagrees" in str(err.value)


def test_parse_header_validation():
    with pytest.raises(ParseError):
        parse_morphism("source=1 target=1\nS = p1*x1\n")
    with pytest.raises(ParseError):
        parse_morphism("source=1 target=1 order=0\nS = p1*x1\n")


def test_morphism_roundtrip_on_random_instances():
    rng = rng_for(21, "morph")
    for _ in range(100):
        f = rand_micromorphism(rng, rng.randint(1, 3), rng.randint(1, 3),
                               rng.randint(1, 4))
        assert parse_morphism(format_morphism(f)) == f


def test_serialization_is_stable():
    f = rand_micromorphism(rng_for(22, "stable"), 2, 2, 3)
    assert format_morphism(f) == format_morphism(parse_morphism(format_morphism(f)))


def test_comments_and_blank_lines_ignored():
    text = "# a fixture\nsource=1 target=1 order=2\n\nS = p1*x1  # identity\n"
    assert parse_morphism(text).gen.to_text() == "p1*x1"


# -- core maps and germs ------------------------------------------------------------


def test_core_map_roundtrip():
    text = "domain=1 codomain=2\nf1 = x1\nf2 = -1/3 + x1^2\n"
    phi = parse_core_map(text)
    assert phi.domain_dim == 1
    assert [comp.to_text() for comp in phi.components] == ["x1", "-1/3 + x1^2"]
    assert parse_core_map("domain=1 codomain=2\nf2 = x1^2 - 1/3\nf1 = x1\n") == phi
    with pytest.raises(ParseError):
        parse_core_map("domain=1 codomain=2\nf1 = x1\n")


def test_germ_rendering():
    f = Micromorphism(MicroObject(1), MicroObject(1),
                      FiberGradedPoly(1, 1, 2, {((1,), (1,)): F(1),
                                                ((2,), (0,)): F(1, 2)}))
    text = format_germ(extract_germ(f))
    assert text == "germ dim=1 order=2\nX1 = -p1 + x1\nP1 = p1\n"


# -- matrices ------------------------------------------------------------------------


def test_matrix_roundtrip():
    rows = parse_matrix("1,1/2;-3,0")
    assert rows == ((F(1), F(1, 2)), (F(-3), F(0)))
    assert format_matrix(rows) == "1,1/2;-3,0"


def test_vector_parse():
    assert parse_vector("2/3,-1") == (F(2, 3), F(-1))


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ShapeError):
        parse_matrix("1,2;3")


def test_matrix_rejects_bad_entry():
    with pytest.raises(ParseError):
        parse_matrix("1,a;3,4")
