"""The compiled-scanner parser against the frozen per-character parser.

``parse_polynomial`` must agree with ``tests/reference_textio.py`` exactly:
on well-formed text the same arities, order and term map; on malformed text
the same exception type, message, line and column.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference_textio as ref
from microsympl import textio
from microsympl.errors import ParseError, ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.textio import parse_polynomial

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 9))
HUGE = st.builds(F, st.integers(-2**90, 2**90), st.integers(1, 2**90))
SPACES = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4))


def outcome(parse, text, m, n, k, first_line=1):
    """The parsed space and terms, or the exception's type, text, line and column."""
    try:
        p = parse(text, m, n, k, first_line)
    except (ParseError, ShapeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    for c in p.terms.values():
        assert type(c) is F and c != 0
    return p.space(), p.terms


def assert_agrees(text, m, n, k, first_line=1):
    got = outcome(parse_polynomial, text, m, n, k, first_line)
    assert got == outcome(ref.parse_polynomial, text, m, n, k, first_line)
    return got


@st.composite
def polys(draw):
    m, n, k = draw(SPACES)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        pe = [0] * m
        for _ in range(draw(st.integers(0, k)) if m else 0):
            pe[draw(st.integers(0, m - 1))] += 1
        xe = [draw(st.integers(0, 4)) for _ in range(n)]
        terms.append(((tuple(pe), tuple(xe)), draw(st.one_of(SMALL, HUGE))))
    return FiberGradedPoly(m, n, k, terms)


@given(polys())
def test_formatted_polynomials_parse_back_exactly(poly):
    text = poly.to_text()
    got = assert_agrees(text, *poly.space())
    assert got == (poly.space(), poly.terms)


@st.composite
def factor_texts(draw, m, n):
    """One factor: a variable or a literal, with an optional ``/b`` and ``^e``."""
    choices = ["lit"] + ["p"] * bool(m) + ["x"] * bool(n)
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        text = str(draw(st.one_of(st.integers(0, 12), st.integers(0, 2**90))))
        if draw(st.booleans()):
            text += "/" + str(draw(st.one_of(st.integers(1, 12), st.integers(1, 2**90))))
    else:
        text = f"{kind}{draw(st.integers(1, m if kind == 'p' else n))}"
    if draw(st.booleans()):
        text += f"^{draw(st.integers(0, 4))}"
    return text


@st.composite
def sums_with_repeats(draw):
    """Sums whose terms repeat monomials, often with opposite signs."""
    m, n, k = draw(SPACES)
    distinct = draw(st.lists(st.lists(factor_texts(m, n), min_size=1, max_size=4),
                             min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    text = draw(st.sampled_from(["", "-", "+", "--", "- + "]))
    for i, factors in enumerate(picks):
        if i:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        text += draw(st.sampled_from(["*", " * "])).join(factors)
    return text, m, n, k


@given(sums_with_repeats())
def test_sums_with_repeated_monomials_and_powered_fractions(case):
    assert_agrees(*case)


GRAMMAR = list("px0123456789+-*^/ \t")
# characters the grammar does not know, line breaks that str.splitlines()
# honours, Unicode decimal digits that int() reads (Arabic-Indic three) and
# digits that it does not (superscript two, circled one)
ODD = ["\n", "\r", "\x0b", "\u2028", "\xa0", "\u2003", "y", "P", ".", "(", "\xbd",
       "\u0663", "\xb2", "\u2460"]


@settings(max_examples=400)
@given(st.text(st.sampled_from(GRAMMAR + ODD), max_size=24), SPACES,
       st.integers(1, 40))
def test_malformed_text_raises_the_same_error(text, space, first_line):
    assert_agrees(text, *space, first_line)


@pytest.mark.parametrize("text", [
    "", "   ", "\n\n", "0", "00", "-0", "p1 + * x1", "p1 +", "2/", "2/x1", "2/0",
    "0/0^0", "p1^", "p1^x1", "p", "x", "p0", "p01", "x1 p1", "x1 2", "p1 ++ x1",
    "p1 + -x1", "--p1", "3^1025", "p1^1024", "2^1024/3^1024*p1", "p\xb2",
    "x1\xb2", "\xb23", "p\u0663", "\u0663/\u0662*p1", "p1\xa0*\u2003x1", "p1\u2028+x1",
    "p1*x1 # note", "p1\n+ x1\n*", "p1\r\n\r\n+ x9", "1/2*p1 - 1/2*p1 + p1 - p1",
    "p1^3", "0*p1^3", "p1^3 - p1^3",
    "1" * 5000, "p1 + 1/" + "7" * 5000, "x" + "1" * 5000, "p1^" + "2" * 5000,
])
def test_edge_cases_match_the_reference(text):
    for space in [(1, 1, 2), (0, 1, 0), (2, 0, 1)]:
        for first_line in (1, 7):
            assert_agrees(text, *space, first_line)


def test_the_digit_class_is_str_isdigit():
    # the scanner's int and var groups read exactly the characters that the
    # reference tokenizer's isdigit() loop reads
    import re
    everything = "".join(map(chr, range(0x110000)))
    assert re.findall(f"[{textio._DIGIT}]", everything) == \
        [c for c in everything if c.isdigit()]
    assert textio.MAX_EXPONENT == ref.MAX_EXPONENT
