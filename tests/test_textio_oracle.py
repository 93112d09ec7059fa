"""The term scanner and its token fallback against the frozen reference.

``parse_polynomial`` and ``parse_morphism`` must agree with
``tests/reference_textio.py`` exactly: on well-formed text the same arities,
order and term map (for records, the same morphism and core); on malformed
text the same exception type, message, line and column.
"""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_textio as ref
from microsympl import textio
from microsympl.errors import NormalFormError, ParseError, ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.sampling import rand_micromorphism, rng_for
from microsympl.textio import format_morphism, parse_morphism, parse_polynomial

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
# digits that are not decimal (superscript two, circled one)
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
    # at the term scanner's boundary: leading zeros, a Unicode digit, a trailing
    # '*', an exponent past the limit and a literal past the digit limit, each
    # in the shape that to_text writes
    "x1^01", "0007/0003*p1", "p\u0663*x1", "1/2*p1*x1*", "p1^1025",
    "7" * 4301 + "*p1",
])
def test_edge_cases_match_the_reference(text):
    for space in [(1, 1, 2), (0, 1, 0), (2, 0, 1)]:
        for first_line in (1, 7):
            assert_agrees(text, *space, first_line)


def test_the_digit_class_is_str_isdecimal():
    # the scanner's int and var groups read exactly the characters that the
    # reference tokenizer's isdecimal() loop reads
    everything = "".join(map(chr, range(0x110000)))
    ints = [m.group() for m in textio._SCANNER.finditer(everything) if m.lastgroup == "int"]
    assert "".join(ints) == "".join(c for c in everything if c.isdecimal())
    assert ints[0] == "0123456789"
    for c in "\xb2\u2460\u0663":
        kinds = [m.lastgroup for m in textio._SCANNER.finditer(f"p{c}")]
        assert kinds == (["var"] if c.isdecimal() else ["var", "bad"])
    assert textio.MAX_EXPONENT == ref.MAX_EXPONENT


# -- morphism records -------------------------------------------------------------


def record_outcome(parse, text):
    """The parsed morphism and its core, or the exception's type, text, line and column."""
    try:
        f = parse(text)
    except (ParseError, ShapeError, NormalFormError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return f, f.core


def _shuffled_factors(draw, term):
    # the '*'-joined factors of one term in a drawn order; a lone sign stays in front
    sign, body = ("-", term[1:]) if term.startswith("-") else ("", term)
    return sign + "*".join(draw(st.permutations(body.split("*"))))


def _respaced(draw, poly):
    """``poly`` (text of to_text) with spaces, separators and factor orders redrawn."""
    parts = re.split(r" ([+-]) ", poly)
    out = _shuffled_factors(draw, parts[0]) if draw(st.booleans()) else parts[0]
    for sign, term in zip(parts[1::2], parts[2::2]):
        space = draw(st.sampled_from(["", " ", "  "]))
        if draw(st.booleans()):
            term = _shuffled_factors(draw, term)
        out += f"{space}{sign}{space}{term}"
    if draw(st.booleans()):
        out = out.replace("*", draw(st.sampled_from([" * ", "* ", " *"])))
    return out


MUTATIONS = [None, "missing =", "bad core name", "disagreeing core", "duplicate S",
             "core outside f1..fm"]


@st.composite
def records(draw):
    """format_morphism text of a random micromorphism, redrawn and perhaps broken."""
    m, n, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    f = rand_micromorphism(rng_for(draw(st.integers(0, 10**6)), "records"), m, n, k)
    header, *cores, s_line = format_morphism(f).splitlines()
    polys = [line.partition(" = ")[2] for line in cores]
    heads = [line.partition(" = ")[0] for line in cores]
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(cores))))
        polys, heads = [polys[i] for i in order], [heads[i] for i in order]
    lines = [header] + [f"{h} = {_respaced(draw, p)}" for h, p in zip(heads, polys)]
    lines.append("S = " + _respaced(draw, s_line.partition(" = ")[2]))
    mutation = draw(st.sampled_from(MUTATIONS))
    i = draw(st.integers(1, len(lines) - 1))
    if mutation == "missing =":
        lines[i] = lines[i].replace("=", " ", 1)
    elif mutation == "bad core name" and cores:
        lines[i] = lines[i].replace("f", draw(st.sampled_from(["g", "fx", "f 1", "f-"])), 1)
    elif mutation == "disagreeing core" and cores:
        lines[i] += " + x1" if n else " + 1"
    elif mutation == "duplicate S":
        lines.append(lines[-1])
    elif mutation == "core outside f1..fm":
        lines.insert(i, f"core f{draw(st.sampled_from([0, m + 1]))} = 0")
    for j in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(j, draw(st.sampled_from(["", "   ", "# a comment"])))
    if draw(st.booleans()):
        lines = [line + "  # note" for line in lines]
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(records())
def test_records_match_the_reference(text):
    assert record_outcome(parse_morphism, text) == record_outcome(ref.parse_morphism, text)


@pytest.mark.parametrize("text", [
    # a core line that differs from dS/dp(0, x) only in its denominator, one
    # that agrees unreduced or in another factor order, one the scanner hands
    # to the tokens, and errors in each kind of line
    "source=1 target=1 order=2\ncore f1 = x1\nS = 1/2*p1*x1\n",
    "source=1 target=1 order=2\ncore f1 = 2/4*x1\nS = 1/2*p1*x1\n",
    "source=1 target=2 order=2\ncore f1 = x2*x1 - 0\nS = p1*x1*x2\n",
    "source=1 target=1 order=2\ncore f1 = --x1^1\nS = p1*x1\n",
    "source=1 target=1 order=2\ncore f1 = x1 +\nS = p1*x1\n",
    "source=1 target=1 order=2\ncore f1 = \nS = p1*x1\n",
    "source=1 target=1 order=2\nS = p1*x1 +\n",
    "source=1 target=1 order=2\nS = p1^3*x1\n",
    "source=1 target=1 order=2\nS = p1*x1 + x1\n",
])
def test_record_edge_cases_match_the_reference(text):
    assert record_outcome(parse_morphism, text) == record_outcome(ref.parse_morphism, text)


GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli.txt"


def test_canonical_records_never_take_the_token_fallback(monkeypatch):
    # the workloads read format_morphism text; it must stay in the scanner's
    # shape, so that a change to to_text cannot move them back onto the tokens
    texts = re.findall(r"^source=.*\n(?:core .*\n)*S = .*\n", GOLDEN_CLI.read_text(),
                       re.MULTILINE)
    assert len(texts) == 22
    rng = rng_for(0, "scanner shape")
    texts += [format_morphism(rand_micromorphism(
        rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4))) for _ in range(200)]

    def fallback(*args):
        raise AssertionError("token fallback used")

    monkeypatch.setattr(textio, "_tokenize", fallback)
    for text in texts:
        assert format_morphism(parse_morphism(text)) == text
