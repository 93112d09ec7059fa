"""Reference oracle: the per-character tokenizer and recursive-descent parser.

A frozen copy of ``microsympl.textio``'s ``_tokenize``, ``_PolyParser`` and
``parse_polynomial`` as they were before the compiled scanner: one ``_Token``
dataclass per token, a per-character loop, one ``Fraction`` per factor, and
duplicate monomials merged by the ``FiberGradedPoly`` constructor.  Tests
require the library to agree with these functions exactly, on well-formed
text and on the ``ParseError`` of malformed text; do not optimise this file.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction

from microsympl.errors import ParseError
from microsympl.jetalg import FiberGradedPoly

MAX_EXPONENT = 1024


@dataclass(frozen=True)
class _Token:
    kind: str  # int, var, op, end
    text: str
    line: int
    col: int


_OPS = set("+-*^/")


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=first_line):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                tokens.append(_Token("int", line[i:j], lineno, col))
                i = j
            elif ch in ("p", "x"):
                j = i + 1
                while j < len(line) and line[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ParseError(f"variable '{ch}' needs an index", lineno, col)
                tokens.append(_Token("var", line[i:j], lineno, col))
                i = j
            elif ch in _OPS:
                tokens.append(_Token("op", ch, lineno, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, col)
    last_line = first_line if not tokens else tokens[-1].line
    tokens.append(_Token("end", "", last_line, 0))
    return tokens


class _PolyParser:
    """Recursive descent over sums of signed products of rationals and powers."""

    def __init__(self, tokens: list[_Token], fiber_arity: int, base_arity: int):
        self.tokens = tokens
        self.pos = 0
        self.fiber_arity = fiber_arity
        self.base_arity = base_arity

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col or None)

    def integer(self, tok: _Token, digits: str) -> int:
        """``int(digits)``, or a ParseError past the interpreter's digit limit."""
        try:
            return int(digits)
        except ValueError:
            self.fail(f"integer of {len(digits)} digits exceeds the limit of "
                      f"{sys.get_int_max_str_digits()} digits", tok)

    def parse(self) -> list[tuple[Fraction, list[int], list[int]]]:
        terms = [self.term(self.sign_prefix())]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = Fraction(1) if tok.text == "+" else Fraction(-1)
                terms.append(self.term(sign))
            elif tok.kind == "end":
                return terms
            else:
                self.fail(f"expected '+' or '-' but found {tok.text!r}")

    def sign_prefix(self) -> Fraction:
        sign = Fraction(1)
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.take().text == "-":
                sign = -sign
        return sign

    def term(self, sign: Fraction) -> tuple[Fraction, list[int], list[int]]:
        coeff = sign
        pe = [0] * self.fiber_arity
        xe = [0] * self.base_arity
        coeff = self.factor(coeff, pe, xe)
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            coeff = self.factor(coeff, pe, xe)
        return coeff, pe, xe

    def factor(self, coeff: Fraction, pe: list[int], xe: list[int]) -> Fraction:
        tok = self.take()
        if tok.kind == "int":
            value = Fraction(self.integer(tok, tok.text))
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                den = self.take()
                if den.kind != "int":
                    self.fail("expected an integer denominator", den)
                den_value = self.integer(den, den.text)
                if den_value == 0:
                    self.fail("zero denominator", den)
                value /= den_value
            exp = self.exponent()
            return coeff * value ** exp
        if tok.kind == "var":
            block, idx = tok.text[0], self.integer(tok, tok.text[1:])
            if idx < 1:
                self.fail("variables are 1-indexed", tok)
            arity = self.fiber_arity if block == "p" else self.base_arity
            if idx > arity:
                self.fail(f"variable {tok.text} outside arity {arity}", tok)
            exp = self.exponent()
            if block == "p":
                pe[idx - 1] += exp
            else:
                xe[idx - 1] += exp
            return coeff
        self.fail(f"expected a variable or number but found {tok.text!r}", tok)

    def exponent(self) -> int:
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            tok = self.take()
            if tok.kind != "int":
                self.fail("expected an integer exponent", tok)
            value = self.integer(tok, tok.text)
            if value > MAX_EXPONENT:
                self.fail(f"exponent {value} exceeds the limit of {MAX_EXPONENT}", tok)
            return value
        return 1


def parse_polynomial(text: str, fiber_arity: int, base_arity: int, order: int,
                     first_line: int = 1) -> FiberGradedPoly:
    """Parse the polynomial grammar into a FiberGradedPoly."""
    tokens = _tokenize(text, first_line)
    if tokens[0].kind == "end":
        raise ParseError("empty polynomial", tokens[0].line, None)
    if len(tokens) == 2 and tokens[0].kind == "int" and tokens[0].text == "0":
        return FiberGradedPoly.zero(fiber_arity, base_arity, order)
    parser = _PolyParser(tokens, fiber_arity, base_arity)
    parsed = parser.parse()
    terms = [((tuple(pe), tuple(xe)), coeff) for coeff, pe, xe in parsed]
    return FiberGradedPoly(fiber_arity, base_arity, order, terms)
