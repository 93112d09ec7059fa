"""Reference oracle: the per-character tokenizer and recursive-descent parser.

A frozen copy of ``microsympl.textio``'s ``_tokenize``, ``_PolyParser`` and
``parse_polynomial`` as they were before the compiled scanner: one ``_Token``
dataclass per token, a per-character loop, one ``Fraction`` per factor, and
duplicate monomials merged by the ``FiberGradedPoly`` constructor.  On top of
it, a frozen copy of the morphism record logic of ``parse_morphism`` as it was
before the term scanner: every core line parsed into a polynomial and compared
with the core read off S.  Its digits are those of ``str.isdecimal()``, the
ones ``int()`` reads; it read ``str.isdigit()`` until the parser reported a
superscript or circled digit as an unexpected character instead of failing to
convert it.  Its ``parse_morphism`` reports a ShapeError of the S line, a term
above the record's order, as a ParseError at that line; until then it let the
ShapeError through without a line.  Tests require the library to agree with
these functions exactly, on well-formed text and on the ``ParseError`` of
malformed text; do not optimise this file.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from microsympl.errors import ParseError, ShapeError
from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import MicroObject, Micromorphism

MAX_EXPONENT = 1024
MAX_ORDER = 64
MAX_DIM = 64
MAX_FIBER_MONOMIALS = comb(2 * MAX_DIM + 3, 3)


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
            if ch.isdecimal():
                j = i
                while j < len(line) and line[j].isdecimal():
                    j += 1
                tokens.append(_Token("int", line[i:j], lineno, col))
                i = j
            elif ch in ("p", "x"):
                j = i + 1
                while j < len(line) and line[j].isdecimal():
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


def _parse_header(line: str, lineno: int, keys: tuple[str, ...]) -> dict[str, int]:
    fields: dict[str, int] = {}
    for part in line.split():
        if "=" not in part:
            raise ParseError(f"expected key=value but found {part!r}", lineno)
        key, _, value = part.partition("=")
        if key not in keys:
            raise ParseError(f"unknown header key {key!r}", lineno)
        if key in fields:
            raise ParseError(f"duplicate header key {key!r}", lineno)
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"header value for {key!r} is not an integer", lineno)
    missing = [k for k in keys if k not in fields]
    if missing:
        raise ParseError(f"missing header keys: {', '.join(missing)}", lineno)
    return fields


def _check_dims(fields: dict[str, int], keys: tuple[str, ...], lineno: int) -> None:
    if any(fields[key] < 0 for key in keys):
        raise ParseError("dimensions must be non-negative", lineno)
    for key in keys:
        if fields[key] > MAX_DIM:
            raise ParseError(f"{key} {fields[key]} exceeds the limit of {MAX_DIM}", lineno)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_morphism(text: str) -> Micromorphism:
    """Parse and validate a morphism record; rejects normal-form violations."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty morphism record", 1)
    header_line, header = lines[0]
    fields = _parse_header(header, header_line, ("source", "target", "order"))
    m, n, order = fields["source"], fields["target"], fields["order"]
    _check_dims(fields, ("source", "target"), header_line)
    if order < 1:
        raise ParseError("order must be at least 1", header_line)
    if order > MAX_ORDER:
        raise ParseError(f"order {order} exceeds the limit of {MAX_ORDER}", header_line)
    fibers = 2 * max(m, n)
    monomials = comb(fibers + order + 1, fibers)
    if monomials > MAX_FIBER_MONOMIALS:
        raise ParseError(
            f"working space of {fibers} fiber variables at order {order + 1} has "
            f"{monomials} fiber monomials, beyond MAX_FIBER_MONOMIALS = "
            f"{MAX_FIBER_MONOMIALS}", header_line)
    gen = None
    core_lines: list[tuple[int, int, str]] = []
    for lineno, line in lines[1:]:
        if line.startswith("core"):
            rest = line[4:].strip()
            name, eq, expr = rest.partition("=")
            name = name.strip()
            if not eq or not name.startswith("f"):
                raise ParseError("expected 'core f<i> = <polynomial>'", lineno)
            try:
                idx = int(name[1:])
            except ValueError:
                raise ParseError(f"bad core component name {name!r}", lineno)
            core_lines.append((lineno, idx, expr.strip()))
        elif line.startswith("S"):
            _, eq, expr = line.partition("=")
            if not eq or _.strip() != "S":
                raise ParseError("expected 'S = <polynomial>'", lineno)
            if gen is not None:
                raise ParseError("duplicate generating function line", lineno)
            try:
                gen = parse_polynomial(expr.strip(), m, n, order, first_line=lineno)
            except ShapeError as exc:  # a term above the order, or a key field overflow
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if gen is None:
        raise ParseError("missing 'S = <polynomial>' line", lines[-1][0])
    morphism = Micromorphism(MicroObject(m), MicroObject(n), gen)
    if core_lines:
        seen = sorted(idx for _, idx, _ in core_lines)
        if seen != list(range(1, m + 1)):
            raise ParseError("core lines must cover f1..fm exactly once",
                             core_lines[0][0])
        for lineno, idx, expr in core_lines:
            declared = parse_polynomial(expr, 0, n, 0, first_line=lineno)
            if declared != morphism.core.components[idx - 1]:
                raise ParseError(
                    f"core line f{idx} = {expr} disagrees with dS/dp{idx}(0, x) = "
                    f"{morphism.core.components[idx - 1].to_text()}", lineno)
    return morphism
