"""Text formats: the polynomial grammar, morphism records, and matrices.

Polynomial grammar (used by the CLI and by serialization): variables
``p1..pm`` and ``x1..xn``, integers and fractions ``a/b``, and the operators
``+ - * ^``.  Example: ``S = p1*x1 + 1/2*p1^2*x1``.

Morphism record: a header line ``source=m target=n order=K``, optional
``core f<i> = <polynomial in x>`` lines, and one ``S = <polynomial>`` line.
Output is rendered in the canonical monomial order, so identical inputs
serialize identically across runs.

Matrix format: rows separated by ``;``, entries by ``,``, rational entries
``a/b``.

Input limits: a record's order is at most ``MAX_ORDER`` and every exponent
written after ``^`` at most ``MAX_EXPONENT``; a larger value raises
ParseError, so a short record cannot ask for a huge power or order.  An
integer literal (coefficient, denominator, exponent or variable index) longer
than the interpreter's integer string conversion limit (4,300 digits by
default) raises ParseError as well.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ShapeError
from .jetalg import FiberGradedPoly
from .linsympl import Matrix, Vector, matrix, vector
from .micro import CoreMap, GermJet, MicroObject, Micromorphism


@dataclass(frozen=True)
class _Token:
    kind: str  # int, var, op, end
    text: str
    line: int
    col: int


_OPS = set("+-*^/")

MAX_ORDER = 64
MAX_EXPONENT = 1024


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


# -- morphism records ---------------------------------------------------------


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
    if m < 0 or n < 0:
        raise ParseError("dimensions must be non-negative", header_line)
    if order < 1:
        raise ParseError("order must be at least 1", header_line)
    if order > MAX_ORDER:
        raise ParseError(f"order {order} exceeds the limit of {MAX_ORDER}", header_line)
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
            gen = parse_polynomial(expr.strip(), m, n, order, first_line=lineno)
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


def format_morphism(f: Micromorphism) -> str:
    lines = [f"source={f.source.core_dim} target={f.target.core_dim} order={f.order}"]
    for i, comp in enumerate(f.core.components):
        lines.append(f"core f{i + 1} = {comp.to_text()}")
    lines.append(f"S = {f.gen.to_text()}")
    return "\n".join(lines) + "\n"


def parse_core_map(text: str) -> CoreMap:
    """Parse a polynomial core map record with header ``domain=n codomain=m``."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty core map record", 1)
    header_line, header = lines[0]
    fields = _parse_header(header, header_line, ("domain", "codomain"))
    n, m = fields["domain"], fields["codomain"]
    comps: dict[int, FiberGradedPoly] = {}
    for lineno, line in lines[1:]:
        name, eq, expr = line.partition("=")
        name = name.strip()
        if not eq or not name.startswith("f"):
            raise ParseError("expected 'f<i> = <polynomial>'", lineno)
        try:
            idx = int(name[1:])
        except ValueError:
            raise ParseError(f"bad component name {name!r}", lineno)
        if not 1 <= idx <= m:
            raise ParseError(f"component index {idx} outside 1..{m}", lineno)
        if idx in comps:
            raise ParseError(f"duplicate component f{idx}", lineno)
        comps[idx] = parse_polynomial(expr.strip(), 0, n, 0, first_line=lineno)
    if sorted(comps) != list(range(1, m + 1)):
        raise ParseError("components must cover f1..fm exactly once", header_line)
    return CoreMap(n, tuple(comps[i] for i in range(1, m + 1)))


def format_core_map(phi: CoreMap) -> str:
    lines = [f"domain={phi.domain_dim} codomain={phi.codomain_dim}"]
    for i, comp in enumerate(phi.components):
        lines.append(f"f{i + 1} = {comp.to_text()}")
    return "\n".join(lines) + "\n"


def format_germ(germ: GermJet) -> str:
    lines = [f"germ dim={germ.dim} order={germ.order}"]
    for i, comp in enumerate(germ.x_out):
        lines.append(f"X{i + 1} = {comp.to_text()}")
    for i, comp in enumerate(germ.p_out):
        lines.append(f"P{i + 1} = {comp.to_text()}")
    return "\n".join(lines) + "\n"


# -- matrices -----------------------------------------------------------------


def _parse_rational(text: str, lineno: int | None = None) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational entry {text!r}", lineno)


def parse_vector(text: str) -> Vector:
    return vector(_parse_rational(e) for e in text.split(","))


def parse_matrix(text: str) -> Matrix:
    rows = [r for r in text.split(";") if r.strip()]
    if not rows:
        raise ParseError("empty matrix")
    out = matrix([[_parse_rational(e) for e in row.split(",")] for row in rows])
    return out


def format_matrix(rows: Matrix) -> str:
    return ";".join(",".join(str(v) for v in row) for row in rows)
