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

Parsing: a term scanner, one compiled ``re`` pattern, matches one whole term
per match in the shape that ``to_text`` writes (a sign, a coefficient ``a``
or ``a/b``, ``*``-joined factors ``p<i>^e`` and ``x<j>^e``, spaces around
the operators, ASCII digits) and adds up each term's monomial key from
``jetalg.KeyCodec.units``.  Any other text, and every error, goes to the
token parser: a compiled tokenizer with named groups (the "Writing a
Tokenizer" recipe of the ``re`` documentation) turns the whole text into
``(kind, text, line, column)`` tuples first, so a bad character is reported
before a grammar error earlier in the text, and a recursive descent reads
them.  Both give ``(key, numerator, denominator)`` terms, summed on integers
into the FiberGradedPoly form; a record's core lines are compared with the
core read off S in that form, without building a polynomial.

Input limits: a record's order is at most ``MAX_ORDER``, its dimensions
(``source``/``target`` of a morphism, ``domain``/``codomain`` of a core map)
at most ``MAX_DIM``, and every exponent written after ``^`` at most
``MAX_EXPONENT``; a larger value raises ParseError, so a short record cannot
ask for a huge power, order or dimension.  A morphism record's working space,
counted as 2 * max(source, target) fiber variables at order K + 1 (one order
above the germ shift's, the largest expansion), may hold at most
``MAX_FIBER_MONOMIALS`` fiber monomials, so that dimension and order cannot
combine into unbounded expansions either; the limit admits every record of
order at most 2 within ``MAX_DIM``.  An integer literal (coefficient,
denominator, exponent or variable index) longer than the interpreter's
integer string conversion limit (4,300 digits by default) raises ParseError
as well, and so does a term of S above the record's order, at the S line.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache
from math import comb

from .errors import ParseError, ShapeError
from .jetalg import FiberGradedPoly, _merge_terms, check_space, key_codec
from .linsympl import Matrix, Vector
from .micro import CoreMap, GermJet, MicroObject, Micromorphism


MAX_ORDER = 64
MAX_EXPONENT = 1024
MAX_DIM = 64
# fiber monomials of degree <= 3 in 2 * MAX_DIM variables, 366,145: the
# working space of every record of order at most 2 within MAX_DIM
MAX_FIBER_MONOMIALS = comb(2 * MAX_DIM + 3, 3)

# \d matches the decimal digits, those of str.isdecimal(), which int() reads;
# any other character, a superscript digit too, is an unexpected one
_SCANNER = re.compile(r"(?P<int>\d+)|(?P<var>[px]\d*)|(?P<op>[-+*^/])|(?P<space>\s+)"
                      r"|(?P<bad>.)", re.DOTALL)
_SIGNS = frozenset("+-")
# the term scanner: a sign, then a coefficient a or a/b or a factor p<i> or
# x<j> with an optional ^e, then '*'-joined factors; ASCII digits only
_FACTOR_SHAPE = r"[px][0-9]+(?: *\^ *[0-9]+)?"
_TERM = re.compile(rf" *([-+]?) *(?:([0-9]+)(?: */ *([0-9]+))?|{_FACTOR_SHAPE})"
                   rf"(?: *\* *{_FACTOR_SHAPE})* *")
_FACTOR = re.compile(r"([px][0-9]+)(?: *\^ *([0-9]+))?")

# a token is (kind, text, line, column) with kind int, var, op or end
Token = tuple[str, str, int, int | None]


def _tokenize(text: str, first_line: int = 1) -> list[Token]:
    """The tokens of ``text``, closed by ``("end", "", last line, None)``.

    A bad character or an index-less variable raises before any parsing, so
    lexical errors take precedence over grammar errors later in the text."""
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=first_line):
        for match in _SCANNER.finditer(line):
            kind = match.lastgroup
            if kind == "space":
                continue
            word, col = match.group(), match.start() + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {word!r}", lineno, col)
            if word in ("p", "x"):
                raise ParseError(f"variable '{word}' needs an index", lineno, col)
            tokens.append((kind, word, lineno, col))
    tokens.append(("end", "", tokens[-1][2] if tokens else first_line, None))
    return tokens


def _int(text: str) -> int:
    """``int(text)`` without the '_' digit separators the grammar rejects."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return int(text)


def _fail(message: str, tok: Token):
    raise ParseError(message, tok[2], tok[3])


def _integer(digits: str, tok: Token) -> int:
    """``int(digits)``, or a ParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        _fail(f"integer of {len(digits)} digits exceeds the limit of "
              f"{sys.get_int_max_str_digits()} digits", tok)


def _exponent(tokens: list[Token], pos: int) -> tuple[int, int]:
    """The exponent written at ``pos`` (1 when there is no ``^``) and the
    position after it."""
    if tokens[pos][1] != "^":
        return 1, pos
    tok = tokens[pos + 1]
    if tok[0] != "int":
        _fail("expected an integer exponent", tok)
    value = _integer(tok[1], tok)
    if value > MAX_EXPONENT:
        _fail(f"exponent {value} exceeds the limit of {MAX_EXPONENT}", tok)
    return value, pos + 2


def _parse_terms(tokens: list[Token], fiber_arity: int,
                 base_arity: int) -> list[tuple[int, int, int]]:
    """Sums of signed products of rationals and powers, read left to right.

    Signs may repeat before the first term only.  Each term is returned as
    its monomial key, integer numerator and positive denominator; the
    FiberGradedPoly constructor sums repeated monomials and drops zeros."""
    terms: list[tuple[int, int, int]] = []
    units = key_codec(fiber_arity, base_arity).units
    pos, sign = 0, 1
    while tokens[pos][1] in _SIGNS:
        if tokens[pos][1] == "-":
            sign = -sign
        pos += 1
    while True:
        num, den, key = sign, 1, 0
        while True:  # factors joined by '*'
            tok = tokens[pos]
            kind, word = tok[0], tok[1]
            if kind == "int":
                value, d = _integer(word, tok), 1
                if tokens[pos + 1][1] == "/":
                    pos += 2
                    den_tok = tokens[pos]
                    if den_tok[0] != "int":
                        _fail("expected an integer denominator", den_tok)
                    d = _integer(den_tok[1], den_tok)
                    if not d:
                        _fail("zero denominator", den_tok)
                exp, pos = _exponent(tokens, pos + 1)
                num *= value ** exp
                den *= d ** exp
            elif kind == "var":
                idx = _integer(word[1:], tok)
                if idx < 1:
                    _fail("variables are 1-indexed", tok)
                arity, offset = (fiber_arity, 0) if word[0] == "p" else (base_arity, fiber_arity)
                if idx > arity:
                    _fail(f"variable {word} outside arity {arity}", tok)
                exp, pos = _exponent(tokens, pos + 1)
                key += exp * units[offset + idx - 1]
            else:
                _fail(f"expected a variable or number but found {word!r}", tok)
            if tokens[pos][1] != "*":
                break
            pos += 1
        terms.append((key, num, den))
        tok = tokens[pos]
        if tok[1] in _SIGNS:
            sign = 1 if tok[1] == "+" else -1
            pos += 1
        elif tok[0] == "end":
            return terms
        else:
            _fail(f"expected '+' or '-' but found {tok[1]!r}", tok)


@cache
def _unit_names(fiber_arity: int, base_arity: int) -> dict[str, int]:
    # the key of each variable p1..pm, x1..xn, by its name without leading zeros
    codec = key_codec(fiber_arity, base_arity)
    return dict(zip(codec.names, codec.units))


def _scanned_terms(text: str, fiber_arity: int,
                   base_arity: int) -> list[tuple[int, int, int]] | None:
    """The terms of ``text`` as ``_parse_terms`` returns them, when the term
    scanner reads all of it and ``_parse_terms`` would accept it; else None."""
    names = _unit_names(fiber_arity, base_arity)
    match, factors = _TERM.match, _FACTOR.findall
    terms: list[tuple[int, int, int]] = []
    pos, end = 0, len(text)
    try:
        while pos < end:
            m = match(text, pos)
            if m is None:
                return None
            sign, num, den = m.groups()
            if pos and not sign:  # only the first term may go without a sign
                return None
            num, den = int(num) if num else 1, int(den) if den else 1
            if not den:
                return None
            key, start, pos = 0, pos, m.end()
            for name, exp in factors(text, start, pos):
                unit = names.get(name)
                exp = int(exp) if exp else 1
                if unit is None or exp > MAX_EXPONENT:
                    return None
                key += exp * unit
            terms.append((key, -num if sign == "-" else num, den))
    except ValueError:  # a literal past the interpreter's digit limit
        return None
    return terms or None


def _terms(text: str, fiber_arity: int, base_arity: int,
           first_line: int) -> list[tuple[int, int, int]]:
    """The ``(key, num, den)`` terms of ``text``, from the term scanner or,
    for any text it does not read, from the token parser, which raises every
    ParseError."""
    terms = _scanned_terms(text, fiber_arity, base_arity)
    if terms is None:
        tokens = _tokenize(text, first_line)
        if len(tokens) == 1:
            raise ParseError("empty polynomial", tokens[0][2], None)
        terms = _parse_terms(tokens, fiber_arity, base_arity)
    return terms


def parse_polynomial(text: str, fiber_arity: int, base_arity: int, order: int,
                     first_line: int = 1) -> FiberGradedPoly:
    """Parse the polynomial grammar into a FiberGradedPoly."""
    fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
    return FiberGradedPoly._packed(fiber_arity, base_arity, order,
                                   _terms(text, fiber_arity, base_arity, first_line))


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
            fields[key] = _int(value)
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


def _content_lines(text: str) -> list[tuple[int, str]]:
    # the numbered nonblank lines, comments removed
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def _component(line: str, lineno: int, kind: str) -> tuple[int, str]:
    """The index i and polynomial text of ``f<i> = <polynomial>``, which follows ``kind``."""
    name, eq, expr = line.partition("=")
    name = name.strip()
    if not eq or not name.startswith("f"):
        raise ParseError(f"expected '{kind}f<i> = <polynomial>'", lineno)
    try:
        return _int(name[1:]), expr.strip()
    except ValueError:
        raise ParseError(f"bad {kind}component name {name!r}", lineno) from None


def parse_morphism(text: str) -> Micromorphism:
    """Parse and validate a morphism record; rejects normal-form violations."""
    lines = _content_lines(text)
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
        if line.split(maxsplit=1)[0] == "core":
            core_lines.append((lineno, *_component(line[4:], lineno, "core ")))
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
        codec = key_codec(0, n)
        for lineno, idx, expr in core_lines:
            comp = morphism.core.components[idx - 1]
            if _merge_terms(_terms(expr, 0, n, lineno), codec, 0) != (comp.den, comp.nums):
                raise ParseError(
                    f"core line f{idx} = {expr} disagrees with dS/dp{idx}(0, x) = "
                    f"{comp.to_text()}", lineno)
    return morphism


def format_morphism(f: Micromorphism) -> str:
    lines = [f"source={f.source.core_dim} target={f.target.core_dim} order={f.order}"]
    for i, comp in enumerate(f.core.components):
        lines.append(f"core f{i + 1} = {comp.to_text()}")
    lines.append(f"S = {f.gen.to_text()}")
    return "\n".join(lines) + "\n"


def parse_core_map(text: str) -> CoreMap:
    """Parse a polynomial core map record with header ``domain=n codomain=m``."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty core map record", 1)
    header_line, header = lines[0]
    fields = _parse_header(header, header_line, ("domain", "codomain"))
    _check_dims(fields, ("domain", "codomain"), header_line)
    n, m = fields["domain"], fields["codomain"]
    comps: dict[int, FiberGradedPoly] = {}
    for lineno, line in lines[1:]:
        idx, expr = _component(line, lineno, "")
        if not 1 <= idx <= m:
            raise ParseError(f"component index {idx} outside 1..{m}", lineno)
        if idx in comps:
            raise ParseError(f"duplicate component f{idx}", lineno)
        comps[idx] = parse_polynomial(expr, 0, n, 0, first_line=lineno)
    if sorted(comps) != list(range(1, m + 1)):
        raise ParseError("components must cover f1..fm exactly once", header_line)
    return CoreMap(n, tuple(comps[i] for i in range(1, m + 1)))


def format_germ(germ: GermJet) -> str:
    lines = [f"germ dim={germ.dim} order={germ.order}"]
    for i, comp in enumerate(germ.x_out):
        lines.append(f"X{i + 1} = {comp.to_text()}")
    for i, comp in enumerate(germ.p_out):
        lines.append(f"P{i + 1} = {comp.to_text()}")
    return "\n".join(lines) + "\n"


# -- matrices -----------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        return Fraction(_int(num), _int(den)) if slash else Fraction(_int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational entry {text!r}") from None


def parse_vector(text: str) -> Vector:
    return tuple(map(_parse_rational, text.split(",")))


def parse_matrix(text: str) -> Matrix:
    rows = [r for r in text.split(";") if r.strip()]
    if not rows:
        raise ParseError("empty matrix")
    out = tuple(tuple(map(_parse_rational, row.split(","))) for row in rows)
    if any(len(row) != len(out[0]) for row in out):
        raise ShapeError("ragged matrix rows")
    return out


def format_matrix(rows: Matrix) -> str:
    return ";".join(",".join(str(v) for v in row) for row in rows)
