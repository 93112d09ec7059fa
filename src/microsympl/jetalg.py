"""Exact truncated polynomial algebra in a fiber block and a base block.

The carrier type is :class:`FiberGradedPoly`: a multivariate polynomial with
exact rational coefficients in fiber variables ``p1..pm`` and base variables
``x1..xn``.  Terms are graded by total fiber degree and every operation
discards fiber degrees above the stored truncation order; base degrees are
never truncated.  This makes the type an exact model of jets transverse to a
coordinate core: polynomial along the base, truncated in the conormal
directions.

Values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.

Coefficients are public as ``Fraction`` values in ``terms``, but products,
powers and substitutions run on integers, in the layout of FLINT's
``fmpq_poly``: each instance caches, on first use, an integer form
``(den, rows)`` with ``den`` the lcm of its coefficient denominators and one
row ``(fiber degree, pe, xe, coefficient * den)`` per term, sorted by fiber
degree.  One helper multiplies integer numerators against such rows and
stops each row scan at the truncation order; a substitution keeps its pieces
and the cached powers of its values in integer form, sums the pieces over one
running common denominator (widened by lcm only when a piece's denominator
does not divide it), and builds one Fraction per output term at the end.
The cache is computed from immutable data and always to the same value, so
filling it needs no lock.

Text form (also the CLI input grammar): terms are written with ``+ - * ^``,
rational coefficients ``a/b``, and variables ``p1..pm``, ``x1..xn``, e.g.
``p1*x1 + 1/2*p1^2*x1``.  The canonical monomial order is graded
lexicographic with the fiber block before the base block; all serialization
uses it so output is stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add as _add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConvergenceError, FiltrationError, ShapeError

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
# (common denominator, rows (fiber degree, pe, xe, numerator) sorted by degree)
IntegerForm = tuple[int, list[tuple[int, Exponents, Exponents, int]]]


def frac(value) -> Fraction:
    """The exact rational ``value`` as a Fraction; floats and others raise TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def grlex_key(key: TermKey) -> tuple[int, Exponents]:
    """Canonical monomial sort key: ascending total degree, then lexicographic
    with the fiber block before the base block (higher power of an earlier
    variable first within a degree)."""
    pe, xe = key
    return (sum(pe) + sum(xe), tuple(-e for e in pe + xe))


def _term_text(key: TermKey, coeff: Fraction) -> str:
    pe, xe = key
    factors = []
    for i, e in enumerate(pe):
        if e:
            factors.append(f"p{i + 1}" + (f"^{e}" if e > 1 else ""))
    for j, e in enumerate(xe):
        if e:
            factors.append(f"x{j + 1}" + (f"^{e}" if e > 1 else ""))
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


class FiberGradedPoly:
    """Polynomial in fiber variables p and base variables x, truncated in p.

    Invariants: every stored term has total fiber degree at most ``order``,
    no stored coefficient is zero, and coefficients are reduced Fractions.
    The zero polynomial is an empty term map that still carries its arities
    and order, so shape mismatches stay detectable on zeros.

    ``_ints`` caches the integer form ``(den, rows)`` used by ``*``, ``**``
    and substitution (see the module docstring); it starts as None and is
    filled by ``_integer_form`` on first use.
    """

    __slots__ = ("fiber_arity", "base_arity", "order", "terms", "_hash", "_ints")

    def __init__(self, fiber_arity: int, base_arity: int, order: int,
                 terms: Mapping[TermKey, Fraction] | Iterable[tuple[TermKey, Fraction]] = ()):
        if fiber_arity < 0 or base_arity < 0:
            raise ShapeError("arities must be non-negative")
        if order < 0:
            raise ShapeError("truncation order must be non-negative")
        clean: dict[TermKey, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            pe, xe = key
            pe = tuple(int(e) for e in pe)
            xe = tuple(int(e) for e in xe)
            if len(pe) != fiber_arity or len(xe) != base_arity:
                raise ShapeError(
                    f"term exponents ({len(pe)}, {len(xe)}) do not match arities "
                    f"({fiber_arity}, {base_arity})")
            if any(e < 0 for e in pe) or any(e < 0 for e in xe):
                raise ShapeError("negative exponent")
            if sum(pe) > order:
                raise ShapeError(f"fiber degree {sum(pe)} exceeds order {order}")
            c = frac(coeff)
            if not c:
                continue
            k = (pe, xe)
            prev = clean.get(k)
            total = c if prev is None else prev + c
            if total:
                clean[k] = total
            elif prev is not None:
                del clean[k]
        self.fiber_arity = fiber_arity
        self.base_arity = base_arity
        self.order = order
        self.terms = clean
        self._hash = None
        self._ints = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, fiber_arity: int, base_arity: int, order: int,
             terms: dict[TermKey, Fraction]) -> "FiberGradedPoly":
        # trusted fast path: caller guarantees canonical terms
        obj = object.__new__(cls)
        obj.fiber_arity = fiber_arity
        obj.base_arity = base_arity
        obj.order = order
        obj.terms = terms
        obj._hash = None
        obj._ints = None
        return obj

    @classmethod
    def zero(cls, fiber_arity: int, base_arity: int, order: int) -> "FiberGradedPoly":
        return cls(fiber_arity, base_arity, order)

    @classmethod
    def constant(cls, fiber_arity: int, base_arity: int, order: int, value) -> "FiberGradedPoly":
        key = ((0,) * fiber_arity, (0,) * base_arity)
        return cls(fiber_arity, base_arity, order, {key: frac(value)})

    @classmethod
    def fiber_var(cls, fiber_arity: int, base_arity: int, order: int, index: int) -> "FiberGradedPoly":
        if not 0 <= index < fiber_arity:
            raise ShapeError(f"fiber index {index} out of range for arity {fiber_arity}")
        if order < 1:
            raise ShapeError("a fiber variable needs order >= 1")
        pe = tuple(1 if i == index else 0 for i in range(fiber_arity))
        return cls(fiber_arity, base_arity, order, {(pe, (0,) * base_arity): Fraction(1)})

    @classmethod
    def base_var(cls, fiber_arity: int, base_arity: int, order: int, index: int) -> "FiberGradedPoly":
        if not 0 <= index < base_arity:
            raise ShapeError(f"base index {index} out of range for arity {base_arity}")
        xe = tuple(1 if j == index else 0 for j in range(base_arity))
        return cls(fiber_arity, base_arity, order, {((0,) * fiber_arity, xe): Fraction(1)})

    @classmethod
    def monomial(cls, fiber_arity: int, base_arity: int, order: int, coeff,
                 fiber_exps: Sequence[int], base_exps: Sequence[int]) -> "FiberGradedPoly":
        return cls(fiber_arity, base_arity, order,
                   {(tuple(fiber_exps), tuple(base_exps)): frac(coeff)})

    # -- shape helpers -----------------------------------------------------

    def _require_same_space(self, other: "FiberGradedPoly") -> None:
        if (self.fiber_arity, self.base_arity, self.order) != \
                (other.fiber_arity, other.base_arity, other.order):
            raise ShapeError(
                f"space mismatch: ({self.fiber_arity},{self.base_arity},K={self.order}) "
                f"vs ({other.fiber_arity},{other.base_arity},K={other.order})")

    def space(self) -> tuple[int, int, int]:
        return (self.fiber_arity, self.base_arity, self.order)

    def is_zero(self) -> bool:
        return not self.terms

    def min_fiber_degree(self) -> int | None:
        """Smallest fiber degree carrying a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(pe) for pe, _ in self.terms)

    def max_fiber_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(pe) for pe, _ in self.terms)

    def coefficient(self, fiber_exps: Sequence[int], base_exps: Sequence[int]) -> Fraction:
        return self.terms.get((tuple(fiber_exps), tuple(base_exps)), Fraction(0))

    def _integer_form(self) -> IntegerForm:
        """``(den, rows)``: ``den`` is the lcm of the coefficient denominators
        and each row ``(fiber degree, pe, xe, coefficient * den)`` holds an
        integer; rows are sorted by fiber degree.  Computed on first use."""
        form = self._ints
        if form is None:
            den = lcm(*[c.denominator for c in self.terms.values()])
            form = self._ints = _sorted_form(
                den, [(key, c.numerator * (den // c.denominator))
                      for key, c in self.terms.items()])
        return form

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            total = c if prev is None else prev + c
            if total:
                out[key] = total
            elif prev is not None:
                del out[key]
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    def __neg__(self):
        out = {key: -c for key, c in self.terms.items()}
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    def __sub__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, value) -> "FiberGradedPoly":
        c = frac(value)
        if not c:
            return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, {})
        out = {key: c * v for key, v in self.terms.items()}
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        self._require_same_space(other)
        # the shorter operand supplies the degree-sorted rows, so truncation
        # prunes early
        a, b = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        a_den, a_rows = a._integer_form()
        b_den, b_rows = b._integer_form()
        den = a_den * b_den
        out = _mul_rows({(pe, xe): n for _, pe, xe, n in a_rows}, b_rows, self.order)
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order,
                                    {key: Fraction(n, den) for key, n in out.items() if n})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ShapeError("exponent must be a non-negative integer")
        if not exponent:
            return FiberGradedPoly.constant(self.fiber_arity, self.base_arity, self.order, 1)
        den, rows = _power_form({}, (0, 0), self, exponent, self.order)
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order,
                                    {(pe, xe): Fraction(n, den) for _, pe, xe, n in rows})

    # -- calculus ----------------------------------------------------------

    def partial_fiber(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the fiber variable p(index+1).

        The result keeps the stored order; a derivative of an order-K jet is
        faithful only through fiber degree K-1, which callers must account
        for (composition lifts operands one order for exactly this reason).
        """
        if not 0 <= index < self.fiber_arity:
            raise ShapeError(f"fiber index {index} out of range for arity {self.fiber_arity}")
        out: dict[TermKey, Fraction] = {}
        for (pe, xe), c in self.terms.items():
            e = pe[index]
            if e:
                key = (pe[:index] + (e - 1,) + pe[index + 1:], xe)
                out[key] = c * e
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    def partial_base(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the base variable x(index+1); exact at all orders."""
        if not 0 <= index < self.base_arity:
            raise ShapeError(f"base index {index} out of range for arity {self.base_arity}")
        out: dict[TermKey, Fraction] = {}
        for (pe, xe), c in self.terms.items():
            e = xe[index]
            if e:
                key = (pe, xe[:index] + (e - 1,) + xe[index + 1:])
                out[key] = c * e
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    # -- substitution and evaluation ----------------------------------------

    def _validate_substitution(self, fiber_values, base_values,
                               space: tuple[int, int, int] | None) -> tuple[int, int, int]:
        if len(fiber_values) != self.fiber_arity:
            raise ShapeError(f"expected {self.fiber_arity} fiber values, got {len(fiber_values)}")
        if len(base_values) != self.base_arity:
            raise ShapeError(f"expected {self.base_arity} base values, got {len(base_values)}")
        target = space
        for v in list(fiber_values) + list(base_values):
            if v is None:
                continue
            if target is None:
                target = v.space()
            elif v.space() != target:
                raise ShapeError(f"substitution value space {v.space()} differs from {target}")
        if target is None:
            raise ShapeError("target space cannot be inferred; pass space=")
        tm, tn, _ = target
        for i, v in enumerate(fiber_values):
            if v is None:
                if i >= tm:
                    raise ShapeError(f"identity fiber value p{i + 1} outside target arity {tm}")
            else:
                bad = [key for key in v.terms if sum(key[0]) == 0]
                if bad:
                    raise FiltrationError(
                        f"value for fiber variable p{i + 1} has a fiber-degree-0 term")
        for j, v in enumerate(base_values):
            if v is None and j >= tn:
                raise ShapeError(f"identity base value x{j + 1} outside target arity {tn}")
        return target

    def substitute(self,
                   fiber_values: Sequence["FiberGradedPoly | None"],
                   base_values: Sequence["FiberGradedPoly | None"],
                   space: tuple[int, int, int] | None = None) -> "FiberGradedPoly":
        """Truncation of the exact formal substitution.

        One value per variable of each block, all living in a common target
        space (a ``None`` entry keeps the same-index variable of the target
        block).  Every polynomial substituted for a fiber variable must have
        minimum fiber degree >= 1 so that truncation commutes with
        substitution; base values are unrestricted.
        """
        target = self._validate_substitution(fiber_values, base_values, space)
        return self._substitute_cached(fiber_values, base_values, target, {})

    def _substitute_cached(self, fiber_values, base_values,
                           target: tuple[int, int, int], pow_cache: dict) -> "FiberGradedPoly":
        tm, tn, torder = target
        den, rows = self._integer_form()
        total: dict[TermKey, int] = {}
        total_den = 1
        for _, pe, xe, num in rows:
            mono_pe = [0] * tm
            mono_xe = [0] * tn
            factors: list[IntegerForm] = []
            for i, e in enumerate(pe):
                if not e:
                    continue
                v = fiber_values[i]
                if v is None:
                    mono_pe[i] += e
                else:
                    factors.append(_power_form(pow_cache, (0, i), v, e, torder))
            for j, e in enumerate(xe):
                if not e:
                    continue
                v = base_values[j]
                if v is None:
                    mono_xe[j] += e
                else:
                    factors.append(_power_form(pow_cache, (1, j), v, e, torder))
            if sum(mono_pe) > torder:
                continue
            piece = {(tuple(mono_pe), tuple(mono_xe)): num}
            piece_den = den
            factors.sort(key=lambda f: len(f[1]))
            for f_den, f_rows in factors:
                piece = _mul_rows(piece, f_rows, torder)
                piece_den *= f_den
            if not piece:
                continue
            if total_den % piece_den:
                # widen the running denominator to the lcm
                widen = lcm(total_den, piece_den) // total_den
                for key in total:
                    total[key] *= widen
                total_den *= widen
            scale = total_den // piece_den
            total_get = total.get
            for key, n in piece.items():
                total[key] = total_get(key, 0) + n * scale
        return FiberGradedPoly._raw(tm, tn, torder, {key: Fraction(n, total_den)
                                                     for key, n in total.items() if n})

    def evaluate(self, fiber_point: Sequence, base_point: Sequence) -> Fraction:
        """Plain polynomial evaluation at an exact rational point."""
        if len(fiber_point) != self.fiber_arity or len(base_point) != self.base_arity:
            raise ShapeError("evaluation point does not match arities")
        fp = [frac(v) for v in fiber_point]
        bp = [frac(v) for v in base_point]
        total = Fraction(0)
        for (pe, xe), c in self.terms.items():
            val = c
            for v, e in zip(fp, pe):
                if e:
                    val *= v ** e
            for v, e in zip(bp, xe):
                if e:
                    val *= v ** e
            total += val
        return total

    # -- reshaping ---------------------------------------------------------

    def at_order(self, new_order: int) -> "FiberGradedPoly":
        """Reinterpret at another truncation order, dropping terms when lowering."""
        if new_order < 0:
            raise ShapeError("truncation order must be non-negative")
        if new_order == self.order:
            return self
        if new_order > self.order:
            return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, new_order,
                                        dict(self.terms))
        out = {key: c for key, c in self.terms.items() if sum(key[0]) <= new_order}
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, new_order, out)

    def core_part(self) -> "FiberGradedPoly":
        """The fiber-degree-zero part, i.e. the restriction to p = 0."""
        out = {key: c for key, c in self.terms.items() if sum(key[0]) == 0}
        return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, self.order, out)

    def embed(self, fiber_arity: int, base_arity: int,
              fiber_offset: int = 0, base_offset: int = 0) -> "FiberGradedPoly":
        """Reindex into a larger variable space, keeping the order."""
        if fiber_offset < 0 or base_offset < 0:
            raise ShapeError("offsets must be non-negative")
        if fiber_offset + self.fiber_arity > fiber_arity:
            raise ShapeError("fiber block does not fit in the target space")
        if base_offset + self.base_arity > base_arity:
            raise ShapeError("base block does not fit in the target space")
        out: dict[TermKey, Fraction] = {}
        for (pe, xe), c in self.terms.items():
            new_pe = (0,) * fiber_offset + pe + (0,) * (fiber_arity - fiber_offset - self.fiber_arity)
            new_xe = (0,) * base_offset + xe + (0,) * (base_arity - base_offset - self.base_arity)
            out[(new_pe, new_xe)] = c
        return FiberGradedPoly._raw(fiber_arity, base_arity, self.order, out)

    # -- ordering, equality, text -------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def serialized_terms(self) -> tuple[tuple[Exponents, Exponents, int, int], ...]:
        """Canonical tuple form: (fiber exponents, base exponents, numerator, denominator)."""
        return tuple((pe, xe, c.numerator, c.denominator)
                     for (pe, xe), c in self.sorted_terms())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            body = _term_text(key, abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __eq__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        return (self.fiber_arity == other.fiber_arity
                and self.base_arity == other.base_arity
                and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.fiber_arity, self.base_arity, self.order,
                               frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return (f"FiberGradedPoly({self.fiber_arity}, {self.base_arity}, "
                f"K={self.order}: {self.to_text()})")


def _sorted_form(den: int, items: Iterable[tuple[TermKey, int]]) -> IntegerForm:
    rows = [(sum(pe), pe, xe, n) for (pe, xe), n in items if n]
    rows.sort(key=itemgetter(0))
    return den, rows


def _mul_rows(left: dict[TermKey, int], rows, order: int) -> dict[TermKey, int]:
    """Truncated product of integer numerators: ``left`` times degree-sorted
    ``rows``.  The result is over the product of the two denominators and
    may hold zero numerators."""
    out: dict[TermKey, int] = {}
    out_get = out.get
    for (pa, xa), ca in left.items():
        if not ca:
            continue
        da = sum(pa)
        for db, pb, xb, cb in rows:
            if da + db > order:
                break
            key = (tuple(map(_add, pa, pb)), tuple(map(_add, xa, xb)))
            out[key] = out_get(key, 0) + ca * cb
    return out


def _power_form(cache: dict, slot: tuple[int, int], value: FiberGradedPoly, e: int,
                order: int) -> IntegerForm:
    """Integer form of ``value ** e`` truncated at ``order``, built as
    v^e = v^(e-1) * v with every power cached under ``(*slot, e)``."""
    base = value._integer_form()
    k = e
    while k > 1 and (*slot, k) not in cache:
        k -= 1
    got = cache[(*slot, k)] if k > 1 else base
    base_den, base_rows = base
    while k < e:
        k += 1
        den, rows = got
        prod = _mul_rows({(pe, xe): n for _, pe, xe, n in rows}, base_rows, order)
        got = cache[(*slot, k)] = _sorted_form(den * base_den, prod.items())
    return got


def substitute_many(polys: Sequence[FiberGradedPoly], fiber_values, base_values,
                    space: tuple[int, int, int]) -> list[FiberGradedPoly]:
    """Substitute the same values into several polynomials of one space,
    sharing the cache of value powers across the whole batch."""
    if not polys:
        return []
    first = polys[0]
    for p in polys[1:]:
        first._require_same_space(p)
    target = first._validate_substitution(fiber_values, base_values, space)
    cache: dict = {}
    return [p._substitute_cached(fiber_values, base_values, target, cache)
            for p in polys]


def _lowest_change(new: FiberGradedPoly, old: FiberGradedPoly) -> int | None:
    """``(new - old).min_fiber_degree()``, read off the two term maps without
    building the difference: stored coefficients are never zero, so a term
    of the difference is a key where the two maps differ."""
    new._require_same_space(old)
    old_terms, new_terms = old.terms, new.terms
    degs = [sum(key[0]) for key, c in new_terms.items() if c != old_terms.get(key)]
    degs += [sum(key[0]) for key in old_terms if key not in new_terms]
    return min(degs, default=None)


def solve_triangular_fixed_point(
        initial: Sequence[FiberGradedPoly],
        update: Callable[[Sequence[FiberGradedPoly]], Sequence[FiberGradedPoly]],
) -> tuple[FiberGradedPoly, ...]:
    """Unique fixed point of a filtration-contracting update, modulo order K+1.

    The update must change any candidate only in fiber degrees strictly above
    the degrees it already fixed, so the minimum fiber degree of successive
    corrections strictly increases.  The fixed point is reached in at most
    K+1 iterations; the residual update(z) - z is verified to vanish at the
    stored order, and a correction that revisits a stabilized degree raises
    :class:`ConvergenceError`.
    """
    state = tuple(initial)
    if not state:
        return state
    order = state[0].order
    last_min = -1
    for _ in range(order + 1):
        new = tuple(update(state))
        if len(new) != len(state):
            raise ShapeError("update changed the number of components")
        m = min((d for d in map(_lowest_change, new, state) if d is not None),
                default=None)
        if m is None:
            return state
        if m <= last_min:
            raise ConvergenceError(
                f"update changed fiber degree {m} after degrees <= {last_min} stabilized")
        last_min = m
        state = new
    final = tuple(update(state))
    if any(_lowest_change(a, b) is not None for a, b in zip(final, state)):
        raise ConvergenceError(
            f"no fixed point within {order + 1} iterations at order {order}")
    return state
