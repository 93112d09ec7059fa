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

Storage follows FLINT's ``fmpq_poly``: an instance holds one common
denominator and an integer numerator per monomial, in lowest terms.  Sums,
scalings, derivatives, reshaping, equality and the fixed-point residual work
on these integers: linear combinations are summed by one helper, ``combine``,
over the lcm of the operands' denominators, with zeros dropped once at the
end.  Products, powers and substitutions multiply numerators against
degree-sorted rows and stop each row scan at the truncation order.

A substitution splits each term into an identity monomial (the variables
whose value is ``None``) and a product of slot powers v^e, keyed by the
tuple of its ``(block, index, e)`` slots.  A batch (``substitute_many``)
shares one prefix cache of these truncated products: each is built as its
parent, the key with its last exponent lowered by one (or that slot dropped
at exponent 1), times one value, and every product on the way is cached, so
powers and multi-slot products share their common prefixes.  Each term then
adds its scaled rows straight into one running total, shifted by its
identity monomial and cut at the order minus the identity monomial's fiber
degree; the total is kept over one running common denominator, widened by
lcm only when a term's denominator does not divide it.

``Fraction``s are built only when the public ``terms`` map is read.  Derived
caches are computed from immutable data and always to the same value, so
filling them needs no lock.

Text form (also the CLI input grammar): terms are written with ``+ - * ^``,
rational coefficients ``a/b``, and variables ``p1..pm``, ``x1..xn``, e.g.
``p1*x1 + 1/2*p1^2*x1``.  The canonical monomial order is graded
lexicographic with the fiber block before the base block; all serialization
uses it so output is stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConvergenceError, FiltrationError, ShapeError

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
# (fiber degree, pe, xe, numerator) rows, sorted by degree
Rows = list[tuple[int, Exponents, Exponents, int]]


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


def _term_text(pe: Exponents, xe: Exponents, num: int, den: int) -> str:
    # one term with the reduced coefficient num/den
    factors = [f"{name}{i + 1}" + (f"^{e}" if e > 1 else "")
               for name, exps in (("p", pe), ("x", xe)) for i, e in enumerate(exps) if e]
    coeff = f"{num}/{den}" if den != 1 else str(num)
    if not factors:
        return coeff
    body = "*".join(factors)
    return body if num == den == 1 else f"{coeff}*{body}"


class FiberGradedPoly:
    """Polynomial in fiber variables p and base variables x, truncated in p.

    The stored form is ``(den, nums)``: a denominator ``den > 0`` and an
    integer numerator per monomial, in lowest terms (no zero numerator,
    ``gcd(den, *nums) == 1``), so equal polynomials have equal forms.  Every
    monomial has fiber degree at most ``order``.  The zero polynomial is ``(1,
    {})`` and still carries its arities and order, so shape mismatches stay
    detectable on zeros.  Two caches are derived on first use: ``_rows``, the
    degree-sorted rows that products read, and ``_terms``, the public
    ``terms`` map of reduced nonzero Fractions.
    """

    __slots__ = ("fiber_arity", "base_arity", "order", "den", "nums", "_rows", "_terms")

    def __init__(self, fiber_arity: int, base_arity: int, order: int,
                 terms: Mapping[TermKey, Fraction] | Iterable[tuple[TermKey, Fraction]] = ()):
        if fiber_arity < 0 or base_arity < 0:
            raise ShapeError("arities must be non-negative")
        if order < 0:
            raise ShapeError("truncation order must be non-negative")
        parts = []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (pe, xe), coeff in items:
            pe, xe = tuple(map(int, pe)), tuple(map(int, xe))
            if len(pe) != fiber_arity or len(xe) != base_arity:
                raise ShapeError(
                    f"term exponents ({len(pe)}, {len(xe)}) do not match arities "
                    f"({fiber_arity}, {base_arity})")
            if min(pe + xe, default=0) < 0:
                raise ShapeError("negative exponent")
            if sum(pe) > order:
                raise ShapeError(f"fiber degree {sum(pe)} exceeds order {order}")
            c = frac(coeff)
            parts.append(((pe, xe), c.numerator, c.denominator))
        self.fiber_arity, self.base_arity, self.order = fiber_arity, base_arity, order
        self.den, self.nums = _merge_terms(parts)
        self._rows = self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, fiber_arity: int, base_arity: int, order: int, den: int,
             nums: dict[TermKey, int]) -> "FiberGradedPoly":
        # trusted fast path: caller guarantees a form in lowest terms
        obj = object.__new__(cls)
        obj.fiber_arity, obj.base_arity, obj.order = fiber_arity, base_arity, order
        obj.den, obj.nums = den, nums
        obj._rows = obj._terms = None
        return obj

    @classmethod
    def _reduced(cls, fiber_arity: int, base_arity: int, order: int, den: int,
                 nums: dict[TermKey, int]) -> "FiberGradedPoly":
        # trusted keys over any den > 0; zeros are dropped and the form reduced
        return cls._raw(fiber_arity, base_arity, order, *_lowest_terms(den, nums))

    @classmethod
    def from_integer_terms(cls, fiber_arity: int, base_arity: int, order: int,
                           terms: list[tuple[TermKey, int, int]]) -> "FiberGradedPoly":
        """The sum of ``num/den * p^pe x^xe`` over ``((pe, xe), num, den)``
        with ``den > 0``; the exponent tuples must already match the arities
        and hold no negative entry, so only fiber degrees are checked."""
        for (pe, _), _, _ in terms:
            if sum(pe) > order:
                raise ShapeError(f"fiber degree {sum(pe)} exceeds order {order}")
        return cls._raw(fiber_arity, base_arity, order, *_merge_terms(terms))

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

    # -- derived views -----------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        """The coefficients as reduced nonzero Fractions, built on first use."""
        terms = self._terms
        if terms is None:
            den = self.den
            terms = self._terms = {key: Fraction(n, den) for key, n in self.nums.items()}
        return terms

    def _sorted_rows(self) -> Rows:
        """Rows ``(fiber degree, pe, xe, numerator)`` sorted by fiber degree."""
        if self._rows is None:
            self._rows = _sorted_rows(self.nums.items())
        return self._rows

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
        return not self.nums

    def max_fiber_degree(self) -> int:
        return max((sum(pe) for pe, _ in self.nums), default=0)

    def coefficient(self, fiber_exps: Sequence[int], base_exps: Sequence[int]) -> Fraction:
        return Fraction(self.nums.get((tuple(fiber_exps), tuple(base_exps)), 0), self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        return combine((self, other), (1, 1))

    def __neg__(self):
        return combine((self,), (-1,))

    def __sub__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        return combine((self, other), (1, -1))

    def scale(self, value) -> "FiberGradedPoly":
        return combine((self,), (value,))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        self._require_same_space(other)
        # the shorter operand supplies the degree-sorted rows, so truncation
        # prunes early
        a, b = (self, other) if len(self.nums) >= len(other.nums) else (other, self)
        out = _mul_rows(a.nums, b._sorted_rows(), self.order)
        return FiberGradedPoly._reduced(*self.space(), a.den * b.den, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ShapeError("exponent must be a non-negative integer")
        if not exponent:
            return FiberGradedPoly.constant(self.fiber_arity, self.base_arity, self.order, 1)
        den, rows = _monomial_form({}, ((0, 0, exponent),), ((self,),), self.order)
        return FiberGradedPoly._reduced(*self.space(), den,
                                        {(pe, xe): n for _, pe, xe, n in rows})

    # -- calculus ----------------------------------------------------------

    def partial_fiber(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the fiber variable p(index+1).

        The result keeps the stored order; a derivative of an order-K jet is
        faithful only through fiber degree K-1, which callers must account
        for (composition lifts operands one order for exactly this reason).
        """
        if not 0 <= index < self.fiber_arity:
            raise ShapeError(f"fiber index {index} out of range for arity {self.fiber_arity}")
        out = {(pe[:index] + (pe[index] - 1,) + pe[index + 1:], xe): n * pe[index]
               for (pe, xe), n in self.nums.items() if pe[index]}
        return FiberGradedPoly._reduced(*self.space(), self.den, out)

    def partial_base(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the base variable x(index+1); exact at all orders."""
        if not 0 <= index < self.base_arity:
            raise ShapeError(f"base index {index} out of range for arity {self.base_arity}")
        out = {(pe, xe[:index] + (xe[index] - 1,) + xe[index + 1:]): n * xe[index]
               for (pe, xe), n in self.nums.items() if xe[index]}
        return FiberGradedPoly._reduced(*self.space(), self.den, out)

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
                if any(sum(pe) == 0 for pe, _ in v.nums):
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
                           target: tuple[int, int, int], cache: dict) -> "FiberGradedPoly":
        tm, tn, torder = target
        values = (fiber_values, base_values)
        if () not in cache:
            cache[()] = 1, [(0, (0,) * tm, (0,) * tn, 1)]
        den = self.den
        total: dict[TermKey, int] = {}
        total_get = total.get
        total_den = 1
        for (pe, xe), num in self.nums.items():
            # the term is (identity monomial) * (product of slot powers)
            mono_pe = mono_xe = None
            slots = []
            cut = torder
            for i, e in enumerate(pe):
                if e:
                    if fiber_values[i] is None:
                        if mono_pe is None:
                            mono_pe = [0] * tm
                        mono_pe[i] = e
                        cut -= e
                    else:
                        slots.append((0, i, e))
            for j, e in enumerate(xe):
                if e:
                    if base_values[j] is None:
                        if mono_xe is None:
                            mono_xe = [0] * tn
                        mono_xe[j] = e
                    else:
                        slots.append((1, j, e))
            if cut < 0:
                continue
            key = tuple(slots)
            f_den, rows = cache.get(key) or _monomial_form(cache, key, values, torder)
            if not rows or rows[0][0] > cut:
                continue
            piece_den = den * f_den
            if total_den % piece_den:
                # widen the running denominator to the lcm
                widen = lcm(total_den, piece_den) // total_den
                for key in total:
                    total[key] *= widen
                total_den *= widen
            c = num * (total_den // piece_den)
            mp = None if mono_pe is None else tuple(mono_pe)
            mx = None if mono_xe is None else tuple(mono_xe)
            for db, pb, xb, cb in rows:
                if db > cut:
                    break
                key = (pb if mp is None else tuple(map(_add, mp, pb)),
                       xb if mx is None else tuple(map(_add, mx, xb)))
                total[key] = total_get(key, 0) + c * cb
        return FiberGradedPoly._reduced(tm, tn, torder, total_den, total)

    def evaluate(self, fiber_point: Sequence, base_point: Sequence) -> Fraction:
        """Plain polynomial evaluation at an exact rational point."""
        if len(fiber_point) != self.fiber_arity or len(base_point) != self.base_arity:
            raise ShapeError("evaluation point does not match arities")
        point = [frac(v) for v in (*fiber_point, *base_point)]
        total = 0
        for (pe, xe), val in self.nums.items():
            for v, e in zip(point, pe + xe):
                if e:
                    val *= v ** e
            total += val
        return Fraction(total) / self.den

    # -- reshaping ---------------------------------------------------------

    def at_order(self, new_order: int) -> "FiberGradedPoly":
        """Reinterpret at another truncation order, dropping terms when lowering."""
        if new_order < 0:
            raise ShapeError("truncation order must be non-negative")
        if new_order == self.order:
            return self
        if new_order > self.order:
            return FiberGradedPoly._raw(self.fiber_arity, self.base_arity, new_order,
                                        self.den, self.nums)
        out = {key: n for key, n in self.nums.items() if sum(key[0]) <= new_order}
        return FiberGradedPoly._reduced(self.fiber_arity, self.base_arity, new_order,
                                        self.den, out)

    def core_part(self) -> "FiberGradedPoly":
        """The fiber-degree-zero part, i.e. the restriction to p = 0."""
        out = {key: n for key, n in self.nums.items() if not any(key[0])}
        return FiberGradedPoly._reduced(*self.space(), self.den, out)

    def embed(self, fiber_arity: int, base_arity: int,
              fiber_offset: int = 0, base_offset: int = 0) -> "FiberGradedPoly":
        """Reindex into a larger variable space, keeping the order."""
        if fiber_offset < 0 or base_offset < 0:
            raise ShapeError("offsets must be non-negative")
        if fiber_offset + self.fiber_arity > fiber_arity:
            raise ShapeError("fiber block does not fit in the target space")
        if base_offset + self.base_arity > base_arity:
            raise ShapeError("base block does not fit in the target space")
        p_pad = (0,) * fiber_offset, (0,) * (fiber_arity - fiber_offset - self.fiber_arity)
        x_pad = (0,) * base_offset, (0,) * (base_arity - base_offset - self.base_arity)
        out = {(p_pad[0] + pe + p_pad[1], x_pad[0] + xe + x_pad[1]): n
               for (pe, xe), n in self.nums.items()}
        return FiberGradedPoly._raw(fiber_arity, base_arity, self.order, self.den, out)

    # -- ordering, equality, text -------------------------------------------

    def serialized_terms(self) -> tuple[tuple[Exponents, Exponents, int, int], ...]:
        """Canonical tuple form: (fiber exponents, base exponents, numerator,
        denominator), each coefficient reduced; no Fraction is built."""
        den = self.den
        return tuple((pe, xe, n // g, den // g)
                     for (pe, xe), n in sorted(self.nums.items(), key=lambda kv: grlex_key(kv[0]))
                     for g in (gcd(n, den),))

    def to_text(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for pe, xe, n, d in self.serialized_terms():
            body = _term_text(pe, xe, abs(n), d)
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append((" + " if n > 0 else " - ") + body)
        return "".join(parts)

    def __eq__(self, other):
        if not isinstance(other, FiberGradedPoly):
            return NotImplemented
        return (self.fiber_arity == other.fiber_arity
                and self.base_arity == other.base_arity
                and self.order == other.order
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((*self.space(), self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return (f"FiberGradedPoly({self.fiber_arity}, {self.base_arity}, "
                f"K={self.order}: {self.to_text()})")


def _sorted_rows(items: Iterable[tuple[TermKey, int]]) -> Rows:
    rows = [(sum(pe), pe, xe, n) for (pe, xe), n in items if n]
    rows.sort(key=itemgetter(0))
    return rows


def _lowest_terms(den: int, nums: dict[TermKey, int]) -> tuple[int, dict[TermKey, int]]:
    """``(den, nums)`` without zero numerators and divided by their gcd."""
    if 0 in nums.values():
        nums = {key: n for key, n in nums.items() if n}
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {key: n // g for key, n in nums.items()}
    return den, nums


def _summed(den: int, parts) -> tuple[int, dict[TermKey, int]]:
    """``den`` and the per-key sums of ``s * n`` over ``(s, items)`` parts of
    ``(key, n)`` items, in lowest terms: the merge of ``combine`` and the constructor."""
    out: dict[TermKey, int] = {}
    get = out.get
    for s, items in parts:
        for key, n in items:
            out[key] = get(key, 0) + n * s
    return _lowest_terms(den, out)


def _merge_terms(terms: list[tuple[TermKey, int, int]]) -> tuple[int, dict[TermKey, int]]:
    # single terms (key, num, den), repeated keys allowed
    den = lcm(*[d for _, _, d in terms])
    return _summed(den, [(1, [(key, n * (den // d)) for key, n, d in terms])])


def combine(polys: Sequence[FiberGradedPoly], coeffs: Sequence) -> FiberGradedPoly:
    """The linear combination ``sum(c * p)`` of polynomials of one space, with
    exact rational ``coeffs``, summed on numerators over one denominator."""
    first = polys[0]
    parts = []
    for p, c in zip(polys, coeffs):
        if p is not first:
            first._require_same_space(p)
        if c.__class__ is not int:
            c = frac(c)
        if c and p.nums:
            parts.append((p.den * c.denominator, c.numerator, p.nums.items()))
    den = lcm(*[d for d, _, _ in parts])
    return FiberGradedPoly._raw(first.fiber_arity, first.base_arity, first.order,
                                *_summed(den, [(den // d * a, items) for d, a, items in parts]))


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


def _monomial_form(cache: dict, key: tuple[tuple[int, int, int], ...], values,
                   order: int) -> tuple[int, Rows]:
    """Integer form of the product of the slot powers ``values[block][index]
    ** e`` over the ``(block, index, e)`` slots of ``key``, truncated at
    ``order``.  The parent of a key lowers its last exponent by one, or drops
    that slot at exponent 1; each product is its parent times one value, and
    every product on the way up from the nearest cached ancestor is cached.
    A lone first power is the value itself, and ``cache[()]`` the unit."""
    chain = []
    got = cache.get(key)
    while got is None:
        block, index, e = key[-1]
        if e == 1 and len(key) == 1:
            value = values[block][index]
            got = cache[key] = value.den, value._sorted_rows()
            break
        chain.append(key)
        key = key[:-1] if e == 1 else (*key[:-1], (block, index, e - 1))
        got = cache.get(key)
    for key in reversed(chain):
        block, index, _ = key[-1]
        value = values[block][index]
        den, rows = got
        prod = _mul_rows({(pe, xe): n for _, pe, xe, n in rows}, value._sorted_rows(), order)
        got = cache[key] = den * value.den, _sorted_rows(prod.items())
    return got


def substitute_many(polys: Sequence[FiberGradedPoly], fiber_values, base_values,
                    space: tuple[int, int, int]) -> list[FiberGradedPoly]:
    """Substitute the same values into several polynomials of one space,
    sharing the cache of slot products across the whole batch."""
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
    """The smallest fiber degree of a term of ``new - old``, or None when
    they are equal, read off the two forms without building the difference:
    numerators are never zero, so a term of the difference is a key where
    the cross-multiplied numerators differ."""
    new._require_same_space(old)
    old_nums, new_nums, a, b = old.nums, new.nums, new.den, old.den
    degs = [sum(key[0]) for key, n in new_nums.items() if n * b != old_nums.get(key, 0) * a]
    degs += [sum(key[0]) for key in old_nums if key not in new_nums]
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
