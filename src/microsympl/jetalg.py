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
denominator and an integer numerator per monomial, in lowest terms.  A
monomial is one int key, packed as in FLINT's ``fmpz_mpoly`` (Monagan and
Pearce, ISSAC 2009) by a :class:`KeyCodec`: the key of a product is the sum
of the keys, the truncation test is one comparison, and sorting keys sorts
by fiber degree.  Base exponents are never truncated, so every product,
power and substitution result has its guard bits checked, and an exponent
past ``MAX_KEY_EXPONENT`` raises ShapeError.  Linear combinations are summed by
one helper, ``combine``, over the lcm of the operands' denominators, with
zeros dropped once at the end.  Products, powers and substitutions multiply
numerators against key-sorted rows and stop each row scan at the first key
past the truncation order.

A substitution splits each term's key into the fields of the variables
whose value is ``None``, which move to the target as an identity monomial,
and the fields that take values, whose key names the product of the value
powers v^e.  A batch (``substitute_many``) shares one prefix cache of these
truncated products: each is built as its parent, the key with its lowest
nonzero field lowered by one, times one value, and every product on the way
is cached.  Each term then adds its scaled rows straight into one running
total, shifted by its identity monomial; the total is kept over one running
common denominator, widened by lcm only when a term's denominator does not
divide it.

``Fraction``s and exponent tuples are built only for the public constructor
and ``terms``; text is written from the keys through the codec's variable
names.  Derived caches are computed from immutable data and always to the
same value, so filling them needs no lock.

Text form (also the CLI input grammar): terms are written with ``+ - * ^``,
rational coefficients ``a/b``, and variables ``p1..pm``, ``x1..xn``, e.g.
``p1*x1 + 1/2*p1^2*x1``.  The canonical monomial order is graded
lexicographic with the fiber block before the base block; all serialization
uses it so output is stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import index, or_
from struct import Struct, error as StructError
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConvergenceError, FiltrationError, ShapeError

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]
# (packed key, numerator) rows, sorted by key and so by fiber degree
Rows = list[tuple[int, int]]

MAX_KEY_EXPONENT = (1 << 32) - 1
# bits per key field: an exponent up to MAX_KEY_EXPONENT under 8 guard bits
_FIELD = 40
_FIELD_MASK = (1 << _FIELD) - 1
_GUARD = _FIELD_MASK - MAX_KEY_EXPONENT


class KeyCodec:
    """The int keys of the monomials of one space (m, n).

    From the top field down, a key holds the fiber degree, the exponents of
    p1..pm and those of x1..xn, each in a 40-bit field whose bits above
    ``MAX_KEY_EXPONENT`` are guard bits, so that an exponent past it sets a
    guard bit instead of carrying into the next field.  As 2^40 is 1 modulo
    2^40 - 1, the sum of the exponent fields of a key is the key modulo
    2^40 - 1.  The x fields are the lowest, so a key of fiber degree 0 is the
    same int in every space of base arity n, and ``key & base_mask`` is the
    base part of any key.  ``units`` are the keys of p1..pm, x1..xn, and
    ``names`` their names in text."""

    __slots__ = ("fiber_arity", "shifts", "degree_shift", "base_mask", "guard", "units",
                 "names", "_fields", "_exponents_mask")

    def __init__(self, fiber_arity: int, base_arity: int):
        width = fiber_arity + base_arity
        self.shifts = shifts = tuple(_FIELD * (width - 1 - i) for i in range(width))
        self.fiber_arity = fiber_arity
        self.degree_shift = _FIELD * width
        self.base_mask = (1 << _FIELD * base_arity) - 1
        self.guard = sum(_GUARD << s for s in shifts)
        self.units = tuple(((i < fiber_arity) << self.degree_shift) + (1 << s)
                           for i, s in enumerate(shifts))
        self.names = (*(f"p{i + 1}" for i in range(fiber_arity)),
                      *(f"x{j + 1}" for j in range(base_arity)))
        # a 40-bit field as a zero byte and an unsigned 32-bit exponent, so
        # that packing rejects an exponent past MAX_KEY_EXPONENT
        self._fields = Struct(">" + "xI" * width)
        self._exponents_mask = (1 << self.degree_shift) - 1

    def pack(self, pe: Sequence[int], xe: Sequence[int]) -> int:
        """The key of ``p^pe x^xe``: TypeError unless the exponents are integers,
        ShapeError unless one per variable, non-negative and in the key limit."""
        pe, xe = tuple(map(index, pe)), tuple(map(index, xe))
        if len(pe) != self.fiber_arity or len(pe) + len(xe) != len(self.names):
            raise ShapeError(f"term exponents ({len(pe)}, {len(xe)}) do not match arities "
                             f"({self.fiber_arity}, {len(self.names) - self.fiber_arity})")
        if min(pe + xe, default=0) < 0:
            raise ShapeError("negative exponent")
        try:
            return sum(pe) << self.degree_shift | int.from_bytes(self._fields.pack(*pe, *xe), "big")
        except StructError:
            raise ShapeError(f"exponent {max(pe + xe)} exceeds the limit of "
                             f"{MAX_KEY_EXPONENT}") from None

    def exponents(self, key: int) -> Exponents:
        """The exponents of p1..pm, x1..xn in ``key``, in one tuple."""
        fields = self._fields
        return fields.unpack((key & self._exponents_mask).to_bytes(fields.size, "big"))

    def unpack(self, key: int) -> TermKey:
        exps = self.exponents(key)
        return exps[:self.fiber_arity], exps[self.fiber_arity:]

    def check(self, nums: dict[int, int]) -> None:
        """Raise ShapeError when a key of a nonzero numerator has an exponent
        past ``MAX_KEY_EXPONENT``; one OR over the keys on the passing path."""
        if reduce(or_, nums, 0) & self.guard:
            for key, n in nums.items():
                if n and key & self.guard:
                    e = max(key >> s & _FIELD_MASK for s in self.shifts)
                    raise ShapeError(f"exponent {e} exceeds the limit of {MAX_KEY_EXPONENT}")


key_codec = cache(KeyCodec)


def check_space(fiber_arity: int, base_arity: int, order: int) -> tuple[int, int, int]:
    """The arities and the order as ints; TypeError unless integers, ShapeError if negative."""
    fiber_arity, base_arity, order = index(fiber_arity), index(base_arity), index(order)
    if fiber_arity < 0 or base_arity < 0:
        raise ShapeError("arities must be non-negative")
    if order < 0:
        raise ShapeError("truncation order must be non-negative")
    return fiber_arity, base_arity, order


def frac(value) -> Fraction:
    """The exact rational ``value`` as a Fraction; floats and others raise TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _term_text(codec: KeyCodec, key: int, num: int, den: int) -> str:
    """The text of the monomial ``key`` times num/den, reduced; a coefficient 1 is left out."""
    g = gcd(num, den)
    num, den = num // g, den // g
    coeff = str(num) if den == 1 else f"{num}/{den}"
    if not key:
        return coeff
    body = "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in zip(codec.names, codec.exponents(key)) if e])
    return body if num == den == 1 else f"{coeff}*{body}"


class FiberGradedPoly:
    """Polynomial in fiber variables p and base variables x, truncated in p.

    The stored form is ``(den, nums)``: a denominator ``den > 0`` and an
    integer numerator per monomial key of ``codec``, the space's
    :class:`KeyCodec`, in lowest terms (no zero numerator, ``gcd(den, *nums)
    == 1``), so equal polynomials have equal forms.  Every monomial has fiber
    degree at most ``order`` and exponents at most ``MAX_KEY_EXPONENT``.  The
    zero polynomial is ``(1, {})`` and still carries its arities and order,
    so shape mismatches stay detectable on zeros.  Two caches are derived on
    first use: ``_rows``, the key-sorted rows that products read, and
    ``_terms``, the public ``terms`` map from exponent tuples to reduced
    nonzero Fractions.
    """

    __slots__ = ("fiber_arity", "base_arity", "order", "codec", "den", "nums", "_rows",
                 "_terms")

    def __init__(self, fiber_arity: int, base_arity: int, order: int,
                 terms: Mapping[TermKey, Fraction] | Iterable[tuple[TermKey, Fraction]] = ()):
        fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
        parts = []
        codec = key_codec(fiber_arity, base_arity)
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (pe, xe), coeff in items:
            key, c = codec.pack(pe, xe), frac(coeff)
            parts.append((key, c.numerator, c.denominator))
        self.fiber_arity, self.base_arity, self.order = fiber_arity, base_arity, order
        self.codec = codec
        self.den, self.nums = _merge_terms(parts, codec, order)
        self._rows = self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, fiber_arity: int, base_arity: int, order: int, den: int,
             nums: dict[int, int]) -> "FiberGradedPoly":
        # trusted fast path: caller guarantees a form in lowest terms
        obj = object.__new__(cls)
        obj.fiber_arity, obj.base_arity, obj.order = fiber_arity, base_arity, order
        obj.codec = key_codec(fiber_arity, base_arity)
        obj.den, obj.nums = den, nums
        obj._rows = obj._terms = None
        return obj

    @classmethod
    def _reduced(cls, fiber_arity: int, base_arity: int, order: int, den: int,
                 nums: dict[int, int]) -> "FiberGradedPoly":
        # trusted keys over any den > 0; zeros are dropped and the form reduced
        return cls._raw(fiber_arity, base_arity, order, *_lowest_terms(den, nums))

    @classmethod
    def _packed(cls, fiber_arity: int, base_arity: int, order: int,
                terms: list[tuple[int, int, int]]) -> "FiberGradedPoly":
        # (key, num, den) terms with den > 0, checked as by the constructor
        return cls._raw(fiber_arity, base_arity, order,
                        *_merge_terms(terms, key_codec(fiber_arity, base_arity), order))

    @classmethod
    def zero(cls, fiber_arity: int, base_arity: int, order: int) -> "FiberGradedPoly":
        fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
        return cls._raw(fiber_arity, base_arity, order, 1, {})

    @classmethod
    def constant(cls, fiber_arity: int, base_arity: int, order: int, value) -> "FiberGradedPoly":
        c = frac(value)
        fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
        # the key of the unit monomial is 0 in every space
        return cls._raw(fiber_arity, base_arity, order, c.denominator, {0: c.numerator} if c else {})

    @classmethod
    def fiber_var(cls, fiber_arity: int, base_arity: int, order: int, index: int) -> "FiberGradedPoly":
        if not 0 <= index < fiber_arity:
            raise ShapeError(f"fiber index {index} out of range for arity {fiber_arity}")
        if order < 1:
            raise ShapeError("a fiber variable needs order >= 1")
        fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
        return cls._raw(fiber_arity, base_arity, order, 1,
                        {key_codec(fiber_arity, base_arity).units[index]: 1})

    @classmethod
    def base_var(cls, fiber_arity: int, base_arity: int, order: int, index: int) -> "FiberGradedPoly":
        if not 0 <= index < base_arity:
            raise ShapeError(f"base index {index} out of range for arity {base_arity}")
        fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
        return cls._raw(fiber_arity, base_arity, order, 1,
                        {key_codec(fiber_arity, base_arity).units[fiber_arity + index]: 1})

    @classmethod
    def monomial(cls, fiber_arity: int, base_arity: int, order: int, coeff,
                 fiber_exps: Sequence[int], base_exps: Sequence[int]) -> "FiberGradedPoly":
        return cls(fiber_arity, base_arity, order,
                   {(tuple(fiber_exps), tuple(base_exps)): coeff})

    # -- derived views -----------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, Fraction]:
        """The coefficients as reduced nonzero Fractions, built on first use."""
        terms = self._terms
        if terms is None:
            den, unpack = self.den, self.codec.unpack
            terms = self._terms = {unpack(key): Fraction(n, den) for key, n in self.nums.items()}
        return terms

    def _sorted_rows(self) -> Rows:
        """Rows ``(key, numerator)`` sorted by key, and so by fiber degree."""
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

    def coefficient(self, fiber_exps: Sequence[int], base_exps: Sequence[int]) -> Fraction:
        """The coefficient of ``p^fiber_exps x^base_exps``, checked as by the constructor."""
        n = self.nums.get(self.codec.pack(fiber_exps, base_exps))
        return Fraction(n, self.den) if n else Fraction(0)

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
        out = _mul_rows(a.nums.items(), b._sorted_rows(), self.codec, self.order)
        return FiberGradedPoly._reduced(*self.space(), a.den * b.den, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ShapeError("exponent must be a non-negative integer")
        if exponent > MAX_KEY_EXPONENT:
            raise ShapeError(f"exponent {exponent} exceeds the limit of {MAX_KEY_EXPONENT}")
        if not exponent:
            return FiberGradedPoly.constant(self.fiber_arity, self.base_arity, self.order, 1)
        den, rows = _monomial_form({}, exponent, (self,), self.codec, self.order)
        return FiberGradedPoly._reduced(*self.space(), den, dict(rows))

    # -- calculus ----------------------------------------------------------

    def partial_fiber(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the fiber variable p(index+1).

        The result keeps the stored order; a derivative of an order-K jet is
        faithful only through fiber degree K-1, which callers must account
        for (composition differentiates its operands before it cuts them).
        """
        if not 0 <= index < self.fiber_arity:
            raise ShapeError(f"fiber index {index} out of range for arity {self.fiber_arity}")
        return self._lowered(index, self.order)

    def _lowered(self, field: int, order: int) -> "FiberGradedPoly":
        # the derivative in the variable of key field ``field`` (p1..pm, x1..xn), cut at ``order``
        shift, unit = self.codec.shifts[field], self.codec.units[field]
        limit = ((order + 1) << self.codec.degree_shift) + unit
        out = {key - unit: n * e for key, n in self.nums.items()
               if key < limit and (e := key >> shift & MAX_KEY_EXPONENT)}
        return FiberGradedPoly._reduced(self.fiber_arity, self.base_arity, order, self.den, out)

    def partial_base(self, index: int) -> "FiberGradedPoly":
        """Formal derivative in the base variable x(index+1); exact at all orders."""
        if not 0 <= index < self.base_arity:
            raise ShapeError(f"base index {index} out of range for arity {self.base_arity}")
        return self._lowered(self.fiber_arity + index, self.order)

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
            elif v.nums and min(v.nums) >> v.codec.degree_shift == 0:
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
        plan = cache.get(None)
        if plan is None:
            # once per batch: the target codec and order, the values by source
            # key field from the lowest up, and the field masks and moves
            tm, tn, order = target
            flat = (*fiber_values, *base_values)
            codec = key_codec(tm, tn)
            plan = cache[None] = (codec, order, (order + 1) << codec.degree_shift, flat[::-1],
                                  *_field_moves(self.fiber_arity, tm, tn,
                                                tuple([v is None for v in flat])))
            cache[0] = 1, [(0, 1)]
        codec, order, limit, values, slot_mask, fiber_mask, rp, lp, base_mask, rx, lx = plan
        ts = codec.degree_shift
        den = self.den
        total: dict[int, int] = {}
        total_get = total.get
        total_den = 1
        for k, num in self.nums.items():
            # the term is (identity monomial) * (product of slot powers); the
            # fields of the first move to the target, and their sum is its
            # fiber degree
            mono_p = k & fiber_mask
            degree = mono_p % _FIELD_MASK
            if degree > order:
                continue
            mono = degree << ts | mono_p >> rp << lp | (k & base_mask) >> rx << lx
            key = k & slot_mask
            f_den, rows = cache.get(key) or _monomial_form(cache, key, values, codec, order)
            cut = limit - mono
            if not rows or rows[0][0] >= cut:
                continue
            piece_den = den * f_den
            if total_den % piece_den:
                # widen the running denominator to the lcm
                widen = lcm(total_den, piece_den) // total_den
                for key in total:
                    total[key] *= widen
                total_den *= widen
            c = num * (total_den // piece_den)
            for kb, cb in rows:
                if kb >= cut:
                    break
                key = mono + kb
                total[key] = total_get(key, 0) + c * cb
        codec.check(total)
        return FiberGradedPoly._reduced(*target, total_den, total)

    def evaluate(self, fiber_point: Sequence, base_point: Sequence) -> Fraction:
        """Plain polynomial evaluation at an exact rational point."""
        if len(fiber_point) != self.fiber_arity or len(base_point) != self.base_arity:
            raise ShapeError("evaluation point does not match arities")
        point = [frac(v) for v in (*fiber_point, *base_point)]
        total = 0
        for key, val in self.nums.items():
            for v, e in zip(point, self.codec.exponents(key)):
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
        limit = (new_order + 1) << self.codec.degree_shift
        out = {key: n for key, n in self.nums.items() if key < limit}
        return FiberGradedPoly._reduced(self.fiber_arity, self.base_arity, new_order,
                                        self.den, out)

    def core_part(self) -> "FiberGradedPoly":
        """The fiber-degree-zero part, i.e. the restriction to p = 0."""
        mask = self.codec.base_mask
        out = {key: n for key, n in self.nums.items() if key <= mask}
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
        # the degree field and the p and x blocks each move up by whole fields;
        # the exponents do not change, so no guard bit can be set
        codec, target = self.codec, key_codec(fiber_arity, base_arity)
        ds, td, x_mask = codec.degree_shift, target.degree_shift, codec.base_mask
        p_mask = (1 << ds) - 1 - x_mask
        dp = _FIELD * (fiber_arity - fiber_offset - self.fiber_arity + base_arity - self.base_arity)
        dx = _FIELD * (base_arity - base_offset - self.base_arity)
        out = {(key >> ds) << td | (key & p_mask) << dp | (key & x_mask) << dx: n
               for key, n in self.nums.items()}
        return FiberGradedPoly._raw(fiber_arity, base_arity, self.order, self.den, out)

    # -- ordering, equality, text -------------------------------------------

    def _canonical_keys(self) -> list[int]:
        """The keys in the canonical term order: by ascending total degree, then by
        descending exponent fields read as one int (a higher power of an earlier
        variable first); one int sort key, the degree over the fields' complement."""
        codec = self.codec
        ds, bm, em = codec.degree_shift, codec.base_mask, codec._exponents_mask
        return sorted(self.nums,
                      key=lambda key: ((key >> ds) + (key & bm) % _FIELD_MASK) << ds | ~key & em)

    def to_text(self) -> str:
        nums, den, c = self.nums, self.den, self.codec
        text = "".join([(" - " if (n := nums[key]) < 0 else " + ") + _term_text(c, key, abs(n), den)
                        for key in self._canonical_keys()])
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

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


def _sorted_rows(items: Iterable[tuple[int, int]]) -> Rows:
    rows = [item for item in items if item[1]]
    rows.sort()
    return rows


def _lowest_terms(den: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """``(den, nums)`` without zero numerators and divided by their gcd."""
    if 0 in nums.values():
        nums = {key: n for key, n in nums.items() if n}
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        den //= g
        nums = {key: n // g for key, n in nums.items()}
    return den, nums


def _merge_terms(terms: list[tuple[int, int, int]], codec: KeyCodec,
                 order: int) -> tuple[int, dict[int, int]]:
    # single terms (key, num, den), repeated keys allowed; degrees and guard bits checked
    limit = (order + 1) << codec.degree_shift
    den = lcm(*[d for _, _, d in terms])
    nums: dict[int, int] = {}
    get = nums.get
    for key, n, d in terms:
        if key >= limit:
            raise ShapeError(f"fiber degree {key >> codec.degree_shift} exceeds order {order}")
        nums[key] = get(key, 0) + n * (den // d)
    den, nums = _lowest_terms(den, nums)
    codec.check(nums)
    return den, nums


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
    out: dict[int, int] = {}
    get = out.get
    for d, a, items in parts:
        s = den // d * a
        for key, n in items:
            out[key] = get(key, 0) + n * s
    return FiberGradedPoly._raw(first.fiber_arity, first.base_arity, first.order,
                                *_lowest_terms(den, out))


def _mul_rows(left: Iterable[tuple[int, int]], rows: Rows, codec: KeyCodec,
              order: int) -> dict[int, int]:
    """Truncated product of integer numerators: ``(key, numerator)`` items
    ``left`` times key-sorted ``rows``, with guard bits checked.  The result
    is over the product of the two denominators and may hold zero numerators."""
    limit = (order + 1) << codec.degree_shift
    out: dict[int, int] = {}
    out_get = out.get
    for ka, ca in left:
        cut = limit - ka
        for kb, cb in rows:
            if kb >= cut:
                break
            key = ka + kb
            out[key] = out_get(key, 0) + ca * cb
    codec.check(out)
    return out


@cache
def _field_moves(m: int, tm: int, tn: int, kept: tuple[bool, ...]):
    """From (m, n) into (tm, tn), ``kept`` telling the variables p1..pm,
    x1..xn whose value is None: the mask of the key fields that take values,
    and for the kept fiber and base fields their mask and the right and left
    shifts that move them to the target."""
    masks = [_FIELD_MASK << _FIELD * (len(kept) - 1 - i) for i in range(len(kept))]
    dp, dx = _FIELD * (tm + tn - len(kept)), _FIELD * (tn - len(kept) + m)
    return (sum(f for f, k in zip(masks, kept) if not k),
            sum(f for f, k in zip(masks[:m], kept) if k), max(-dp, 0), max(dp, 0),
            sum(f for f, k in zip(masks[m:], kept[m:]) if k), max(-dx, 0), max(dx, 0))


def _monomial_form(cache: dict, key: int, values, codec: KeyCodec,
                   order: int) -> tuple[int, Rows]:
    """Integer form of the product of the powers ``values[f] ** e`` over the
    fields f (counted from the lowest) and exponents e of the source key
    ``key``, truncated at ``order``.  The parent of a key lowers its lowest
    nonzero field by one; each product is its parent times one value, and
    every product on the way up from the nearest cached ancestor is cached.
    A lone first power is the value itself, and ``cache[0]`` the unit."""
    chain = []
    got = cache.get(key)
    while got is None:
        field = ((key & -key).bit_length() - 1) // _FIELD
        unit = 1 << _FIELD * field
        if key == unit:
            value = values[field]
            got = cache[key] = value.den, value._sorted_rows()
            break
        chain.append((key, field))
        key -= unit
        got = cache.get(key)
    for key, field in reversed(chain):
        value = values[field]
        den, rows = got
        prod = _mul_rows(rows, value._sorted_rows(), codec, order)
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
    keys = [key for key, n in new_nums.items() if n * b != old_nums.get(key, 0) * a]
    keys += [key for key in old_nums if key not in new_nums]
    return min(keys) >> new.codec.degree_shift if keys else None


def solve_triangular_fixed_point(
        initial: Sequence[FiberGradedPoly],
        update: Callable[[Sequence[FiberGradedPoly]], Sequence[FiberGradedPoly]],
) -> tuple[FiberGradedPoly, ...]:
    """Unique fixed point of a filtration-contracting update, modulo order K+1.

    The update must change any candidate only in fiber degrees strictly above
    the degrees it already fixed, so the minimum fiber degree of successive
    corrections strictly increases.  That degree is at most K, so at most
    K+1 updates run: the last one either changes degree K, after which the
    next could change only truncated degrees, or changes nothing.  An update
    that revisits a stabilized degree below K raises
    :class:`ConvergenceError`; one that is non-contracting only at degree K
    is not detected.
    """
    state = tuple(initial)
    if not state:
        return state
    last_min = -1
    while True:
        new = tuple(update(state))
        if len(new) != len(state):
            raise ShapeError("update changed the number of components")
        m = min((d for d in map(_lowest_change, new, state) if d is not None),
                default=None)
        if m is None:
            return state
        if m == state[0].order:
            return new
        if m <= last_min:
            raise ConvergenceError(
                f"update changed fiber degree {m} after degrees <= {last_min} stabilized")
        last_min = m
        state = new
