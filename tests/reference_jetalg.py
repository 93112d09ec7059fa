"""Reference oracle: the plain Fraction kernels of ``FiberGradedPoly``.

Frozen copies, written as functions over ``FiberGradedPoly`` values, of
``microsympl.jetalg`` as it was before the integer-numerator kernels:
``__mul__``, ``__pow__``, ``substitute`` and ``substitute_many`` from before
products ran on integers; ``__add__``, ``__sub__``, ``__neg__``, ``scale``,
``partial_fiber``, ``partial_base``, ``at_order``, ``core_part``, ``embed``
and ``_lowest_change`` from before the stored form became integer numerators
over one denominator; the residual test of ``solve_triangular_fixed_point``
as it was before it compared term maps, ``lowest_change``;
``solve_triangular_fixed_point`` as it was before it stopped at an update
whose lowest change is the stored order, which runs up to K+2 updates, the
last of which changes nothing; and ``zero``, ``constant``, ``fiber_var`` and
``base_var`` as they were before they skipped the public constructor.  Every
coefficient operation is a ``Fraction`` operation and every merge drops zeros
as it goes; results are built by the public constructor from the term map.
Tests require the library to agree with these functions exactly; do not
optimise this file.
"""

from fractions import Fraction
from operator import add as add_exponents

from microsympl.errors import ConvergenceError, ShapeError
from microsympl.jetalg import FiberGradedPoly, frac


def mul(a, b):
    """Truncated product; ``b`` may also be an int or Fraction scalar."""
    if isinstance(b, (int, Fraction)):
        c = Fraction(b)
        terms = {key: c * v for key, v in a.terms.items()} if c else {}
        return FiberGradedPoly(a.fiber_arity, a.base_arity, a.order, terms)
    a._require_same_space(b)
    order = a.order
    out = {}
    # sort the shorter operand by fiber degree so truncation prunes early
    a, b = (a, b) if len(a.terms) >= len(b.terms) else (b, a)
    b_items = sorted(((sum(pe), pe, xe, c) for (pe, xe), c in b.terms.items()),
                     key=lambda t: t[0])
    for (pa, xa), ca in a.terms.items():
        da = sum(pa)
        for db, pb, xb, cb in b_items:
            if da + db > order:
                break
            key = (tuple(map(add_exponents, pa, pb)), tuple(map(add_exponents, xa, xb)))
            c = ca * cb
            prev = out.get(key)
            total = c if prev is None else prev + c
            if total:
                out[key] = total
            elif prev is not None:
                del out[key]
    return FiberGradedPoly(a.fiber_arity, a.base_arity, order, out)


def power(a, exponent):
    """Binary exponentiation through ``mul``."""
    result = FiberGradedPoly.constant(a.fiber_arity, a.base_arity, a.order, 1)
    base = a
    e = exponent
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _substitute_cached(poly, fiber_values, base_values, target, pow_cache):
    tm, tn, torder = target
    total = {}

    def cached_power(block, idx, value, e):
        key = (block, idx, e)
        got = pow_cache.get(key)
        if got is None:
            got = power(value, e) if e != 1 else value
            pow_cache[key] = got
        return got

    for (pe, xe), c in poly.terms.items():
        mono_pe = [0] * tm
        mono_xe = [0] * tn
        factors = []
        for i, e in enumerate(pe):
            if not e:
                continue
            v = fiber_values[i]
            if v is None:
                mono_pe[i] += e
            else:
                factors.append(cached_power(0, i, v, e))
        for j, e in enumerate(xe):
            if not e:
                continue
            v = base_values[j]
            if v is None:
                mono_xe[j] += e
            else:
                factors.append(cached_power(1, j, v, e))
        if sum(mono_pe) > torder:
            continue
        piece = FiberGradedPoly(tm, tn, torder, {(tuple(mono_pe), tuple(mono_xe)): c})
        factors.sort(key=lambda f: len(f.terms))
        for f in factors:
            piece = mul(piece, f)
            if piece.is_zero():
                break
        for key, v in piece.terms.items():
            prev = total.get(key)
            t = v if prev is None else prev + v
            if t:
                total[key] = t
            elif prev is not None:
                del total[key]
    return FiberGradedPoly(tm, tn, torder, total)


def substitute(poly, fiber_values, base_values, space=None):
    target = poly._validate_substitution(fiber_values, base_values, space)
    return _substitute_cached(poly, fiber_values, base_values, target, {})


def substitute_many(polys, fiber_values, base_values, space):
    """``substitute`` over a batch that shares one cache of value powers."""
    if not polys:
        return []
    first = polys[0]
    for p in polys[1:]:
        first._require_same_space(p)
    target = first._validate_substitution(fiber_values, base_values, space)
    cache = {}
    return [_substitute_cached(p, fiber_values, base_values, target, cache)
            for p in polys]


def lowest_change(new, old):
    """The lowest fiber degree of ``new - old``, or None when they are equal;
    a ShapeError when their spaces differ."""
    terms = sub(new, old).terms
    return min((sum(pe) for pe, _ in terms), default=None)


def solve_triangular_fixed_point(initial, update):
    """Fixed point of a filtration-contracting update, modulo order K+1: the
    update is applied until it changes nothing, and a change at a degree
    that an earlier update already stabilized raises ConvergenceError."""
    state = tuple(initial)
    if not state:
        return state
    last_min = -1
    while True:
        new = tuple(update(state))
        if len(new) != len(state):
            raise ShapeError("update changed the number of components")
        m = min((d for d in map(lowest_change, new, state) if d is not None),
                default=None)
        if m is None:
            return state
        if m <= last_min:
            raise ConvergenceError(
                f"update changed fiber degree {m} after degrees <= {last_min} stabilized")
        last_min = m
        state = new


def _poly(like, terms, fiber_arity=None, base_arity=None, order=None):
    """The polynomial with the term map ``terms``, checked to keep it exactly,
    so that a fault of the constructor cannot hide in both sides of a test."""
    out = FiberGradedPoly(like.fiber_arity if fiber_arity is None else fiber_arity,
                          like.base_arity if base_arity is None else base_arity,
                          like.order if order is None else order, terms)
    assert out.terms == {key: c for key, c in terms.items() if c}
    return out


def add(a, b):
    a._require_same_space(b)
    out = dict(a.terms)
    for key, c in b.terms.items():
        prev = out.get(key)
        total = c if prev is None else prev + c
        if total:
            out[key] = total
        elif prev is not None:
            del out[key]
    return _poly(a, out)


def neg(a):
    return _poly(a, {key: -c for key, c in a.terms.items()})


def sub(a, b):
    return add(a, neg(b))


def scale(a, value):
    c = Fraction(value)
    if not c:
        return _poly(a, {})
    return _poly(a, {key: c * v for key, v in a.terms.items()})


def partial_fiber(a, index):
    if not 0 <= index < a.fiber_arity:
        raise ShapeError(f"fiber index {index} out of range for arity {a.fiber_arity}")
    out = {}
    for (pe, xe), c in a.terms.items():
        e = pe[index]
        if e:
            out[(pe[:index] + (e - 1,) + pe[index + 1:], xe)] = c * e
    return _poly(a, out)


def partial_base(a, index):
    if not 0 <= index < a.base_arity:
        raise ShapeError(f"base index {index} out of range for arity {a.base_arity}")
    out = {}
    for (pe, xe), c in a.terms.items():
        e = xe[index]
        if e:
            out[(pe, xe[:index] + (e - 1,) + xe[index + 1:])] = c * e
    return _poly(a, out)


def at_order(a, new_order):
    if new_order < 0:
        raise ShapeError("truncation order must be non-negative")
    if new_order >= a.order:
        return _poly(a, dict(a.terms), order=new_order)
    out = {key: c for key, c in a.terms.items() if sum(key[0]) <= new_order}
    return _poly(a, out, order=new_order)


def core_part(a):
    return _poly(a, {key: c for key, c in a.terms.items() if sum(key[0]) == 0})


def embed(a, fiber_arity, base_arity, fiber_offset=0, base_offset=0):
    if fiber_offset < 0 or base_offset < 0:
        raise ShapeError("offsets must be non-negative")
    if fiber_offset + a.fiber_arity > fiber_arity:
        raise ShapeError("fiber block does not fit in the target space")
    if base_offset + a.base_arity > base_arity:
        raise ShapeError("base block does not fit in the target space")
    out = {}
    for (pe, xe), c in a.terms.items():
        new_pe = (0,) * fiber_offset + pe + (0,) * (fiber_arity - fiber_offset - a.fiber_arity)
        new_xe = (0,) * base_offset + xe + (0,) * (base_arity - base_offset - a.base_arity)
        out[(new_pe, new_xe)] = c
    return _poly(a, out, fiber_arity, base_arity)


def zero(fiber_arity, base_arity, order):
    return FiberGradedPoly(fiber_arity, base_arity, order)


def constant(fiber_arity, base_arity, order, value):
    key = ((0,) * fiber_arity, (0,) * base_arity)
    return FiberGradedPoly(fiber_arity, base_arity, order, {key: frac(value)})


def fiber_var(fiber_arity, base_arity, order, index):
    if not 0 <= index < fiber_arity:
        raise ShapeError(f"fiber index {index} out of range for arity {fiber_arity}")
    if order < 1:
        raise ShapeError("a fiber variable needs order >= 1")
    pe = tuple(1 if i == index else 0 for i in range(fiber_arity))
    return FiberGradedPoly(fiber_arity, base_arity, order, {(pe, (0,) * base_arity): Fraction(1)})


def base_var(fiber_arity, base_arity, order, index):
    if not 0 <= index < base_arity:
        raise ShapeError(f"base index {index} out of range for arity {base_arity}")
    xe = tuple(1 if j == index else 0 for j in range(base_arity))
    return FiberGradedPoly(fiber_arity, base_arity, order, {((0,) * fiber_arity, xe): Fraction(1)})
