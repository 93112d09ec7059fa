"""Reference oracle: the plain Fraction product, power and substitution.

A frozen copy of ``microsympl.jetalg``'s ``FiberGradedPoly.__mul__``,
``__pow__``, ``substitute`` and ``substitute_many`` as they were before the
integer-numerator kernel, written as functions over ``FiberGradedPoly``
values; and of the residual test of ``solve_triangular_fixed_point`` as it
was before it compared term maps, ``lowest_change``.  Every coefficient operation is a ``Fraction`` operation and every
merge drops zeros as it goes.  Tests require the library to agree with these
functions exactly; do not optimise this file.
"""

from fractions import Fraction
from operator import add

from microsympl.jetalg import FiberGradedPoly


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
            key = (tuple(map(add, pa, pb)), tuple(map(add, xa, xb)))
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
    return (new - old).min_fiber_degree()
