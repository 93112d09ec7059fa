"""Reference oracle: the polynomial samplers that drew term by term.

Frozen copies of ``microsympl.sampling.rand_core_map`` and
``microsympl.operad.random_L_element`` as they were before they drew through
``rand_poly``, ``rand_exponents`` and ``rand_fraction``: every exponent and
coefficient drawn inline, and each noise term of an L element added to the
diagonal lift as a monomial of its own.  ``rand_affine_core_micromorphism``
is the sampler of that name as it was while it took an ``extra_terms``
option; the library always draws 2, and the germ oracle tests draw 1 through
this copy, so that their ``Fraction`` references stay fast.  Both copies keep
that option, which the library's samplers no longer take.  The copy of
``rand_affine_core_micromorphism`` draws its matrix through the frozen
``rand_invertible_int_matrix`` of ``reference_linsympl``.

``rand_fraction``, ``_rand_ratio``, ``rand_exponents``, ``rand_poly`` and
``rand_violating_gen`` are the library's samplers as they were before the
polynomial samplers drew packed keys: ``randint`` draws, an exponent tuple
per block, a ``Fraction`` per coefficient and the public constructor; the
violating term is added to the drawn polynomial as a monomial of its own.
The other copies here draw through these.  Every seeded corpus follows their
draw order, so tests require the library to draw the same values and leave
the generator in the same state; do not optimise this file.
"""

from fractions import Fraction

from microsympl.jetalg import FiberGradedPoly
from microsympl.micro import CoreMap, Micromorphism, MicroObject, unit_exp
from microsympl.operad import OperadElement, diagonal_lift
from reference_linsympl import rand_invertible_int_matrix


def rand_fraction(rng, max_num=9, max_den=9, nonzero=False):
    return Fraction(*_rand_ratio(rng, max_num, max_den, nonzero))


def _rand_ratio(rng, max_num, max_den, nonzero=False):
    num = rng.randint(-max_num, max_num)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, max_num)
    return num, rng.randint(1, max_den)


def rand_exponents(rng, arity, total):
    out = [0] * arity
    for _ in range(total):
        out[rng.randrange(arity)] += 1
    return tuple(out)


def rand_poly(rng, fiber_arity, base_arity, order, terms=3, min_fiber_deg=0, max_base_deg=2):
    collected = []
    for _ in range(terms):
        lo = min(min_fiber_deg, order) if fiber_arity else 0
        pdeg = rng.randint(lo, order) if fiber_arity else 0
        if pdeg < min_fiber_deg:
            continue
        pe = rand_exponents(rng, fiber_arity, pdeg)
        xe = rand_exponents(rng, base_arity, rng.randint(0, max_base_deg)) \
            if base_arity else ()
        coeff = rand_fraction(rng, nonzero=True)
        collected.append(((pe, xe), coeff))
    return FiberGradedPoly(fiber_arity, base_arity, order, collected)


def rand_violating_gen(rng, source_dim, target_dim, order):
    gen = rand_poly(rng, source_dim, target_dim, order, terms=2, min_fiber_deg=1)
    xe = rand_exponents(rng, target_dim, rng.randint(0, 2)) if target_dim else ()
    bad = FiberGradedPoly.monomial(source_dim, target_dim, order,
                                   rand_fraction(rng, nonzero=True),
                                   (0,) * source_dim, xe)
    return gen + bad


def rand_core_map(rng, domain_dim, codomain_dim, max_deg=2, terms=2):
    comps = []
    for _ in range(codomain_dim):
        collected = []
        for _ in range(terms):
            xe = rand_exponents(rng, domain_dim, rng.randint(0, max_deg)) \
                if domain_dim else ()
            coeff = rand_fraction(rng, nonzero=True)
            collected.append((((), xe), coeff))
        comps.append(FiberGradedPoly(0, domain_dim, 0, collected))
    return CoreMap(domain_dim, tuple(comps))


def random_L_element(rng, obj, arity, order, extra_terms=2):
    base_elem = diagonal_lift(obj, arity, order)
    n = obj.core_dim
    m = arity * n
    if arity == 0 or order < 2 or m == 0:
        return base_elem
    gen = base_elem.morphism.gen
    for _ in range(extra_terms):
        deg = rng.randint(2, order)
        pe = [0] * m
        for _ in range(deg):
            pe[rng.randrange(m)] += 1
        xe = [0] * n
        for _ in range(rng.randint(0, 2)):
            xe[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        gen = gen + FiberGradedPoly.monomial(m, n, order, coeff, pe, xe)
    return OperadElement(obj, arity, Micromorphism(base_elem.morphism.source, obj, gen))


def rand_affine_core_micromorphism(rng, dim, order, extra_terms=2):
    a_rows = rand_invertible_int_matrix(rng, dim)
    collected = []
    for i in range(dim):
        const = Fraction(rng.randint(-2, 2))
        if const:
            collected.append(((unit_exp(dim, i), (0,) * dim), const))
        for j in range(dim):
            if a_rows[i][j]:
                collected.append(((unit_exp(dim, i), unit_exp(dim, j)), a_rows[i][j]))
    if order >= 2:
        for _ in range(extra_terms):
            pdeg = rng.randint(2, order)
            pe = rand_exponents(rng, dim, pdeg)
            xe = rand_exponents(rng, dim, rng.randint(0, 2))
            collected.append(((pe, xe), rand_fraction(rng, nonzero=True)))
    gen = FiberGradedPoly(dim, dim, order, collected)
    return Micromorphism(MicroObject(dim), MicroObject(dim), gen)
