"""Seeded random generators for morphisms, core maps, and linear data.

Everything takes an explicit ``random.Random`` so property suites and the
CLI self-check are reproducible; no generator touches global entropy.
Polynomial terms are drawn as packed keys, one unit key per exponent, over
integer numerators and denominators: no exponent tuple or Fraction is built.
Symplectic matrices and lagrangian relations are drawn as block moves on the
integer x rows and p rows of a matrix over one denominator, and made Fractions
once, at the end.  The draw order must not change, since every seeded corpus,
golden file and benchmark digest follows the RNG sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .jetalg import FiberGradedPoly, check_space, key_codec
from .linsympl import LinCanonicalRelation, Matrix, Splitting, _eliminate, _product
from .micro import CoreMap, Micromorphism, MicroObject


def rng_for(seed, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def rand_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9,
                  nonzero: bool = False) -> Fraction:
    return Fraction(*_rand_ratio(rng, max_num, max_den, nonzero))


def _rand_ratio(rng: random.Random, max_num: int, max_den: int,
                nonzero: bool = False) -> tuple[int, int]:
    """The numerator and denominator that ``rand_fraction`` draws, unreduced."""
    num = rng.randrange(-max_num, max_num + 1)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randrange(1, max_num + 1)
    return num, rng.randrange(1, max_den + 1)


def _rand_term(rng: random.Random, fiber_arity: int, base_arity: int, fiber_deg: int,
               max_base_deg: int, nonzero: bool) -> tuple[int, int, int]:
    """A term ``(key, num, den)``: ``fiber_deg`` fiber variables, then, when there
    is a base variable, ``randrange(0, max_base_deg + 1)`` base variables, each
    drawn uniformly and added to the key as its unit key; then the coefficient
    as ``rand_fraction`` draws it."""
    units, key = key_codec(fiber_arity, base_arity).units, 0
    for _ in range(fiber_deg):
        key += units[rng.randrange(fiber_arity)]
    if base_arity:
        for _ in range(rng.randrange(0, max_base_deg + 1)):
            key += units[fiber_arity + rng.randrange(base_arity)]
    return (key, *_rand_ratio(rng, 9, 9, nonzero))


def rand_poly(rng: random.Random, fiber_arity: int, base_arity: int, order: int,
              terms: int = 3, min_fiber_deg: int = 0,
              max_base_deg: int = 2) -> FiberGradedPoly:
    fiber_arity, base_arity, order = check_space(fiber_arity, base_arity, order)
    lo = min(min_fiber_deg, order) if fiber_arity else 0
    drawn = []
    for _ in range(terms):
        pdeg = rng.randrange(lo, order + 1) if fiber_arity else 0
        if pdeg >= min_fiber_deg:
            drawn.append(_rand_term(rng, fiber_arity, base_arity, pdeg, max_base_deg, True))
    return FiberGradedPoly._packed(fiber_arity, base_arity, order, drawn)


def rand_micromorphism(rng: random.Random, source_dim: int, target_dim: int,
                       order: int, terms: int = 3,
                       max_base_deg: int = 2) -> Micromorphism:
    """Random valid micromorphism: every monomial has fiber degree >= 1."""
    gen = rand_poly(rng, source_dim, target_dim, order, terms=terms,
                    min_fiber_deg=1, max_base_deg=max_base_deg)
    return Micromorphism(MicroObject(source_dim), MicroObject(target_dim), gen)


def rand_violating_gen(rng: random.Random, source_dim: int, target_dim: int,
                       order: int) -> FiberGradedPoly:
    """A generating function that breaks the normal form S(0, x) = 0."""
    gen = rand_poly(rng, source_dim, target_dim, order, terms=2, min_fiber_deg=1)
    bad = _rand_term(rng, gen.fiber_arity, gen.base_arity, 0, 2, True)
    return gen + FiberGradedPoly._packed(*gen.space(), [bad])


def rand_core_map(rng: random.Random, domain_dim: int, codomain_dim: int,
                  max_deg: int = 2, terms: int = 2) -> CoreMap:
    return CoreMap(domain_dim, tuple(rand_poly(rng, 0, domain_dim, 0, terms, max_base_deg=max_deg)
                                     for _ in range(codomain_dim)))


def rand_point(rng: random.Random, dim: int, max_num: int = 3,
               max_den: int = 3) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, max_num, max_den) for _ in range(dim))


def _rand_invertible(rng: random.Random, n: int,
                     bound: int) -> tuple[list[list[int]], list[list[int]], int]:
    """An integer matrix A, entries in [-bound, bound], redrawn until invertible;
    and W, d with A^-1 = W / d, from one elimination of [A | I]."""
    while True:
        rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
        work, pivots, d = _eliminate([row + [int(i == j) for j in range(n)]
                                      for i, row in enumerate(rows)], True)
        if pivots[:n] == list(range(n)):
            return rows, [row[n:] for row in work[:n]], d


def _symmetric(n: int, draw) -> list[list]:
    """A symmetric n x n matrix of ``draw()`` values, drawn along the upper triangle."""
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw()
    return entries


def rand_symmetric_matrix(rng: random.Random, n: int, max_num: int = 4,
                          max_den: int = 3) -> Matrix:
    return tuple(map(tuple, _symmetric(n, lambda: rand_fraction(rng, max_num, max_den))))


def rand_splitting(rng: random.Random, n: int) -> Splitting:
    return Splitting(n, rand_symmetric_matrix(rng, n))


def rand_affine_core_micromorphism(rng: random.Random, dim: int, order: int) -> Micromorphism:
    """Valid micromorphism whose core map is affine with invertible linear part, plus
    two random terms of fiber degree 2..order when order >= 2 and dim >= 1."""
    dim, _, order = check_space(dim, dim, order)
    a_rows = _rand_invertible(rng, dim, 3)[0]
    units = key_codec(dim, dim).units
    terms = []
    for i in range(dim):
        terms.append((units[i], rng.randrange(-2, 3), 1))
        terms += [(units[i] + units[dim + j], a, 1) for j, a in enumerate(a_rows[i])]
    terms += [_rand_term(rng, dim, dim, rng.randrange(2, order + 1), 2, True)
              for _ in range(2 if order >= 2 and dim else 0)]
    gen = FiberGradedPoly._packed(dim, dim, order, terms)
    return Micromorphism(MicroObject(dim), MicroObject(dim), gen)


# moves per drawn matrix; every seeded input depends on the draw count
_MOVES = 3


def _symplectic_moves(rng: random.Random, n: int, x: list[list[int]],
                      p: list[list[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """The x rows and p rows of T M over one denominator d, given the integer x
    rows and p rows of M (2n rows, in (x..., p...) coordinates), for T a product
    of random symplectic moves; none when n = 0.  Each move is
    ``rng.randrange(4)``, then its matrix draw: p += C x, x += C p (C = c/s
    symmetric, s the lcm of its reduced denominators), (x, p) -> (A x, A^-T p)
    (A^-1 = W/det), or (x, p) -> (p, -x).
    All arithmetic is on integers; d takes the factor s or |det| of each move."""
    d = 1
    for _ in range(_MOVES if n else 0):
        kind = rng.randrange(4)
        if kind < 2:
            ratios = _symmetric(n, lambda: _rand_ratio(rng, 2, 2))
            s = lcm(*[den // gcd(num, den) for row in ratios for num, den in row])
            c = [[num * s // den for num, den in row] for row in ratios]
            src, dst = (x, p) if kind == 0 else (p, x)
            dst = [[s * u + v for u, v in zip(row, shear)]
                   for row, shear in zip(dst, _product(c, src))]
            src = [[s * u for u in row] for row in src] if s != 1 else src
            x, p = (src, dst) if kind == 0 else (dst, src)
            d *= s
        elif kind == 2:
            a, w, det = _rand_invertible(rng, n, 2)
            scale, sign = abs(det), 1 if det > 0 else -1
            x = _product([[scale * u for u in row] for row in a], x)
            p = _product([[sign * u for u in col] for col in zip(*w)], p)
            d *= scale
        else:
            x, p = p, [[-u for u in row] for row in x]
    return x, p, d


def rand_symplectic_matrix(rng: random.Random, n: int) -> Matrix:
    """Random symplectic matrix in (x..., p...) coordinates, exact rational."""
    ident = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    x, p, d = _symplectic_moves(rng, n, ident[:n], ident[n:])
    return tuple(tuple(Fraction(v, d) for v in row) for row in x + p)


def rand_lagrangian_relation(rng: random.Random, source_dim: int,
                             target_dim: int) -> LinCanonicalRelation:
    """Random linear canonical relation, built by a symplectic move of a zero section."""
    m, n = source_dim, target_dim
    total = m + n
    ident = [[int(i == j) for j in range(total)] for i in range(total)]
    x, p, d = _symplectic_moves(rng, total, ident, [[0] * total for _ in ident])
    # column i is the image of the i-th zero-section basis vector; reorder it to
    # (x1, p1, x2, p2) and flip the sign of p1 to pass from the standard form to
    # the signed relation form
    vectors = [tuple(Fraction(v, d) for v in xc[:m] + tuple(-u for u in pc[:m]) + xc[m:] + pc[m:])
               for xc, pc in zip(zip(*x), zip(*p))]
    return LinCanonicalRelation.from_vectors(m, n, vectors)
