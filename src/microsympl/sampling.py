"""Seeded random generators for morphisms, core maps, and linear data.

Everything takes an explicit ``random.Random`` so property suites and the
CLI self-check are reproducible; no generator touches global entropy.
Symplectic matrices and lagrangian relations are drawn as block moves on the
x rows and p rows of a matrix; their draw order must not change, since every
seeded corpus, golden file and benchmark digest follows the RNG sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from .jetalg import FiberGradedPoly
from .linsympl import (LinCanonicalRelation, Matrix, Splitting, identity_matrix,
                       mat_inverse, mat_mul, transpose, zero_vector)
from .micro import CoreMap, Micromorphism, MicroObject, unit_exp


def rng_for(seed, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def rand_fraction(rng: random.Random, max_num: int = 9, max_den: int = 9,
                  nonzero: bool = False) -> Fraction:
    num = rng.randint(-max_num, max_num)
    if nonzero and num == 0:
        num = rng.choice((-1, 1)) * rng.randint(1, max_num)
    return Fraction(num, rng.randint(1, max_den))


def rand_exponents(rng: random.Random, arity: int, total: int) -> tuple[int, ...]:
    out = [0] * arity
    for _ in range(total):
        out[rng.randrange(arity)] += 1
    return tuple(out)


def rand_poly(rng: random.Random, fiber_arity: int, base_arity: int, order: int,
              terms: int = 3, min_fiber_deg: int = 0,
              max_base_deg: int = 2) -> FiberGradedPoly:
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
    xe = rand_exponents(rng, target_dim, rng.randint(0, 2)) if target_dim else ()
    bad = FiberGradedPoly.monomial(source_dim, target_dim, order,
                                   rand_fraction(rng, nonzero=True),
                                   (0,) * source_dim, xe)
    return gen + bad


def rand_core_map(rng: random.Random, domain_dim: int, codomain_dim: int,
                  max_deg: int = 2, terms: int = 2) -> CoreMap:
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


def rand_point(rng: random.Random, dim: int, max_num: int = 3,
               max_den: int = 3) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, max_num, max_den) for _ in range(dim))


def _rand_invertible(rng: random.Random, n: int, bound: int) -> tuple[Matrix, Matrix]:
    """An integer matrix A, entries in [-bound, bound], redrawn until invertible; and A^-1."""
    while True:
        rows = tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
                     for _ in range(n))
        if (inverse := mat_inverse(rows)) is not None:
            return rows, inverse


def rand_invertible_int_matrix(rng: random.Random, n: int, bound: int = 3) -> Matrix:
    return _rand_invertible(rng, n, bound)[0]


def rand_symmetric_matrix(rng: random.Random, n: int, max_num: int = 4,
                          max_den: int = 3) -> Matrix:
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_fraction(rng, max_num, max_den)
            entries[i][j] = v
            entries[j][i] = v
    return tuple(tuple(r) for r in entries)


def rand_splitting(rng: random.Random, n: int) -> Splitting:
    return Splitting(n, rand_symmetric_matrix(rng, n))


def rand_affine_core_micromorphism(rng: random.Random, dim: int, order: int,
                                   extra_terms: int = 2) -> Micromorphism:
    """Valid micromorphism whose core map is affine with invertible linear part."""
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


# moves per drawn matrix; every seeded input depends on the draw count
_MOVES = 3


def _plus(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(map(add, r, s)) for r, s in zip(a, b))


def _symplectic_moves(rng: random.Random, n: int, x: Matrix,
                      p: Matrix) -> tuple[Matrix, Matrix]:
    """The x rows and p rows of T M, given those of M (2n rows, in (x..., p...)
    coordinates), for T a product of random symplectic moves; none when n = 0.
    Each move is ``rng.randrange(4)``, then its matrix draw: p += C x, x += C p
    (C symmetric), (x, p) -> (A x, A^-T p), or (x, p) -> (p, -x)."""
    for _ in range(_MOVES if n else 0):
        kind = rng.randrange(4)
        if kind == 0:
            p = _plus(p, mat_mul(rand_symmetric_matrix(rng, n, 2, 2), x))
        elif kind == 1:
            x = _plus(x, mat_mul(rand_symmetric_matrix(rng, n, 2, 2), p))
        elif kind == 2:
            a, a_inv = _rand_invertible(rng, n, 2)
            x, p = mat_mul(a, x), mat_mul(transpose(a_inv), p)
        else:
            x, p = p, tuple(tuple(-v for v in row) for row in x)
    return x, p


def rand_symplectic_matrix(rng: random.Random, n: int) -> Matrix:
    """Random symplectic matrix in (x..., p...) coordinates, exact rational."""
    ident = identity_matrix(2 * n)
    x, p = _symplectic_moves(rng, n, ident[:n], ident[n:])
    return x + p


def rand_lagrangian_relation(rng: random.Random, source_dim: int,
                             target_dim: int) -> LinCanonicalRelation:
    """Random linear canonical relation, built by a symplectic move of a zero section."""
    m, n = source_dim, target_dim
    total = m + n
    x, p = _symplectic_moves(rng, total, identity_matrix(total),
                             (zero_vector(total),) * total)
    # column i is the image of the i-th zero-section basis vector; reorder it to
    # (x1, p1, x2, p2) and flip the sign of p1 to pass from the standard form to
    # the signed relation form
    vectors = [xc[:m] + tuple(-v for v in pc[:m]) + xc[m:] + pc[m:]
               for xc, pc in zip(transpose(x), transpose(p))]
    return LinCanonicalRelation.from_vectors(m, n, vectors)
