"""The extended microsymplectic category over coordinate cores.

Objects are cotangent microbundles [T*R^n, R^n], identified by the core
dimension n.  A micromorphism from dimension m to dimension n is stored as a
generating function S(p, x) of mixed type: p ranges over the source fibers,
x over the target core, S is polynomial in x and truncated at a fiber order
K >= 1, and the normal form S(0, x) = 0 holds identically.  The underlying
canonical relation is parametrized by

    x1 = dS/dp(p1, x2),    p2 = dS/dx(p1, x2),

which is lagrangian for (-omega) x omega by construction.  S(0, x) = 0 makes
the relation meet the product of cores exactly in the graph of the core map
phi = dS/dp(0, .), a polynomial map from the target core to the source core;
the tangent counterpart of that intersection condition is then automatic.
Graphicality over (p1, x2) is precisely transversality to the vertical
splitting of the target, so this normal form loses nothing on the class it
represents, and equality of micromorphisms is decidable coefficient by
coefficient because the additive constant is pinned to zero.

Composition eliminates the middle cotangent block through the stationarity
system of S_f(p1, y) + S_g(q, x3) - <q, y>, solved as a filtered fixed point
that always converges for valid operands; internally one extra truncation
order is carried so fiber derivatives stay faithful at the stored order.

Symplectomorphism germs (GermJet) need an affine core with invertible linear
part.  extract_germ, graph_of_germ and invert_germ expand their equations once
at X = phi(x) + w, phi the affine core inverse and w new fiber variables
(_shifted), invert the L read off their terms L w once (_split_linear), and
solve for W alone from 0 by W -> L^-1 (targets - N(W)), _corrected; invert_germ
applies it to its momentum block before its position block.
compose_germs shifts the outer jets to the inner core restriction the same
way, so only fiber-degree >= 1 values are substituted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import (CheckResult, ConvergenceError, FiltrationError,
                     InternalInvariantError, NormalFormError, ShapeError,
                     UnsupportedCoreError, ValidityError)
from .jetalg import (FiberGradedPoly, combine, frac, key_codec,
                     solve_triangular_fixed_point, substitute_many)
from .linsympl import (LinCanonicalRelation, Matrix, _eliminate, _integer_rows, _left_solve,
                       check_linear_micromorphism, unit_vector, zero_vector)


@dataclass(frozen=True)
class MicroObject:
    """Cotangent microbundle [T*R^n, R^n]; equality is by core dimension."""

    core_dim: int
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.core_dim < 0:
            raise ShapeError("core dimension must be non-negative")

    def tensor(self, other: "MicroObject") -> "MicroObject":
        return MicroObject(self.core_dim + other.core_dim)

    def __repr__(self):
        name = self.label or f"[T*R^{self.core_dim}, R^{self.core_dim}]"
        return f"MicroObject({self.core_dim}, {name!r})"


def unit_object() -> MicroObject:
    """The cotangent microbundle of the one-point manifold."""
    return MicroObject(0, "E")


@dataclass(frozen=True)
class CoreMap:
    """Polynomial map between coordinate cores.

    ``components`` are pure base polynomials in ``domain_dim`` variables; a
    micromorphism's core map has the target core as its domain.
    """

    domain_dim: int
    components: tuple[FiberGradedPoly, ...]

    def __post_init__(self):
        comps = []
        for comp in self.components:
            if comp.fiber_arity != 0 or comp.base_arity != self.domain_dim:
                raise ShapeError(
                    f"core map component space {comp.space()} does not match "
                    f"domain dimension {self.domain_dim}")
            comps.append(comp.at_order(0))
        object.__setattr__(self, "components", tuple(comps))

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    @staticmethod
    def from_terms(domain_dim: int, component_terms: Sequence) -> "CoreMap":
        comps = tuple(FiberGradedPoly(0, domain_dim, 0, t) for t in component_terms)
        return CoreMap(domain_dim, comps)

    @staticmethod
    def identity(n: int) -> "CoreMap":
        return CoreMap(n, tuple(FiberGradedPoly.base_var(0, n, 0, i) for i in range(n)))

    @staticmethod
    def diagonal(n: int, copies: int) -> "CoreMap":
        """The map x -> (x, ..., x) with the given number of copies."""
        if copies < 0:
            raise ShapeError("copies must be non-negative")
        comps = tuple(FiberGradedPoly.base_var(0, n, 0, i)
                      for _ in range(copies) for i in range(n))
        return CoreMap(n, comps)

    def compose(self, inner: "CoreMap") -> "CoreMap":
        """self after inner, as polynomial maps."""
        if self.domain_dim != inner.codomain_dim:
            raise ShapeError(
                f"cannot compose core maps: domain {self.domain_dim} != "
                f"codomain {inner.codomain_dim}")
        comps = tuple(c.substitute((), inner.components, space=(0, inner.domain_dim, 0))
                      for c in self.components)
        return CoreMap(inner.domain_dim, comps)

    def evaluate(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(c.evaluate((), point) for c in self.components)

    def jacobian_at(self, point: Sequence) -> Matrix:
        return tuple(tuple(c.partial_base(j).evaluate((), point)
                           for j in range(self.domain_dim))
                     for c in self.components)

    def is_affine(self) -> bool:
        units = key_codec(0, self.domain_dim).units
        return all(not key or key in units for comp in self.components for key in comp.nums)

    def _affine_rows(self) -> list[tuple[int, list[int]]]:
        """``(den, [a_1, ..., a_n, b])`` per component (a_1 x_1 + ... + a_n x_n
        + b) / den of an affine map, read off the numerators in one pass."""
        n = self.domain_dim
        units = key_codec(0, n).units
        out = []
        for comp in self.components:
            row = [0] * (n + 1)
            for key, num in comp.nums.items():
                if key and key not in units:
                    raise UnsupportedCoreError("core map is not affine")
                row[units.index(key) if key else n] = num
            out.append((comp.den, row))
        return out

    def affine_parts(self) -> tuple[Matrix, tuple[Fraction, ...]]:
        """Linear part and constant part of an affine map."""
        n = self.domain_dim
        rows = self._affine_rows()
        return (tuple(tuple(Fraction(a, den) for a in row[:n]) for den, row in rows),
                tuple(Fraction(row[n], den) for den, row in rows))

    def affine_inverse(self) -> "CoreMap":
        """Inverse of an affine map with invertible linear part.

        The rows of [A | I | b] for y = A x + b, each scaled to integers by
        its component's denominator, are eliminated once; they end as
        d [I | A^-1 | A^-1 b], read as x = A^-1 y - A^-1 b.
        """
        if self.codomain_dim != self.domain_dim:
            raise UnsupportedCoreError("core map is not square")
        n = self.domain_dim
        aug = [row[:n] + [den if j == i else 0 for j in range(n)] + [row[n]]
               for i, (den, row) in enumerate(self._affine_rows())]
        work, pivots, d = _eliminate(aug, True)
        if pivots[:n] != list(range(n)):
            raise UnsupportedCoreError("linear part of the core map is not invertible")
        sign = 1 if d > 0 else -1
        units = key_codec(0, n).units
        comps = []
        for row in work[:n]:
            nums = {units[j]: sign * row[n + j] for j in range(n)}
            nums[0] = -sign * row[2 * n]
            comps.append(FiberGradedPoly._reduced(0, n, 0, sign * d, nums))
        return CoreMap(n, tuple(comps))


def unit_exp(n: int, index: int) -> tuple[int, ...]:
    return tuple(1 if i == index else 0 for i in range(n))


@dataclass(frozen=True)
class Micromorphism:
    """Symplectic micromorphism in generating-function normal form."""

    source: MicroObject
    target: MicroObject
    gen: FiberGradedPoly
    core: CoreMap = field(init=False, compare=False)

    def __post_init__(self):
        m, n = self.source.core_dim, self.target.core_dim
        if self.gen.fiber_arity != m or self.gen.base_arity != n:
            raise ShapeError(
                f"generating function space {self.gen.space()} does not match "
                f"objects ({m} -> {n})")
        if self.gen.order < 1:
            raise ShapeError("micromorphisms need fiber order K >= 1")
        # dS/dp_i(0, x) is the sum of the terms c * p_i * x^a, read as c * x^a;
        # the key of x^a is the base part of the key, the same in (0, n)
        codec = self.gen.codec
        comps = [{} for _ in range(m)]
        for key, c in self.gen.nums.items():
            degree = key >> codec.degree_shift
            if degree == 1:
                base = key & codec.base_mask
                comps[codec.units.index(key - base)][base] = c
            elif not degree:
                offending = self.gen.core_part()
                raise NormalFormError(
                    f"S(0, x) = {offending.to_text()} but must vanish; offending "
                    f"monomials: {', '.join(_monomial_names(offending))}")
        object.__setattr__(self, "core", CoreMap(n, tuple(
            FiberGradedPoly._reduced(0, n, 0, self.gen.den, nums) for nums in comps)))

    @property
    def order(self) -> int:
        return self.gen.order

    def __repr__(self):
        return (f"Micromorphism({self.source.core_dim} -> {self.target.core_dim}, "
                f"K={self.order}, S={self.gen.to_text()})")


def _monomial_names(poly: FiberGradedPoly) -> list[str]:
    from .jetalg import _term_text
    return [_term_text(*term) for term in poly.serialized_terms()]


# -- constructors -------------------------------------------------------------


def identity(obj: MicroObject, order: int) -> Micromorphism:
    n = obj.core_dim
    terms = {(unit_exp(n, i), unit_exp(n, i)): Fraction(1) for i in range(n)}
    return Micromorphism(obj, obj, FiberGradedPoly(n, n, order, terms))


def cotangent_lift(phi: CoreMap, order: int) -> Micromorphism:
    """The micromorphism with S = <p, phi(x)>; its core map is phi."""
    m, n = phi.codomain_dim, phi.domain_dim
    units = key_codec(m, n).units
    gen = FiberGradedPoly._packed(m, n, order, [
        (units[i] + key, num, comp.den)
        for i, comp in enumerate(phi.components) for key, num in comp.nums.items()])
    return Micromorphism(MicroObject(m), MicroObject(n), gen)


def unit_to(obj: MicroObject, order: int) -> Micromorphism:
    """The unique micromorphism out of the unit object E."""
    return Micromorphism(unit_object(), obj,
                         FiberGradedPoly.zero(0, obj.core_dim, order))


def point_morphism(obj: MicroObject, tail: FiberGradedPoly) -> Micromorphism:
    """Morphism to E given by a fiber-only generating function.

    The tail has no base variables and no constant term; its gradient at 0
    is the core point, and transversality of the encoded lagrangian germ to
    the core is automatic in this representation.
    """
    if tail.base_arity != 0 or tail.fiber_arity != obj.core_dim:
        raise ShapeError("tail must be a fiber-only polynomial over the object fibers")
    if tail.coefficient((0,) * tail.fiber_arity, ()):
        raise NormalFormError("tail has a nonzero constant term")
    return Micromorphism(obj, unit_object(), tail)


def symmetry(a: MicroObject, b: MicroObject, order: int) -> Micromorphism:
    """Braiding a (x) b -> b (x) a: the cotangent lift of the factor swap."""
    na, nb = a.core_dim, b.core_dim
    dom = nb + na
    comps = [FiberGradedPoly.base_var(0, dom, 0, nb + i) for i in range(na)]
    comps += [FiberGradedPoly.base_var(0, dom, 0, j) for j in range(nb)]
    return cotangent_lift(CoreMap(dom, tuple(comps)), order)


# -- composition and tensor ----------------------------------------------------


def _stationary(g: Micromorphism, f: Micromorphism, order: int):
    """Middle fixed point of composition, in the (source fiber, final base) space."""
    m = f.source.core_dim
    n = f.target.core_dim
    q = g.target.core_dim
    sf = f.gen.at_order(order)
    sg = g.gen.at_order(order)
    sf_dx = [sf.partial_base(j) for j in range(n)]
    sg_dp = [sg.partial_fiber(j) for j in range(n)]
    space = (m, q, order)
    seed_x = [comp.embed(m, q).at_order(order) for comp in g.core.components]
    seed_p = [FiberGradedPoly.zero(m, q, order) for _ in range(n)]
    none_m = [None] * m
    none_q = [None] * q

    def step(z):
        xb = z[:n]
        pb = substitute_many(sf_dx, none_m, xb, space)
        xb_new = substitute_many(sg_dp, pb, none_q, space)
        return (*xb_new, *pb)

    sol = solve_triangular_fixed_point((*seed_x, *seed_p), step)
    return sol[:n], sol[n:], sf, sg, space


def compose(g: Micromorphism, f: Micromorphism) -> Micromorphism:
    """Composite g after f; always defined for valid micromorphisms.

    With f carrying S_f(p1, y) and g carrying S_g(q, x3), the composite is
    S_f(p1, Y) + S_g(Q, x3) - <Q, Y> where (Y, Q) is the unique filtered
    stationary point, seeded at (core(g)(x3), 0).  The core of the result is
    core(f) composed after core(g).  A non-contracting fixed point cannot
    occur for valid operands; hitting one raises InternalInvariantError.
    """
    if f.target != g.source:
        raise ShapeError(
            f"objects do not match: {f.target.core_dim} vs {g.source.core_dim}")
    if f.order != g.order:
        raise ShapeError(f"orders differ: {f.order} vs {g.order}")
    k = f.order
    m = f.source.core_dim
    n = f.target.core_dim
    q = g.target.core_dim
    try:
        xb, pb, sf, sg, space = _stationary(g, f, k + 1)
        total = combine((sf.substitute([None] * m, xb, space=space),
                         sg.substitute(list(pb), [None] * q, space=space),
                         *(p * y for y, p in zip(xb, pb))), (1, 1, *(-1,) * n))
        return Micromorphism(f.source, g.target, total.at_order(k))
    except (ConvergenceError, NormalFormError, FiltrationError) as exc:
        raise InternalInvariantError(
            f"composition failed on valid-looking inputs: {exc}") from exc


def stationary_middle(g: Micromorphism, f: Micromorphism):
    """The middle point (Y, Q) eliminated by compose, truncated at the stored order."""
    if f.target != g.source:
        raise ShapeError("objects do not match")
    if f.order != g.order:
        raise ShapeError("orders differ")
    xb, pb, _, _, _ = _stationary(g, f, f.order + 1)
    k = f.order
    return tuple(y.at_order(k) for y in xb), tuple(p.at_order(k) for p in pb)


def tensor(f1: Micromorphism, f2: Micromorphism) -> Micromorphism:
    """Tensor product: generating functions in disjoint variable blocks."""
    if f1.order != f2.order:
        raise ShapeError(f"orders differ: {f1.order} vs {f2.order}")
    m1, n1 = f1.source.core_dim, f1.target.core_dim
    m2, n2 = f2.source.core_dim, f2.target.core_dim
    gen = f1.gen.embed(m1 + m2, n1 + n2, 0, 0) + f2.gen.embed(m1 + m2, n1 + n2, m1, n1)
    return Micromorphism(f1.source.tensor(f2.source), f1.target.tensor(f2.target), gen)


# -- checks --------------------------------------------------------------------


def _sample_core_points(n: int) -> list[tuple[Fraction, ...]]:
    if n == 0:
        return [()]
    return [
        tuple(Fraction(0) for _ in range(n)),
        tuple(Fraction(1) for _ in range(n)),
        tuple(Fraction(1, 2) if i % 2 == 0 else Fraction(-1, 2) for i in range(n)),
    ]


def linearized_relation(gen: FiberGradedPoly, point: Sequence) -> LinCanonicalRelation:
    """Tangent relation of the parametrized relation of S at a base point.

    Works for any generating function, and is lagrangian for any, so it is
    not checked: the unit pivots give rank m + n, and spp, sxx are symmetric.
    For a valid micromorphism the base Hessian block vanishes and this
    reduces to the normal-form formula dx1 = Q dp1 + Dphi dx2,
    dp2 = Dphi^T dp1 with Q = d2S/dp2(0, point).
    The second derivatives at (0, point) are read off the terms of fiber
    degree at most 2 in one pass: c p_i p_j x^a adds c b^a to spp[i][j] and
    spp[j][i] (2 c b^a on the diagonal, from c p_i^2 x^a), c p_i x^a adds
    d/dx_j (c x^a) at b to spx[i][j], and c x^a adds its second base
    derivatives to sxx.
    """
    m, n = gen.fiber_arity, gen.base_arity
    b = tuple(frac(v) for v in point)
    if len(b) != n:
        raise ShapeError(f"point has dimension {len(b)}, expected {n}")

    def at_b(c, xe):
        for v, e in zip(b, xe):
            if e:
                c *= v ** e
        return c

    def lowered(xe, j):
        return xe[:j] + (xe[j] - 1,) + xe[j + 1:]

    zero = Fraction(0)
    spp = [[zero] * m for _ in range(m)]
    spx = [[zero] * n for _ in range(m)]
    sxx = [[zero] * n for _ in range(n)]
    # only terms of fiber degree <= 2 reach the second derivatives at p = 0
    low = ((gen.codec.unpack(key), Fraction(num, gen.den)) for key, num in gen.nums.items()
           if key < 3 << gen.codec.degree_shift)
    for (pe, xe), c in low:
        degree = sum(pe)
        if degree == 2:
            i = next(k for k, e in enumerate(pe) if e)
            if pe[i] == 2:
                spp[i][i] += 2 * at_b(c, xe)
            else:
                j = pe.index(1, i + 1)
                val = at_b(c, xe)
                spp[i][j] += val
                spp[j][i] += val
        elif degree == 1:
            row = spx[pe.index(1)]
            for j, e in enumerate(xe):
                if e:
                    row[j] += at_b(c * e, lowered(xe, j))
        elif degree == 0:
            for i, e in enumerate(xe):
                if e:
                    xi = lowered(xe, i)
                    for j, f in enumerate(xi):
                        if f:
                            sxx[i][j] += at_b(c * e * f, lowered(xi, j))
    vectors = []
    for a in range(m):
        vectors.append(tuple(spp[i][a] for i in range(m)) + unit_vector(m, a)
                       + zero_vector(n) + tuple(spx[a][j] for j in range(n)))
    for c in range(n):
        vectors.append(tuple(spx[i][c] for i in range(m)) + zero_vector(m)
                       + unit_vector(n, c) + tuple(sxx[j][c] for j in range(n)))
    return LinCanonicalRelation._built(m, n, tuple(vectors), tuple(_integer_rows(vectors)))


def tangent_relation_at(f: Micromorphism, point: Sequence) -> LinCanonicalRelation:
    """Tangent relation of a micromorphism at a point of the target core."""
    return linearized_relation(f.gen, point)


def is_micromorphism(gen: FiberGradedPoly, source: MicroObject,
                     target: MicroObject) -> CheckResult:
    """Normal-form check with diagnostics, plus the linear-level cross-check.

    Returns false with the offending monomials when S(0, x) != 0.  When the
    normal form holds, the tangent relation at sampled core points is checked
    against the graph of the core differential by exact elimination.
    """
    if gen.fiber_arity != source.core_dim or gen.base_arity != target.core_dim:
        raise ShapeError(
            f"generating function space {gen.space()} does not match objects "
            f"({source.core_dim} -> {target.core_dim})")
    offending = gen.core_part()
    if not offending.is_zero():
        names = ", ".join(_monomial_names(offending))
        return CheckResult(False, (f"S(0, x) != 0; offending monomials: {names}",))
    morphism = Micromorphism(source, target, gen)
    reasons = []
    for b in _sample_core_points(target.core_dim):
        rel = tangent_relation_at(morphism, b)
        res = check_linear_micromorphism(rel, morphism.core.jacobian_at(b))
        if not res:
            reasons.append(f"linear check failed at core point {b}: {res.describe()}")
    return CheckResult(not reasons, tuple(reasons))


# -- symplectomorphism germs -----------------------------------------------------


@dataclass(frozen=True)
class GermJet:
    """Forward jet maps (x, p) -> (X(x, p), P(x, p)) of a symplectomorphism germ.

    Components live in the fiber/base space of the source: base variables are
    the source positions, fiber variables the source momenta, truncated at
    the germ order.

    The position block carries one order of redundancy relative to the graph
    micromorphism: its fiber-degree-K part reflects degree-K+1 data of the
    underlying generating function.  extract_germ after graph_of_germ is
    therefore the identity on extracted jets, while jets obtained by
    compose_germs agree with the re-extracted ones only through degree K-1
    in X (and exactly in P); the graphs themselves always agree exactly.

    extract_germ, graph_of_germ and invert_germ compute the affine inverse
    phi of the core once per call, shift their equations to X = phi(x) + W
    once (_shifted), take the inverse linear part and the nonlinear remainder
    off the shifted equations (_split_linear) and solve for W alone;
    compose_germs shifts the outer jets to the inner X(x, 0) once.
    """

    dim: int
    order: int
    x_out: tuple[FiberGradedPoly, ...]
    p_out: tuple[FiberGradedPoly, ...]

    def __post_init__(self):
        if len(self.x_out) != self.dim or len(self.p_out) != self.dim:
            raise ShapeError("component count does not match the dimension")
        space = (self.dim, self.dim, self.order)
        for comp in (*self.x_out, *self.p_out):
            if comp.space() != space:
                raise ShapeError(f"component space {comp.space()} != {space}")

    def core_restriction(self) -> CoreMap:
        """The positional map along the core, X(x, 0)."""
        # a key of fiber degree 0 is the same int in (0, dim)
        return CoreMap(self.dim, tuple(FiberGradedPoly._raw(0, self.dim, 0, c.den, c.nums)
                                       for c in (x.core_part() for x in self.x_out)))


def identity_germ(dim: int, order: int) -> GermJet:
    xs = tuple(FiberGradedPoly.base_var(dim, dim, order, i) for i in range(dim))
    ps = tuple(FiberGradedPoly.fiber_var(dim, dim, order, i) for i in range(dim))
    return GermJet(dim, order, xs, ps)


def compose_germs(outer: GermJet, inner: GermJet) -> GermJet:
    """Jet composition outer after inner, truncated at the common order: the
    outer jets, shifted to X = X_inner(x, 0) + w for any polynomial core, take
    P_inner and X_inner - X_inner(x, 0), both of fiber degree >= 1, in (p, w)."""
    if outer.dim != inner.dim:
        raise ShapeError(f"dimensions differ: {outer.dim} vs {inner.dim}")
    if outer.order != inner.order:
        raise ShapeError(f"orders differ: {outer.order} vs {inner.order}")
    n, k = outer.dim, outer.order
    for comp in inner.p_out:
        if not comp.core_part().is_zero():
            raise ValidityError("inner germ does not preserve the core")
    shifted = _shifted((*outer.x_out, *outer.p_out), inner.core_restriction(), n, k)
    outs = substitute_many(shifted, [*inner.p_out, *(x - x.core_part() for x in inner.x_out)],
                           [None] * n, (n, n, k))
    return GermJet(n, k, tuple(outs[:n]), tuple(outs[n:]))


def _shifted(polys, phi: CoreMap, n: int, k: int) -> list[FiberGradedPoly]:
    """polys(p, X) at X = phi(x) + w, expanded once in (2n, n, K); w are the
    fiber variables n..2n-1, so truncation at K applies to them."""
    w_at_core = [c.embed(2 * n, n).at_order(k) + FiberGradedPoly.fiber_var(2 * n, n, k, n + j)
                 for j, c in enumerate(phi.components)]
    return substitute_many(polys, [None] * n, w_at_core, (2 * n, n, k))


def _split_linear(shifted, offset: int):
    """``(L^-1, N)`` for shifted systems targets + L v + N(v) in (2n, n, K),
    v_j the fiber variable offset + j, once per solve: L is read off the terms
    c v_j with v_j alone, and N is the rest.  L^-1 is None when L is singular.
    """
    n = len(shifted)
    keys = key_codec(2 * n, n).units[offset:offset + n]
    # row i of [L | I] times the denominator of equation i
    inv = _left_solve([[p.nums.get(key, 0) for key in keys] + [p.den * (j == i) for j in range(n)]
                       for i, p in enumerate(shifted)], n)
    out = []
    for p in shifted:
        nums = dict(p.nums)
        for key in keys:
            nums.pop(key, None)
        out.append(FiberGradedPoly._reduced(*p.space(), p.den, nums))
    return inv, out


def _corrected(targets, remainder, fiber_values, inv):
    """The affine correction inv (targets - remainder(fiber_values, x))."""
    if inv is None:
        # invert_germ rejects a singular momentum block; a position block is
        # invertible, since phi inverts its core
        raise InternalInvariantError("germ solve: singular linear part of the shifted positions")
    try:
        # W and P never get a fiber-degree-0 term: phi is the exact core
        # inverse and the momentum outputs vanish on the core (both checked)
        vals = substitute_many(remainder, fiber_values, [None] * len(targets), targets[0].space())
    except FiltrationError as exc:
        raise InternalInvariantError(f"germ solve left the core: {exc}") from exc
    return [combine((*targets, *vals), (*row, *(-c for c in row))) for row in inv]


def _affine_solve(phi: CoreMap, equations, momenta, n: int, k: int):
    """Positions X with equations(p, X) = x, as a filtered fixed point, and
    momenta(p, X).

    ``phi`` is the affine inverse of the core map that the equations restrict
    to at p = 0; the equations are shifted once to X = phi(x) + W, where they
    read x + A W + N(p, W), and W, seeded at 0, is updated by
    W -> A^-1 (x - N(p, W)).
    """
    space = (n, n, k)
    inv, remainder = _split_linear(_shifted(equations, phi, n, k), n)
    xvars = [FiberGradedPoly.base_var(n, n, k, j) for j in range(n)]

    def step(w):
        return _corrected(xvars, remainder, [None] * n + list(w), inv)

    ws = solve_triangular_fixed_point((FiberGradedPoly.zero(*space),) * n, step)
    xs = tuple(c.embed(n, n).at_order(k) + w for c, w in zip(phi.components, ws))
    return xs, tuple(substitute_many(momenta, [None] * n, list(xs), space))


def _core_inverse(germ: GermJet) -> CoreMap:
    """Affine inverse of the germ's core restriction X(x, 0)."""
    xi = germ.core_restriction()
    if not xi.is_affine():
        raise UnsupportedCoreError("core restriction is not affine")
    try:
        return xi.affine_inverse()
    except UnsupportedCoreError:
        raise UnsupportedCoreError("core restriction is not invertible") from None


def extract_germ(f: Micromorphism) -> GermJet:
    """Forward jet maps of the symplectomorphism germ underlying f.

    Supported exactly when the core map is affine with invertible linear
    part; x1 = dS/dp(p1, X) is solved for X by the filtered fixed point
    seeded at the affine core inverse, and P = dS/dx(p1, X).  The round trip
    graph_of_germ(extract_germ(f)) recovers f exactly at the stored order.
    """
    if f.source.core_dim != f.target.core_dim:
        raise UnsupportedCoreError("source and target core dimensions differ")
    phi = f.core.affine_inverse()
    n, k, gen = f.source.core_dim, f.order, f.gen
    xs, ps = _affine_solve(phi, [gen.partial_fiber(i) for i in range(n)],
                           [gen.partial_base(i) for i in range(n)], n, k)
    return GermJet(n, k, xs, ps)


def invert_germ(germ: GermJet) -> GermJet:
    """Jet inverse of a germ whose core restriction is affine invertible."""
    n, k = germ.dim, germ.order
    for comp in germ.p_out:
        if not comp.core_part().is_zero():
            raise ValidityError("germ does not preserve the core")
    phi = _core_inverse(germ)
    codec = key_codec(n, n)
    if any(key >> codec.degree_shift == 1 and key & codec.base_mask
           for comp in germ.p_out for key in comp.nums):
        raise UnsupportedCoreError(
            "momentum linearization varies along the core; inversion "
            "is supported only for the affine class")
    shifted = _shifted((*germ.p_out, *germ.x_out), phi, n, k)
    # P reads C p + N(p, w) and X reads x + B w + N(p, w) once shifted
    c_inv, p_rem = _split_linear(shifted[:n], 0)
    if c_inv is None:
        raise UnsupportedCoreError("momentum linearization is not invertible")
    b_inv, x_rem = _split_linear(shifted[n:], n)
    xvars = [FiberGradedPoly.base_var(n, n, k, j) for j in range(n)]
    pvars = [FiberGradedPoly.fiber_var(n, n, k, j) for j in range(n)]

    def step(z):
        # momenta first, then positions against the refreshed momenta: the
        # momentum equation contracts on its own, the position one only
        # against momenta that are already one degree better
        ws, ps = z[:n], z[n:]
        new_p = _corrected(pvars, p_rem, [*ps, *ws], c_inv)
        new_w = _corrected(xvars, x_rem, [*new_p, *ws], b_inv)
        return (*new_w, *new_p)

    sol = solve_triangular_fixed_point((FiberGradedPoly.zero(n, n, k),) * (2 * n), step)
    xs = tuple(c.embed(n, n).at_order(k) + w for c, w in zip(phi.components, sol[:n]))
    return GermJet(n, k, xs, sol[n:])


def _symplectic_jacobian_check(germ: GermJet, points) -> None:
    """Raise ValidityError at the first core point where the Jacobian J of the
    germ at p = 0 is not symplectic.

    Only terms of fiber degree <= 1 reach J: c x^a adds d/dx_j (c x^a) to
    column j, and c p_i x^a adds c x^a to column n + i.  They are read once,
    over the lcm ``c`` of the component denominators; at a point b = a / d
    every entry is an integer over c d^top, top the largest degree of an
    entry's monomial.  J^T Omega J is antisymmetric, so only omega(J e_a,
    J e_b) = omega(e_a, e_b) for a < b is tested, times (c d^top)^2.
    """
    n = germ.dim
    comps = (*germ.x_out, *germ.p_out)
    c = lcm(*[comp.den for comp in comps])
    codec = key_codec(n, n)
    entries = []  # per row of J: (column, numerator over c, monomial)
    for comp in comps:
        scale = c // comp.den
        row = []
        for key, num in comp.nums.items():
            pe, xe = codec.unpack(key)
            degree = sum(pe)
            if degree == 1:
                row.append((n + pe.index(1), num * scale, xe))
            elif not degree:
                row += [(j, num * scale * e, xe[:j] + (e - 1,) + xe[j + 1:])
                        for j, e in enumerate(xe) if e]
        entries.append(row)
    top = max((sum(xe) for row in entries for _, _, xe in row), default=0)
    for point in points:
        b = [frac(v) for v in point]
        d = lcm(*[v.denominator for v in b])
        a = [v.numerator * (d // v.denominator) for v in b]
        jac = []
        for row in entries:
            vals = [0] * (2 * n)
            for col, num, xe in row:
                val = num * d ** (top - sum(xe))
                for v, e in zip(a, xe):
                    if e:
                        val *= v ** e
                vals[col] += val
            jac.append(vals)
        unit = (c * d ** top) ** 2
        xs, ps = jac[:n], jac[n:]
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                form = sum(p[i] * x[j] - x[i] * p[j] for x, p in zip(xs, ps))
                if form != (-unit if j == i + n else 0):
                    raise ValidityError(
                        f"linearization at core point {tuple(point)} is not symplectic")


def graph_of_germ(germ: GermJet) -> Micromorphism:
    """The micromorphism whose parametrized relation is the graph of the germ.

    Validates that the jets preserve the core, have symplectic linearization
    at sampled core points, and satisfy the closedness identities at every
    faithful order; then solves X(u, p1) = x2 for u, pushes the momenta
    forward, and integrates the resulting closed form radially into S.
    Functorial against compose, and inverse to extract_germ on its domain.
    """
    n, k = germ.dim, germ.order
    phi = _core_inverse(germ)
    for comp in germ.p_out:
        stray = comp.core_part()
        if not stray.is_zero():
            raise ValidityError(
                f"germ does not preserve the core: momentum output {stray.to_text()} at p = 0")
    _symplectic_jacobian_check(germ, _sample_core_points(n))
    space = (n, n, k)
    x_hat, p_hat = _affine_solve(phi, germ.x_out, germ.p_out, n, k)
    for i in range(n):
        for j in range(i + 1, n):
            if x_hat[i].partial_fiber(j) != x_hat[j].partial_fiber(i):
                raise ValidityError(
                    f"jet data is not lagrangian: dX{i + 1}/dp{j + 1} != dX{j + 1}/dp{i + 1}")
            if p_hat[i].partial_base(j) != p_hat[j].partial_base(i):
                raise ValidityError(
                    f"jet data is not lagrangian: dP{i + 1}/dx{j + 1} != dP{j + 1}/dx{i + 1}")
    for i in range(n):
        for j in range(n):
            lhs = x_hat[i].partial_base(j).at_order(k - 1)
            rhs = p_hat[j].partial_fiber(i).at_order(k - 1)
            if lhs != rhs:
                raise ValidityError(
                    f"jet data is not lagrangian: dX{i + 1}/dx{j + 1} != dP{j + 1}/dp{i + 1} "
                    f"at the faithful order")
    gen = _radial_potential(x_hat, p_hat, space).at_order(k)
    return Micromorphism(MicroObject(n), MicroObject(n), gen)


def _radial_potential(fiber_comps, base_comps, space) -> FiberGradedPoly:
    """Potential of the closed 1-form (fiber_comps) dp + (base_comps) dx with S(0) = 0."""
    tm, tn, torder = space
    codec = key_codec(tm, tn)
    limit, units, exponents = torder << codec.degree_shift, codec.units, codec.exponents
    terms = [(key + units[i], n, comp.den * (sum(exponents(key)) + 1))
             for i, comp in enumerate(fiber_comps) for key, n in comp.nums.items() if key < limit]
    terms += [(key + units[tm + j], n, comp.den * (sum(exponents(key)) + 1))
              for j, comp in enumerate(base_comps) for key, n in comp.nums.items()]
    return FiberGradedPoly._packed(tm, tn, torder, terms)
