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
that always converges for valid operands.  The sum is stationary there, so a
middle point exact through fiber degree K // 2 gives it exactly at order K.
When dS_f/dy vanishes through K // 2, Q = 0 is exact, so Y = core(g) and the
composite is S_f(p1, Y), as S_g(0, x3) = 0: always at K = 1, after unit_to
(S_f = 0), and at K <= 3 after an inner operand with a constant core.

Symplectomorphism germs (GermJet) need an affine core with invertible linear
part.  extract_germ, graph_of_germ and invert_germ solve for the fiber part W
of X = phi(x) + W, phi the affine core inverse.  At p = 0 the position
equations are the core map A X + b that phi inverts, and every other term has
a p, so at X = phi(x) + w they read x + A w + N, N their terms of fiber
degree >= 1: their part L w is A w, and phi holds A^-1.  Each solve folds
F = -L^-1 N once (_folded), expands it once at X = phi(x) + w (_shifted), and
updates W from 0 by one batch W -> F(W) (_corrected); the first, F(0), is
read off the keys of F.  invert_germ solves its momenta first, with L = C,
the constant linear part of P, and N its terms of fiber degree >= 2.
compose_germs shifts the outer jets to the inner core restriction the same
way, so only fiber-degree >= 1 values are substituted.

graph_of_germ checks two identities, S the radial potential it builds: dX/dp
is symmetric and dS/dx = P.  They imply dS/dp = X below fiber degree K: with
dS/dx = P, the Euler identity of S gives sum p_i (dS/dp_i - X_i) = 0, and the
differences have symmetric p-derivatives, so each vanishes.  So dS gives the
graph form back, and the linearization is symplectic at every core point.
Tangent relations read the gradient of S off its terms of fiber degree <= 1,
at all of a call's core points (0, b) in one pass of _first_derivatives.
CoreMap.jacobian_at, the other side of the cross-check in is_micromorphism,
stays independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import (CheckResult, ConvergenceError, FiltrationError,
                     InternalInvariantError, NormalFormError, ShapeError,
                     UnsupportedCoreError, ValidityError)
from .jetalg import (FiberGradedPoly, combine, frac, key_codec,
                     solve_triangular_fixed_point, substitute_many)
from .linsympl import (LinCanonicalRelation, Matrix, _eliminate, _fractions, _left_solve,
                       check_linear_micromorphism)


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
        if len(point) != self.domain_dim:
            raise ShapeError("evaluation point does not match arities")
        return tuple(c.evaluate((), point) for c in self.components)

    def jacobian_at(self, point: Sequence) -> Matrix:
        if len(point) != self.domain_dim:
            raise ShapeError("evaluation point does not match arities")
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
    """Middle point (Y, Q) of composition in (source fiber, final base, order);
    the seed itself when S_f has no term with a y of fiber degree <= order."""
    m, n, q = f.source.core_dim, f.target.core_dim, g.target.core_dim
    space = (m, q, order)
    # a key of fiber degree 0 is the same int in (0, q) and (m, q)
    seed_x = [FiberGradedPoly._raw(*space, c.den, c.nums) for c in g.core.components]
    seed_p = [FiberGradedPoly.zero(*space)] * n
    # derivatives of the stored jets, cut as they are built: a fiber derivative
    # of a jet already cut at ``order`` would lose its terms of degree ``order``
    sf_dx = [f.gen._lowered(m + j, order) for j in range(n)]
    if not any(p.nums for p in sf_dx):
        return tuple(seed_x), tuple(seed_p)
    sg_dp = [g.gen._lowered(j, order) for j in range(n)]

    def step(z):
        pb = substitute_many(sf_dx, [None] * m, z[:n], space)
        return (*substitute_many(sg_dp, pb, [None] * q, space), *pb)

    sol = solve_triangular_fixed_point((*seed_x, *seed_p), step)
    return sol[:n], sol[n:]


def compose(g: Micromorphism, f: Micromorphism) -> Micromorphism:
    """Composite g after f; always defined for valid micromorphisms.

    With f carrying S_f(p1, y) and g carrying S_g(q, x3), the composite is
    S_f(p1, Y) + S_g(Q, x3) - <Q, Y> where (Y, Q) is the unique filtered
    stationary point, seeded at (core(g)(x3), 0).  The core of the result is
    core(f) composed after core(g).  (Y, Q) is solved through fiber degree
    j = K // 2 only: the sum is stationary there, so an error of degree > j
    moves it by terms quadratic in the error, of degree >= 2j + 2 > K.  The
    seed is exact when dS_f/dy vanishes through j; with Q = 0 the composite
    is S_f(p1, Y).  A non-contracting fixed point cannot occur for valid
    operands; hitting one raises InternalInvariantError.
    """
    if f.target != g.source:
        raise ShapeError(
            f"objects do not match: {f.target.core_dim} vs {g.source.core_dim}")
    if f.order != g.order:
        raise ShapeError(f"orders differ: {f.order} vs {g.order}")
    k, m, n, q = f.order, f.source.core_dim, f.target.core_dim, g.target.core_dim
    space = (m, q, k)
    try:
        ys, qs = ([v.at_order(k) for v in part] for part in _stationary(g, f, k // 2))
        total = f.gen.substitute([None] * m, ys, space=space)
        if any(p.nums for p in qs):
            total = combine((total, g.gen.substitute(qs, [None] * q, space=space),
                             *(p * y for y, p in zip(ys, qs))), (1, 1, *(-1,) * n))
        return Micromorphism(f.source, g.target, total)
    except (ConvergenceError, NormalFormError, FiltrationError) as exc:
        raise InternalInvariantError(
            f"composition failed on valid-looking inputs: {exc}") from exc


def stationary_middle(g: Micromorphism, f: Micromorphism):
    """The middle point (Y, Q) eliminated by compose, at the stored order."""
    if f.target != g.source:
        raise ShapeError("objects do not match")
    if f.order != g.order:
        raise ShapeError("orders differ")
    return _stationary(g, f, f.order)


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


def _first_derivatives(comps, m: int, n: int, points: Sequence):
    """Yield ``(rows, u)`` per core point b: row i is u times the derivatives
    of comps[i] at (p, x) = (0, b), first in x1..xn and then in p1..pm.

    Only terms of fiber degree <= 1 reach them: c x^a adds d/dx_j (c x^a) to
    column j, and c p_i x^a adds c x^a to column n + i.  They are read once
    for all points, over the lcm ``c`` of the component denominators; at a
    point b = a / d every entry is an integer over u = c d^top, top the
    largest degree of an entry's monomial.
    """
    c = lcm(*[comp.den for comp in comps])
    codec = key_codec(m, n)
    limit = 2 << codec.degree_shift
    entries = []  # per component: (column, numerator over c, monomial)
    for comp in comps:
        scale = c // comp.den
        row = []
        for key, num in comp.nums.items():
            if key >= limit:
                continue
            pe, xe = codec.unpack(key)
            if key >> codec.degree_shift:
                row.append((n + pe.index(1), num * scale, xe))
            else:
                row += [(j, num * scale * e, xe[:j] + (e - 1,) + xe[j + 1:])
                        for j, e in enumerate(xe) if e]
        entries.append(row)
    top = max((sum(xe) for row in entries for _, _, xe in row), default=0)
    for point in points:
        b = [frac(v) for v in point]
        if len(b) != n:
            raise ShapeError(f"point has dimension {len(b)}, expected {n}")
        d = lcm(*[v.denominator for v in b])
        a = [v.numerator * (d // v.denominator) for v in b]
        rows = []
        for row in entries:
            vals = [0] * (n + m)
            for col, num, xe in row:
                vals[col] += num * d ** (top - sum(xe)) * prod(map(pow, a, xe))
            rows.append(vals)
        yield rows, c * d ** top


def _linearized_relations(gen: FiberGradedPoly, points: Sequence) -> list[LinCanonicalRelation]:
    """``linearized_relation`` at each of the points, from one gradient."""
    m, n = gen.fiber_arity, gen.base_arity
    grad = [gen.partial_fiber(i) for i in range(m)] + [gen.partial_base(j) for j in range(n)]
    out = []
    for rows, u in _first_derivatives(grad, m, n, points):
        scaled = [row[n:] + [u if w == v else 0 for w in range(m + n)] + row[:n]
                  for v, row in enumerate(rows)]
        # each vector has an entry 1, so its _integer_rows row is the primitive one
        scales = [gcd(*row) for row in scaled]
        out.append(LinCanonicalRelation._built(m, n, _fractions(scaled, u), tuple(
            [x // g for x in row] for row, g in zip(scaled, scales))))
    return out


def linearized_relation(gen: FiberGradedPoly, point: Sequence) -> LinCanonicalRelation:
    """Tangent relation of the parametrized relation of S at a base point.

    Works for any generating function, and is lagrangian for any, so it is
    not checked: the unit pivots give rank m + n, and the Hessian of S is
    symmetric.  For a valid micromorphism the base Hessian block vanishes
    and this reduces to the normal-form formula dx1 = Q dp1 + Dphi dx2,
    dp2 = Dphi^T dp1 with Q = d2S/dp2(0, point).
    The vector of the variable v (p1..pm, then x1..xn) is the derivative in
    v of the gradient (dS/dp, dS/dx) at (0, point), with the unit of v as its
    dp1 or dx2 part; by that symmetry it is row v of ``_first_derivatives``
    on the gradient, p part first, all over u.
    """
    return _linearized_relations(gen, [point])[0]


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
    points = _sample_core_points(target.core_dim)
    reasons = []
    for b, rel in zip(points, _linearized_relations(gen, points)):
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
    # a key of fiber degree 0 is the same int in (0, n) and (2n, n); w is cut at order 0
    units = key_codec(2 * n, n).units
    w_at_core = [FiberGradedPoly._raw(2 * n, n, k, c.den,
                                      {**c.nums, units[n + j]: c.den} if k else c.nums)
                 for j, c in enumerate(phi.components)]
    return substitute_many(polys, [None] * n, w_at_core, (2 * n, n, k))


def _folded(equations, inverse, low: int) -> list[FiberGradedPoly]:
    """F = -L^-1 N, before the shift, for equations t + L v + N, N their terms
    of fiber degree >= ``low``, and ``inverse`` the rows of L^-1."""
    rest = [FiberGradedPoly._reduced(*e.space(), e.den, {
        key: c for key, c in e.nums.items() if key >> e.codec.degree_shift >= low})
        for e in equations]
    return [combine(rest, [-c for c in row]) for row in inverse]


def _corrected(folded, fiber_values):
    """F(v) = -L^-1 N(v), the folded and shifted system of a germ solve, at
    the fiber values v, in one batch."""
    try:
        # W and P never get a fiber-degree-0 term: phi is the exact core
        # inverse and the momentum outputs vanish on the core (both checked)
        return substitute_many(folded, fiber_values, [None] * len(folded), None)
    except FiltrationError as exc:
        raise InternalInvariantError(f"germ solve left the core: {exc}") from exc


def _affine_solve(phi: CoreMap, equations, momenta, n: int, k: int):
    """Positions X with equations(p, X) = x, as a filtered fixed point, and
    momenta(p, X).

    ``phi`` inverts the core map A X + b that the equations restrict to at
    p = 0, so at X = phi(x) + W they read x + A W + N(p, W), N their terms of
    fiber degree >= 1, and W = -A^-1 N(p, W) = F(W), A^-1 the linear part of
    phi.  W, seeded at 0, is updated by one substitution batch W -> F(W); the
    first update, F(0), is the w-free part of F, read off its keys.
    """
    space = (n, n, k)
    a_inv = [[Fraction(a, den) for a in row[:n]] for den, row in phi._affine_rows()]
    folded = _shifted(_folded(equations, a_inv, 1), phi, n, k)
    # the w fields sit just above the x fields; dropping them re-keys a term
    mask = key_codec(2 * n, n).base_mask
    shift = mask.bit_length()
    first = tuple(FiberGradedPoly._reduced(*space, f.den, {
        key >> shift | key & mask: c for key, c in f.nums.items() if not key >> shift & mask})
        for f in folded)

    def step(w):
        if not any(c.nums for c in w):
            return first
        return _corrected(folded, [None] * n + list(w))

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
    # P reads C p + N(p, X), so p = C^-1 (p' - N); the p slots take values,
    # so C^-1 p' is added after each momentum batch
    c_inv = _left_solve([[p.nums.get(codec.units[j], 0) for j in range(n)]
                         + [p.den * (j == i) for j in range(n)]
                         for i, p in enumerate(germ.p_out)], n)
    if c_inv is None:
        raise UnsupportedCoreError("momentum linearization is not invertible")
    a_inv = [[Fraction(a, den) for a in row[:n]] for den, row in phi._affine_rows()]
    folded = _shifted([*_folded(germ.p_out, c_inv, 2), *_folded(germ.x_out, a_inv, 1)],
                      phi, n, k)
    p_folded, x_folded = folded[:n], folded[n:]
    pvars = [FiberGradedPoly.fiber_var(n, n, k, j) for j in range(n)]
    c_inv_p = [combine(pvars, row) for row in c_inv]

    def step(z):
        # momenta first, then positions against the refreshed momenta: the
        # momentum equation contracts on its own, the position one only
        # against momenta that are already one degree better; the momenta
        # fold at z = 0 is zero, its terms all of fiber degree >= 2
        ws, ps = z[:n], z[n:]
        new_p = c_inv_p if not any(c.nums for c in z) else [
            f + q for f, q in zip(_corrected(p_folded, [*ps, *ws]), c_inv_p)]
        new_w = _corrected(x_folded, [*new_p, *ws])
        return (*new_w, *new_p)

    sol = solve_triangular_fixed_point((FiberGradedPoly.zero(n, n, k),) * (2 * n), step)
    xs = tuple(c.embed(n, n).at_order(k) + w for c, w in zip(phi.components, sol[:n]))
    return GermJet(n, k, xs, sol[n:])


def graph_of_germ(germ: GermJet) -> Micromorphism:
    """The micromorphism whose parametrized relation is the graph of the germ.

    Checks that the jets preserve the core, solves X(u, p1) = x2 for u, pushes
    the momenta forward and integrates u dp1 + p2 dx2, u cut below fiber degree
    K, radially into S.  The germ is symplectic exactly when du/dp1, at degree
    K too, is symmetric and dS/dx2 = p2; then the Euler identity of S reads
    sum p1_i (dS/dp1_i - u_i) = 0, and the symmetric p1-derivatives of the
    differences make dS/dp1 = u below degree K.  Functorial against compose,
    and inverse to extract_germ on its domain.
    """
    n, k = germ.dim, germ.order
    phi = _core_inverse(germ)
    for comp in germ.p_out:
        stray = comp.core_part()
        if not stray.is_zero():
            raise ValidityError(
                f"germ does not preserve the core: momentum output {stray.to_text()} at p = 0")
    if n and not k:  # P vanishes on the core, so at order 0 it is zero
        raise ValidityError("linearization of an order-0 germ is not symplectic")
    x_hat, p_hat = _affine_solve(phi, germ.x_out, germ.p_out, n, k)
    for i in range(n):
        for j in range(i + 1, n):
            if x_hat[i].partial_fiber(j) != x_hat[j].partial_fiber(i):
                raise ValidityError(
                    f"jet data is not lagrangian: dX{i + 1}/dp{j + 1} != dX{j + 1}/dp{i + 1}")
    gen = _radial_potential(x_hat, p_hat, (n, n, k))
    for i, p in enumerate(p_hat):
        if gen.partial_base(i) != p:
            raise ValidityError(f"jet data is not lagrangian: P{i + 1} != dS/dx{i + 1}")
    return Micromorphism(MicroObject(n), MicroObject(n), gen)


def _radial_potential(fiber_comps, base_comps, space) -> FiberGradedPoly:
    """Radial potential, S(0) = 0, of omega = (fiber_comps) dp + (base_comps) dx
    with fiber_comps cut below degree K: dS = omega exactly when omega is closed."""
    tm, tn, torder = space
    codec = key_codec(tm, tn)
    limit, units, exponents = torder << codec.degree_shift, codec.units, codec.exponents
    terms = [(key + units[i], n, comp.den * (sum(exponents(key)) + 1))
             for i, comp in enumerate(fiber_comps) for key, n in comp.nums.items() if key < limit]
    terms += [(key + units[tm + j], n, comp.den * (sum(exponents(key)) + 1))
              for j, comp in enumerate(base_comps) for key, n in comp.nums.items()]
    return FiberGradedPoly._packed(tm, tn, torder, terms)
