"""Reference oracle: the germ solves that re-substitute the whole position.

A frozen copy of the solve paths of ``microsympl.micro``'s ``extract_germ``,
``graph_of_germ`` and ``invert_germ`` as they were before the solves were
shifted to the core.  Every fixed-point update substitutes the full position
candidate ``X = phi(x) + W`` into the base slots of the equations, seeded at
``phi``.  Built on the public ``jetalg`` API and the public ``CoreMap``,
``GermJet`` and ``Micromorphism`` types.  ``core_components`` is the
``Micromorphism.core`` of the same era: one fiber derivative, core
restriction and fiber strip per source dimension.  The input checks of the library
functions are left out: the oracle is only ever called on germs that pass
them, and the checks are covered by ``tests/test_micro.py``.  ``linearized_relation``
is the tangent relation of the same era: every first and second derivative
of S built as a polynomial, then evaluated at (0, point).
``affine_parts`` and
``affine_inverse`` are the ``CoreMap`` methods from before they read integer
rows: coefficients looked up one by one, then ``mat_inverse`` and
``mat_vec`` on ``Fraction``s; the solves here read their linear parts
through this ``affine_parts``.  The matrix helpers are the frozen copies in
``reference_linsympl``, so no library matrix routine checks itself here.
``symplectic_jacobian_check`` is the Jacobian test of ``graph_of_germ`` as
it was before it ran on integers: each component truncated at order 1 and
differentiated in all 2n directions, and
J^T Omega J compared with Omega through two ``Fraction`` ``mat_mul``
products per point.  ``closedness_check`` holds the pairwise closedness
identities that ``graph_of_germ`` ran on the graph form (``graph_form``)
before it checked the germ against its potential alone; it and
``symplectic_jacobian_check`` were the whole symplectic test.
``compose_germs`` is the germ
composition from before it was shifted to the core: the whole inner position
X(x, p) goes into the base slots of the outer jets, through the frozen
``reference_jetalg.substitute_many``.  ``_stationary``, ``compose`` and
``stationary_middle`` are the composition from before it solved its middle
point at half the order: both operands lifted to order K + 1, the middle
point solved there, the composite assembled there and then truncated at K.
Every solve here runs through the frozen
``reference_jetalg.solve_triangular_fixed_point``, which applies its update
until it changes nothing.  Tests require the library to agree with these
functions exactly; do not optimise this file.
"""

from fractions import Fraction

import reference_jetalg
from microsympl.errors import (ConvergenceError, FiltrationError, InternalInvariantError,
                               NormalFormError, ShapeError, UnsupportedCoreError,
                               ValidityError)
from microsympl.jetalg import FiberGradedPoly, combine, frac, substitute_many
from microsympl.linsympl import LinCanonicalRelation
from microsympl.micro import CoreMap, GermJet, Micromorphism, MicroObject, unit_exp
from reference_linsympl import mat_inverse, mat_mul, mat_vec, transpose, unit_vector, zero_vector


def core_components(gen):
    """The components dS/dp_i(0, x) of the core map of ``gen``, as pure base
    polynomials at order 0."""
    comps = []
    for i in range(gen.fiber_arity):
        part = gen.partial_fiber(i).core_part()
        terms = {((), xe): c for (pe, xe), c in part.terms.items() if sum(pe) == 0}
        comps.append(FiberGradedPoly(0, gen.base_arity, 0, terms))
    return tuple(comps)


def _corrected(z, targets, vals, inv):
    """The affine correction z + inv (targets - vals), componentwise."""
    deltas = [t - v for t, v in zip(targets, vals)]
    out = []
    for zi, row in zip(z, inv):
        corr = FiberGradedPoly.zero(*zi.space())
        for c, delta in zip(row, deltas):
            if c:
                corr = corr + delta.scale(c)
        out.append(zi + corr)
    return out


def _affine_solve(phi, equations, space):
    """Positions X with equations(p, X) = x, seeded at phi, corrected by
    z -> z + A^-1 (x - equations(p, z))."""
    n, _, k = space
    inv, _ = affine_parts(phi)
    xvars = [FiberGradedPoly.base_var(n, n, k, j) for j in range(n)]
    seeds = tuple(c.embed(n, n).at_order(k) for c in phi.components)
    none_fiber = [None] * n

    def step(z):
        return _corrected(z, xvars, substitute_many(equations, none_fiber, list(z), space),
                          inv)

    return reference_jetalg.solve_triangular_fixed_point(seeds, step)


def extract_germ(f):
    phi = f.core.affine_inverse()
    n, k, gen = f.source.core_dim, f.order, f.gen
    space = (n, n, k)
    xs = _affine_solve(phi, [gen.partial_fiber(i) for i in range(n)], space)
    ps = tuple(substitute_many([gen.partial_base(i) for i in range(n)],
                               [None] * n, list(xs), space))
    return GermJet(n, k, xs, ps)


def compose_germs(outer, inner):
    """Jet composition outer after inner by direct substitution of the inner
    jets, truncated at the common order."""
    n, k = outer.dim, outer.order
    for comp in inner.p_out:
        if any(sum(pe) == 0 for pe, _ in comp.terms):
            raise ValidityError("inner germ does not preserve the core")
    outs = reference_jetalg.substitute_many((*outer.x_out, *outer.p_out), inner.p_out,
                                            inner.x_out, (n, n, k))
    return GermJet(n, k, tuple(outs[:n]), tuple(outs[n:]))


def invert_germ(germ):
    n, k = germ.dim, germ.order
    phi = germ.core_restriction().affine_inverse()
    c_rows = tuple(tuple(germ.p_out[i].partial_fiber(j).coefficient((0,) * n, (0,) * n)
                         for j in range(n)) for i in range(n))
    c_inv = mat_inverse(c_rows)
    space = (n, n, k)
    b_inv, _ = affine_parts(phi)
    xvars = [FiberGradedPoly.base_var(n, n, k, j) for j in range(n)]
    pvars = [FiberGradedPoly.fiber_var(n, n, k, j) for j in range(n)]
    seeds = [c.embed(n, n).at_order(k) for c in phi.components]
    seeds += [FiberGradedPoly.zero(n, n, k) for _ in range(n)]

    def step(z):
        # momenta first, then positions against the refreshed momenta
        xs, ps = z[:n], z[n:]
        new_p = _corrected(ps, pvars, substitute_many(germ.p_out, list(ps), list(xs), space),
                           c_inv)
        new_x = _corrected(xs, xvars, substitute_many(germ.x_out, new_p, list(xs), space),
                           b_inv)
        return (*new_x, *new_p)

    sol = reference_jetalg.solve_triangular_fixed_point(tuple(seeds), step)
    return GermJet(n, k, sol[:n], sol[n:])


def graph_form(germ):
    """The components (x_hat, p_hat) of the graph form x_hat dp + p_hat dx:
    X(x_hat, p) = x and p_hat = P(x_hat, p)."""
    n, k = germ.dim, germ.order
    phi = germ.core_restriction().affine_inverse()
    space = (n, n, k)
    x_hat = _affine_solve(phi, germ.x_out, space)
    return x_hat, tuple(substitute_many(germ.p_out, [None] * n, list(x_hat), space))


def graph_of_germ(germ):
    n, k = germ.dim, germ.order
    x_hat, p_hat = graph_form(germ)
    gen = _radial_potential(x_hat, p_hat, (n, n, k)).at_order(k)
    return Micromorphism(MicroObject(n), MicroObject(n), gen)


def closedness_check(x_hat, p_hat, k):
    """Raise ValidityError unless the graph form is closed, pair by pair:
    dX/dp and dP/dx symmetric, and dX/dx = (dP/dp)^T below fiber degree K."""
    n = len(x_hat)
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


def _radial_potential(fiber_comps, base_comps, space):
    """Potential of the closed 1-form (fiber_comps) dp + (base_comps) dx with S(0) = 0."""
    tm, tn, torder = space
    terms = [((pe[:i] + (pe[i] + 1,) + pe[i + 1:], xe), c / (sum(pe) + sum(xe) + 1))
             for i, comp in enumerate(fiber_comps)
             for (pe, xe), c in comp.terms.items() if sum(pe) < torder]
    terms += [((pe, xe[:j] + (xe[j] + 1,) + xe[j + 1:]), c / (sum(pe) + sum(xe) + 1))
              for j, comp in enumerate(base_comps) for (pe, xe), c in comp.terms.items()]
    return FiberGradedPoly(tm, tn, torder, terms)


def linearized_relation(gen, point):
    m, n = gen.fiber_arity, gen.base_arity
    b = tuple(frac(v) for v in point)
    if len(b) != n:
        raise ShapeError(f"point has dimension {len(b)}, expected {n}")
    zeros = (Fraction(0),) * m
    dp = [gen.partial_fiber(i) for i in range(m)]
    dx = [gen.partial_base(j) for j in range(n)]
    spp = [[dp[i].partial_fiber(j).evaluate(zeros, b) for j in range(m)] for i in range(m)]
    spx = [[dp[i].partial_base(j).evaluate(zeros, b) for j in range(n)] for i in range(m)]
    sxx = [[dx[i].partial_base(j).evaluate(zeros, b) for j in range(n)] for i in range(n)]
    vectors = []
    for a in range(m):
        vectors.append(tuple(spp[i][a] for i in range(m)) + unit_vector(m, a)
                       + zero_vector(n) + tuple(spx[a][j] for j in range(n)))
    for c in range(n):
        vectors.append(tuple(spx[i][c] for i in range(m)) + zero_vector(m)
                       + unit_vector(n, c) + tuple(sxx[j][c] for j in range(n)))
    return LinCanonicalRelation.from_vectors(m, n, vectors)


def symplectic_jacobian_check(germ, points):
    """Raise ValidityError at the first core point where the Jacobian of the
    germ at p = 0 is not symplectic."""
    n = germ.dim
    zeros = (Fraction(0),) * n
    derivs = []
    for comp in (*germ.x_out, *germ.p_out):
        comp = comp.at_order(1)
        parts = ([comp.partial_base(j) for j in range(n)]
                 + [comp.partial_fiber(j) for j in range(n)])
        derivs.append([d.core_part() for d in parts])
    omega = []
    for i in range(n):
        omega.append(zero_vector(n) + tuple(Fraction(-1 if j == i else 0)
                                            for j in range(n)))
    for i in range(n):
        omega.append(unit_vector(n, i) + zero_vector(n))
    omega = tuple(omega)
    for point in points:
        j_mat = tuple(tuple(d.evaluate(zeros, point) for d in row) for row in derivs)
        if mat_mul(transpose(j_mat), mat_mul(omega, j_mat)) != omega:
            raise ValidityError(
                f"linearization at core point {tuple(point)} is not symplectic")


def affine_parts(core):
    """Linear part and constant part of an affine core map."""
    if not core.is_affine():
        raise UnsupportedCoreError("core map is not affine")
    rows = []
    consts = []
    for comp in core.components:
        rows.append(tuple(comp.coefficient((), unit_exp(core.domain_dim, j))
                          for j in range(core.domain_dim)))
        consts.append(comp.coefficient((), (0,) * core.domain_dim))
    return tuple(rows), tuple(consts)


def affine_inverse(core):
    """Inverse of an affine core map with invertible linear part."""
    if core.codomain_dim != core.domain_dim:
        raise UnsupportedCoreError("core map is not square")
    rows, consts = affine_parts(core)
    inv = mat_inverse(rows)
    if inv is None:
        raise UnsupportedCoreError("linear part of the core map is not invertible")
    n = core.domain_dim
    shift = mat_vec(inv, consts)
    comps = []
    for i in range(n):
        terms = {((), unit_exp(n, j)): inv[i][j] for j in range(n)}
        terms[((), (0,) * n)] = -shift[i]
        comps.append(FiberGradedPoly(0, n, 0, terms))
    return CoreMap(n, tuple(comps))


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

    sol = reference_jetalg.solve_triangular_fixed_point((*seed_x, *seed_p), step)
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
