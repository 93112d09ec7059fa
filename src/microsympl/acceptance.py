"""Seeded acceptance suite: every criterion is exact, all arithmetic rational.

Each criterion function returns a :class:`CriterionResult`; ``build_report``
assembles the deterministic self-check report the CLI prints.  The report
text depends only on the seed and the package code, never on timing or
entropy, so two runs with the same seed are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linsympl, operad
from .jetalg import FiberGradedPoly
from .linsympl import (compose_linear, graph_relation, is_lagrangian, mat_mul,
                       subspace_equal)
from .micro import (CoreMap, Micromorphism, MicroObject, compose, cotangent_lift,
                    extract_germ, graph_of_germ, identity, is_micromorphism,
                    stationary_middle, symmetry, tangent_relation_at, tensor,
                    unit_object)
from .sampling import (rand_affine_core_micromorphism, rand_core_map,
                       rand_fraction, rand_lagrangian_relation,
                       rand_micromorphism, rand_point, rand_poly,
                       rand_splitting, rand_symplectic_matrix,
                       rand_violating_gen, rng_for)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {self.name}: {status} ({self.detail})"


# -- shared fixture for criteria 1 and 2 ---------------------------------------


def _category_fixture(seed):
    """200 random micromorphisms and 100 composable triples with composites."""
    rng = rng_for(seed, "category")
    morphisms = []
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        order = rng.randint(1, 4)
        morphisms.append(rand_micromorphism(rng, m, n, order))
    triples = []
    for _ in range(100):
        dims = [rng.randint(1, 3) for _ in range(4)]
        order = rng.randint(1, 4)
        f = rand_micromorphism(rng, dims[0], dims[1], order)
        g = rand_micromorphism(rng, dims[1], dims[2], order)
        h = rand_micromorphism(rng, dims[2], dims[3], order)
        gf = compose(g, f)
        hg = compose(h, g)
        triples.append((f, g, h, gf, hg, compose(h, gf), compose(hg, f)))
    return morphisms, triples


def criterion_category_laws(fixture) -> CriterionResult:
    """Identity is a two-sided unit and composition is associative, exactly."""
    morphisms, triples = fixture
    unit_failures = 0
    for f in morphisms:
        if compose(f, identity(f.source, f.order)) != f:
            unit_failures += 1
        if compose(identity(f.target, f.order), f) != f:
            unit_failures += 1
    assoc_failures = sum(1 for (_, _, _, _, _, lhs, rhs) in triples if lhs != rhs)
    ok = unit_failures == 0 and assoc_failures == 0
    return CriterionResult(
        1, "category-laws", ok,
        f"200 morphisms, unit failures {unit_failures}; "
        f"100 triples, associativity failures {assoc_failures}")


def criterion_closure(fixture) -> CriterionResult:
    """Composites are valid micromorphisms and cores compose contravariantly."""
    _, triples = fixture
    failures = 0
    checked = 0
    for f, g, h, gf, hg, h_gf, _ in triples:
        for inner, outer, comp in ((f, g, gf), (g, h, hg), (gf, h, h_gf)):
            checked += 1
            if not is_micromorphism(comp.gen, comp.source, comp.target):
                failures += 1
            elif comp.core != inner.core.compose(outer.core):
                failures += 1
    ok = failures == 0
    return CriterionResult(2, "closure", ok,
                           f"{checked} composites checked, failures {failures}")


def criterion_lift_functoriality(seed) -> CriterionResult:
    """compose(lift psi, lift phi) equals lift(phi after psi), exactly."""
    rng = rng_for(seed, "lifts")
    failures = 0
    for _ in range(100):
        m, n, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        order = rng.randint(1, 4)
        phi = rand_core_map(rng, n, m)
        psi = rand_core_map(rng, q, n)
        lhs = compose(cotangent_lift(psi, order), cotangent_lift(phi, order))
        rhs = cotangent_lift(phi.compose(psi), order)
        if lhs != rhs:
            failures += 1
    # worked instance: the lift of x^3 after the lift of x^2 is the lift of x^6
    phi = CoreMap.from_terms(1, [{((), (2,)): Fraction(1)}])
    psi = CoreMap.from_terms(1, [{((), (3,)): Fraction(1)}])
    worked = compose(cotangent_lift(psi, 2), cotangent_lift(phi, 2))
    expected = FiberGradedPoly(1, 1, 2, {((1,), (6,)): Fraction(1)})
    worked_ok = worked.gen == expected
    ok = failures == 0 and worked_ok
    return CriterionResult(
        3, "lift-functoriality", ok,
        f"100 pairs, failures {failures}; worked instance "
        f"{'ok' if worked_ok else 'wrong'}")


def criterion_transversality(seed) -> CriterionResult:
    """Valid morphisms are transverse to every sampled splitting; violators fail."""
    rng = rng_for(seed, "transversality")
    transversal_failures = 0
    checks = 0
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        order = rng.randint(1, 4)
        f = rand_micromorphism(rng, m, n, order)
        for _ in range(5):
            b = rand_point(rng, n)
            rel = tangent_relation_at(f, b)
            for _ in range(20):
                checks += 1
                if not linsympl.transverse_to_splitting(rel, rand_splitting(rng, n)):
                    transversal_failures += 1
    violator_failures = 0
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        order = rng.randint(1, 4)
        gen = rand_violating_gen(rng, m, n, order)
        if is_micromorphism(gen, MicroObject(m), MicroObject(n)):
            violator_failures += 1
    ok = transversal_failures == 0 and violator_failures == 0
    return CriterionResult(
        4, "transversality", ok,
        f"{checks} splitting checks, failures {transversal_failures}; "
        f"50 violators, undetected {violator_failures}")


def criterion_linear_layer(seed) -> CriterionResult:
    """Linear composition stays lagrangian; graphs compose like matrices."""
    rng = rng_for(seed, "linear")
    lagr_failures = 0
    for _ in range(500):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        v = rand_lagrangian_relation(rng, m, n)
        w = rand_lagrangian_relation(rng, n, q)
        c = compose_linear(w, v)
        if not is_lagrangian(c.subspace.space, c.vectors):
            lagr_failures += 1
    graph_failures = 0
    for half_dim in (1, 2):
        for _ in range(20):
            a = rand_symplectic_matrix(rng, half_dim)
            b = rand_symplectic_matrix(rng, half_dim)
            got = compose_linear(graph_relation(a), graph_relation(b))
            want = graph_relation(mat_mul(a, b))
            if not subspace_equal(got.vectors, want.vectors):
                graph_failures += 1
    ok = lagr_failures == 0 and graph_failures == 0
    return CriterionResult(
        5, "linear-layer", ok,
        f"500 compositions, non-lagrangian {lagr_failures}; "
        f"40 graph products, failures {graph_failures}")


def criterion_monoidal(seed) -> CriterionResult:
    """Braiding squares to the identity and is natural; interchange; initial unit."""
    rng = rng_for(seed, "monoidal")
    failures = []
    for na, nb in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)):
        a, b = MicroObject(na), MicroObject(nb)
        if compose(symmetry(b, a, 2), symmetry(a, b, 2)) != identity(a.tensor(b), 2):
            failures.append(f"sigma^2 at ({na},{nb})")
    naturality_failures = 0
    for _ in range(50):
        dims = [rng.randint(1, 2) for _ in range(4)]
        order = rng.randint(1, 3)
        f1 = rand_micromorphism(rng, dims[0], dims[1], order, terms=2)
        f2 = rand_micromorphism(rng, dims[2], dims[3], order, terms=2)
        lhs = compose(symmetry(MicroObject(dims[1]), MicroObject(dims[3]), order),
                      tensor(f1, f2))
        rhs = compose(tensor(f2, f1),
                      symmetry(MicroObject(dims[0]), MicroObject(dims[2]), order))
        if lhs != rhs:
            naturality_failures += 1
    if naturality_failures:
        failures.append(f"naturality x{naturality_failures}")
    interchange_failures = 0
    for _ in range(50):
        dims = [rng.randint(1, 2) for _ in range(6)]
        order = rng.randint(1, 3)
        f1 = rand_micromorphism(rng, dims[0], dims[1], order, terms=2)
        g1 = rand_micromorphism(rng, dims[1], dims[2], order, terms=2)
        f2 = rand_micromorphism(rng, dims[3], dims[4], order, terms=2)
        g2 = rand_micromorphism(rng, dims[4], dims[5], order, terms=2)
        lhs = compose(tensor(g1, g2), tensor(f1, f2))
        rhs = tensor(compose(g1, f1), compose(g2, f2))
        if lhs != rhs:
            interchange_failures += 1
    if interchange_failures:
        failures.append(f"interchange x{interchange_failures}")
    unit_failures = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(1, 3)
        candidate = rand_poly(rng, 0, n, order, terms=2)
        if candidate.is_zero():
            continue
        if is_micromorphism(candidate, unit_object(), MicroObject(n)):
            unit_failures += 1
    for n in (1, 2, 3):
        if not is_micromorphism(FiberGradedPoly.zero(0, n, 2), unit_object(),
                                MicroObject(n)):
            unit_failures += 1
    if unit_failures:
        failures.append(f"initial-unit x{unit_failures}")
    ok = not failures
    return CriterionResult(
        6, "monoidal-axioms", ok,
        "all identities exact" if ok else "; ".join(failures))


def criterion_operad(seed) -> CriterionResult:
    """Diagonal suboperad identities and random two-level associativity."""
    base = MicroObject(1)
    d2 = operad.diagonal_lift(base, 2, 3)
    d3 = operad.diagonal_lift(base, 3, 3)
    ident = operad.unit_element(base, 3)
    e = operad.diagonal_lift(base, 0, 3)
    explicit_ok = (
        operad.operad_compose(d2, (d2, ident)).morphism == d3.morphism
        and operad.operad_compose(d2, (ident, d2)).morphism == d3.morphism
        and operad.operad_compose(d2, (ident, e)).morphism == ident.morphism
        and operad.operad_compose(d2, (e, ident)).morphism == ident.morphism)
    report = operad.check_operad_axioms(base, seed, max_arity=3, levels=2, samples=50)
    ok = explicit_ok and report.passed
    return CriterionResult(
        7, "operad-axioms", ok,
        f"explicit diagonal identities {'ok' if explicit_ok else 'wrong'}; "
        f"{report.checked} report checks, failed {report.failed}")


def criterion_germ_roundtrip(seed) -> CriterionResult:
    """graph_of_germ inverts extract_germ exactly on affine-invertible cores."""
    rng = rng_for(seed, "germs")
    failures = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        f = rand_affine_core_micromorphism(rng, n, order)
        if graph_of_germ(extract_germ(f)) != f:
            failures += 1
    worked = Micromorphism(
        MicroObject(1), MicroObject(1),
        FiberGradedPoly(1, 1, 2, {((1,), (1,)): Fraction(1),
                                  ((2,), (0,)): Fraction(1, 2)}))
    germ = extract_germ(worked)
    expected_x = FiberGradedPoly(1, 1, 2, {((0,), (1,)): Fraction(1),
                                           ((1,), (0,)): Fraction(-1)})
    expected_p = FiberGradedPoly.fiber_var(1, 1, 2, 0)
    worked_ok = (germ.x_out[0] == expected_x and germ.p_out[0] == expected_p
                 and graph_of_germ(germ) == worked)
    ok = failures == 0 and worked_ok
    return CriterionResult(
        8, "germ-roundtrip", ok,
        f"50 round trips, failures {failures}; worked instance "
        f"{'ok' if worked_ok else 'wrong'}")


def criterion_pointwise_composition(seed) -> CriterionResult:
    """Sampled points satisfy the membership equations of both factors and the composite."""
    rng = rng_for(seed, "pointwise")
    failures = 0
    instances = 0
    for idx in range(20):
        m, n, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        order = rng.randint(2, 4)
        if idx % 2 == 0:
            f = rand_micromorphism(rng, m, n, order)
            g = cotangent_lift(rand_core_map(rng, q, n), order)
        else:
            phi = rand_core_map(rng, n, m, max_deg=1)
            f = cotangent_lift(phi, order)
            g = rand_micromorphism(rng, n, q, order)
        h = compose(g, f)
        ybar, qbar = stationary_middle(g, f)
        instances += 1
        for _ in range(3):
            p1 = tuple(rand_fraction(rng, 2, 3, nonzero=True) for _ in range(m))
            x3 = rand_point(rng, q, 2, 3)
            yv = tuple(c.evaluate(p1, x3) for c in ybar)
            qv = tuple(c.evaluate(p1, x3) for c in qbar)
            x1 = tuple(f.gen.partial_fiber(i).evaluate(p1, yv) for i in range(m))
            p2 = tuple(f.gen.partial_base(j).evaluate(p1, yv) for j in range(n))
            w_in = tuple(g.gen.partial_fiber(j).evaluate(qv, x3) for j in range(n))
            p3 = tuple(g.gen.partial_base(r).evaluate(qv, x3) for r in range(q))
            hx1 = tuple(h.gen.partial_fiber(i).evaluate(p1, x3) for i in range(m))
            hp3 = tuple(h.gen.partial_base(r).evaluate(p1, x3) for r in range(q))
            if not (p2 == qv and w_in == yv and hx1 == x1 and hp3 == p3):
                failures += 1
    ok = failures == 0
    return CriterionResult(
        9, "pointwise-composition", ok,
        f"{instances} truncation-free instances x 3 points, failures {failures}")


# criteria 3..9; 1 and 2 share the category fixture
_CRITERIA = (
    criterion_lift_functoriality,
    criterion_transversality,
    criterion_linear_layer,
    criterion_monoidal,
    criterion_operad,
    criterion_germ_roundtrip,
    criterion_pointwise_composition,
)


def run_criteria(seed) -> list[CriterionResult]:
    fixture = _category_fixture(seed)
    return [criterion_category_laws(fixture), criterion_closure(fixture),
            *(fn(seed) for fn in _CRITERIA)]


def build_report(seed) -> tuple[str, bool]:
    """Full self-check: criteria 1..9 plus an in-process determinism re-run."""
    first = run_criteria(seed)
    second = run_criteria(seed)
    identical = [r.line() for r in first] == [r.line() for r in second]
    results = list(first)
    results.append(CriterionResult(
        10, "determinism", identical,
        "two in-process passes produced identical lines" if identical
        else "passes disagree"))
    passed = sum(1 for r in results if r.passed)
    lines = [f"selfcheck seed={seed}"]
    lines += [r.line() for r in results]
    lines.append(f"summary: {passed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n", passed == len(results)
