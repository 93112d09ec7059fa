"""The benchmark's workloads: seeded inputs, one operation, and its exact check.

Every input is generated from the seed with ``microsympl.sampling`` and
serialized with ``microsympl.textio`` before any timing starts, so an
operation receives only text and parses it itself.  Item ``i`` of a pool
belongs to class ``i % len(classes)``, which fixes the input mix exactly.

Each check runs after the operation's timer stops and re-derives the result
by an independent route or verifies its defining equations, with zero
tolerance.  ``render`` gives the formatted output whose SHA-256 the benchmark
prints, so two commits can be compared byte for byte.

All calls into microsympl go through module attributes (``micro.compose``),
never through names imported from its modules, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from microsympl import linsympl, micro, operad, sampling, textio

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple[str, ...]
    pool_size: int
    trace_ops: int
    generate: Callable[[int, int], list]
    run: Callable
    check: Callable
    render: Callable

    def mix(self) -> str:
        return ", ".join(f"{100 * self.classes.count(c) / len(self.classes):.3g}% {c}"
                         for c in dict.fromkeys(self.classes))


def _rng(seed: int, name: str):
    return sampling.rng_for(seed, f"perfbench:{name}")


# -- compose-chain ---------------------------------------------------------------


class ChainOutcome(NamedTuple):
    steps: tuple  # (outer, inner, composite) per compose, in fold order
    text: str


class OperadOutcome(NamedTuple):
    f: operad.OperadElement
    gs: tuple
    hs: tuple
    composite: operad.OperadElement
    text: str


# order of the chain in each slot of the mix; None marks an operad operation
CHAIN_ORDERS = (1, 2, 3, 4, 1, 2, 3, 4, None)
CHAIN_CLASSES = tuple("operad two-level K=3" if k is None else f"chain K={k}"
                      for k in CHAIN_ORDERS)
# Base degree 1 keeps every composite tiny.  At degree 2 the core degree
# multiplies along a chain, and 1% of chains take a quarter of the time (up
# to 0.7 s each); large polynomials are germ-roundtrip's job.
CHAIN_BASE_DEGREE = 1


def _encode_element(e: operad.OperadElement) -> tuple[int, str]:
    return e.arity, textio.format_morphism(e.morphism)


def _operad_item(rng) -> tuple:
    dim = rng.randint(1, 2)
    obj = micro.MicroObject(dim)
    arity = rng.randint(1, 2)
    f = operad.random_L_element(rng, obj, arity, 3)
    gs = [operad.random_L_element(rng, obj, rng.randint(0, 2), 3) for _ in range(arity)]
    hs = [operad.random_L_element(rng, obj, rng.randint(0, 2), 3)
          for _ in range(sum(g.arity for g in gs))]
    return ("operad", dim, _encode_element(f), tuple(map(_encode_element, gs)),
            tuple(map(_encode_element, hs)))


def generate_compose_chain(seed: int, count: int) -> list:
    rng = _rng(seed, "compose-chain")
    items = []
    for i in range(count):
        order = CHAIN_ORDERS[i % len(CHAIN_ORDERS)]
        if order is None:
            items.append(_operad_item(rng))
            continue
        length = rng.randint(2, 4)
        dims = [rng.randint(1, 3) for _ in range(length + 1)]
        records = tuple(
            textio.format_morphism(sampling.rand_micromorphism(
                rng, dims[j], dims[j + 1], order, max_base_deg=CHAIN_BASE_DEGREE))
            for j in range(length))
        items.append(("chain", records))
    return items


def run_compose_chain(item):
    if item[0] == "operad":
        _, dim, f, gs, hs = item
        obj = micro.MicroObject(dim)

        def decode(e):
            return operad.OperadElement(obj, e[0], textio.parse_morphism(e[1]))

        f, gs, hs = decode(f), tuple(map(decode, gs)), tuple(map(decode, hs))
        composite = operad.operad_compose(operad.operad_compose(f, gs), hs)
        return OperadOutcome(f, gs, hs, composite, textio.format_morphism(composite.morphism))
    morphisms = [textio.parse_morphism(text) for text in item[1]]
    steps = []
    h = morphisms[0]
    for g in morphisms[1:]:
        composite = micro.compose(g, h)
        steps.append((g, h, composite))
        h = composite
    return ChainOutcome(tuple(steps), textio.format_morphism(h))


def stationary_certificate(g, f, h) -> bool:
    """h = g after f, verified on the defining equations of the middle point.

    With (Y, Q) the middle point, Q = dS_f/dy(p1, Y) and Y = dS_g/dq(Q, x3)
    must hold, and S_h = S_f(p1, Y) + S_g(Q, x3) - <Q, Y>, all at order K.
    """
    k = f.order
    m, q = f.source.core_dim, g.target.core_dim
    ys, qs = micro.stationary_middle(g, f)
    space = (m, q, k)
    keep_p, keep_x = [None] * m, [None] * q
    for j, qj in enumerate(qs):
        if qj != f.gen.partial_base(j).substitute(keep_p, list(ys), space=space):
            return False
    for j, yj in enumerate(ys):
        if yj != g.gen.partial_fiber(j).substitute(list(qs), keep_x, space=space):
            return False
    total = (f.gen.substitute(keep_p, list(ys), space=space)
             + g.gen.substitute(list(qs), keep_x, space=space))
    for y, p in zip(ys, qs):
        total = total - p * y
    return h.gen == total.at_order(k)


def check_compose_chain(item, out) -> bool:
    if isinstance(out, OperadOutcome):
        chunks, pos = [], 0
        for g in out.gs:
            chunks.append(operad.operad_compose(g, out.hs[pos:pos + g.arity]))
            pos += g.arity
        other = operad.operad_compose(out.f, tuple(chunks))
        return (other.morphism == out.composite.morphism
                and other.arity == out.composite.arity
                and textio.parse_morphism(out.text) == out.composite.morphism)
    for g, f, h in out.steps:
        if h.core != f.core.compose(g.core) or not stationary_certificate(g, f, h):
            return False
    return textio.parse_morphism(out.text) == out.steps[-1][2]


def render_compose_chain(out) -> str:
    return out.text


# -- germ-roundtrip --------------------------------------------------------------


class GermOutcome(NamedTuple):
    inputs: tuple  # the two parsed micromorphisms (first, second)
    first: micro.GermJet
    composed: micro.GermJet
    graph: micro.Micromorphism
    back: micro.GermJet
    inverse: micro.GermJet


# Half of each keeps the p50 and p90 inside dense parts of the latency
# distribution; with (1,2) and (1,4) added, both fell where few operations
# lie and moved by 10-14% between seeds.
GERM_MIX = ((1, 3), (2, 2))


def generate_germ_roundtrip(seed: int, count: int) -> list:
    rng = _rng(seed, "germ-roundtrip")
    items = []
    for i in range(count):
        n, k = GERM_MIX[i % len(GERM_MIX)]
        items.append(tuple(textio.format_morphism(
            sampling.rand_affine_core_micromorphism(rng, n, k)) for _ in range(2)))
    return items


def run_germ_roundtrip(item):
    f1, f2 = (textio.parse_morphism(text) for text in item)
    g1, g2 = micro.extract_germ(f1), micro.extract_germ(f2)
    composed = micro.compose_germs(g2, g1)
    graph = micro.graph_of_germ(composed)
    back = micro.extract_germ(graph)
    inverse = micro.invert_germ(g1)
    return GermOutcome((f1, f2), g1, composed, graph, back, inverse)


def check_germ_roundtrip(item, out) -> bool:
    n, k = out.first.dim, out.first.order
    if out.back.p_out != out.composed.p_out:
        return False
    if any(a.at_order(k - 1) != b.at_order(k - 1)
           for a, b in zip(out.back.x_out, out.composed.x_out)):
        return False
    f1, f2 = out.inputs
    if out.graph != micro.compose(f2, f1):
        return False
    ident = micro.identity_germ(n, k)
    return (micro.compose_germs(out.first, out.inverse) == ident
            and micro.compose_germs(out.inverse, out.first) == ident)


def render_germ_roundtrip(out) -> str:
    return (textio.format_germ(out.composed) + textio.format_morphism(out.graph)
            + textio.format_germ(out.inverse))


# -- linear-checks ---------------------------------------------------------------


class LinearOutcome(NamedTuple):
    relation: linsympl.LinCanonicalRelation
    core_ok: bool
    transverse: tuple[bool, ...]
    composite: linsympl.LinCanonicalRelation
    point: tuple
    image: linsympl.AffineSubspace


SPLITTINGS = 5


def generate_linear_checks(seed: int, count: int) -> list:
    rng = _rng(seed, "linear-checks")
    items = []
    for _ in range(count):
        m, n, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        f = sampling.rand_micromorphism(rng, m, n, k)
        b = sampling.rand_point(rng, n)
        splittings = tuple(textio.format_matrix(sampling.rand_symmetric_matrix(rng, n))
                           for _ in range(SPLITTINGS))
        a, mid, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        v = sampling.rand_lagrangian_relation(rng, a, mid)
        w = sampling.rand_lagrangian_relation(rng, mid, c)
        u = sampling.rand_point(rng, 2 * a)
        items.append((textio.format_morphism(f), textio.format_matrix((b,)), splittings,
                      (a, mid, textio.format_matrix(v.vectors)),
                      (mid, c, textio.format_matrix(w.vectors)),
                      textio.format_matrix((u,))))
    return items


def run_linear_checks(item):
    f = textio.parse_morphism(item[0])
    b = textio.parse_vector(item[1])
    relation = micro.tangent_relation_at(f, b)
    core_ok = bool(linsympl.check_linear_micromorphism(relation, f.core.jacobian_at(b)))
    n = f.target.core_dim
    transverse = tuple(
        linsympl.transverse_to_splitting(relation,
                                         linsympl.Splitting(n, textio.parse_matrix(text)))
        for text in item[2])
    (a, mid, v_text), (_, c, w_text) = item[3], item[4]
    v = linsympl.LinCanonicalRelation.from_vectors(a, mid, textio.parse_matrix(v_text))
    w = linsympl.LinCanonicalRelation.from_vectors(mid, c, textio.parse_matrix(w_text))
    composite = linsympl.compose_linear(w, v)
    u = textio.parse_vector(item[5])
    return LinearOutcome(relation, core_ok, transverse, composite, u,
                         linsympl.image_of_point(composite, u))


def check_linear_checks(item, out) -> bool:
    if not (out.core_ok and len(out.transverse) == SPLITTINGS and all(out.transverse)):
        return False
    comp = out.composite
    half = comp.source_half_dim + comp.target_half_dim
    if len(comp.vectors) != half or not linsympl.is_lagrangian(comp.subspace.space,
                                                               comp.vectors):
        return False
    source = 2 * comp.source_half_dim
    image = out.image
    if image.is_empty:
        return not linsympl.subspace_contains([vec[:source] for vec in comp.vectors],
                                              out.point)
    if not linsympl.subspace_contains(comp.vectors, tuple(out.point) + image.point):
        return False
    zero = (Fraction(0),) * source
    return all(linsympl.subspace_contains(comp.vectors, zero + d) for d in image.directions)


def render_linear_checks(out) -> str:
    image = out.image
    lines = [textio.format_matrix(out.relation.vectors),
             f"core={out.core_ok} transverse={','.join(str(t) for t in out.transverse)}",
             textio.format_matrix(out.composite.vectors),
             "image=empty" if image.is_empty else
             f"image={textio.format_matrix((image.point,))} "
             f"directions={textio.format_matrix(image.directions) if image.directions else '-'}"]
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload("compose-chain",
             "Parse, fold, format chains of 2-4 tiny morphisms (dims 1-3, K 1-4, base degree 1); "
             "1 op in 9 is a two-level operad composition. Per-call cost of jetalg, micro.compose, "
             "textio; no linsympl",
             CHAIN_CLASSES, 2500, 600,
             generate_compose_chain, run_compose_chain, check_compose_chain,
             render_compose_chain),
    Workload("germ-roundtrip",
             "Germ extract, compose, graph, re-extract and invert, half at (n,K) = (1,3) and half "
             "at (2,2): large substitutions and fixed points in jetalg dominate",
             tuple(f"germ n={n} K={k}" for n, k in GERM_MIX), 500, 60,
             generate_germ_roundtrip, run_germ_roundtrip, check_germ_roundtrip,
             render_germ_roundtrip),
    Workload("linear-checks",
             "Tangent relation, core check, 5 splittings, compose_linear and image of a point "
             "per random morphism: rref in linsympl dominates; jetalg only differentiates",
             ("linear check",), 300, 400,
             generate_linear_checks, run_linear_checks, check_linear_checks,
             render_linear_checks),
)}
