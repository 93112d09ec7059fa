"""Endomorphism operads of a micro-object and the lagrangian suboperads.

For a fixed object, arity-k elements are micromorphisms from the k-fold
tensor power to the object; composition tensors the arguments and composes.
The diagonal suboperad consists of the cotangent lifts of the diagonal maps
(with the unique morphism out of E in arity 0); the larger suboperad keeps
every element whose core map is the diagonal, which is closed under
composition because cores compose contravariantly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce

from .errors import ShapeError
from .jetalg import FiberGradedPoly
from .micro import (CoreMap, Micromorphism, MicroObject, compose, cotangent_lift,
                    identity, tensor, unit_object, unit_to)
from .sampling import rand_exponents, rand_fraction


@dataclass(frozen=True)
class OperadElement:
    base: MicroObject
    arity: int
    morphism: Micromorphism

    def __post_init__(self):
        if self.arity < 0:
            raise ShapeError("arity must be non-negative")
        if self.morphism.source.core_dim != self.arity * self.base.core_dim:
            raise ShapeError(
                f"morphism source dimension {self.morphism.source.core_dim} is not "
                f"arity {self.arity} times base dimension {self.base.core_dim}")
        if self.morphism.target != self.base:
            raise ShapeError("morphism target is not the base object")

    @property
    def order(self) -> int:
        return self.morphism.order


def diagonal_lift(obj: MicroObject, arity: int, order: int) -> OperadElement:
    """Cotangent lift of the arity-fold diagonal; arity 0 gives the unit morphism."""
    if arity < 0:
        raise ShapeError("arity must be non-negative")
    if arity == 0:
        return OperadElement(obj, 0, unit_to(obj, order))
    return OperadElement(obj, arity,
                         cotangent_lift(CoreMap.diagonal(obj.core_dim, arity), order))


def unit_element(obj: MicroObject, order: int) -> OperadElement:
    return OperadElement(obj, 1, identity(obj, order))


def operad_compose(f: OperadElement, gs: tuple[OperadElement, ...]) -> OperadElement:
    """f(g_1, ..., g_k) = f composed after the tensor of the arguments."""
    gs = tuple(gs)
    if len(gs) != f.arity:
        raise ShapeError(f"need {f.arity} arguments, got {len(gs)}")
    for g in gs:
        if g.base != f.base:
            raise ShapeError("argument base object differs")
        if g.order != f.order:
            raise ShapeError("argument order differs")
    if gs:
        inner = reduce(tensor, (g.morphism for g in gs))
    else:
        inner = identity(unit_object(), f.order)
    return OperadElement(f.base, sum(g.arity for g in gs),
                         compose(f.morphism, inner))


def is_in_L(elem: OperadElement) -> bool:
    """True iff the element's core map is the arity-fold diagonal."""
    return elem.morphism.core == CoreMap.diagonal(elem.base.core_dim, elem.arity)


def random_L_element(rng: random.Random, obj: MicroObject, arity: int,
                     order: int) -> OperadElement:
    """Random diagonal-core element: the diagonal lift plus two fiber-degree >= 2 noise terms."""
    base_elem = diagonal_lift(obj, arity, order)
    n = obj.core_dim
    m = arity * n
    if arity == 0 or order < 2 or m == 0:
        return base_elem
    noise = [((rand_exponents(rng, m, rng.randint(2, order)),
               rand_exponents(rng, n, rng.randint(0, 2))), rand_fraction(rng))
             for _ in range(2)]
    gen = FiberGradedPoly(m, n, order, [*base_elem.morphism.gen.terms.items(), *noise])
    return OperadElement(obj, arity, Micromorphism(base_elem.morphism.source, obj, gen))


@dataclass(frozen=True)
class OperadReport:
    lines: tuple[str, ...]
    checked: int
    failed: int

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def format(self) -> str:
        status = "ok" if self.passed else "fail"
        summary = (f"#summary checked={self.checked} "
                   f"passed={self.checked - self.failed} failed={self.failed} "
                   f"status={status}")
        return "\n".join((*self.lines, summary)) + "\n"


def _partitions(total_max: int, length: int, part_max: int):
    if length == 0:
        yield ()
        return
    for first in range(min(total_max, part_max) + 1):
        for rest in _partitions(total_max - first, length - 1, part_max):
            yield (first, *rest)


def check_operad_axioms(obj: MicroObject, seed: int, max_arity: int = 3,
                        levels: int = 2, samples: int = 50,
                        order: int = 3) -> OperadReport:
    """Verify the composition laws on the diagonal suboperad and random samples.

    Exact checks: every composite of diagonal lifts with total arity at most
    ``max_arity`` equals the diagonal lift of the composed arity (this covers
    the unit-insertion identities), the unit law on sampled elements, and,
    when ``levels`` is 2 (1 and 2 are the only depths), the two-level
    associativity equation both on the diagonal suboperad and on ``samples``
    random diagonal-core elements.
    """
    if levels not in (1, 2):
        raise ShapeError(f"levels must be 1 or 2, got {levels}")
    rng = random.Random(f"{seed}:operad")
    lines: list[str] = []
    checked = 0
    failed = 0

    def record(name: str, detail: str, ok: bool):
        nonlocal checked, failed
        checked += 1
        if not ok:
            failed += 1
        lines.append(f"check={name} seed={seed} {detail} result={'pass' if ok else 'fail'}")

    for arity in range(max_arity + 1):
        for parts in _partitions(max_arity, arity, max_arity):
            outer = diagonal_lift(obj, arity, order)
            args = tuple(diagonal_lift(obj, k, order) for k in parts)
            got = operad_compose(outer, args)
            want = diagonal_lift(obj, sum(parts), order)
            ok = got.morphism == want.morphism and got.arity == want.arity
            record("diagonal-compose", f"arities={arity};{parts}", ok)

    if levels == 2:
        for arity in range(1, min(2, max_arity) + 1):
            for parts in _partitions(max_arity, arity, 2):
                for shape in _partitions(max_arity, sum(parts), 2):
                    f = diagonal_lift(obj, arity, order)
                    gs = tuple(diagonal_lift(obj, k, order) for k in parts)
                    hs = tuple(diagonal_lift(obj, l, order) for l in shape)
                    ok = _two_level_equal(f, gs, hs)
                    record("diagonal-assoc", f"arities={arity};{parts};{shape}", ok)

    for i in range(samples):
        arity = rng.randint(1, 2)
        f = random_L_element(rng, obj, arity, order)
        ident = unit_element(obj, order)
        ok = operad_compose(f, (ident,) * arity).morphism == f.morphism
        record("unit-law", f"instance={i} arities={arity}", ok)

    if levels == 2:
        for i in range(samples):
            arity = rng.randint(1, 2)
            f = random_L_element(rng, obj, arity, order)
            gs = tuple(random_L_element(rng, obj, rng.randint(0, 2), order)
                       for _ in range(arity))
            hs = tuple(random_L_element(rng, obj, rng.randint(0, 2), order)
                       for _ in range(sum(g.arity for g in gs)))
            ok = _two_level_equal(f, gs, hs)
            detail = (f"instance={i} arities={arity};"
                      f"{tuple(g.arity for g in gs)};{tuple(h.arity for h in hs)}")
            record("random-assoc", detail, ok)
            closure = is_in_L(operad_compose(f, gs))
            record("closure", f"instance={i} arities={arity}", closure)

    return OperadReport(tuple(lines), checked, failed)


def _two_level_equal(f: OperadElement, gs: tuple[OperadElement, ...],
                     hs: tuple[OperadElement, ...]) -> bool:
    lhs = operad_compose(operad_compose(f, gs), hs)
    chunks = []
    pos = 0
    for g in gs:
        chunks.append(operad_compose(g, hs[pos:pos + g.arity]))
        pos += g.arity
    rhs = operad_compose(f, tuple(chunks))
    return lhs.morphism == rhs.morphism and lhs.arity == rhs.arity
