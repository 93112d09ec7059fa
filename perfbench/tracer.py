"""Span tracer that wraps microsympl's public entry points from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
under every name that the loaded ``microsympl`` modules bind it to (so
``micro.substitute_many`` is patched as well as ``jetalg.substitute_many``,
and ``FiberGradedPoly.__rmul__`` as well as ``__mul__``).  ``Tracer.remove``
puts every original object back; the pair can alternate, so traced and
untraced runs of an operation can be interleaved.  Nothing under ``src/`` is
edited.

A wrapper records a span only while an operation is open (``begin_op``);
outside one it calls straight through, so result checks leave no spans.
Spans stay in memory (five flat integer arrays) until ``self_times`` turns them
into per-name self times.  Counts are taken after a span closes, from the
arguments and the result, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

ROOT_SPAN = "bench.op"


def _terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _coeff_bits(polys) -> int:
    best = 0
    for p in polys:
        for c in p.terms.values():
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _fiber_histogram(poly) -> Counter:
    return Counter(sum(pe) for pe, _ in poly.terms)


def mul_pairs(a, b) -> int:
    """Term pairs whose fiber degrees sum to at most the truncation order."""
    ha, hb = _fiber_histogram(a), _fiber_histogram(b)
    return sum(na * nb for da, na in ha.items() for db, nb in hb.items()
               if da + db <= a.order)


class Tracer:
    """Records spans and counts around calls into the microsympl layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self.bindings: list[tuple[object, str, object, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self._open(self._name_id(ROOT_SPAN))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing wrappers ------------------------------------

    def patch_function(self, module, attr: str, name: str, count=None) -> None:
        """Wrap ``module.attr`` under every module-level name bound to it."""
        original = getattr(module, attr)
        self._bind(original, self.wrap(name, original, count))

    def _bind(self, original, wrapper) -> None:
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "microsympl" and not mod_name.startswith("microsympl."):
                continue
            for key, value in vars(mod).items():
                if value is original:
                    self.bindings.append((mod, key, original, wrapper))

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        """Wrap a method under every class attribute bound to it (aliases too)."""
        original = cls.__dict__[attr]
        wrapper = self.wrap(name, original, count)
        for key, value in cls.__dict__.items():
            if value is original:
                self.bindings.append((cls, key, original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place; the first call finds where they go."""
        if not self.bindings:
            self._find_bindings()
        for owner, key, _, wrapper in self.bindings:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        """Put every original object back."""
        for owner, key, original, _ in reversed(self.bindings):
            setattr(owner, key, original)

    def _find_bindings(self) -> None:
        from microsympl import jetalg, linsympl, micro, operad, textio
        poly = jetalg.FiberGradedPoly
        pf = self.patch_function
        pm = self.patch_method

        pm(poly, "__mul__", "jetalg.mul", _count_mul)
        pm(poly, "__add__", "jetalg.add")
        pm(poly, "__sub__", "jetalg.add")
        pm(poly, "scale", "jetalg.scale")
        pm(poly, "partial_fiber", "jetalg.partial")
        pm(poly, "partial_base", "jetalg.partial")
        pm(poly, "evaluate", "jetalg.evaluate")
        pm(poly, "substitute", "jetalg.substitute", _count_substitute_one)
        pf(jetalg, "substitute_many", "jetalg.substitute", _count_substitute_many)
        self._bind(jetalg.solve_triangular_fixed_point,
                   self._traced_solver(jetalg.solve_triangular_fixed_point))

        for attr in ("rref", "rank", "nullspace", "solve", "mat_inverse", "mat_mul",
                     "reduce_span", "subspace_contains", "subspace_equal",
                     "is_lagrangian", "image_of_point", "check_linear_micromorphism"):
            pf(linsympl, attr, f"linsympl.{attr}",
               _count_rref if attr == "rref" else None)
        pf(linsympl, "compose_linear", "linsympl.compose_linear")
        pf(linsympl, "transverse_to_splitting", "linsympl.transverse")

        pf(micro, "compose", "micro.compose", _count_calls("micro.compose.calls"))
        for attr in ("extract_germ", "graph_of_germ", "invert_germ", "tensor", "identity"):
            pf(micro, attr, f"micro.{attr}")
        pf(micro, "compose_germs", "micro.compose_germs", _count_germ_terms)
        pf(micro, "tangent_relation_at", "micro.tangent_relation")
        pm(micro.CoreMap, "jacobian_at", "micro.jacobian")

        for attr in ("parse_morphism", "parse_vector", "parse_matrix"):
            pf(textio, attr, "textio.parse", _count_parsed_bytes)
        for attr in ("format_morphism", "format_germ", "format_matrix"):
            pf(textio, attr, "textio.format", _count_formatted_bytes)

        pf(operad, "operad_compose", "operad.compose", _count_calls("operad.compose.calls"))

    def _traced_solver(self, original):
        # the solver's update callable is wrapped per call, so that its own
        # time (the caller's step function) is a span of its own
        tracer = self
        solver = self.wrap("jetalg.fixed_point", original, _count_fixed_point)
        update_id = self._name_id("micro.fixed_point_update")

        def traced_solver(initial, update):
            if tracer.op < 0:
                return original(initial, update)

            def traced_update(state):
                idx = tracer._open(update_id)
                try:
                    out = update(state)
                finally:
                    tracer._close(idx)
                out = tuple(out)
                tracer.counts["jetalg.fixed_point.updates"] += 1
                tracer.counts["jetalg.fixed_point.update_out_terms"] += _terms(out)
                return out

            return solver(initial, traced_update)

        traced_solver.__wrapped__ = original
        return traced_solver

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        n = len(self.span_start)
        covered = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        totals: Counter = Counter()
        for i in range(n):
            own = self.span_end[i] - self.span_start[i] - covered[i]
            totals[self.names[self.span_name[i]]] += own
        return {name: ns / 1e9 for name, ns in sorted(totals.items())}

    def op_seconds(self) -> float:
        root = self._ids.get(ROOT_SPAN)
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_start))
                   if self.span_name[i] == root) / 1e9

    def spans(self) -> dict:
        return {"names": self.names,
                "name": self.span_name.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist()}


# -- counters -------------------------------------------------------------------


def _count_calls(key: str):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_mul(counts, args, result):
    counts["jetalg.mul.calls"] += 1
    a, b = args
    if not isinstance(b, (int, Fraction)):
        counts["jetalg.mul.pairs"] += mul_pairs(a, b)
        counts["jetalg.mul.kept"] += len(result.terms)


def _count_substitute_one(counts, args, result):
    counts["jetalg.substitute.calls"] += 1
    counts["jetalg.substitute.in_terms"] += len(args[0].terms)
    counts["jetalg.substitute.out_terms"] += len(result.terms)
    _note_bits(counts, (result,))


def _count_substitute_many(counts, args, result):
    counts["jetalg.substitute.calls"] += 1
    counts["jetalg.substitute.in_terms"] += _terms(args[0])
    counts["jetalg.substitute.out_terms"] += _terms(result)
    _note_bits(counts, result)


def _count_fixed_point(counts, args, result):
    counts["jetalg.fixed_point.calls"] += 1
    _note_bits(counts, result)


def _note_bits(counts, polys) -> None:
    bits = _coeff_bits(polys)
    if bits > counts["jetalg.coeff_bits_max"]:
        counts["jetalg.coeff_bits_max"] = bits


def _count_rref(counts, args, result):
    rows = args[0]
    counts["linsympl.rref.calls"] += 1
    counts["linsympl.rref.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_germ_terms(counts, args, result):
    terms = _terms((*result.x_out, *result.p_out))
    if terms > counts["micro.compose_germs.max_terms"]:
        counts["micro.compose_germs.max_terms"] = terms


def _count_parsed_bytes(counts, args, result):
    counts["textio.bytes"] += len(args[0].encode())


def _count_formatted_bytes(counts, args, result):
    counts["textio.bytes"] += len(result.encode())
