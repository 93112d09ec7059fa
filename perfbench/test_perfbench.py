"""Self-tests for the benchmark.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import microsympl  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from microsympl import jetalg, micro, textio  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {"compose-chain": 5, "germ-roundtrip": 4, "linear-checks": 3}


def _bindings() -> dict:
    """Every module attribute and traced-class attribute of microsympl."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "microsympl" or name.startswith("microsympl."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (jetalg.FiberGradedPoly, micro.CoreMap):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_attribute():
    before = _bindings()
    run.traced(workloads.WORKLOADS["germ-roundtrip"], seed=2, ops=1)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_patches_aliases_and_imported_names():
    original_mul = jetalg.FiberGradedPoly.__dict__["__mul__"]
    original_sub_many = jetalg.substitute_many
    original_solver = jetalg.solve_triangular_fixed_point
    tracer = Tracer()
    tracer.install()
    try:
        poly = jetalg.FiberGradedPoly.__dict__
        assert poly["__mul__"] is not original_mul
        assert poly["__rmul__"] is poly["__mul__"]
        assert micro.substitute_many is jetalg.substitute_many is not original_sub_many
        assert micro.solve_triangular_fixed_point is not original_solver
        assert jetalg.solve_triangular_fixed_point is micro.solve_triangular_fixed_point
        assert microsympl.compose is micro.compose
    finally:
        tracer.remove()
    assert jetalg.FiberGradedPoly.__dict__["__rmul__"] is original_mul
    assert micro.substitute_many is original_sub_many
    assert micro.solve_triangular_fixed_point is original_solver


def _bump(poly, pe, xe):
    term = jetalg.FiberGradedPoly.monomial(poly.fiber_arity, poly.base_arity, poly.order,
                                           Fraction(1, 7), pe, xe)
    return poly + term


def _tamper_chain(out):
    g, f, h = out.steps[-1]
    gen = h.gen
    # a top-degree change leaves the core map alone, so only the certificate sees it
    pe = (gen.order,) + (0,) * (gen.fiber_arity - 1)
    bad = micro.Micromorphism(h.source, h.target, _bump(gen, pe, (0,) * gen.base_arity))
    return out._replace(steps=out.steps[:-1] + ((g, f, bad),),
                        text=textio.format_morphism(bad))


def _tamper_operad(out):
    m = out.composite.morphism
    gen = m.gen
    pe = (gen.order,) + (0,) * (gen.fiber_arity - 1)
    bad = micro.Micromorphism(m.source, m.target, _bump(gen, pe, (0,) * gen.base_arity))
    return out._replace(composite=out.composite.__class__(out.composite.base,
                                                          out.composite.arity, bad),
                        text=textio.format_morphism(bad))


def _tamper_germ(out):
    inv = out.inverse
    n, k = inv.dim, inv.order
    p_out = (_bump(inv.p_out[0], (1,) + (0,) * (n - 1), (1,) + (0,) * (n - 1)),
             *inv.p_out[1:])
    return out._replace(inverse=micro.GermJet(n, k, inv.x_out, p_out))


def _tamper_linear(out):
    point = out.image.point
    moved = (point[0] + 1,) + point[1:]
    return out._replace(image=out.image.__class__(out.image.dim, moved,
                                                  out.image.directions))


@pytest.mark.parametrize("name,index,tamper", [
    ("compose-chain", 3, _tamper_chain),
    ("compose-chain", workloads.CHAIN_ORDERS.index(None), _tamper_operad),
    ("germ-roundtrip", 0, _tamper_germ),
    ("linear-checks", 0, _tamper_linear),
])
def test_tampered_result_counts_as_failed(name, index, tamper):
    w = workloads.WORKLOADS[name]
    item = w.generate(3, index + 1)[index]
    seconds, out, error = run.attempt(w, item)
    assert out is not None, error
    tally = run.Tally(w, 1)
    tally.first(0, item, seconds, out, "")
    tally.again(0, out, "")
    assert tally.failed == 0
    tally.first(1, item, seconds, tamper(out), "")
    assert tally.failed == 1
    tally.again(0, tamper(out), "")
    assert tally.failed == 2
    tally.again(0, None, "raised")
    assert (tally.failed, tally.attempted, tally.succeeded) == (3, 5, 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name):
    w = workloads.WORKLOADS[name]
    first, _ = run.traced(w, seed=5, ops=SMALL[name])
    second, _ = run.traced(w, seed=5, ops=SMALL[name])
    assert first["correct"] and second["correct"]
    exact = {k: v for k, (v, unit) in first["metrics"].items() if unit != "s"
             and not k.endswith(".share") and k != "trace.overhead"}
    assert exact == {k: second["metrics"][k][0] for k in exact}
    assert any(exact.values())


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert run.percentile(samples, 0.90) == 89.0
    assert run.percentile(samples, 0.50) == 49.0
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.90)
    with pytest.raises(ValueError):
        run.percentile(samples[:19], 0.50)
    assert run.percentile(samples[:20], 0.50) == 9.0


def test_calibration_scales_by_nearby_reference_times():
    ref = run.REFERENCE_SECONDS
    durations = [1.0] * 12
    references = [ref] * 6 + [2 * ref] * 6
    out = run.calibrate(durations, references)
    assert out[0] == 1.0 and out[-1] == 0.5
    assert all(b <= a for a, b in zip(out, out[1:]))


def test_digest_does_not_depend_on_run_length(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 5)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    w = workloads.WORKLOADS["compose-chain"]
    short, *_ = run.measure(w, seed=4, seconds=0)
    long, *_ = run.measure(w, seed=4, seconds=0.3)
    assert short.attempted == 5 < long.attempted
    assert short.digested == long.digested == 5
    assert short.digest.hexdigest() == long.digest.hexdigest()
