"""Benchmark for microsympl: one closed-loop client, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload compose-chain --seed 1 --seconds 30 --trace 0

``--trace 0`` generates the workload's inputs from the seed, times operations
for about ``--seconds`` seconds (at least ``MIN_OPS`` of them), checks every
result exactly after its timer stops, and prints the end-to-end metrics.

Times are calibrated.  The host's speed swings by up to 2x within seconds and
for minutes at a time, because other tenants share its cores.  So after every
operation the benchmark also times ``reference_kernel``, a fixed piece of
Fraction and dict work that does not touch microsympl, and scales each
duration by ``REFERENCE_SECONDS`` / (the median reference time around it).
A calibrated second is thus a second at the speed the host has when idle;
the wall-clock figures are printed next to them.

``--trace 1`` runs a fixed number of operations, each first plain and then
under the span tracer, and prints the per-layer metrics (self times in
wall-clock seconds, counts, layer shares) and the tracing overhead.  Counts
repeat exactly for a seed.  Spans, self times and counts are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the sample count, the failed fraction, the output digest and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_OPS = 100
SETUP_REPEATS = 3
# duration of one reference_kernel run on the idle host (2-vCPU Xeon under
# KVM, Python 3.11): the low end of its distribution, which is one-sided
REFERENCE_SECONDS = 0.00045
# an operation is calibrated by the median of this many reference runs on
# each side of it
REFERENCE_WINDOW = 4
LAYERS = ("jetalg", "linsympl", "micro", "textio", "operad")


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refused unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has fewer than "
                         f"ten samples beyond it")
    return ordered[rank - 1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha()}


def attempt(workload, item):
    """Run one operation; returns (seconds, outcome or None, error text)."""
    t0 = time.perf_counter_ns()
    try:
        out = workload.run(item)
    except Exception:  # an operation that raises counts as failed
        return (time.perf_counter_ns() - t0) / 1e9, None, traceback.format_exc()
    return (time.perf_counter_ns() - t0) / 1e9, out, ""


def verify(workload, item, out) -> tuple[bool, str]:
    try:
        return bool(workload.check(item, out)), ""
    except Exception:  # a check that raises counts as failed
        return False, traceback.format_exc()


def reference_kernel() -> dict:
    """Fixed Fraction and dict work, like microsympl's inner loops, without it."""
    terms: dict = {}
    for i in range(100):
        a = Fraction(i % 13 + 1, i % 7 + 2)
        key = (i % 7, i % 5)
        terms[key] = a * Fraction(3 * (i % 11) + 1, 7) + terms.get(key, a)
    return terms


def reference_seconds() -> float:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return (time.perf_counter_ns() - t0) / 1e9


def calibrate(durations: list[float], references: list[float]) -> list[float]:
    """Scale each duration by the host speed measured by the references around it."""
    out = []
    for i, seconds in enumerate(durations):
        near = references[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        out.append(seconds * REFERENCE_SECONDS / statistics.median(near))
    return out


class Tally:
    """Latencies, failures and the digest of the outputs.

    ``first`` checks an operation's result exactly; ``again`` requires a
    repeated run of the same operation to render the same output byte for
    byte.  Every run that raises or fails counts toward ``failed``;
    ``attempted`` counts runs.  The digest covers the outputs of operations
    ``0 .. digest_count - 1`` only, so that it does not depend on how many
    operations a run reaches.
    """

    def __init__(self, workload, digest_count: int):
        self.workload = workload
        self.digest_count = digest_count
        self.latencies: list[float] = []
        self.rendered: list[bytes | None] = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    def _fail(self, index: int, error: str) -> None:
        if not self.failed:
            sys.stderr.write(f"operation {index} failed\n{error}")
        self.failed += 1

    def first(self, index: int, item, seconds: float, out, error: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        ok = out is not None
        if ok:
            ok, error = verify(self.workload, item, out)
        if not ok:
            self._fail(index, error)
            self.rendered.append(None)
            return
        text = self.workload.render(out).encode()
        self.rendered.append(hashlib.sha256(text).digest())
        if index < self.digest_count:
            self.digest.update(text)
            self.digested += 1

    def again(self, index: int, out, error: str) -> None:
        self.attempted += 1
        expected = self.rendered[index]
        if out is None or expected is None:
            self._fail(index, error or "its first run failed")
        elif hashlib.sha256(self.workload.render(out).encode()).digest() != expected:
            self._fail(index, "output differs from its first run")

    @property
    def succeeded(self) -> int:
        return sum(r is not None for r in self.rendered)


def setup_once(workload, seed: int):
    """Generate and serialize the inputs, then warm up on the first of them.

    Returns the pool and the calibrated duration.
    """
    references = [reference_seconds() for _ in range(2 * REFERENCE_WINDOW)]
    t0 = time.perf_counter()
    pool = workload.generate(seed, workload.pool_size)
    workload.run(pool[0])
    seconds = time.perf_counter() - t0
    references += [reference_seconds() for _ in range(2 * REFERENCE_WINDOW)]
    return pool, seconds * REFERENCE_SECONDS / statistics.median(references)


def measure(workload, seed: int, seconds: float):
    """Set up ``SETUP_REPEATS`` times, then time operations for ``seconds``.

    Every run times at least ``MIN_OPS`` operations, and the digest covers
    exactly the first ``MIN_OPS`` outputs.  Returns the tally, the calibrated
    set-up times and latencies, and the pool size.
    """
    pool, setup_s = setup_once(workload, seed)
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        again, setup_s = setup_once(workload, seed)
        if again != pool:
            raise RuntimeError("input generation is not deterministic")
        setups.append(setup_s)
    tally = Tally(workload, MIN_OPS)
    references = []
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_OPS or time.perf_counter() < deadline:
        item = pool[n % len(pool)]
        tally.first(n, item, *attempt(workload, item))
        references.append(reference_seconds())
        n += 1
    return tally, setups, calibrate(tally.latencies, references), len(pool)


def end_to_end(workload, seed: int, seconds: float, import_s: float) -> dict:
    tally, setups, lat, pool_len = measure(workload, seed, seconds)
    raw = tally.latencies
    metrics = {
        # one import, then the median of SETUP_REPEATS generate-and-warm-up
        # passes: a single pass spreads too much between runs to bound
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (tally.succeeded / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload={workload.name} seed={seed} mix: {workload.mix()}")
    print(f"samples={len(lat)} pool={pool_len} attempted={tally.attempted} "
          f"failed={tally.failed} failed_frac={tally.failed / tally.attempted:.6f}")
    print(f"wall-clock: ops_per_s={tally.succeeded / sum(raw):.4f} "
          f"latency_p50_ms={percentile(raw, 0.50) * 1e3:.4f} "
          f"latency_p90_ms={percentile(raw, 0.90) * 1e3:.4f} "
          f"calibration_factor={sum(lat) / sum(raw):.4f}")
    print(f"digest sha256={tally.digest.hexdigest()} over {tally.digested} outputs")
    print(f"provenance {json.dumps(provenance())}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def traced(workload, seed: int, ops: int | None = None) -> tuple[dict, dict]:
    """Each fixed operation runs plain, then traced; checks run untraced."""
    items = workload.generate(seed, ops or workload.trace_ops)
    tally = Tally(workload, len(items))
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for i, item in enumerate(items):
        seconds, out, error = attempt(workload, item)
        tally.first(i, item, seconds, out, error)
        plain_s += seconds
        tracer.install()
        root = tracer.begin_op(i)
        try:
            seconds, out, error = attempt(workload, item)
        finally:
            tracer.end_op(root)
            tracer.remove()
        tally.again(i, out, error)
        traced_s += seconds

    self_s = tracer.self_times()
    counts = tracer.counts
    total = tracer.op_seconds()
    share = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
             / total for layer in LAYERS}
    pairs = counts["jetalg.mul.pairs"]
    metrics = {
        "jetalg.mul.calls": (counts["jetalg.mul.calls"], "count"),
        "jetalg.mul.self_s": (self_s.get("jetalg.mul", 0.0), "s"),
        "jetalg.mul.pairs": (pairs, "count"),
        "jetalg.mul.kept_ratio": (counts["jetalg.mul.kept"] / pairs if pairs else 0.0,
                                  "ratio"),
        "jetalg.substitute.calls": (counts["jetalg.substitute.calls"], "count"),
        "jetalg.substitute.self_s": (self_s.get("jetalg.substitute", 0.0), "s"),
        "jetalg.substitute.in_terms": (counts["jetalg.substitute.in_terms"], "count"),
        "jetalg.substitute.out_terms": (counts["jetalg.substitute.out_terms"], "count"),
        "jetalg.add.self_s": (self_s.get("jetalg.add", 0.0), "s"),
        "jetalg.fixed_point.calls": (counts["jetalg.fixed_point.calls"], "count"),
        "jetalg.fixed_point.updates": (counts["jetalg.fixed_point.updates"], "count"),
        "jetalg.fixed_point.update_out_terms":
            (counts["jetalg.fixed_point.update_out_terms"], "count"),
        "jetalg.fixed_point.self_s": (self_s.get("jetalg.fixed_point", 0.0), "s"),
        "jetalg.coeff_bits_max": (counts["jetalg.coeff_bits_max"], "bits"),
        "jetalg.share": (share["jetalg"], "ratio"),
        "linsympl.rref.calls": (counts["linsympl.rref.calls"], "count"),
        "linsympl.rref.self_s": (self_s.get("linsympl.rref", 0.0), "s"),
        "linsympl.rref.entries": (counts["linsympl.rref.entries"], "count"),
        "linsympl.compose_linear.self_s": (self_s.get("linsympl.compose_linear", 0.0), "s"),
        "linsympl.transverse.self_s": (self_s.get("linsympl.transverse", 0.0), "s"),
        "linsympl.share": (share["linsympl"], "ratio"),
        "micro.compose.calls": (counts["micro.compose.calls"], "count"),
        "micro.compose.self_s": (self_s.get("micro.compose", 0.0), "s"),
        "micro.extract_germ.self_s": (self_s.get("micro.extract_germ", 0.0), "s"),
        "micro.graph_of_germ.self_s": (self_s.get("micro.graph_of_germ", 0.0), "s"),
        "micro.invert_germ.self_s": (self_s.get("micro.invert_germ", 0.0), "s"),
        "micro.compose_germs.self_s": (self_s.get("micro.compose_germs", 0.0), "s"),
        "micro.compose_germs.max_terms": (counts["micro.compose_germs.max_terms"], "count"),
        "micro.tangent_relation.self_s": (self_s.get("micro.tangent_relation", 0.0), "s"),
        "micro.share": (share["micro"], "ratio"),
        "textio.parse.self_s": (self_s.get("textio.parse", 0.0), "s"),
        "textio.format.self_s": (self_s.get("textio.format", 0.0), "s"),
        "textio.bytes": (counts["textio.bytes"], "bytes"),
        "textio.share": (share["textio"], "ratio"),
        "operad.compose.calls": (counts["operad.compose.calls"], "count"),
        "operad.compose.self_s": (self_s.get("operad.compose", 0.0), "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    }
    report = {"workload": workload.name, "seed": seed, "ops": len(items),
              "provenance": provenance(), "digest": tally.digest.hexdigest(),
              "untraced_s": plain_s, "traced_s": traced_s,
              "layer_share": share, "self_s": self_s, "counts": dict(sorted(counts.items())),
              "spans": tracer.spans()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if not (ROOT / "src" / "microsympl" / "__init__.py").is_file():
        sys.stderr.write(f"microsympl sources not found under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - t0
    references = [reference_seconds() for _ in range(2 * REFERENCE_WINDOW)]
    import_s *= REFERENCE_SECONDS / statistics.median(references)

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]

    if args.trace:
        result, report = traced(workload, seed)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps(report))
        print(f"workload={workload.name} seed={seed} traced ops={report['ops']} "
              f"digest sha256={report['digest']}")
        print("layer shares " + " ".join(f"{k}={v:.3f}" for k, v in
                                         report["layer_share"].items()))
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        result = end_to_end(workload, seed, args.seconds, import_s)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
