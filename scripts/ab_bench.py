#!/usr/bin/env python3
"""Paired A/B runs of the benchmark in two checkouts.

Usage (from anywhere; stdlib only):

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload linear-checks \\
        --seed 1 --seconds 30 --pairs 10

``--workload`` may be given more than once; the workloads run one after the
other, in the order given, each with its own pairs and its own table.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, as it is
committed there, one run at a time; even pairs run the parent first and odd
pairs the change first, so that a drift of the host's speed does not favour
one side.  For every end-to-end metric named in the parent's
``BENCHMARK.json`` it prints the parent's median and quartiles, the change's
median, the ratio of the medians, and in how many pairs the change was better
(ties count for neither side).  It also prints whether every run of both
sides gave the same output digest, and the number of failed operations.

A metric whose change median is worse than the parent median by more than
its ``bound`` in the parent's ``BENCHMARK.json`` is flagged ``REGRESSED``.
Runs whose digests are not all the same are flagged ``DIGESTS DIFFER``, and
a change that fails a larger share of its attempted operations than the
parent is flagged ``MORE FAILURES``.  A metric whose parent quartile spread
(q3 - q1), relative to the parent median, is wider than its ``bound`` is
flagged ``UNRESOLVED``, unless every run of the change is better than every
run of the parent: such runs cannot show that the metric stayed inside its
bound.  ``--claim METRIC`` also prints whether
a claimed gain on METRIC holds: the change is better in at least nine pairs
of ten, and its median is better than the parent median by more than the
parent's quartile spread (q3 - q1).  The exit status is 1 when a claim does
not hold or anything but ``UNRESOLVED`` is flagged, on any of the
workloads; ``--claim METRIC`` is checked on each of them, and ``--claim
WORKLOAD:METRIC`` on WORKLOAD alone, so that one call checks a claim on one
workload and the others for regressions.  Arguments are checked before any
run: ``--pairs`` below 1, ``--seconds`` not positive and finite, a
``--workload`` that the parent's ``BENCHMARK.json`` does not name, a claimed
METRIC that is not one of its end-to-end metrics, or a claimed WORKLOAD that
is not a ``--workload`` of the call exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its end-to-end metric values, digest and failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"benchmark in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next((line.split()[1].partition("=")[2] for line in lines
                   if line.startswith("digest sha256=")), None)
    if digest is None:
        raise RuntimeError(f"benchmark in {checkout} printed no digest line:\n{proc.stdout}")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest, "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """One metric of paired runs: the parent's quartiles, the change's median,
    the wins of the change, how much better its median is (``gain``,
    relative to the parent median, negative when worse), and whether every
    change run is better than every parent run (``separated``)."""
    name, higher = spec["name"], spec["better"] == "higher"
    a = [run["metrics"][name] for run in parent]
    b = [run["metrics"][name] for run in change]
    q1, med, q3 = quartiles(a)
    changed = statistics.median(b)
    gap = changed - med if higher else med - changed
    return {"name": name, "q1": q1, "median": med, "q3": q3, "change": changed,
            "wins": sum((y > x) if higher else (y < x) for x, y in zip(a, b)),
            "pairs": len(a), "gap": gap, "gain": gap / med if med else 0.0,
            "separated": min(b) > max(a) if higher else max(b) < min(a)}


def regressed(stats: dict, spec: dict) -> bool:
    """The change median is worse than the parent median by more than the bound."""
    return "bound" in spec and -stats["gain"] > spec["bound"]


def unresolved(stats: dict, spec: dict) -> bool:
    """The parent's quartile spread is wider than the bound, relative to the
    parent median, and the runs of the two sides overlap."""
    spread = stats["q3"] - stats["q1"]
    return ("bound" in spec and spread > spec["bound"] * abs(stats["median"])
            and not stats["separated"])


def claim_holds(stats: dict) -> bool:
    """At least 9 wins in 10 pairs, and a median gap wider than the parent's
    quartile spread."""
    return (10 * stats["wins"] >= 9 * stats["pairs"]
            and stats["gap"] > stats["q3"] - stats["q1"])


def output_flags(parent: list[dict], change: list[dict]) -> list[str]:
    """Flags for runs whose output digests differ, and for a change that
    fails a larger share of its attempted operations than the parent."""
    flags = []
    if len({run["digest"] for run in parent + change}) > 1:
        flags.append("DIGESTS DIFFER: the runs do not all give the same outputs")
    shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
              for runs in (parent, change)]
    if shares[1] > shares[0]:
        flags.append(f"MORE FAILURES: the change failed {shares[1]:.2%} of its operations, "
                     f"the parent {shares[0]:.2%}")
    return flags


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict],
              claim: str | None = None) -> list[str]:
    """Report lines for paired runs; ``end_to_end`` is BENCHMARK.json's list."""
    lines = [f"{'metric':<16} {'parent median [q1, q3]':>32} {'change':>10} "
             f"{'ratio':>7} {'wins':>6}"]
    flags = []
    for spec in end_to_end:
        st = compare(parent, change, spec)
        med = st["median"]
        ratio = st["change"] / med if med else float("nan")
        lines.append(f"{st['name']:<16} {med:>12.4g} [{st['q1']:>8.4g}, {st['q3']:>8.4g}] "
                     f"{st['change']:>10.4g} {ratio:>7.3f} {st['wins']:>3}/{st['pairs']}")
        if regressed(st, spec):
            flags.append(f"REGRESSED {st['name']}: {-st['gain']:.1%} worse than the parent "
                         f"median, beyond the bound of {spec['bound']:.0%}")
        if unresolved(st, spec):
            spread = (st["q3"] - st["q1"]) / abs(med) if med else float("inf")
            flags.append(f"UNRESOLVED {st['name']}: the parent's quartile spread is "
                         f"{spread:.1%} of its median, wider than the bound of "
                         f"{spec['bound']:.0%}")
        if st["name"] == claim:
            flags.append(f"claim {claim}: {'holds' if claim_holds(st) else 'does NOT hold'} "
                         f"({st['wins']}/{st['pairs']} wins, median gap {st['gap']:.4g}, "
                         f"parent quartile spread {st['q3'] - st['q1']:.4g})")
    digests = {run["digest"] for run in parent + change}
    lines.append("digests " + ("match: " + digests.pop() if len(digests) == 1
                               else "DIFFER: " + ", ".join(sorted(map(str, digests)))))
    lines.append(f"failed operations: parent {sum(r['failed'] for r in parent)}, "
                 f"change {sum(r['failed'] for r in change)}")
    return lines + flags + output_flags(parent, change)


def run_workload(args: argparse.Namespace, end_to_end: list[dict], workload: str,
                 claim: str | None) -> int:
    """The pairs of one workload and its table; 1 when it is flagged or the
    claim on the metric ``claim`` does not hold, else 0."""
    key = end_to_end[0]["name"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), workload, args.seed, args.seconds)
            runs[side].append(run)
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                  f"{key}={run['metrics'][key]:.4g}", file=sys.stderr, flush=True)
    print(f"workload={workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs}")
    print("\n".join(summarize(runs["parent"], runs["change"], end_to_end, claim)),
          flush=True)
    stats = {m["name"]: compare(runs["parent"], runs["change"], m) for m in end_to_end}
    bad = (any(regressed(stats[m["name"]], m) for m in end_to_end)
           or output_flags(runs["parent"], runs["change"]))
    return 1 if bad or (claim and not claim_holds(stats[claim])) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of the parent's BENCHMARK.json; repeatable")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", metavar="[WORKLOAD:]METRIC",
                        help="report whether a gain on this end-to-end metric holds, "
                             "on WORKLOAD alone when it is given")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 < args.seconds < math.inf:
        parser.error(f"--seconds must be positive and finite, got {args.seconds:g}")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    for workload in args.workload:
        if workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"--workload {workload} is not a workload of the parent's "
                         f"BENCHMARK.json")
    claimed, _, metric = (args.claim or "").rpartition(":")
    if args.claim and metric not in {m["name"] for m in spec["end_to_end"]}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric")
    if claimed and claimed not in args.workload:
        parser.error(f"--claim {args.claim}: {claimed} is not a --workload of this call")
    return max(run_workload(args, spec["end_to_end"], workload,
                            metric if claimed in ("", workload) else None)
               for workload in args.workload)


if __name__ == "__main__":
    sys.exit(main())
