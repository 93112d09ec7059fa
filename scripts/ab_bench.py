#!/usr/bin/env python3
"""Paired A/B runs of the benchmark in two checkouts.

Usage (from anywhere; stdlib only):

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload linear-checks \\
        --seed 1 --seconds 30 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, as it is
committed there, one run at a time; even pairs run the parent first and odd
pairs the change first, so that a drift of the host's speed does not favour
one side.  For every end-to-end metric named in the parent's
``BENCHMARK.json`` it prints the parent's median and quartiles, the change's
median, the ratio of the medians, and in how many pairs the change was better
(ties count for neither side).  It also prints whether every run of both
sides gave the same output digest, and the number of failed operations.
"""

from __future__ import annotations

import argparse
import json
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
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest, "failed": result["failed"], "correct": result["correct"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """Report lines for paired runs; ``end_to_end`` is BENCHMARK.json's list."""
    lines = [f"{'metric':<16} {'parent median [q1, q3]':>32} {'change':>10} "
             f"{'ratio':>7} {'wins':>6}"]
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        a = [run["metrics"][name] for run in parent]
        b = [run["metrics"][name] for run in change]
        q1, med, q3 = quartiles(a)
        changed = statistics.median(b)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ratio = changed / med if med else float("nan")
        lines.append(f"{name:<16} {med:>12.4g} [{q1:>8.4g}, {q3:>8.4g}] {changed:>10.4g} "
                     f"{ratio:>7.3f} {wins:>3}/{len(a)}")
    digests = {run["digest"] for run in parent + change}
    lines.append("digests " + ("match: " + digests.pop() if len(digests) == 1
                               else "DIFFER: " + ", ".join(sorted(map(str, digests)))))
    lines.append(f"failed operations: parent {sum(r['failed'] for r in parent)}, "
                 f"change {sum(r['failed'] for r in change)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    key = spec["end_to_end"][0]["name"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(run)
            print(f"pair {i + 1}/{args.pairs} {side}: {key}={run['metrics'][key]:.4g}",
                  file=sys.stderr, flush=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs}")
    print("\n".join(summarize(runs["parent"], runs["change"], spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
