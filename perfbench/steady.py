"""Steadiness check: run the benchmark on several seeds and report the spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--write]

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, once per
seed (seeds 1..``RUNS``), one process at a time, with the settings of
``BENCHMARK.json``.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
spread as a share of the median, next to the metric's bound, and the same
for the uncalibrated wall-clock figures.  ``--write`` replaces
``perfbench/record.json`` with the figures of this one invocation, the
default seed, the workloads' input mixes and reasons, and the provenance
(Python version, ``nproc``, git SHA) of the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(command, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Returns the run's metrics and its provenance."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    provenance = {}
    for line in lines:
        if line.startswith("wall-clock:"):
            for field in line.split()[1:]:
                key, _, value = field.partition("=")
                metrics[f"wall-clock {key}"] = float(value)
        elif line.startswith("provenance "):
            provenance = json.loads(line.partition(" ")[2])
    return metrics, provenance


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace perfbench/record.json with these figures")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"default_seed": workloads.DEFAULT_SEED, "run_seconds": spec["run_seconds"],
              "seeds": list(range(1, RUNS + 1)), "provenance": None, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in record["seeds"]:
            metrics, record["provenance"] = run_once(spec["command"], name, seed,
                                                     spec["run_seconds"])
            runs.append(metrics)
        stats = {metric: summarize([r[metric] for r in runs]) for metric in runs[0]}
        w = workloads.WORKLOADS[name]
        record["workloads"][name] = {"why": w.why, "mix": w.mix(), "metrics": stats}
        for metric, s in stats.items():
            print(f"{name:15s} {metric:32s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"bound {bounds.get(metric, '-')}", flush=True)
    if args.write:
        (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
