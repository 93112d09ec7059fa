"""The report of scripts/ab_bench.py on made-up paired runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

END_TO_END = [{"name": "ops_per_s", "better": "higher"},
              {"name": "latency_p50_ms", "better": "lower"}]


def runs(ops, p50, digest="d"):
    return [{"metrics": {"ops_per_s": o, "latency_p50_ms": p}, "digest": digest, "failed": 0}
            for o, p in zip(ops, p50)]


def test_wins_follow_each_metric_direction_and_ties_count_for_neither():
    parent = runs([10, 10, 10, 10], [2, 2, 2, 2])
    change = runs([12, 10, 9, 12], [1, 2, 3, 1])
    lines = ab_bench.summarize(parent, change, END_TO_END)
    ops, p50 = lines[1].split(), lines[2].split()
    assert ops[0] == "ops_per_s" and ops[-1] == "2/4"
    assert p50[0] == "latency_p50_ms" and p50[-1] == "2/4"
    assert lines[3] == "digests match: d"
    assert lines[4] == "failed operations: parent 0, change 0"


def test_differing_digests_are_reported():
    lines = ab_bench.summarize(runs([1], [1], "a"), runs([1], [1], "b"), END_TO_END)
    assert lines[3] == "digests DIFFER: a, b"
