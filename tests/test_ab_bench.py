"""The report of scripts/ab_bench.py on made-up paired runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

END_TO_END = [{"name": "ops_per_s", "better": "higher"},
              {"name": "latency_p50_ms", "better": "lower"}]
BOUNDED = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]
# a parent BENCHMARK.json with one workload, "w"
SPEC = {"workloads": [{"name": "w"}], "end_to_end": BOUNDED}


def runs(ops, p50, digest="d", failed=0, attempted=100):
    return [{"metrics": {"ops_per_s": o, "latency_p50_ms": p}, "digest": digest,
             "failed": failed, "attempted": attempted} for o, p in zip(ops, p50)]


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
    assert lines[5:] == ["DIGESTS DIFFER: the runs do not all give the same outputs"]
    # runs of one side that disagree among themselves are flagged too
    assert ab_bench.output_flags(runs([1], [1], "a") + runs([1], [1], "b"),
                                 runs([1, 1], [1, 1], "a")) == lines[5:]
    assert ab_bench.output_flags(runs([1], [1], "a"), runs([1], [1], "a")) == []


def test_a_larger_share_of_failed_operations_is_flagged():
    parent = runs([10, 10], [2, 2], failed=1, attempted=100)
    # the same share, and a smaller one over more attempts, are not flagged
    assert ab_bench.output_flags(parent, runs([10, 10], [2, 2], failed=1)) == []
    assert ab_bench.output_flags(parent, runs([10, 10], [2, 2], failed=1,
                                              attempted=150)) == []
    # one more failure in as many attempts is
    worse = runs([10], [2], failed=1) + runs([10], [2], failed=2)
    lines = ab_bench.summarize(parent, worse, END_TO_END)
    assert lines[4] == "failed operations: parent 2, change 3"
    assert lines[5:] == ["MORE FAILURES: the change failed 1.50% of its operations, "
                         "the parent 1.00%"]
    # a change that fails where the parent never did
    assert ab_bench.output_flags(runs([10], [2]), runs([10], [2], failed=1))[0].startswith(
        "MORE FAILURES: the change failed 1.00%")


def test_a_metric_beyond_its_bound_is_flagged_in_its_own_direction():
    parent = runs([100] * 4, [2] * 4)
    # ops 24% lower stays inside the bound; p50 26% higher does not
    change = runs([76] * 4, [2.52] * 4)
    lines = ab_bench.summarize(parent, change, BOUNDED)
    assert lines[5:] == ["REGRESSED latency_p50_ms: 26.0% worse than the parent median, "
                         "beyond the bound of 25%"]
    stats = [ab_bench.compare(parent, change, m) for m in BOUNDED]
    assert [ab_bench.regressed(st, m) for st, m in zip(stats, BOUNDED)] == [False, True]
    # a gain is never a regression, and a metric without a bound is never flagged
    assert not ab_bench.regressed(ab_bench.compare(change, parent, BOUNDED[1]), BOUNDED[1])
    assert ab_bench.summarize(parent, change, END_TO_END)[5:] == []


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, monkeypatch, capsys):
    # parent ops quartiles [85, 135] around 110: a spread of 45% against 25%
    parent = runs([80, 100, 120, 140], [2] * 4)
    overlapping = runs([130, 90, 125, 95], [2] * 4)
    lines = ab_bench.summarize(parent, overlapping, BOUNDED)
    assert lines[5:] == ["UNRESOLVED ops_per_s: the parent's quartile spread is 45.5% of "
                         "its median, wider than the bound of 25%"]
    # better in every pair is not enough while the runs of both sides overlap
    paired = ab_bench.compare(parent, runs([90, 110, 130, 150], [2] * 4), BOUNDED[0])
    assert paired["wins"] == 4 and ab_bench.unresolved(paired, BOUNDED[0])
    # the flag is a report only: the exit status stays 0
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    sides = {tmp_path: iter(parent), tmp_path / "change": iter(overlapping)}
    monkeypatch.setattr(ab_bench, "run_once", lambda checkout, *_: next(sides[checkout]))
    assert ab_bench.main([str(tmp_path), str(tmp_path / "change"), "--workload", "w",
                          "--pairs", "4"]) == 0
    assert "UNRESOLVED ops_per_s" in capsys.readouterr().out


def test_a_change_better_than_every_parent_run_or_a_narrow_spread_is_resolved():
    parent = runs([80, 100, 120, 140], [2, 3, 4, 5])
    # every change run beats every parent run, in each metric's own direction
    better = runs([150, 141, 160, 170], [1.9, 1.5, 1, 1.2])
    assert ab_bench.summarize(parent, better, BOUNDED)[5:] == []
    # a narrow spread: [100.25, 102.75] around 101.5 is 2.5%, inside the bound
    narrow = runs([100, 101, 102, 103], [2] * 4)
    stats = ab_bench.compare(narrow, runs([101, 100, 103, 102], [2] * 4), BOUNDED[0])
    assert not ab_bench.unresolved(stats, BOUNDED[0])
    # a metric without a bound is never unresolved
    assert ab_bench.summarize(parent, runs([90] * 4, [2] * 4), END_TO_END)[5:] == []


def test_a_claim_needs_nine_wins_in_ten_and_a_gap_wider_than_the_quartiles():
    parent = runs([100, 101, 102, 103, 104, 100, 101, 102, 103, 104], [2] * 10)
    # nine wins, median 108 against 102 with quartiles [100.75, 103.25]
    change = runs([108] * 9 + [99], [2] * 10)
    st = ab_bench.compare(parent, change, END_TO_END[0])
    assert (st["wins"], st["pairs"], st["gap"]) == (9, 10, 6)
    assert ab_bench.claim_holds(st)
    assert ab_bench.summarize(parent, change, END_TO_END, "ops_per_s")[-1] == \
        "claim ops_per_s: holds (9/10 wins, median gap 6, parent quartile spread 2.5)"
    # eight wins are too few, and a gap inside the spread is too small
    eight = runs([108] * 8 + [99, 99], [2] * 10)
    assert not ab_bench.claim_holds(ab_bench.compare(parent, eight, END_TO_END[0]))
    narrow = runs([104.5] * 10, [2] * 10)
    st = ab_bench.compare(parent, narrow, END_TO_END[0])
    assert (st["wins"], st["gap"]) == (10, 2.5) and not ab_bench.claim_holds(st)
    # a lower-is-better metric counts its gap downwards
    faster = runs([100] * 10, [1] * 10)
    assert ab_bench.claim_holds(ab_bench.compare(runs([100] * 10, [2, 2.1] * 5), faster,
                                                 END_TO_END[1]))


def test_exit_status_reports_a_regression_or_a_claim_that_fails(tmp_path, monkeypatch, capsys):
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    ops = {}

    def fake_run(checkout, workload, seed, seconds):
        return runs([ops[checkout]], [2])[0]

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    argv = [str(tmp_path), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    for change_ops, claim, status in ((120, [], 0), (120, ["--claim", "ops_per_s"], 0),
                                      (100, ["--claim", "ops_per_s"], 1), (70, [], 1)):
        ops.update({tmp_path: 100, tmp_path / "change": change_ops})
        assert ab_bench.main(argv + claim) == status
    assert "REGRESSED ops_per_s" in capsys.readouterr().out


def test_exit_status_reports_differing_digests_or_more_failures(tmp_path, monkeypatch,
                                                                capsys):
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    change = tmp_path / "change"
    outputs = {}

    def fake_run(checkout, workload, seed, seconds):
        digest, failed = outputs[checkout]
        return runs([120 if checkout == change else 100], [2], digest, failed)[0]

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    argv = [str(tmp_path), str(change), "--workload", "w", "--pairs", "2",
            "--claim", "ops_per_s"]
    # the claim holds in every case: only the outputs decide
    for parent_out, change_out, status in ((("d", 0), ("d", 0), 0), (("d", 1), ("d", 1), 0),
                                           (("d", 1), ("d", 0), 0), (("d", 0), ("e", 0), 1),
                                           (("d", 0), ("d", 1), 1)):
        outputs.update({tmp_path: parent_out, change: change_out})
        assert ab_bench.main(argv) == status
    out = capsys.readouterr().out
    assert "DIGESTS DIFFER" in out and "MORE FAILURES" in out


def test_each_workload_gets_its_own_table_and_any_flag_fails_the_run(tmp_path, monkeypatch,
                                                                     capsys):
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": BOUNDED}))
    change = tmp_path / "change"
    ops = {}
    started = []

    def fake_run(checkout, workload, seed, seconds):
        started.append(workload)
        return runs([ops[workload] if checkout == change else 100], [2])[0]

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    argv = [str(tmp_path), str(change), "--workload", "v", "--workload", "w", "--pairs", "2"]
    for v_ops, w_ops, status in ((100, 100, 0), (70, 100, 1), (100, 70, 1)):
        ops.update({"v": v_ops, "w": w_ops})
        started.clear()
        assert ab_bench.main(argv) == status
        # the workloads run one after the other, in the order given
        assert started == ["v"] * 4 + ["w"] * 4
        out = capsys.readouterr().out
        tables = [line.split()[0] for line in out.splitlines() if line.startswith("workload=")]
        assert tables == ["workload=v", "workload=w"]
        assert out.count("REGRESSED ops_per_s") == status


def test_a_claim_named_with_its_workload_is_checked_on_that_workload_alone(
        tmp_path, monkeypatch, capsys):
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}, {"name": "v"}, {"name": "u"}], "end_to_end": BOUNDED}))
    change = tmp_path / "change"
    ops = {"v": 120, "w": 100}

    def fake_run(checkout, workload, seed, seconds):
        return runs([ops[workload] if checkout == change else 100], [2])[0]

    monkeypatch.setattr(ab_bench, "run_once", fake_run)
    argv = [str(tmp_path), str(change), "--workload", "v", "--workload", "w", "--pairs", "2"]
    # the gain on v holds; w shows none, and without a claim on it that is no fault
    assert ab_bench.main(argv + ["--claim", "v:ops_per_s"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("claim")] == [
        "claim ops_per_s"]
    assert out.index("claim ops_per_s") < out.index("workload=w")
    # the plain form checks the claim on every workload, and w does not hold it
    assert ab_bench.main(argv + ["--claim", "ops_per_s"]) == 1
    assert capsys.readouterr().out.count("claim ops_per_s") == 2
    assert ab_bench.main(argv + ["--claim", "w:ops_per_s"]) == 1
    ops["w"] = 70
    assert ab_bench.main(argv + ["--claim", "v:ops_per_s"]) == 1
    assert "REGRESSED ops_per_s" in capsys.readouterr().out

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(ab_bench, "run_once", no_run)
    # u is a workload of the parent's BENCHMARK.json, but not of this call
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv + ["--claim", "u:ops_per_s"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "error: --claim u:ops_per_s: u is not a --workload of this call")


def test_a_run_without_a_digest_line_is_an_error(tmp_path, monkeypatch):
    import json
    result = json.dumps({"metrics": {"ops_per_s": {"value": 1.0}}, "failed": 0,
                         "attempted": 1, "correct": 1})

    def fake_run(*args, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    stdout = f"digest sha256=abc over 1 outputs\n{result}\n"
    assert ab_bench.run_once(tmp_path, "w", 1, 1.0)["digest"] == "abc"
    # without the line the run cannot show that both sides agree
    stdout = f"{result}\n"
    with pytest.raises(RuntimeError, match="no digest line"):
        ab_bench.run_once(tmp_path, "w", 1, 1.0)


@pytest.mark.parametrize("extra, message", [
    (["--pairs", "0"], "--pairs must be at least 1, got 0"),
    (["--pairs", "-2"], "--pairs must be at least 1, got -2"),
    (["--seconds", "0"], "--seconds must be positive and finite, got 0"),
    (["--seconds", "-1.5"], "--seconds must be positive and finite, got -1.5"),
    (["--seconds", "nan"], "--seconds must be positive and finite, got nan"),
    (["--seconds", "inf"], "--seconds must be positive and finite, got inf"),
    (["--workload", "v"], "--workload v is not a workload of the parent's BENCHMARK.json"),
    (["--workload", "w", "--workload", "v"],
     "--workload v is not a workload of the parent's BENCHMARK.json"),
    (["--claim", "speed"], "--claim speed is not an end-to-end metric"),
    (["--claim", "w:speed"], "--claim w:speed is not an end-to-end metric"),
    (["--claim", "v:ops_per_s"], "--claim v:ops_per_s: v is not a --workload of this call"),
])
def test_bad_arguments_exit_2_before_any_run(tmp_path, monkeypatch, capsys, extra, message):
    import json
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(ab_bench, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([str(tmp_path), str(tmp_path / "change"), "--workload", "w", *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")
