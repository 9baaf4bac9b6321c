import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_counts_wins_in_the_better_direction(bench_pairs):
    metrics = [{"name": "op_s_p50", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]
    parent = [{"op_s_p50": t, "ok_frac": 1.0} for t in (1.0, 1.2, 1.1, 0.9)]
    change = [{"op_s_p50": t, "ok_frac": 1.0} for t in (0.8, 1.3, 1.0, 0.9)]
    header, times, oks = bench_pairs.report(metrics, parent, change)
    assert times.split()[0] == "op_s_p50" and times.split()[-2:] == ["-9.5%", "2/4"]
    assert oks.split()[-2:] == ["+0.0%", "0/4"]  # ties count for neither side
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


def test_the_worktree_is_removed_when_a_run_fails(bench_pairs, tmp_path, monkeypatch):
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    git("add", "BENCHMARK.json")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "benchmark")
    seen = []

    def failing_run(checkout, *args):
        seen.append(Path(checkout))
        assert (Path(checkout) / "BENCHMARK.json").is_file()
        raise RuntimeError("benchmark run failed")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_bench", failing_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--rev", "HEAD", "--workload", "w", "--seed", "1"])
    with pytest.raises(RuntimeError, match="benchmark run failed"):
        bench_pairs.main()
    assert len(seen) == 1 and seen[0] != tmp_path and not seen[0].exists()
    assert len(git("worktree", "list").splitlines()) == 1


def test_report_marks_a_median_worse_than_its_bound(bench_pairs):
    metrics = [
        {"name": "op_s_p50", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "ok_frac", "better": "higher", "bound": 0.02},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]
    parent = [{"op_s_p50": 1.0, "ops_per_s": 10.0, "ok_frac": 1.0, "peak_rss_mb": 40.0}] * 3
    change = [{"op_s_p50": 1.3, "ops_per_s": 7.0, "ok_frac": 0.99, "peak_rss_mb": 30.0}] * 3
    _, times, rate, oks, rss = bench_pairs.report(metrics, parent, change)
    assert times.endswith("WORSE (bound 25%)") and rate.endswith("WORSE (bound 25%)")
    assert "WORSE" not in oks and "WORSE" not in rss  # within the bound, or better
    assert oks.split()[-2:] == ["-1.0%", "0/3"]


def test_every_workload_runs_in_the_same_alternating_order(bench_pairs, tmp_path, monkeypatch, capsys):
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    metrics = [{"name": "op_s_p50", "better": "lower", "bound": 0.25}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    git("add", "BENCHMARK.json")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "benchmark")
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if Path(checkout) == tmp_path else "parent"
        calls.append((side, workload))
        slower = 1.5 if side == "change" and workload == "b" else 1.0
        digests = ["x", "y", "z"] if side == "change" and workload == "b" and len(calls) > 8 else ["x", "y"]
        return {"op_s_p50": {"a": 1.0, "b": 2.0}[workload] * slower}, digests

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = ["bench_pairs.py", "--rev", "HEAD", "--workload", "a", "--workload", "b", "--seed", "1", "--pairs", "3"]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    order = [("parent", "a"), ("change", "a"), ("parent", "b"), ("change", "b")]
    swapped = [("change", "a"), ("parent", "a"), ("change", "b"), ("parent", "b")]
    assert calls == order + swapped + order
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if line.startswith("workload=")] == ["workload=a", "workload=b"]
    table_a, table_b = out[2], out[6]
    assert table_a.split()[0] == "op_s_p50" and "WORSE" not in table_a
    assert table_b.split()[0] == "op_s_p50" and table_b.endswith("WORSE (bound 25%)")
    # The third pair's change side of b completed one op more: only common ops are compared.
    assert out[3] == out[7] == "op_digests agree on all 6 common ops of 3 pairs"


_FAKE_RUN = """\
import json, pathlib, sys
workload, seed = sys.argv[sys.argv.index("--workload") + 1], sys.argv[sys.argv.index("--seed") + 1]
out = pathlib.Path(__file__).resolve().parent / "_out"
out.mkdir(exist_ok=True)
summary = {"op_digests": ["d0", "d1", workload], "metrics": {"op_s_p50": {"value": 0.5, "unit": "s/op"}}}
(out / f"summary-{workload}-seed{seed}-trace0.json").write_text(json.dumps(summary))
(out / f"summary-{workload}-seed{seed}-trace1.json").write_text(json.dumps({"op_digests": ["traced"]}))
print("a human-readable line")
print(json.dumps({"failed": 0, "attempted": 3, "metrics": summary["metrics"]}))
"""


def test_a_run_reads_the_digests_of_its_own_plain_summary(bench_pairs, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_FAKE_RUN)
    metrics, digests = bench_pairs.run_bench(tmp_path, "w", 7, 0.1)
    assert metrics == {"op_s_p50": 0.5}
    assert digests == ["d0", "d1", "w"]


def test_digest_agreement_names_the_first_pair_and_op_that_differ(bench_pairs):
    same = (["a", "b", "c"], ["a", "b"])
    assert bench_pairs.digest_agreement([same, same]) == "op_digests agree on all 4 common ops of 2 pairs"
    differ = [same, (["a", "b", "c"], ["a", "x", "y"]), (["q"], ["r"])]
    assert bench_pairs.digest_agreement(differ) == (
        "op_digests DIFFER on 3 of 6 common ops; first at pair 2, op 1"
    )
    assert bench_pairs.digest_agreement([([], ["a"])]) == "op_digests agree on all 0 common ops of 1 pairs"
