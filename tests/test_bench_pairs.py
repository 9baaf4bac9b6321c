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
