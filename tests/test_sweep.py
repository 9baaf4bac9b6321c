import csv
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import monotile
from monotile.graphs import Graph, parse_graph_text, pattern_by_name, write_graph_text
from monotile.patterns import PatternStats
from monotile.sweep import SweepPlan, SweepResult, run_sweep, trial_seed, wilson_interval


def _small_plan(**overrides):
    base = dict(
        pattern_name="k3",
        pattern=Graph.complete(3),
        n_list=(12, 15),
        C_list=(50.0,),
        epsilon=0.2,
        trials=2,
        seed_base=7,
        adversaries=("uniform-random", "planted-partition"),
    )
    base.update(overrides)
    return SweepPlan(**base)


def test_row_count_is_cells_times_trials():
    plan = _small_plan()
    result = run_sweep(plan)
    assert len(result.rows) == plan.cells * plan.trials == 8
    assert len(result.aggregates) == plan.cells


def test_byte_identical_reruns():
    plan = _small_plan()
    a = run_sweep(plan).to_csv()
    b = run_sweep(plan).to_csv()
    assert a == b
    aj = run_sweep(plan).to_json()
    bj = run_sweep(plan).to_json()
    assert aj == bj


def test_success_flag_recomputable_from_row():
    result = run_sweep(_small_plan())
    for row in result.rows:
        assert row.success == (row.achieved >= row.target)


def test_empty_n_list_gives_empty_table():
    result = run_sweep(_small_plan(n_list=()))
    assert result.rows == ()
    csv = result.to_csv()
    assert csv.splitlines()[2].startswith("n,C,")
    assert len([ln for ln in csv.splitlines() if not ln.startswith("#")]) == 1


def test_forced_complete_host_always_succeeds():
    # C=50 at these sizes drives p to 1: extraction beats the target on
    # every adversary, so each cell's frequency is exactly 1.0
    result = run_sweep(_small_plan())
    for row in result.rows:
        assert row.p == 1.0
    for agg in result.aggregates:
        assert agg.frequency == 1.0


def test_aggregates_recomputable_from_rows():
    result = run_sweep(_small_plan())
    for agg in result.aggregates:
        cell = [
            r for r in result.rows
            if (r.n, r.C, r.adversary) == (agg.n, agg.C, agg.adversary)
        ]
        assert agg.trials == len(cell)
        assert agg.successes == sum(r.success for r in cell)
        assert agg.frequency == pytest.approx(agg.successes / agg.trials)
        assert 0.0 <= agg.wilson_low <= agg.frequency <= agg.wilson_high <= 1.0


def test_timings_column_is_opt_in():
    result = run_sweep(_small_plan(n_list=(9,), adversaries=("uniform-random",)))
    assert "wall_ms" not in result.to_csv()
    timed = result.to_csv(include_timings=True)
    assert "wall_ms" in timed.splitlines()[2]


def test_csv_schema_header():
    result = run_sweep(_small_plan(n_list=(9,)))
    lines = result.to_csv().splitlines()
    assert lines[0] == "# monotile-sweep-csv v2"
    assert lines[1].startswith("# plan ")


def test_json_shape():
    payload = json.loads(run_sweep(_small_plan(n_list=(9,))).to_json())
    assert set(payload) == {"schema", "plan", "rows", "aggregates"}
    assert all("wall_ms" not in row for row in payload["rows"])


_PINNED_CSV = """\
# monotile-sweep-csv v2
# plan {"epsilon": 0.1, "pattern": "k3", "seed_base": 7, "trials": 1}
n,C,adversary,trial,seed,p,achieved,target,success,error
15,-1.0,uniform-random,0,3180101358029593544,nan,0,1,0,ValueError: edge probability -0.25819888974716115 outside [0; 1]
15,5.0,uniform-random,0,5703396763123485103,1.0,5,1,1,
# cell {"C": -1, "adversary": "uniform-random", "frequency": 0.0, "n": 15, "successes": 0, "trials": 1, "wilson95": [0.0, 0.7934567085261071]}
# cell {"C": 5, "adversary": "uniform-random", "frequency": 1.0, "n": 15, "successes": 1, "trials": 1, "wilson95": [0.20654329147389294, 1.0]}
"""

_PINNED_JSON_ROWS = """\
  "rows": [
    {
      "C": -1,
      "achieved": 0,
      "adversary": "uniform-random",
      "error": "ValueError: edge probability -0.25819888974716115 outside [0; 1]",
      "n": 15,
      "p": NaN,
      "seed": 3180101358029593544,
      "success": false,
      "target": 1,
      "trial": 0
    },
    {
      "C": 5,
      "achieved": 5,
      "adversary": "uniform-random",
      "error": "",
      "n": 15,
      "p": 1.0,
      "seed": 5703396763123485103,
      "success": true,
      "target": 1,
      "trial": 0
    }
  ],
"""


def test_small_plan_bytes_are_pinned():
    # Int C values print as 5.0 in CSV cells and as 5 in JSON; a failed trial
    # keeps p = nan, achieved = 0 and the extraction target.
    plan = _small_plan(n_list=(15,), C_list=(5, -1), epsilon=0.1, trials=1, adversaries=("uniform-random",))
    result = run_sweep(plan)
    assert result.to_csv() == _PINNED_CSV
    text = result.to_json()
    assert _PINNED_JSON_ROWS in text
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "2c602faff167a217"
    timed = result.to_csv(include_timings=True).splitlines()
    assert timed[2] == "n,C,adversary,trial,seed,p,achieved,target,success,error,wall_ms"
    assert [line.rsplit(",", 1)[0] for line in timed[3:5]] == _PINNED_CSV.splitlines()[3:5]


def test_trial_seeds_differ_by_cell():
    s1 = trial_seed(7, 10, 1.0, "uniform-random", 0)
    assert s1 == trial_seed(7, 10, 1.0, "uniform-random", 0)
    assert s1 != trial_seed(7, 10, 1.0, "uniform-random", 1)
    assert s1 != trial_seed(7, 11, 1.0, "uniform-random", 0)
    assert s1 != trial_seed(8, 10, 1.0, "uniform-random", 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        _small_plan(trials=0)
    with pytest.raises(ValueError):
        _small_plan(adversaries=("nope",))
    with pytest.raises(ValueError):
        _small_plan(epsilon=1.0)
    with pytest.raises(ValueError, match="n_list repeats 12"):
        _small_plan(n_list=(12, 15, 12))
    with pytest.raises(ValueError, match="C_list repeats 50"):
        _small_plan(C_list=(50.0, 50))
    with pytest.raises(ValueError, match="adversaries repeats 'uniform-random'"):
        _small_plan(adversaries=("uniform-random",) * 2)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"^every n needs at least one vertex, not {n}$"):
            _small_plan(n_list=(12, n))
    for C in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^every C must be finite, not {C}$"):
            _small_plan(C_list=(50.0, C))


def test_trial_failures_become_rows(monkeypatch):
    import monotile.sweep as sweep_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic trial failure")

    monkeypatch.setattr(sweep_mod, "extract_tiling", boom)
    result = run_sweep(_small_plan(n_list=(9,), adversaries=("uniform-random",)))
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.error.startswith("RuntimeError")
        assert not row.success


@pytest.mark.parametrize("name", ["c4", "k3"])
def test_copy_avoider_trial_avoids_the_swept_pattern(monkeypatch, name):
    import monotile.sweep as sweep_mod
    from monotile.adversaries import AdversarySpec, colour_with
    from monotile.graphs import pattern_by_name
    from monotile.sampling import derive_seed

    seen = []

    def recording_colour_with(host, spec):
        coloured = colour_with(host, spec)
        seen.append((host, coloured))
        return coloured

    monkeypatch.setattr(sweep_mod, "colour_with", recording_colour_with)
    pattern = pattern_by_name(name)
    plan = _small_plan(
        pattern_name=name, pattern=pattern, n_list=(60,), C_list=(5.0,),
        trials=1, adversaries=("copy-avoider-greedy",),
    )
    (row,) = run_sweep(plan).rows
    assert row.error == ""
    ((host, coloured),) = seen
    colour_seed = derive_seed(row.seed, "colour")

    def avoiding(pattern_name):
        spec = AdversarySpec("copy-avoider-greedy", {"pattern": pattern_name}, colour_seed)
        return colour_with(host, spec).content_hash()

    assert coloured.content_hash() == avoiding(name)
    if name == "c4":
        assert coloured.content_hash() != avoiding("k3")


def test_csv_quotes_error_text():
    result = run_sweep(_small_plan(n_list=(9,), adversaries=("uniform-random",)))
    error = 'ValueError: bad, "worse"\nworst'
    rows = (dataclasses.replace(result.rows[0], error=error),) + result.rows[1:]
    text = SweepResult(result.plan, rows, result.aggregates).to_csv(include_timings=True)
    body = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
    header, *table = csv.reader(io.StringIO(body))
    assert len(table) == len(rows)
    assert all(len(row) == len(header) for row in table)
    assert table[0][header.index("error")] == error
    assert table[1][header.index("error")] == ""


def test_parallel_matches_serial():
    # workers=2 imports the process pool lazily; its rows, wall times aside,
    # and its default CSV must match the serial run's.
    plan = _small_plan(n_list=(12,))
    serial, parallel = run_sweep(plan, workers=1), run_sweep(plan, workers=2)
    assert [dataclasses.replace(row, wall_ms=0.0) for row in serial.rows] == [
        dataclasses.replace(row, wall_ms=0.0) for row in parallel.rows
    ]
    assert serial.to_csv() == parallel.to_csv()


def test_cold_import_leaves_networkx_and_the_process_pool_out():
    # Every CLI step and sweep worker starts a fresh interpreter: the run path
    # must not pay for networkx (the atlas is a checked-in table) or for the
    # process pool (imported only when a sweep asks for workers).
    src = Path(monotile.__file__).resolve().parent.parent
    code = (
        "import sys, monotile, monotile.cli; "
        "print(sorted(m for m in ('networkx', 'multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["k2", "k3", "p4", "c5", "matching-2"])
def test_worker_pattern_stats_match_the_text_route(name):
    # Workers get the plan's PatternStats pickled, not the pattern's text.
    pattern = pattern_by_name(name)
    stats = PatternStats.from_graph(pattern)
    assert pickle.loads(pickle.dumps(stats)) == stats
    assert stats == PatternStats.from_graph(parse_graph_text(write_graph_text(pattern)))


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, high = wilson_interval(50, 50)
    assert low > 0.9 and high == pytest.approx(1.0)
    low, high = wilson_interval(25, 50)
    assert low < 0.5 < high
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
