import csv
import dataclasses
import io
import json

import pytest

from monotile.graphs import Graph
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
    assert lines[0] == "# monotile-sweep-csv v1"
    assert lines[1].startswith("# plan ")


def test_json_shape():
    payload = json.loads(run_sweep(_small_plan(n_list=(9,))).to_json())
    assert set(payload) == {"schema", "plan", "rows", "aggregates"}
    assert all("wall_ms" not in row for row in payload["rows"])


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
    plan = _small_plan(n_list=(12,))
    serial = run_sweep(plan, workers=1).to_csv()
    parallel = run_sweep(plan, workers=2).to_csv()
    assert serial == parallel


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    low, high = wilson_interval(50, 50)
    assert low > 0.9 and high == pytest.approx(1.0)
    low, high = wilson_interval(25, 50)
    assert low < 0.5 < high
