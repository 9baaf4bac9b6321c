import json

import pytest

from monotile.cli import main
from monotile.fixtures import save_fixture
from monotile.graphs import Graph, colour_all, Colour, load_graph_file, write_graph_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sample_to_stdout(capsys):
    code, out = run(capsys, "sample", "--n", "6", "--p", "1.0")
    assert code == 0
    assert out.splitlines()[0] == "6 15"


def test_sample_with_threshold_constant(capsys):
    code, out = run(capsys, "sample", "--n", "30", "--C", "2.0", "--pattern", "k3", "--seed", "5")
    assert code == 0
    n, m = out.splitlines()[0].split()
    assert n == "30"


def test_pipeline_sample_colour_extract(tmp_path, capsys):
    plain = tmp_path / "g.txt"
    coloured = tmp_path / "c.txt"
    code, _ = run(capsys, "sample", "--n", "21", "--p", "1.0", "--out", str(plain))
    assert code == 0
    code, _ = run(
        capsys, "colour", "--graph", str(plain), "--adversary", "uniform-random",
        "--seed", "3", "--out", str(coloured),
    )
    assert code == 0
    code, out = run(
        capsys, "extract", "--graph", str(coloured), "--pattern", "k3",
        "--epsilon", "0.2", "--seed", "1", "--with-tiling",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["achieved_size"] >= payload["target_size"]
    assert payload["rounding_table_version"] == "2"
    assert all(len(c) == 3 for c in payload["copies"])


def test_rt_exact_subcommand(capsys):
    code, out = run(capsys, "rt-exact", "--pattern", "k3", "--host", "k6")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1 and payload["exact"]


def test_good_count_subcommand(tmp_path, capsys):
    path = tmp_path / "red6.txt"
    path.write_text(write_graph_text(colour_all(Graph.complete(6), Colour.RED)))
    code, out = run(
        capsys, "good-count", "--graph", str(path), "--pattern", "k3",
        "--part-a", "0,1,2",
    )
    assert code == 0
    assert json.loads(out)["good_copies"] == 19


def test_aux_check_subcommand(capsys):
    code, out = run(capsys, "aux-check", "--n", "6", "--pattern", "k3")
    assert code == 0
    head = json.loads(out.splitlines()[0])
    assert head["all_passed"] is True


def test_sweep_subcommand_csv_and_json(tmp_path, capsys):
    args = [
        "sweep", "--pattern", "k3", "--n-list", "9", "--c-list", "50",
        "--epsilon", "0.2", "--trials", "2", "--adversaries", "uniform-random",
        "--seed", "3",
    ]
    code, out_csv = run(capsys, *args)
    assert code == 0
    assert out_csv.startswith("# monotile-sweep-csv v1")
    code, out_json = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out_json)["rows"]


def test_missing_file_is_usage_error(capsys):
    code, _ = run(
        capsys, "good-count", "--graph", "/nonexistent", "--pattern", "k3",
        "--part-a", "0",
    )
    assert code == 1


def test_rt_exact_brackets_instead_of_refusing(capsys):
    code, out = run(
        capsys, "rt-exact", "--pattern", "k3", "--host", "c30", "--budget", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False and "value" not in payload


def test_budget_refusal_from_aux(capsys):
    code, _ = run(capsys, "aux-check", "--n", "12", "--pattern", "k4", "--budget", "10")
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--n"])  # missing value
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_verify_fixtures_exit_codes(tmp_path, capsys):
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path))
    assert code == 0
    # corrupt it
    victim = next(tmp_path.glob("*.fixture.json"))
    payload = json.loads(victim.read_text())
    payload["value"] = "9/5"
    victim.write_text(json.dumps(payload))
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path))
    assert code == 3


def test_colour_planted_part_flag(tmp_path, capsys):
    plain = tmp_path / "g.txt"
    plain.write_text(write_graph_text(Graph.complete(6)))
    out_path = tmp_path / "c.txt"
    code, _ = run(
        capsys, "colour", "--graph", str(plain), "--adversary", "planted-partition",
        "--part", "0,1,2", "--out", str(out_path),
    )
    assert code == 0
    cg = load_graph_file(out_path)
    assert cg.colour_of(0, 1) is Colour.RED
    assert cg.colour_of(3, 4) is Colour.BLUE


def test_colour_budget_refusal_on_general_pattern(capsys):
    argv = ["colour", "--graph", "k6", "--adversary", "copy-avoider-greedy", "--pattern", "c4"]
    assert main(argv + ["--budget", "10"]) == 2
    assert "budget refused" in capsys.readouterr().err
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "6 15"
