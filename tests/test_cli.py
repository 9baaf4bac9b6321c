import importlib.util
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from monotile.cli import build_parser, main
from monotile.fixtures import save_fixture
from monotile.graphs import Graph, colour_all, Colour, load_graph_file, parse_graph_text, write_graph_text

REPO = Path(__file__).resolve().parent.parent


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
    assert payload["rounding_table_version"] == "5"
    assert all(len(c) == 3 for c in payload["copies"])
    code, out = run(
        capsys, "extract", "--graph", str(coloured), "--pattern", "k3", "--epsilon", "0.2",
    )
    assert code == 0
    assert set(json.loads(out)) == {
        "target_size", "achieved_size", "colour", "cluster_vertices",
        "seed", "epsilon", "rounding_table_version",
    }


@pytest.mark.parametrize("n", ["0", "5"])
def test_pipeline_on_an_edgeless_host(tmp_path, capsys, n):
    """The colouring of an edgeless host is written as a plain header line and read
    back as that colouring by extract and good-count.  The sampler needs a vertex, so
    the zero-vertex host is written by hand."""
    plain, coloured = tmp_path / "g.txt", tmp_path / "c.txt"
    if n == "0":
        plain.write_text("0 0\n")
    else:
        assert run(capsys, "sample", "--n", n, "--p", "0", "--out", str(plain))[0] == 0
    for adversary in ("uniform-random", "majority-degree", "copy-avoider-greedy"):
        code, _ = run(
            capsys, "colour", "--graph", str(plain), "--adversary", adversary, "--out", str(coloured),
        )
        assert code == 0 and coloured.read_text() == f"{n} 0\n"
    code, out = run(capsys, "extract", "--graph", str(coloured), "--pattern", "k3", "--epsilon", "0.2")
    assert code == 0 and json.loads(out)["achieved_size"] == 0
    code, out = run(capsys, "good-count", "--graph", str(coloured), "--pattern", "k3", "--part-a", "")
    assert code == 0 and json.loads(out) == {"good_copies": 0}


def test_extract_rejects_a_plain_graph_with_edges(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_graph_text(Graph.complete(4)))
    assert main(["extract", "--graph", str(path), "--pattern", "k3", "--epsilon", "0.2"]) == 1
    assert "expected a coloured graph" in capsys.readouterr().err


def test_huge_header_n_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("9223372036854775808 1\n0 1 r\n", encoding="utf-8")
    assert main(["extract", "--graph", str(path), "--pattern", "k3", "--epsilon", "0.2"]) == 1
    assert "too large" in capsys.readouterr().err


def test_rt_exact_subcommand(capsys):
    code, out = run(capsys, "rt-exact", "--pattern", "k3", "--host", "k6")
    assert code == 0
    assert out == (
        '{\n  "colourings_checked": 78,\n  "exact": true,\n  "lower": 1,\n'
        '  "mode": "atlas",\n  "upper": 1,\n  "value": 1\n}\n'
    )


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
    assert out == (
        '{"all_passed": true, "hyperedges": 38, "n": 6, "single_degree_refined": true,'
        ' "tau": 0.408248290463863, "uniformity": 3}\n'
        '{"bound": 36.0, "delta": 4, "j": 1, "passed": true}\n'
        '{"bound": 14.696938456699067, "delta": 1, "j": 2, "passed": true}\n'
        '{"bound": 6.0, "delta": 1, "j": 3, "passed": true}\n'
    )


def test_sweep_subcommand_csv_and_json(tmp_path, capsys):
    args = [
        "sweep", "--pattern", "k3", "--n-list", "9", "--c-list", "50",
        "--epsilon", "0.2", "--trials", "2", "--adversaries", "uniform-random",
        "--seed", "3",
    ]
    code, out_csv = run(capsys, *args)
    assert code == 0
    assert out_csv.startswith("# monotile-sweep-csv v2")
    code, out_json = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out_json)["rows"]


def test_sweep_rejects_a_repeated_host_size(capsys):
    code = main([
        "sweep", "--pattern", "k3", "--n-list", "30,30", "--c-list", "5",
        "--epsilon", "0.2", "--trials", "2",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: n_list repeats 30\n"


def test_sweep_refuses_fewer_than_one_worker(capsys):
    code = main([
        "sweep", "--pattern", "k3", "--n-list", "12", "--c-list", "1", "--epsilon", "0.2",
        "--workers", "0",
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: workers must be at least 1, not 0\n"


@pytest.mark.parametrize("value", ["", ","])
def test_an_empty_pattern_or_adversary_list_is_a_usage_error(capsys, value):
    """``--pattern ""`` names no pattern and ``--adversaries ""`` no adversary, as ``","``
    does; neither means the default."""
    code = main(["colour", "--graph", "k6", "--adversary", "copy-avoider-greedy", "--pattern", value])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {value!r}\n"
    code = main([
        "sweep", "--pattern", "k3", "--n-list", "12", "--c-list", "1", "--epsilon", "0.2",
        "--trials", "1", "--adversaries", value,
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: unknown adversary ''\n"


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


def test_rt_exact_brackets_on_a_host_past_the_float_range(capsys):
    # K46 has 2^1034 colourings up to the swap; the budget admits two of them.
    code, out = run(capsys, "rt-exact", "--pattern", "k3", "--host", "k46", "--budget", "200000")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False and payload["colourings_checked"] == 2


@pytest.mark.parametrize("argv", [
    ("rt-exact", "--pattern", "k3", "--host", "k5"),
    ("aux-check", "--n", "12", "--pattern", "k4"),
    ("verify-fixtures", "--dir", "."),
])
def test_a_nan_budget_is_a_usage_error(capsys, argv):
    assert main([*argv, "--budget", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: budget must be a number, not nan\n"


def test_budget_refusal_from_aux(capsys):
    code, _ = run(capsys, "aux-check", "--n", "12", "--pattern", "k4", "--budget", "10")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "0", "--C", "5"],
        ["sample", "--n", "0", "--p", "0.5"],
        ["sweep", "--pattern", "k3", "--n-list", "0", "--c-list", "1", "--epsilon", "0.1"],
        ["sweep", "--pattern", "k3", "--n-list", "-5", "--c-list", "1", "--epsilon", "0.1"],
    ],
)
def test_a_host_without_vertices_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "4", "--C", "nan"],
        ["sample", "--n", "4", "--C", "inf"],
        ["sweep", "--pattern", "k3", "--n-list", "4", "--c-list", "nan", "--epsilon", "0.1"],
        ["sweep", "--pattern", "k3", "--n-list", "4", "--c-list", "1,inf", "--epsilon", "0.1"],
    ],
)
def test_a_non_finite_threshold_constant_is_a_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--n", "20", "--C", "-1"], "C must be non-negative, not -1.0"),
        (
            ["sweep", "--pattern", "k3", "--n-list", "20", "--c-list", "-1", "--epsilon", "0.15",
             "--trials", "2", "--adversaries", "uniform-random"],
            "every C must be non-negative, not -1.0",
        ),
    ],
)
def test_a_negative_threshold_constant_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("n", ["0", "-4"])
def test_aux_check_needs_a_vertex(capsys, n):
    assert main(["aux-check", "--n", n, "--pattern", "k3"]) == 1
    assert capsys.readouterr().err == f"error: the host needs at least one vertex, not n = {n}\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--n"])  # missing value
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--graph", "g.txt", "--pattern", "k3", "--epsilon", "0.2", "--workers", "2"],
        ["extract", "--graph", "g.txt", "--pattern", "k3", "--epsilon", "0.2", "--budget", "10"],
        ["rt-exact", "--pattern", "k3", "--host", "k6", "--seed", "1"],
        ["sample", "--n", "6", "--p", "1.0", "--workers", "2"],
        ["extract", "--graph", "g.txt", "--pattern", "k3", "--epsilon", "0.2", "--eta", "0.5"],
    ],
)
def test_options_a_subcommand_never_reads_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


def test_verify_fixtures_exit_codes(tmp_path, capsys):
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path))
    assert code == 0
    assert out == '{\n  "checked": 1,\n  "mismatches": [],\n  "passed": true,\n  "warnings": []\n}\n'
    # corrupt it
    victim = next(tmp_path.glob("*.fixture.json"))
    payload = json.loads(victim.read_text())
    payload["value"] = "9/5"
    victim.write_text(json.dumps(payload))
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path))
    assert code == 3


def test_verify_fixtures_reports_a_budget_refusal_per_file(tmp_path, capsys):
    save_fixture(tmp_path, "good_copy_count", colour_all(Graph.complete(6), Colour.RED), Graph.complete(3), {"A": [0, 1, 2]})
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path), "--budget", "200")
    assert code == 3
    payload = json.loads(out)
    assert payload["checked"] == 1 and len(payload["mismatches"]) == 1
    assert payload["mismatches"][0].startswith("good_copy_count__")
    assert payload["mismatches"][0].endswith(": cannot recompute: good-copy enumeration estimate 216 exceeds budget 200")


def test_verify_fixtures_reports_an_unreadable_file_as_drift(tmp_path, capsys):
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    (tmp_path / "a.fixture.json").write_text("{not json")
    code, out = run(capsys, "verify-fixtures", "--dir", str(tmp_path))
    assert code == 3
    payload = json.loads(out)
    assert payload["checked"] == 1 and not payload["passed"]
    assert [m.split(":")[:2] for m in payload["mismatches"]] == [["a.fixture.json", " cannot recompute"]]


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


def test_an_empty_planted_part_is_the_empty_set(tmp_path, capsys):
    """``--part ""`` lists no vertex, as ``--part ","`` does; neither means the default part."""
    host = tmp_path / "g.txt"
    assert main(["sample", "--n", "30", "--C", "3", "--seed", "2", "--out", str(host)]) == 0
    argv = ["colour", "--graph", str(host), "--adversary", "planted-partition"]
    default, empty, comma = (run(capsys, *argv, *part) for part in ([], ["--part="], ["--part=,"]))
    assert default[0] == empty[0] == comma[0] == 0
    assert empty[1] == comma[1] != default[1]
    assert not any(parse_graph_text(empty[1]).red_adjacency)


def test_an_empty_aux_part_is_the_empty_set(capsys):
    """``--part-a ""`` lists no vertex, as ``--part-a ","`` does: an unbalanced partition."""
    for part in ("--part-a=", "--part-a=,"):
        assert main(["aux-check", "--n", "6", "--pattern", "k3", part]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "the partition must be balanced" in captured.err


@pytest.mark.parametrize("part", ["0,1,99", "-1,0,1"])
def test_colour_rejects_part_vertices_outside_the_host(capsys, part):
    assert main(["colour", "--graph", "k6", "--adversary", "planted-partition", f"--part={part}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "range(6)" in captured.err


def test_aux_check_refuses_a_large_host_quickly(capsys):
    start = time.perf_counter()
    code, _ = run(capsys, "aux-check", "--n", "60000", "--pattern", "k3")
    assert code == 2
    assert time.perf_counter() - start < 10  # a quadratic complement of part A took about 35 s


def test_colour_budget_refusal_on_general_pattern(capsys):
    argv = ["colour", "--graph", "k6", "--adversary", "copy-avoider-greedy", "--pattern", "c4"]
    assert main(argv + ["--budget", "10"]) == 2
    assert "budget refused" in capsys.readouterr().err
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "6 15"


def test_readme_commands_parse_and_scripts_exist():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    joined = [block.replace("\\\n", " ") for block in blocks]  # backslash continuations
    lines = [line.split("#")[0].strip() for block in joined for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("monotile ")]
    scripts = {tok for line in lines for tok in shlex.split(line) if tok.startswith("scripts/")}
    assert commands and scripts
    for argv in commands:
        build_parser().parse_args(argv[1:])  # a usage error exits
    for script in sorted(scripts):
        assert (REPO / script).is_file(), script


@pytest.mark.parametrize("script", sorted(path.name for path in (REPO / "scripts").glob("*.py")))
def test_every_script_imports_without_running(script, tmp_path, monkeypatch):
    """A rename in ``src/`` that a script still imports fails here; importing writes nothing."""
    atlas = REPO / "src" / "monotile" / "atlas.txt"
    before = atlas.stat().st_mtime_ns
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(f"script_{script[:-3]}", REPO / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    assert not any(tmp_path.iterdir()) and atlas.stat().st_mtime_ns == before
