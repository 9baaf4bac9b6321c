import json

import pytest

from monotile.fixtures import save_fixture, verify_fixtures
from monotile.graphs import Colour, Graph, colour_all, write_graph_text


def test_pristine_fixture_dir_passes(tmp_path, k3):
    save_fixture(tmp_path, "rt_exact", Graph.complete(5), Graph.complete(3), {})
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    save_fixture(
        tmp_path, "good_copy_count",
        colour_all(Graph.complete(6), Colour.RED), Graph.complete(3), {"A": [0, 1, 2]},
    )
    report = verify_fixtures(tmp_path)
    assert report.passed and report.checked == 3


def test_corrupted_fixture_fails_naming_key(tmp_path):
    path = save_fixture(tmp_path, "rt_exact", Graph.complete(5), Graph.complete(3), {})
    payload = json.loads(path.read_text())
    payload["value"] = 1  # truth is 0
    path.write_text(json.dumps(payload))
    report = verify_fixtures(tmp_path)
    assert not report.passed
    assert len(report.mismatches) == 1
    assert payload["key"] in report.mismatches[0]


def test_empty_dir_passes_with_warning(tmp_path):
    report = verify_fixtures(tmp_path / "nothing-here")
    assert report.passed and report.checked == 0
    assert report.warnings


def test_richness_fixture_roundtrip(tmp_path):
    save_fixture(tmp_path, "richness_rich", Graph.complete(6), Graph.complete(3), {"s": 3})
    save_fixture(tmp_path, "richness_rich", Graph.complete(4), Graph.complete(3), {"s": 2})
    report = verify_fixtures(tmp_path)
    assert report.passed and report.checked == 2


def test_a_budget_refusal_is_reported_and_the_rest_still_checked(tmp_path):
    save_fixture(
        tmp_path, "good_copy_count",
        colour_all(Graph.complete(6), Colour.RED), Graph.complete(3), {"A": [0, 1, 2]},
    )
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})
    report = verify_fixtures(tmp_path, budget=200)  # the K6 count's estimate is 6^3 = 216
    assert report.checked == 1 and not report.passed
    assert [m.split(": ")[1:] for m in report.mismatches] == [
        ["cannot recompute", "good-copy enumeration estimate 216 exceeds budget 200"]
    ]


def test_clique_supersat_fixture(tmp_path):
    save_fixture(
        tmp_path, "clique_supersat", Graph.complete(8), Graph.complete(3), {"R": 3}
    )
    assert verify_fixtures(tmp_path).passed


@pytest.mark.parametrize("n", [0, 4])
def test_an_edgeless_colouring_round_trips_as_a_good_copy_fixture(tmp_path, n):
    """Its text is a plain header line, read back as the one colouring of the edgeless graph."""
    save_fixture(tmp_path, "good_copy_count", colour_all(Graph(n), Colour.RED), Graph.complete(3), {"A": [0, 1][:n]})
    report = verify_fixtures(tmp_path)
    assert report.passed and report.checked == 1


def test_unknown_operation_reported(tmp_path):
    bad = tmp_path / "zzz.fixture.json"
    bad.write_text(json.dumps({"operation": "nope", "key": "zzz"}))
    report = verify_fixtures(tmp_path)
    assert not report.passed
    assert "zzz" in report.mismatches[0]


_K3_TEXT = write_graph_text(Graph.complete(3))


def _malformed(operation, params):
    # Each of these used to end verify_fixtures with ZeroDivisionError or TypeError,
    # or, a float s or R, to be recomputed at the truncated int.
    host = Graph.complete(5)
    if operation == "good_copy_count":
        host = colour_all(host, Colour.RED)
    return json.dumps({"operation": operation, "key": "malformed", "params": params, "value": 0,
                       "pattern": _K3_TEXT, "host": write_graph_text(host)})


@pytest.mark.parametrize("text, mismatch", [
    (
        json.dumps({"operation": "rt_exact", "key": "coloured-host", "params": {}, "value": 0, "pattern": _K3_TEXT,
                    "host": write_graph_text(colour_all(Graph.complete(5), Colour.RED))}),
        "coloured-host: cannot recompute: host text must be an uncoloured graph",
    ),
    (
        json.dumps({"operation": "good_copy_count", "key": "bad-host", "params": {"A": [0]}, "value": 0,
                    "pattern": _K3_TEXT, "host": "3 1\n0 7 r\n"}),
        "bad-host: cannot recompute: ",
    ),
    (
        json.dumps({"operation": "good_copy_count", "key": "plain-host", "params": {"A": [0]}, "value": 0,
                    "pattern": _K3_TEXT, "host": _K3_TEXT}),
        "plain-host: cannot recompute: expected a coloured graph",
    ),
    (
        json.dumps({"operation": "clique_supersat", "key": "empty-host", "params": {"R": 3}, "pattern": _K3_TEXT,
                    "value": {"count": 0, "hypothesis_met": False, "meets_bound": None}, "host": "0 0\n"}),
        "empty-host: cannot recompute: densest_t needs a host with at least one vertex",
    ),
    (_malformed("clique_supersat", {"R": 3, "t": 0}), "malformed: cannot recompute: t must be a positive int"),
    (_malformed("clique_supersat", {"R": 3, "t": "3"}), "malformed: cannot recompute: t must be a positive int"),
    (_malformed("clique_supersat", {"R": 3, "t": 2.5}), "malformed: cannot recompute: t must be a positive int"),
    (_malformed("clique_supersat", {"R": 3.8}), "malformed: cannot recompute: R must be an int, not 3.8"),
    (_malformed("clique_supersat", {"R": "3"}), "malformed: cannot recompute: R must be an int, not '3'"),
    (_malformed("richness_rich", {"s": 2.9}), "malformed: cannot recompute: s must be a positive int, not 2.9"),
    (_malformed("richness_rich", {"s": "2"}), "malformed: cannot recompute: s must be a positive int, not '2'"),
    (_malformed("good_copy_count", {"A": 5}), "malformed: cannot recompute: 'int' object is not iterable"),
    (_malformed("good_copy_count", {"A": [[0]]}), "malformed: cannot recompute: unhashable type: 'list'"),
    (_malformed("good_copy_count", []), "malformed: cannot recompute: list indices must be integers"),
    ("{not json", "a.fixture.json: cannot recompute: Expecting property name"),
    ("[1, 2]", "a.fixture.json: cannot recompute: not a JSON object"),
])
def test_a_file_that_cannot_be_recomputed_is_a_mismatch(tmp_path, text, mismatch):
    (tmp_path / "a.fixture.json").write_text(text)
    save_fixture(tmp_path, "m2_density", Graph.complete(3), Graph.complete(3), {})  # verified after it
    report = verify_fixtures(tmp_path)
    assert report.checked == 1 and len(report.mismatches) == 1
    assert report.mismatches[0].startswith(mismatch)
