"""Disk-cached oracle results: the regression corpus.

Each fixture is one JSON file embedding its own inputs (host text, pattern
text, parameters) plus the cached value, keyed by content hashes.
``verify_fixtures`` recomputes every value within per-operation budgets and
reports any drift as a hard failure naming the offending keys; so is a file
it cannot recompute (not a JSON object, a host or pattern text that does
not parse to the kind its operation takes, a parameter of the wrong type or
out of range, or a budget refusal), and the rest are still checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import oracles
from .budget import BudgetExceededError
from .graphs import ColouredGraph, Graph, _as_colouring, parse_graph_text, write_graph_text
from .patterns import PatternStats, independence_number, m2_density

FIXTURE_SUFFIX = ".fixture.json"


def _parsed(payload: dict, field: str, kind: type = Graph) -> Graph | ColouredGraph:
    """The graph in ``payload[field]``; ``ValueError`` unless it parses to ``kind``, an
    edgeless graph counting as its one colouring."""
    graph = parse_graph_text(payload[field])
    if kind is ColouredGraph:
        return _as_colouring(graph)
    if not isinstance(graph, kind):
        raise ValueError(f"{field} text must be an uncoloured graph")
    return graph


def _stats(payload: dict) -> PatternStats:
    return PatternStats.from_graph(_parsed(payload, "pattern"))


def _compute_rt_exact(payload: dict, budget: float | None):
    return oracles.exact_rt(_stats(payload), _parsed(payload, "host"), budget).value


def _compute_good_copy_count(payload: dict, budget: float | None):
    host = _parsed(payload, "host", ColouredGraph)
    A = payload["params"]["A"]
    B = sorted(set(range(host.n)).difference(A))
    return oracles.good_copy_count(host, _stats(payload), A, B, budget)


def _compute_richness(payload: dict, budget: float | None):
    s = payload["params"]["s"]
    return oracles.richness_decide(_parsed(payload, "host"), _stats(payload), s, budget).rich


def _compute_clique_supersat(payload: dict, budget: float | None):
    params = payload["params"]
    report = oracles.clique_supersat_count(_parsed(payload, "host"), params["R"], params.get("t"), budget)
    return {
        "count": report.count,
        "hypothesis_met": report.hypothesis_met,
        "meets_bound": report.meets_bound,
    }


def _compute_m2(payload: dict, budget: float | None):
    return str(m2_density(_parsed(payload, "pattern")))


def _compute_alpha(payload: dict, budget: float | None):
    return independence_number(_parsed(payload, "pattern"))


OPERATIONS: dict[str, Callable[[dict, float | None], object]] = {
    "rt_exact": _compute_rt_exact,
    "good_copy_count": _compute_good_copy_count,
    "richness_rich": _compute_richness,
    "clique_supersat": _compute_clique_supersat,
    "m2_density": _compute_m2,
    "independence_number": _compute_alpha,
}


def fixture_key(operation: str, host_hash: str, pattern_hash: str, params: dict) -> str:
    params_part = json.dumps(params, sort_keys=True).encode()
    params_hash = hashlib.sha256(params_part).hexdigest()[:8]
    return f"{operation}__{host_hash}__{pattern_hash}__{params_hash}"


def save_fixture(
    directory: Path | str,
    operation: str,
    host: Graph | ColouredGraph,
    pattern: Graph,
    params: dict,
    budget: float | None = None,
) -> Path:
    """Compute the oracle value now and persist it with its inputs."""
    if operation not in OPERATIONS:
        raise ValueError(f"unknown fixture operation {operation!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "operation": operation,
        "host": write_graph_text(host),
        "pattern": write_graph_text(pattern),
        "params": params,
    }
    payload["value"] = OPERATIONS[operation](payload, budget)
    key = fixture_key(operation, host.content_hash(), pattern.content_hash(), params)
    payload["key"] = key
    path = directory / (key + FIXTURE_SUFFIX)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class VerifyReport:
    checked: int
    mismatches: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_fixtures(directory: Path | str, budget: float | None = None) -> VerifyReport:
    """Recompute every cached value and diff; empty dirs pass with a warning."""
    directory = Path(directory)
    files = sorted(directory.glob("*" + FIXTURE_SUFFIX)) if directory.exists() else []
    if not files:
        return VerifyReport(0, (), ("no fixtures found: zero values checked",))
    mismatches = []
    checked = 0
    for path in files:
        key = path.name
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("not a JSON object")
            key = payload.get("key", key)
            op = payload.get("operation")
            if op not in OPERATIONS:
                mismatches.append(f"{key}: unknown operation {op!r}")
                continue
            fresh = OPERATIONS[op](payload, budget)
        except (ValueError, KeyError, TypeError, BudgetExceededError) as exc:  # TypeError: a param of the wrong type
            mismatches.append(f"{key}: cannot recompute: {exc}")
            continue
        checked += 1
        if fresh != payload.get("value"):
            mismatches.append(
                f"{key}: cached {payload.get('value')!r} but recomputed {fresh!r}"
            )
    return VerifyReport(checked, tuple(mismatches), ())
