"""Batch sweeps over host size and threshold constant, with CSV/JSON emission.

One row per (n, C, adversary, trial).  Per-trial seeds derive from the plan's
base seed and the cell coordinates, so any cell reruns independently.  Wall
times are measured but only written when explicitly asked: default output is
byte-identical across runs of the same plan.  Aggregates ride along as
trailing comment lines in CSV (and a separate array in JSON) so the row
count stays exactly cells x trials.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields

from .adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from .extraction import extract_tiling, extraction_target
from .graphs import Graph
from .patterns import PatternStats
from .sampling import derive_seed, sample_gnp, threshold_probability

CSV_SCHEMA = "monotile-sweep-csv v2"


@dataclass(frozen=True)
class SweepPlan:
    pattern_name: str
    pattern: Graph
    n_list: tuple[int, ...]
    C_list: tuple[float, ...]
    epsilon: float
    trials: int
    seed_base: int
    adversaries: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        for name in self.adversaries:
            if name not in ADVERSARY_NAMES:
                raise ValueError(f"unknown adversary {name!r}")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if min(self.n_list, default=1) < 1:
            raise ValueError(f"every n needs at least one vertex, not {min(self.n_list)}")
        for C in self.C_list:
            if not math.isfinite(C):
                raise ValueError(f"every C must be finite, not {C}")
        # A repeated entry would rerun its cells with the same seeds and count
        # the copies as independent trials.
        for label, values in (("n_list", self.n_list), ("C_list", self.C_list), ("adversaries", self.adversaries)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{label} repeats {value!r}")

    @property
    def cells(self) -> int:
        return len(self.n_list) * len(self.C_list) * len(self.adversaries)


@dataclass(frozen=True)
class TrialRow:
    """One sweep row; its fields, in order, are the CSV columns and the JSON row keys.

    ``wall_ms`` is written only under ``include_timings``.
    """

    n: int
    C: float
    adversary: str
    trial: int
    seed: int
    p: float
    achieved: int
    target: int
    success: bool
    error: str
    wall_ms: float


@dataclass(frozen=True)
class CellAggregate:
    n: int
    C: float
    adversary: str
    trials: int
    successes: int
    frequency: float
    wilson_low: float
    wilson_high: float


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    rows: tuple[TrialRow, ...]
    aggregates: tuple[CellAggregate, ...]

    def to_csv(self, include_timings: bool = False) -> str:
        """Comment lines carry the schema, plan and aggregates; rows go through ``csv``."""
        plan = {
            "pattern": self.plan.pattern_name,
            "epsilon": self.plan.epsilon,
            "trials": self.plan.trials,
            "seed_base": self.plan.seed_base,
        }
        out = io.StringIO()
        out.write(f"# {CSV_SCHEMA}\n# plan {json.dumps(plan, sort_keys=True)}\n")
        writer = csv.writer(out, lineterminator="\n")
        columns = [f for f in fields(TrialRow) if include_timings or f.name != "wall_ms"]
        writer.writerow(f.name for f in columns)
        formats = [_CELL_TEXT.get(f.type, str) for f in columns]
        for r in self.rows:
            writer.writerow(fmt(getattr(r, f.name)) for fmt, f in zip(formats, columns))
        for a in self.aggregates:
            cell = {
                "n": a.n, "C": a.C, "adversary": a.adversary,
                "trials": a.trials, "successes": a.successes,
                "frequency": a.frequency,
                "wilson95": [a.wilson_low, a.wilson_high],
            }
            out.write(f"# cell {json.dumps(cell, sort_keys=True)}\n")
        return out.getvalue()

    def to_json(self, include_timings: bool = False) -> str:
        rows = []
        for r in self.rows:
            d = asdict(r)
            if not include_timings:
                d.pop("wall_ms")
            rows.append(d)
        payload = {
            "schema": CSV_SCHEMA,
            "plan": {
                "pattern": self.plan.pattern_name,
                "n_list": list(self.plan.n_list),
                "C_list": list(self.plan.C_list),
                "epsilon": self.plan.epsilon,
                "trials": self.plan.trials,
                "seed_base": self.plan.seed_base,
                "adversaries": list(self.plan.adversaries),
            },
            "rows": rows,
            "aggregates": [asdict(a) for a in self.aggregates],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# CSV cell text by declared field type (a string under postponed annotations);
# other types print through ``str``.  An int C prints as 5.0 here, 5 in JSON.
_CELL_TEXT = {"float": lambda x: repr(float(x)), "bool": lambda x: str(int(x))}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96  # the 95 % score interval
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # At 0 or ``trials`` successes a bound is exactly 0 or 1, which rounding misses.
    low = (centre - spread) / denom if successes else 0.0
    high = (centre + spread) / denom if successes < trials else 1.0
    return (low, high)


def trial_seed(seed_base: int, n: int, C: float, adversary: str, trial: int) -> int:
    return derive_seed("sweep-trial", seed_base, n, repr(float(C)), adversary, trial)


def _run_trial(args: tuple) -> TrialRow:
    stats, n, C, adversary, trial, seed_base, epsilon = args
    seed = trial_seed(seed_base, n, C, adversary, trial)
    target = extraction_target(n, stats, epsilon)
    achieved, error = 0, ""
    start = time.perf_counter()
    try:
        p = threshold_probability(n, C, stats)
        host = sample_gnp(n, p, derive_seed(seed, "sample"))
        spec = AdversarySpec(adversary, {"pattern": stats.pattern}, derive_seed(seed, "colour"))
        coloured = colour_with(host, spec)
        _, report = extract_tiling(coloured, stats, epsilon, seed=derive_seed(seed, "extract"))
        achieved = report.achieved_size
    except Exception as exc:  # recorded as a row, never aborts the sweep
        p = math.nan
        error = type(exc).__name__ + ": " + str(exc).replace(",", ";")
    return TrialRow(
        n=n, C=C, adversary=adversary, trial=trial, seed=seed, p=p,
        achieved=achieved, target=target, success=not error and achieved >= target,
        error=error, wall_ms=(time.perf_counter() - start) * 1000,
    )


def run_sweep(plan: SweepPlan, workers: int = 1) -> SweepResult:
    stats = PatternStats.from_graph(plan.pattern)
    tasks = [
        (stats, n, C, adversary, trial, plan.seed_base, plan.epsilon)
        for n, C, adversary in itertools.product(plan.n_list, plan.C_list, plan.adversaries)
        for trial in range(plan.trials)
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at module top: it pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trial, tasks))
    else:
        rows = [_run_trial(t) for t in tasks]
    rows.sort(key=lambda r: (r.n, r.C, r.adversary, r.trial))

    cells: dict[tuple, list[TrialRow]] = {}
    for r in rows:
        cells.setdefault((r.n, r.C, r.adversary), []).append(r)
    aggregates = []
    for key in itertools.product(sorted(plan.n_list), sorted(plan.C_list), sorted(plan.adversaries)):
        cell = cells.get(key, [])
        wins = sum(r.success for r in cell)
        low, high = wilson_interval(wins, len(cell))
        aggregates.append(
            CellAggregate(
                *key, trials=len(cell), successes=wins,
                frequency=wins / len(cell) if cell else 0.0,
                wilson_low=low, wilson_high=high,
            )
        )
    return SweepResult(plan, tuple(rows), tuple(aggregates))
