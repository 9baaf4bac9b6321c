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
import json
import math
import time
from dataclasses import asdict, dataclass

from .adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from .extraction import extract_tiling, extraction_target
from .graphs import Graph
from .patterns import PatternStats
from .sampling import derive_seed, sample_gnp, threshold_probability

CSV_SCHEMA = "monotile-sweep-csv v2"
_COLUMNS = (
    "n", "C", "adversary", "trial", "seed", "p",
    "achieved", "target", "success", "error",
)


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

    @property
    def cells(self) -> int:
        return len(self.n_list) * len(self.C_list) * len(self.adversaries)


@dataclass(frozen=True)
class TrialRow:
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
        writer.writerow(_COLUMNS + (("wall_ms",) if include_timings else ()))
        for r in self.rows:
            cells = [
                str(r.n), _num(r.C), r.adversary, str(r.trial), str(r.seed), _num(r.p),
                str(r.achieved), str(r.target), str(int(r.success)), r.error,
            ]
            if include_timings:
                cells.append(_num(r.wall_ms))
            writer.writerow(cells)
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


def _num(x: float) -> str:
    return repr(float(x))


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
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
    start = time.perf_counter()
    try:
        p = threshold_probability(n, C, stats)
        host = sample_gnp(n, p, derive_seed(seed, "sample"))
        spec = AdversarySpec(adversary, {"pattern": stats.pattern}, derive_seed(seed, "colour"))
        coloured = colour_with(host, spec)
        _, report = extract_tiling(coloured, stats, epsilon, seed=derive_seed(seed, "extract"))
        wall = (time.perf_counter() - start) * 1000
        return TrialRow(
            n=n, C=C, adversary=adversary, trial=trial, seed=seed, p=p,
            achieved=report.achieved_size, target=report.target_size,
            success=report.achieved_size >= report.target_size,
            error="", wall_ms=wall,
        )
    except Exception as exc:  # recorded as a row, never aborts the sweep
        wall = (time.perf_counter() - start) * 1000
        return TrialRow(
            n=n, C=C, adversary=adversary, trial=trial, seed=seed,
            p=float("nan"), achieved=0,
            target=extraction_target(n, stats, epsilon),
            success=False,
            error=type(exc).__name__ + ": " + str(exc).replace(",", ";"),
            wall_ms=wall,
        )


def run_sweep(plan: SweepPlan, workers: int = 1) -> SweepResult:
    stats = PatternStats.from_graph(plan.pattern)
    tasks = [
        (stats, n, C, adversary, trial, plan.seed_base, plan.epsilon)
        for n in plan.n_list
        for C in plan.C_list
        for adversary in plan.adversaries
        for trial in range(plan.trials)
    ]
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # not at module top: it pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trial, tasks))
    else:
        rows = [_run_trial(t) for t in tasks]
    rows.sort(key=lambda r: (r.n, r.C, r.adversary, r.trial))

    aggregates = []
    for n in sorted(plan.n_list):
        for C in sorted(plan.C_list):
            for adversary in sorted(plan.adversaries):
                cell = [r for r in rows if (r.n, r.C, r.adversary) == (n, C, adversary)]
                wins = sum(r.success for r in cell)
                low, high = wilson_interval(wins, len(cell))
                aggregates.append(
                    CellAggregate(
                        n=n, C=C, adversary=adversary, trials=len(cell),
                        successes=wins, frequency=wins / len(cell) if cell else 0.0,
                        wilson_low=low, wilson_high=high,
                    )
                )
    return SweepResult(plan, tuple(rows), tuple(aggregates))
