"""Command-line surface.

Subcommands: sample, colour, extract, rt-exact, good-count, aux-check,
sweep, verify-fixtures.  Exit codes: 0 ok, 1 usage error, 2 budget refusal,
3 fixture mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .adversaries import ADVERSARY_NAMES, AdversarySpec, colour_with
from .aux_hypergraph import aux_degree_check, build_aux_hypergraph
from .budget import BudgetExceededError
from .extraction import extract_tiling
from .fixtures import verify_fixtures
from .graphs import (
    ColouredGraph,
    Graph,
    _as_colouring,
    load_graph_file,
    pattern_by_name,
    write_graph_text,
)
from .oracles import exact_rt, good_copy_count
from .patterns import PatternStats
from .sampling import sample_gnp, threshold_probability
from .sweep import SweepPlan, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FIXTURE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_host(token: str) -> Graph:
    """A named graph or a graph file, colours dropped."""
    try:
        return pattern_by_name(token)
    except ValueError:
        g = load_graph_file(token)
        return g.graph if isinstance(g, ColouredGraph) else g


def _load_pattern(token: str) -> Graph:
    try:
        return pattern_by_name(token)
    except ValueError:
        g = load_graph_file(token)
        if isinstance(g, ColouredGraph):
            raise ValueError("pattern files must be uncoloured")
        return g


def _parse_vertices(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def cmd_sample(args) -> int:
    if args.p is not None:
        p = args.p
    else:
        stats = PatternStats.from_graph(_load_pattern(args.pattern))
        p = threshold_probability(args.n, args.C, stats)
    g = sample_gnp(args.n, p, args.seed)
    _emit(args, write_graph_text(g))
    return EXIT_OK


def cmd_colour(args) -> int:
    host = _load_host(args.graph)
    params: dict[str, object] = {}
    if args.pattern is not None:
        params["pattern"] = _load_pattern(args.pattern)
    if args.part is not None:
        params["part"] = _parse_vertices(args.part)
    coloured = colour_with(host, AdversarySpec(args.adversary, params, args.seed), args.budget)
    _emit(args, write_graph_text(coloured))
    return EXIT_OK


def cmd_extract(args) -> int:
    coloured = _as_colouring(load_graph_file(args.graph))
    stats = PatternStats.from_graph(_load_pattern(args.pattern))
    tiling, report = extract_tiling(coloured, stats, args.epsilon, seed=args.seed)
    payload = json.loads(report.to_json())
    if args.with_tiling:
        payload["copies"] = [list(c.vertex_map) for c in tiling.copies]
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_rt_exact(args) -> int:
    host = _load_host(args.host)
    stats = PatternStats.from_graph(_load_pattern(args.pattern))
    result = exact_rt(stats, host, args.budget)
    payload = asdict(result)
    if result.exact:
        payload["value"] = result.value
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_good_count(args) -> int:
    coloured = _as_colouring(load_graph_file(args.graph))
    stats = PatternStats.from_graph(_load_pattern(args.pattern))
    A = _parse_vertices(args.part_a)
    B = sorted(set(range(coloured.n)).difference(A))
    count = good_copy_count(coloured, stats, A, B, args.budget)
    _emit(args, json.dumps({"good_copies": count}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_aux_check(args) -> int:
    stats = PatternStats.from_graph(_load_pattern(args.pattern))
    A = _parse_vertices(args.part_a) if args.part_a is not None else list(range(args.n // 2))
    B = sorted(set(range(args.n)).difference(A))
    aux = build_aux_hypergraph(args.n, A, B, stats, args.budget)
    report = aux_degree_check(aux)
    lines = [
        json.dumps(
            {
                "n": args.n,
                "hyperedges": aux.num_hyperedges,
                "uniformity": aux.uniformity,
                "tau": aux.tau,
                "single_degree_refined": report.single_degree_refined,
                "all_passed": report.all_passed,
            },
            sort_keys=True,
        )
    ]
    lines.extend(json.dumps(asdict(check), sort_keys=True) for check in report.checks)
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    pattern = _load_pattern(args.pattern)
    plan = SweepPlan(
        pattern_name=args.pattern,
        pattern=pattern,
        n_list=tuple(int(x) for x in args.n_list.split(",") if x),
        C_list=tuple(float(x) for x in args.c_list.split(",") if x),
        epsilon=args.epsilon,
        trials=args.trials,
        seed_base=args.seed,
        adversaries=tuple(args.adversaries.split(",")) if args.adversaries is not None else ADVERSARY_NAMES,
    )
    result = run_sweep(plan, workers=args.workers)
    if args.format == "json":
        _emit(args, result.to_json(include_timings=args.timings) + "\n")
    else:
        _emit(args, result.to_csv(include_timings=args.timings))
    return EXIT_OK


def cmd_verify_fixtures(args) -> int:
    report = verify_fixtures(args.dir, args.budget)
    payload = {**asdict(report), "passed": report.passed}
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report.passed else EXIT_FIXTURE


# Options that several subcommands read; each subcommand takes only the ones it reads.
_SHARED_OPTIONS = {
    "seed": dict(type=int, default=0),
    "budget": dict(type=float, default=None),
    "workers": dict(type=int, default=1),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(type=str, default=None),
}


def _add_command(sub, name: str, func, help: str, *shared: str) -> _Parser:
    p = sub.add_parser(name, help=help)
    for option in shared + ("out",):
        p.add_argument(f"--{option}", **_SHARED_OPTIONS[option])
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="monotile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _add_command(sub, "sample", cmd_sample, "sample a binomial random graph", "seed")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, default=None)
    group.add_argument("--C", type=float, default=None)
    p.add_argument("--pattern", type=str, default="k3",
                   help="pattern whose 2-density sets the exponent when using --C")

    p = _add_command(sub, "colour", cmd_colour, "apply an adversary colouring", "seed", "budget")
    p.add_argument("--graph", required=True)
    p.add_argument("--adversary", required=True, choices=ADVERSARY_NAMES)
    p.add_argument("--pattern", type=str, default=None)
    p.add_argument("--part", type=str, default=None, help="planted part, e.g. '0,1,2'")

    p = _add_command(sub, "extract", cmd_extract, "extract a monochromatic tiling", "seed")
    p.add_argument("--graph", required=True, help="coloured graph file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--with-tiling", action="store_true")

    p = _add_command(sub, "rt-exact", cmd_rt_exact, "exact tiling Ramsey number", "budget")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True, help="host graph name (k6) or file")

    p = _add_command(sub, "good-count", cmd_good_count, "count one-sided good copies", "budget")
    p.add_argument("--graph", required=True, help="coloured graph file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--part-a", required=True, help="vertices of part A, e.g. '0,1,2'")

    p = _add_command(
        sub, "aux-check", cmd_aux_check, "degree bounds of the container hypergraph", "budget"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--part-a", type=str, default=None)

    p = _add_command(sub, "sweep", cmd_sweep, "run a batch sweep", "seed", "workers", "format")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--c-list", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--adversaries", type=str, default=None)
    p.add_argument("--timings", action="store_true")

    p = _add_command(
        sub, "verify-fixtures", cmd_verify_fixtures, "recompute cached oracle values", "budget"
    )
    p.add_argument("--dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
