#!/usr/bin/env python3
"""Regenerate the graph atlas table that the oracles read.

Writes one line per graph of ``networkx.graph_atlas_g()`` (every graph on up
to seven vertices, one per isomorphism class), in atlas order: the order
``n``, a space, and the graph's pair mask in lowercase hex.  Bit ``i`` of the
mask is set when the ``i``-th pair of ``itertools.combinations(range(n), 2)``
is an edge, so the table keeps the atlas's vertex labelling.

networkx is needed only here and in the tests; ``monotile.oracles`` reads
the table it writes.  Check the result with
``pytest tests/test_oracles.py -k atlas_table``.
"""

from itertools import combinations
from pathlib import Path

import networkx as nx

TABLE = Path(__file__).resolve().parent.parent / "src" / "monotile" / "atlas.txt"


def atlas_lines() -> list[str]:
    lines = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        mask = 0
        for bit, (u, v) in enumerate(combinations(range(n), 2)):
            if g.has_edge(u, v):
                mask |= 1 << bit
        lines.append(f"{n} {mask:x}")
    return lines


def main() -> int:
    lines = atlas_lines()
    TABLE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} atlas graphs to {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
