"""Recompute reference.json: fractional optima of the reference seed's inputs.

The values come from networkx's exact integer `max_weight_matching` on
the doubled graph (vertex i split into i' and i'', edge ij into i'j''
and j'i'', each keeping the weight w). A matching there weighs twice
the fractional optimum. Nothing from matchcore is used. The largest
instances take tens of seconds each, which is why the benchmark reads
the stored values instead of recomputing them on every run.

Run from the repository root, after changing a workload's inputs:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Named workloads are recomputed and the others kept; no name means all.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import networkx as nx

import workloads
from run import REFERENCE, REFERENCE_SEED


def fractional_optimum(inst: workloads.Instance) -> Fraction:
    g = nx.Graph()
    for (u, v, w) in inst.edges:
        if w > 0:
            g.add_edge(("L", u), ("R", v), weight=w)
            g.add_edge(("L", v), ("R", u), weight=w)
    matching = nx.max_weight_matching(g)
    return Fraction(sum(g[a][b]["weight"] for (a, b) in matching), 2)


def main(names: list[str]) -> None:
    table = json.loads(Path(REFERENCE).read_text()) if names else {}
    for name in names or workloads.NAMES:
        table[name] = {}
        for inst in workloads.build(name, REFERENCE_SEED).solve:
            t0 = time.perf_counter()
            value = fractional_optimum(inst)
            table[name][inst.name] = {"sha256": inst.sha256, "fractional_optimum": str(value)}
            print(f"{name} {inst.name} {value} ({time.perf_counter() - t0:.1f} s)", flush=True)
    Path(REFERENCE).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
