"""Time the matching kernel on its known worst case: weighted paths.

usage: python tools/kernel_paths.py [--sizes N [N ...]]

Builds the paths 0-1-...-(n-1) with edge (i, i+1) of weight i+1
(increasing) and n-i (decreasing), doubles each with `double_graph`,
and times the kernel alone (`bipartite._run_kernel`), best of `REPEATS`
runs in this process. Every run's certificate is checked with
`check_certificate`. Prints one JSON object per path and size, with
every run's time, and exits 1 if any certificate has a problem, else
0. The times are reported, never asserted. Uses the standard library
and matchcore only; the default sizes (n = 4,000 and 8,000) take
25-45 s on a 2-vCPU VM, `--sizes 2000` about 2 s.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchcore.bipartite import _run_kernel, check_certificate, double_graph  # noqa: E402
from matchcore.instances import GameInstance  # noqa: E402

WEIGHTS = {
    "increasing": lambda n, i: i + 1,
    "decreasing": lambda n, i: n - i,
}
REPEATS = 3


def path(n: int, family: str) -> GameInstance:
    weight = WEIGHTS[family]
    return GameInstance(n, tuple((i, i + 1, weight(n, i)) for i in range(n - 1)))


def measure(n: int, family: str) -> dict:
    g = path(n, family)
    d = double_graph(g)
    runs, problems = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        cert = _run_kernel(d)
        runs.append(time.perf_counter() - start)
        problems += check_certificate(g, cert)
    return {"path": family, "n": n, "kernel_s": min(runs), "runs_s": runs,
            "problems": problems[:3]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[4000, 8000])
    args = ap.parse_args(argv)
    failed = False
    for n in args.sizes:
        for family in WEIGHTS:
            record = measure(n, family)
            failed |= bool(record["problems"])
            print(json.dumps(record), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
