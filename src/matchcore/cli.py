"""Command-line front end.

Subcommands mirror the library's capabilities one to one:

    solve    compute the payout and its backing matching
    verify   check an imputation file against every coalition
    gen      write instance files (gap family, odd cycle, random)
    gap      integral versus fractional optimum, core emptiness

Machine-readable output goes to stdout, diagnostics to stderr. Exit
codes: 0 success/verified, 1 verification violations, 2 usage or parse
error, 3 refused: an instance past the parser's size bounds or an
exhaustive check past its own. All rational values cross this boundary
as reduced-fraction strings.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import BoundExceeded, InstanceFormatError, InvariantViolation
from .halfint import fold_solution
from .instances import gen_gap_family, gen_odd_cycle, gen_random, load_instance, serialize_instance
from .mechanism import audit_pipeline, run_pipeline
from .rationals import parse_fraction, parse_fractions
from .verify import DEFAULT_MAX_EDGES, check_core, integrality_gap


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_solve(args) -> int:
    g = load_instance(args.instance)
    trace = run_pipeline(g)
    if args.check:
        problems = audit_pipeline(trace)
        if problems:
            for p in problems:
                _err(f"check failed: {p}")
            return 1
    res = trace.result
    out = res.to_json_dict()
    if args.json:
        print(json.dumps(out))
        return 0
    v2 = fold_solution(trace.certificate).v2  # the doubled cover
    cover = {x: str(Fraction(x, 2)) for x in set(v2)}
    rows = [("vertex", "cover", "factor", "payout")]
    rows += zip(map(str, range(1, g.vertex_count + 1)), map(cover.__getitem__, v2),
                out["factors"], out["values"])
    widths = [max(len(r[col]) for r in rows) for col in range(4)]
    for r in rows:
        print("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    pairs = " ".join(f"{u + 1}-{v + 1}" for (u, v) in res.matching) or "(empty)"
    print(f"matching: {pairs}  weight {res.matching_weight}")
    print(f"allocated {res.allocated} of fractional optimum "
          f"{res.worth_fractional}, factor guarantee {res.factor_guarantee}")
    return 0


def _cmd_verify(args) -> int:
    g = load_instance(args.instance)
    with open(args.imputation, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("values"), list):
        raise ValueError("imputation file must be a JSON object with a 'values' array")
    values = parse_fractions([x if isinstance(x, str) else str(x) for x in data["values"]])
    alpha = parse_fraction(args.alpha)
    report = check_core(g, values, alpha, mode=args.mode)
    print(json.dumps(report.to_json_dict()))
    return 0 if report.ok() else 1


def _cmd_gen(args) -> int:
    if args.family == "gap":
        g = gen_gap_family(args.n, connected=args.connected)
    elif args.family == "cycle":
        g = gen_odd_cycle(args.k, weight=args.weight)
    else:
        g = gen_random(args.n, parse_fraction(args.p), args.max_weight,
                       seed=args.seed, bipartite=args.bipartite)
    text = serialize_instance(g)
    summary = f"{g.name}: {g.vertex_count} vertices, {g.edge_count} edges"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{summary} -> {args.output}")
    else:
        sys.stdout.write(text)
        _err(summary)
    return 0


def _cmd_gap(args) -> int:
    g = load_instance(args.instance)
    report = integrality_gap(g, max_edges=args.brute_max_edges)
    print(json.dumps(report.to_json_dict()))
    return 3 if report.opt_integral is None else 0


@functools.cache  # built at the first call, then reused: it holds no per-call state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcore",
        description="Approximate-core payouts for weighted matching games, "
                    "in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the payout for an instance")
    p_solve.add_argument("instance", help="instance file (p mg format)")
    p_solve.add_argument("--json", action="store_true", help="emit JSON")
    p_solve.add_argument("--check", action="store_true",
                         help="re-verify all invariants before emitting")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check an imputation file")
    p_verify.add_argument("instance")
    p_verify.add_argument("imputation", help="JSON file with a 'values' array")
    p_verify.add_argument("--alpha", default="2/3",
                          help="required fraction of each coalition's worth")
    p_verify.add_argument("--mode", choices=("edges", "exhaustive"),
                          default="exhaustive")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_gap_family = gen_sub.add_parser("gap", help="unit-triangle gap family")
    p_gap_family.add_argument("--n", type=int, required=True)
    p_gap_family.add_argument("--connected", action="store_true")
    p_gap_family.add_argument("output", nargs="?", default=None)
    p_cycle = gen_sub.add_parser("cycle", help="odd cycle on 2k+1 vertices")
    p_cycle.add_argument("--k", type=int, required=True)
    p_cycle.add_argument("--weight", type=int, default=1)
    p_cycle.add_argument("output", nargs="?", default=None)
    p_random = gen_sub.add_parser("random", help="seeded random instance")
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--p", default="1/2", help="edge probability (fraction)")
    p_random.add_argument("--max-weight", type=int, default=10, dest="max_weight")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--bipartite", action="store_true")
    p_random.add_argument("output", nargs="?", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_gap = sub.add_parser("gap", help="integrality gap and core emptiness")
    p_gap.add_argument("instance")
    p_gap.add_argument("--brute-max-edges", type=int, default=DEFAULT_MAX_EDGES,
                       dest="brute_max_edges",
                       help="edge bound for the integral brute force")
    p_gap.set_defaults(func=_cmd_gap)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        _err(f"error: {exc}")
        return 2
    except BoundExceeded as exc:
        _err(f"refused: {exc}")
        return 3
    except InvariantViolation as exc:
        _err(f"internal invariant failed: {exc}")
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _err(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
