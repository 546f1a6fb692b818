"""matchcore benchmark: certified solves, verification oracles, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

The benchmark writes its seeded inputs to disk, then drives matchcore in
a closed loop: one process, one thread, one operation at a time, each
through `matchcore.cli.main([...])` with stdout captured (or, for
`guaranteed_alpha`, as a library call). A pass runs every operation of
the workload once; passes repeat until `--seconds` is used up. A time
metric is the sum over the workload's operations of the mean of the
middle half of each operation's repeats, where every repeat is scaled to
a reference host speed by the host-speed probe timed right before and
right after it (probe.py): on a shared virtual machine the same code
runs up to 1.9x slower while the host is loaded, and a run can spend
most of its length in that state. Every raw repeat and probe is kept
in the run's record file. Before each operation, untimed, the garbage
left by the previous one is collected, so that no operation pays for
its predecessor's garbage, as none would in a fresh CLI process.

Operations, and the metric each feeds:

- solve_s:  `solve INSTANCE --json --check`
- verify_s: `verify INSTANCE PAYOUT --alpha G --mode M`, where PAYOUT is
  the solve output and G its factor_guarantee; M is `exhaustive`
  (followed by `gap INSTANCE`) on the oracle workload and `edges`
  elsewhere;
- alpha_s:  `matchcore.guaranteed_alpha(g)`, the odd-girth oracle.

Every output is re-checked outside the timed region (see check.py). An
operation fails when it raises, exits with an unexpected code, prints
something unparseable or fails its re-check. On the reference seed the
solve's fractional optimum must also equal the value in reference.json,
computed once with networkx (make_reference.py).

With `--trace 1` the passes alternate between untraced and traced; the
traced ones wrap matchcore's call sites (tracing.py) and report
per-layer self times and counts, plus the tracing overhead. The spans
are written to perfbench/out/ when the run ends.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it list the inputs, the host
diagnostics and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1

MIN_PASSES = 3
SETUP_SAMPLES = 3  # at the start; one more after every pass

END_TO_END = {"solve_s": "s", "verify_s": "s", "alpha_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB", "payout_share": "ratio"}
METRIC_OF = {"solve": "solve_s", "verify": "verify_s", "gap": "verify_s",
             "alpha": "alpha_s"}

# The probe runs after the timed import, so that it imports nothing
# the import of matchcore would otherwise have paid for.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import matchcore, matchcore.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import probe
print(t1 - t0, *sorted(probe.probe() for _ in range(3)), matchcore.__file__)
"""


@dataclass(frozen=True)
class Op:
    kind: str  # solve | verify | gap | alpha
    inst: workloads.Instance


def middle_mean(values) -> float:
    """Mean of the middle half of `values`; of all of them below four.

    Smoother than the median when the repeats fall into a fast and a
    slow cluster, and still blind to the odd outlier."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def host_loop() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc ^= i * 7
    return time.perf_counter() - t0


def measure_setup(count: int) -> list[float]:
    """Times for fresh interpreters to import matchcore and its CLI,
    each scaled by the median of three probes run right after it."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60, check=True)
        secs, _, median, _, origin = proc.stdout.split(maxsplit=4)
        if not Path(origin.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported matchcore from {origin.strip()}, not {SRC}")
        times.append(probe.scale(float(secs), float(median), float(median)))
    return times


class Bench:
    """One run: the operations, their samples and their re-check state."""

    def __init__(self, workload: workloads.Workload, seed: int, inputs: Path):
        import matchcore
        import matchcore.cli

        self.workload = workload
        self.inputs = inputs
        self.main = matchcore.cli.main
        self.guaranteed_alpha = matchcore.guaranteed_alpha
        self.ops = []
        for inst in workload.solve:
            self.ops += [Op("solve", inst), Op("verify", inst)]
            if workload.exhaustive:
                self.ops.append(Op("gap", inst))
        self.ops += [Op("alpha", inst) for inst in workload.alpha]

        self.graphs = {inst.name: matchcore.load_instance(self.path(inst))
                       for inst in workload.alpha}
        self.expected_alpha = {inst.name: check.expected_alpha(inst)
                               for inst in workload.alpha}
        self.reference = {}
        self.input_problems = []
        if seed == REFERENCE_SEED:
            table = json.loads(REFERENCE.read_text())[workload.name]
            for inst in workload.solve:
                entry = table.get(inst.name)
                if entry is None or entry["sha256"] != inst.sha256:
                    self.input_problems.append(
                        f"{inst.name}: input differs from the one reference.json was made for")
                else:
                    self.reference[inst.name] = entry["fractional_optimum"]

        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # op index -> scaled seconds per repeat (probe.scale), untraced passes
        self.samples = defaultdict(list)
        self.traced_samples = defaultdict(list)
        self.layer_samples = defaultdict(list)  # op index -> [{layer: scaled self seconds}]
        self.raw = defaultdict(list)  # op index -> [(seconds, probe before, probe after)]
        self.counts: dict[int, dict[str, int]] = {}
        self.checked_out: dict[int, str] = {}  # op index -> stdout that passed its re-check
        self.solved: dict[str, dict] = {}
        self.grand: dict[str, str] = {}

    def path(self, inst: workloads.Instance, suffix: str = ".mg") -> str:
        return str(self.inputs / f"{inst.name}{suffix}")

    def argv(self, op: Op) -> list[str]:
        if op.kind == "solve":
            return ["solve", self.path(op.inst), "--json", "--check"]
        if op.kind == "gap":
            # Let the integral brute force run instead of refusing.
            return ["gap", self.path(op.inst), "--brute-max-edges", str(len(op.inst.edges))]
        solved = self.solved[op.inst.name]
        return ["verify", self.path(op.inst), self.path(op.inst, ".payout.json"),
                "--alpha", solved["factor_guarantee"],
                "--mode", "exhaustive" if self.workload.exhaustive else "edges"]

    def run_pass(self, tracer: tracing.Tracer | None) -> None:
        # Consecutive operations share the probe between them.
        after = probe.probe()
        for index, op in enumerate(self.ops):
            self.attempted += 1
            gc.collect()
            before = after
            try:
                seconds, layers, counts, problems = self._execute(index, op, tracer)
            except Exception as exc:  # any failure of an operation is counted, not fatal
                seconds, problems = None, [f"raised {exc!r}"]
            after = probe.probe()
            if problems:
                self.failed += 1
                self.problems.append(f"{op.kind} {op.inst.name}: {'; '.join(problems[:3])}")
                continue
            factor = probe.scale(1.0, before, after)
            if tracer is None:
                self.samples[index].append(seconds * factor)
                self.raw[index].append((seconds, before, after))
            else:
                self.traced_samples[index].append(seconds * factor)
                self.layer_samples[index].append({k: v * factor for k, v in layers.items()})
                self.counts[index] = counts

    def _execute(self, index: int, op: Op, tracer):
        layers, counts = {}, {}
        if op.kind == "alpha":
            graph = self.graphs[op.inst.name]
            t0 = time.perf_counter()
            if tracer:
                tracer.begin("alpha")
            try:
                value = self.guaranteed_alpha(graph)
            finally:
                if tracer:
                    layers, counts = tracer.end()
            seconds = time.perf_counter() - t0
            return seconds, layers, counts, self._check_alpha(op, value)

        if op.kind != "solve" and op.inst.name not in self.solved:
            return None, {}, {}, ["no correct solve output to work from"]
        argv = self.argv(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if tracer:
                tracer.begin(tracing.CLI_SELF)
            try:
                code = self.main(argv)
            finally:
                if tracer:
                    layers, counts = tracer.end()
            seconds = time.perf_counter() - t0
        if code != 0:
            return seconds, layers, counts, [f"exit code {code}: {err.getvalue().strip()[:300]}"]
        return seconds, layers, counts, self._check_output(index, op, out.getvalue())

    def _check_output(self, index: int, op: Op, text: str) -> list[str]:
        if self.checked_out.get(index) == text:
            return []  # byte-identical to an output that passed the full re-check
        try:
            data = json.loads(text)
        except ValueError:
            return [f"stdout is not JSON: {text[:200]!r}"]
        name = op.inst.name
        if op.kind == "solve":
            problems = check.check_solve(op.inst, data, self.reference.get(name))
            if not problems and name not in self.solved:
                self.solved[name] = data
                Path(self.path(op.inst, ".payout.json")).write_text(text)
        elif op.kind == "verify":
            problems = check.check_verify(op.inst, data, self.solved[name],
                                          self.workload.exhaustive)
            if not problems and self.workload.exhaustive:
                self.grand[name] = data["grand_worth"]
        else:
            problems = check.check_gap(data, self.solved[name], self.grand.get(name))
        if not problems:
            self.checked_out[index] = text
        return problems

    def _check_alpha(self, op: Op, value) -> list[str]:
        expected = self.expected_alpha[op.inst.name]
        if value != expected:
            return [f"guaranteed_alpha {value} != {expected} from the odd girth"]
        solved = self.solved.get(op.inst.name)
        if solved and value > Fraction(solved["factor_guarantee"]):
            return [f"guaranteed_alpha {value} above the payout's guarantee"]
        return []

    def time_metrics(self, samples) -> dict[str, float]:
        totals = dict.fromkeys(("solve_s", "verify_s", "alpha_s"), 0.0)
        for index, values in samples.items():
            totals[METRIC_OF[self.ops[index].kind]] += middle_mean(values)
        return totals

    def payout_share(self) -> float:
        allocated = sum(Fraction(d["allocated"]) for d in self.solved.values())
        optimum = sum(Fraction(d["fractional_optimum"]) for d in self.solved.values())
        return float(allocated / optimum) if optimum else float("nan")

    def layer_metrics(self, missing: list[str]) -> dict[str, float]:
        metrics = {}
        for name in tracing.TIME_NAMES:
            metrics[name] = sum(middle_mean(d.get(name, 0.0) for d in per_pass)
                                for per_pass in self.layer_samples.values())
        for name in tracing.COUNT_NAMES:
            metrics[name] = sum(c.get(name, 0) for c in self.counts.values())
        metrics["trace.overhead_s"] = (self.time_metrics(self.traced_samples)["solve_s"]
                                       - self.time_metrics(self.samples)["solve_s"])
        metrics["trace.layers_missing"] = len(missing)
        return metrics


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in tracing.TIME_NAMES}
    units.update({name: "count" for name in tracing.COUNT_NAMES})
    units.update({"trace.overhead_s": "s", "host.loop_s": "s",
                  "trace.layers_missing": "count"})
    return units


def environment() -> dict:
    import matchcore
    return {"python": sys.version.split()[0],
            "kernel_backend": getattr(matchcore, "KERNEL_BACKEND", None),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matchcore benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matchcore" / "__init__.py").is_file():
        print(f"error: no matchcore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchcore
    if not Path(matchcore.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported matchcore from {matchcore.__file__}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    inputs = OUT / f"{workload.name}-s{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    described = []
    for inst in dict((i.name, i) for i in workload.solve + workload.alpha).values():
        (inputs / f"{inst.name}.mg").write_text(inst.text)
        described.append(inst.describe())
        print("input " + " ".join(f"{k}={v}" for k, v in described[-1].items()))
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    loop_start = host_loop()
    setup_times = []
    if args.trace == 0:
        measure_setup(1)  # compiles the bytecode on a first run
        setup_times += measure_setup(SETUP_SAMPLES)
    bench = Bench(workload, args.seed, inputs)

    tracer = tracing.Tracer() if args.trace else None
    missing = []
    started = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        traced = args.trace == 1 and passes % 2 == 1
        if traced:
            missing = tracer.install()
            try:
                bench.run_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            bench.run_pass(None)
        passes += 1
        if args.trace == 0:
            # Spread over the run, so that one slow phase cannot set the median.
            setup_times += measure_setup(1)
        now = time.perf_counter()
        min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
        if passes >= min_passes and now - started + (now - pass_start) > args.seconds:
            break
    loop_end = host_loop()
    print(f"passes {passes} in {time.perf_counter() - started:.2f} s; "
          f"host.loop_s start {loop_start:.4f} end {loop_end:.4f}")

    if args.trace == 0:
        metrics = bench.time_metrics(bench.samples)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["payout_share"] = bench.payout_share()
        units = END_TO_END
        unscaled = dict.fromkeys(("solve_s", "verify_s", "alpha_s"), 0.0)
        for index, reps in bench.raw.items():
            unscaled[METRIC_OF[bench.ops[index].kind]] += statistics.median(r[0] for r in reps)
        print("unscaled medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in unscaled.items()))
        rate = bench.failed / bench.attempted
        print(f"error_rate {rate} ratio ({bench.failed} of {bench.attempted} operations failed)")
    else:
        metrics = bench.layer_metrics(missing)
        metrics["host.loop_s"] = (loop_start + loop_end) / 2
        units = per_layer_units()
        if missing or tracer.missing_counts:
            print(f"missing hooks: {missing}; unreadable counts: {sorted(tracer.missing_counts)}")
        total = sum(metrics[name] for name in tracing.TIME_NAMES)
        ranked = sorted(tracing.TIME_NAMES, key=metrics.get, reverse=True)
        print("self-time shares: " + ", ".join(
            f"{name} {metrics[name] / total:.1%}" for name in ranked[:6]))
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    for line in bench.input_problems + bench.problems[:20]:
        print(f"problem: {line}")

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "inputs": described, "passes": passes,
              "host_loop_s": [loop_start, loop_end], "setup_samples": setup_times,
              "metrics": metrics,
              "attempted": bench.attempted, "failed": bench.failed,
              "samples": {f"{op.kind} {op.inst.name}": bench.samples.get(i, [])
                          for i, op in enumerate(bench.ops)},
              "raw_samples": {f"{op.kind} {op.inst.name}": bench.raw.get(i, [])
                              for i, op in enumerate(bench.ops)},
              "problems": bench.input_problems + bench.problems}
    if tracer:
        record["spans"] = tracer.spans
    (OUT / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": bench.failed == 0 and not bench.input_problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
