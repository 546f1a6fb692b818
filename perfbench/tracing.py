"""Per-layer spans, recorded from outside the program.

Each hook replaces a module attribute that a matchcore call site looks
up at call time (for example `matchcore.mechanism.fold_solution`, which
`run_pipeline` calls by its global name) with a wrapper that records a
span. Nothing inside matchcore changes, and `uninstall` puts every
original back.

A layer's self time is its span minus its direct child spans. The
benchmark opens one root span per operation, so the CLI's own time
(argument parsing, JSON encoding, printing) is the root's self time.

A hook whose target no longer exists is reported as missing and its
metric reads 0; the run does not fail. The same holds for a count whose
value can no longer be read from the wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import time

# target attribute -> layer metric that receives the span's self time.
# Several targets may feed one metric; a metric is missing only when
# all of its targets are.
HOOKS = {
    "matchcore.cli.load_instance": "instances.load_s",
    "matchcore.cli.run_pipeline": "mechanism.assembly_s",
    "matchcore.mechanism.double_graph": "bipartite.double_s",
    "matchcore.bipartite._run_kernel": "bipartite.csr_s",
    "matchcore._hungarian_py.solve_max_weight_bipartite": "bipartite.kernel_s",
    "matchcore._hungarian.solve_max_weight_bipartite": "bipartite.kernel_s",
    "matchcore.bipartite.check_certificate": "bipartite.certificate_s",
    "matchcore.mechanism.fold_solution": "halfint.fold_s",
    "matchcore.mechanism.normalize": "halfint.normalize_s",
    "matchcore.mechanism.decompose_components": "halfint.decompose_s",
    "matchcore.mechanism.analyze_cycle": "mechanism.cycles_s",
    "matchcore.cli.audit_pipeline": "mechanism.audit_s",
    "matchcore.mechanism.ImputationResult.to_json_dict": "rationals.json_s",
    "matchcore.cli.check_core": "verify.check_core_s",
    "matchcore.verify.coalition_worth_table": "verify.worth_table_s",
    "matchcore.verify.worth_bruteforce": "verify.bruteforce_s",
    "matchcore.cli.integrality_gap": "verify.gap_s",
    "matchcore.verify.odd_girth": "verify.odd_girth_s",
}

# Self time of the root span of a CLI operation.
CLI_SELF = "cli.self_s"


def _matched_pairs(args, ret):
    return {"bipartite.matched_pairs": sum(1 for j in ret[0] if j >= 0)}


def _decomposed(args, ret):
    return {"halfint.odd_cycles": len(ret.odd_cycles),
            "halfint.cycle_vertices": sum(len(c.vertices) for c in ret.odd_cycles)}


# layer metric -> counts read from the wrapped call's (args, return value).
COUNTS = {
    "instances.load_s": lambda args, ret: {"instances.edges": ret.edge_count},
    "bipartite.csr_s": _matched_pairs,
    "bipartite.kernel_s": lambda args, ret: {"bipartite.kernel_edges": len(args[3])},
    "halfint.fold_s": lambda args, ret: {"halfint.half_edges": ret.x2.count(1)},
    "halfint.decompose_s": _decomposed,
    "mechanism.assembly_s": lambda args, ret: {
        "mechanism.matching_edges": len(ret.result.matching)},
    "verify.check_core_s": lambda args, ret: {"verify.coalitions": ret.checked_count},
}

COUNT_NAMES = ("instances.edges", "bipartite.matched_pairs", "bipartite.kernel_edges",
               "halfint.half_edges", "halfint.odd_cycles", "halfint.cycle_vertices",
               "mechanism.matching_edges", "verify.coalitions")
TIME_NAMES = tuple(dict.fromkeys(HOOKS.values())) + (CLI_SELF,)


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target, or None."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Collects spans in memory while its hooks are installed.

    A span is (operation index, name, start ns, end ns, parent span
    index or -1). `begin`/`end` bracket one operation; `end` returns
    that operation's self time per layer (seconds) and its counts.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.missing_counts: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span name, start ns, child ns, span index]
        self._op = -1
        self._self_ns: dict[str, int] = {}
        self._counts: dict[str, int] = {}

    def install(self) -> list[str]:
        """Wrap every resolvable hook; return the layer metrics left without one."""
        found = set()
        for target, layer in HOOKS.items():
            where = _resolve(target)
            if where is None:
                continue
            owner, attr = where
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))
            found.add(layer)
        return [layer for layer in dict.fromkeys(HOOKS.values()) if layer not in found]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin(self, name: str) -> None:
        self._op += 1
        self._self_ns = {}
        self._counts = {}
        self._push(name)

    def end(self) -> tuple[dict[str, float], dict[str, int]]:
        self._pop()
        return ({k: v / 1e9 for k, v in self._self_ns.items()}, self._counts)

    def _push(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((self._op, name, time.perf_counter_ns(), 0, parent))
        self._stack.append([name, self.spans[-1][2], 0, len(self.spans) - 1])

    def _pop(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, index = self._stack.pop()
        op, _, _, _, parent = self.spans[index]
        self.spans[index] = (op, name, start, end, parent)
        self._self_ns[name] = self._self_ns.get(name, 0) + (end - start - child_ns)
        if self._stack:
            self._stack[-1][2] += end - start

    def _wrap(self, fn, layer: str):
        count = COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._push(layer)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._pop()
            if count is not None:
                try:
                    for k, v in count(args, ret).items():
                        self._counts[k] = self._counts.get(k, 0) + v
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.missing_counts.add(layer)
            return ret

        return traced
