"""Tests of the benchmark itself: inputs, re-checks, tracing, contract.

Run from the repository root: python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import check
import probe
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from matchcore import cli, guaranteed_alpha, parse_instance  # noqa: E402


def solve_json(path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", str(path), "--json", "--check"])
    return code, out.getvalue()


@pytest.fixture
def solved(tmp_path):
    inst = workloads.random_graph(7, "rnd", 12, (1, 2), (1, 10))
    path = tmp_path / "rnd.mg"
    path.write_text(inst.text)
    code, text = solve_json(path)
    assert code == 0
    return inst, path, json.loads(text)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_files(name):
    first = workloads.build(name, 5)
    again = workloads.build(name, 5)
    other = workloads.build(name, 6)
    assert [i.text for i in first.solve + first.alpha] == \
        [i.text for i in again.solve + again.alpha]
    assert [i.sha256 for i in first.solve] != [i.sha256 for i in other.solve]
    # The seed picks the graph, never its vertex count.
    assert [i.n for i in first.solve] == [i.n for i in other.solve]


def test_files_parse_as_the_instances_written():
    for inst in workloads.build("cycles", 3).solve:
        g = parse_instance(inst.text)
        assert g.vertex_count == inst.n
        assert sorted(g.edges) == sorted(inst.edges)


def test_recheck_accepts_a_real_solve(solved):
    inst, _, data = solved
    assert check.check_solve(inst, data, data["fractional_optimum"]) == []


def test_recheck_flags_a_lowered_value(solved):
    inst, _, data = solved
    i = max(range(inst.n), key=lambda k: Fraction(data["values"][k]))
    data["values"][i] = str(Fraction(data["values"][i]) - Fraction(1, 7))
    assert check.check_solve(inst, data)


def test_recheck_flags_two_matched_edges_on_one_vertex(solved):
    inst, _, data = solved
    (a, b) = data["matching"][0]
    c = next(v + 1 for (u, v, _) in inst.edges if u + 1 == a and v + 1 != b)
    data["matching"].append([a, c])
    problems = check.check_solve(inst, data)
    assert any("reuses a vertex" in p for p in problems)


def test_recheck_flags_a_wrong_fractional_optimum(solved):
    inst, _, data = solved
    wrong = str(Fraction(data["fractional_optimum"]) + 1)
    assert check.check_solve(inst, data, reference=wrong)
    data["fractional_optimum"] = wrong
    assert check.check_solve(inst, data)


def test_recheck_flags_a_violated_coalition_report(solved):
    inst, _, data = solved
    report = {"alpha": data["factor_guarantee"], "total_allocated": data["allocated"],
              "checked_count": 1 << inst.n, "budget_ok": True,
              "grand_worth": data["matching_weight"],
              "violations": [{"coalition": [1, 2]}]}
    assert check.check_verify(inst, report, data, exhaustive=True)
    report["violations"] = []
    assert check.check_verify(inst, report, data, exhaustive=True) == []


def test_traced_and_untraced_solves_print_identical_json(solved):
    _, path, _ = solved
    originals = {t: tracing._resolve(t) for t in tracing.HOOKS}
    originals = {t: getattr(*w) for t, w in originals.items() if w}
    untraced = solve_json(path)
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        tracer.begin(tracing.CLI_SELF)
        traced = solve_json(path)
        layers, counts = tracer.end()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert {t: getattr(*tracing._resolve(t)) for t in originals} == originals
    assert layers["bipartite.kernel_s"] > 0 and layers[tracing.CLI_SELF] > 0
    assert counts["instances.edges"] == counts["bipartite.kernel_edges"] // 2


def test_a_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.HOOKS, "matchcore.cli.no_such_function", "gone.layer_s")
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["gone.layer_s"]
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("seed", range(4))
def test_odd_girth_agrees_with_matchcore(seed):
    for inst in workloads.build("oracle", seed).solve[:6]:
        assert check.expected_alpha(inst) == guaranteed_alpha(parse_instance(inst.text))
    pentagon = workloads.Instance("c5", 5, tuple((i, (i + 1) % 5, 1) for i in range(5)))
    assert check.odd_girth(pentagon) == 5
    square = workloads.Instance("c4", 4, tuple((i, (i + 1) % 4, 1) for i in range(4)))
    assert check.odd_girth(square) is None


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_probe_scaling_is_proportional_to_the_probe():
    ref = probe.REFERENCE_S
    assert probe.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert probe.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert probe.scale(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert probe.probe() > 0


def test_setup_is_measured_and_scaled():
    (seconds,) = run.measure_setup(1)
    assert 0 < seconds < 10
