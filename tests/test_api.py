"""The package's public names: all resolve, and removed ones stay gone."""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import matchcore
from matchcore import GameInstance, gen_random, halfint, mechanism, rationals
from matchcore.cli import main


def test_every_exported_name_resolves():
    for name in matchcore.__all__:
        assert hasattr(matchcore, name), name


@pytest.mark.parametrize("module, name", [
    (mechanism, "ScalingProfile"),
    (mechanism, "CycleAnalysis"),
    (mechanism, "check_cycle"),
    (rationals, "format_fraction"),
    (halfint, "solution_weight"),
    (halfint, "check_fold"),
    (halfint, "_half_adjacency"),
    (halfint, "_resolve_alternating"),
])
def test_removed_names_stay_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(matchcore, name)
    assert name not in matchcore.__all__


def test_trace_keeps_no_duplicate_artifacts():
    # all after the kernel is a function of its certificate
    fields = set(mechanism.PipelineTrace._fields)
    assert not fields & {"doubled", "profile", "folded", "components", "analyses"}


def test_fold_keeps_no_per_edge_entries():
    # the fold is the certificate's matched pairs, at most one per vertex
    assert "x2" not in halfint.HalfIntegralSolution._fields
    assert "integral_edges" not in halfint.FractionalComponents._fields


def test_odd_cycle_is_its_walk():
    # k and w_C are read off the walk, so a cycle cannot contradict them
    assert halfint.OddCycle._fields == ("vertices", "weights")


def test_instance_has_no_adjacency_lists():
    # `double_graph` fills its rows straight from the edge list
    assert not hasattr(GameInstance, "adjacency")


@pytest.fixture
def files(tmp_path):
    """An instance whose payout scales an odd cycle (factor 2/3), with
    20 positive edges, so `gap` enumerates; the instance, its file and
    the path for its payout."""
    g = gen_random(10, Fraction(1, 2), 9, seed=4)
    path = tmp_path / "g.mg"
    path.write_text(matchcore.serialize_instance(g))
    return g, str(path), str(tmp_path / "g.json")


@pytest.mark.parametrize("operation", [
    "solve", "verify edges", "verify exhaustive", "gap", "guaranteed_alpha",
    "serialize_instance",
])
def test_shipped_code_reads_the_columns_not_the_edges_view(monkeypatch, capsys, files, operation):
    # `edges` builds a tuple per edge on each call; it is there for callers
    g, path, payout = files
    assert main(["solve", path, "--json", "--check"]) == 0
    solved = capsys.readouterr().out
    with open(payout, "w") as fh:
        fh.write(solved)
    alpha = json.loads(solved)["factor_guarantee"]
    assert Fraction(alpha) < 1

    def no_view(self):
        raise AssertionError("the edges view was read")

    monkeypatch.setattr(GameInstance, "edges", property(no_view))
    with pytest.raises(AssertionError, match="the edges view was read"):
        g.edges
    if operation == "solve":
        assert main(["solve", path, "--json", "--check"]) == 0
        assert capsys.readouterr().out == solved
    elif operation.startswith("verify"):
        mode = operation.split()[1]
        assert main(["verify", path, payout, "--alpha", alpha, "--mode", mode]) == 0
    elif operation == "gap":
        assert main(["gap", path]) == 0
        assert "core" in capsys.readouterr().out
    elif operation == "guaranteed_alpha":
        assert matchcore.guaranteed_alpha(g) == Fraction(2, 3)
    else:
        with open(path) as fh:
            assert matchcore.serialize_instance(g) == fh.read()


def test_import_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples, so the import every command pays
    # never loads `dataclasses` or the `inspect` it pulls in
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
            "import matchcore, matchcore.cli\n"
            "assert matchcore.__file__.startswith(sys.path[0]), matchcore.__file__\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "matchcore.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_game_instance_contract():
    g = GameInstance(vertex_count=3, edges=((1, 0, 2), (1, 2, 5)), name="a")
    same = GameInstance(3, [(0, 1, 2), (1, 2, 5)], name="b")
    assert g == same and hash(g) == hash(same)
    assert g != GameInstance(3, ((0, 1, 2),), name="a")
    assert g.edges == ((0, 1, 2), (1, 2, 5)) and g.edge_count == 2
    for attr in ("vertex_count", "edges", "name", "other"):
        with pytest.raises(AttributeError):
            setattr(g, attr, None)
    with pytest.raises(AttributeError):
        del g.name
    assert repr(g) == "GameInstance(vertex_count=3, edges=((0, 1, 2), (1, 2, 5)), name='a')"
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and copied.name == "a"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
