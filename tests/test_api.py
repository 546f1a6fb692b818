"""The package's public names: all resolve, and removed ones stay gone."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import matchcore
from matchcore import GameInstance, halfint, mechanism, rationals


def test_every_exported_name_resolves():
    for name in matchcore.__all__:
        assert hasattr(matchcore, name), name


@pytest.mark.parametrize("module, name", [
    (mechanism, "ScalingProfile"),
    (mechanism, "CycleAnalysis"),
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


def test_instance_has_no_adjacency_lists():
    # `double_graph` fills its rows straight from the edge list
    assert not hasattr(GameInstance, "adjacency")


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
