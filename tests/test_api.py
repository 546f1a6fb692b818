"""The package's public names: all resolve, and removed ones stay gone."""

import pytest

import matchcore
from matchcore import GameInstance, halfint, mechanism, rationals


def test_every_exported_name_resolves():
    for name in matchcore.__all__:
        assert hasattr(matchcore, name), name


@pytest.mark.parametrize("module, name", [
    (mechanism, "ScalingProfile"),
    (rationals, "format_fraction"),
    (halfint, "solution_weight"),
])
def test_removed_names_stay_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(matchcore, name)
    assert name not in matchcore.__all__


def test_trace_keeps_no_duplicate_artifacts():
    fields = set(mechanism.PipelineTrace.__dataclass_fields__)
    assert not fields & {"doubled", "profile"}


def test_instance_has_no_adjacency_lists():
    # `double_graph` fills its CSR rows straight from the edge list
    assert not hasattr(GameInstance, "adjacency")
