"""Peak Python memory of one dense solve, stage by stage, and of the
parser's and the generators' refusals.

The instance has the shape of the benchmark's largest `dense` file:
G(300, 1/2) from a fixed seed, 22,569 edges with weights in
[2^58, 2^60], so every weight is a 36-byte int outside the small-int
cache. Each bound is a `tracemalloc` peak in bytes per edge, set
between two measurements of this instance (Python 3.11): the code as
it is, and the code with the per-edge copies listed below.

| stage            | measured | bound | with the copies |
|------------------|---------:|------:|----------------:|
| `parse_instance` |      246 |   360 |             445 |
| `double_graph`   |       44 |   100 |             165 |
| `run_pipeline`   |       44 |   110 |             161 |
| `audit_pipeline` |        3 |    10 |              18 |

The copies: a list of every line of the text and one of every edge's
line number, a second tuple per parsed edge, one `(neighbour, weight)`
tuple per edge end in `double_graph`, and a list and a tuple of 2 x_e
over all m edges in the audit's fold. What remains of the parse is one
tuple per edge, its numbers and the set of vertex pairs the duplicate
check keeps: the parser checks each piece of lines into the one list
of edges that becomes the instance's tuple, and holds at most one
piece's tokens and columns besides. Of `double_graph` remain its lists
of rows, and they are also the peak of `run_pipeline`, whose trace
keeps no fold. Of the audit remain the fold and the decomposition it
derives from the certificate, lists and tuples of at most one entry
per vertex.
"""

import random
import tracemalloc
from itertools import islice

import pytest

from matchcore import instances
from matchcore.bipartite import double_graph
from matchcore.cli import main
from matchcore.errors import BoundExceeded, InstanceFormatError
from matchcore.instances import gen_gap_family, gen_random, parse_instance
from matchcore.mechanism import audit_pipeline, run_pipeline


def _dense_text(n: int, seed: int) -> str:
    rng = random.Random(seed)
    lines = [f"e {u + 1} {v + 1} {rng.randint(1 << 58, 1 << 60)}"
             for u in range(n) for v in range(u + 1, n) if rng.randrange(2)]
    return f"p mg {n} {len(lines)}\n" + "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def dense():
    text = _dense_text(300, seed=5)
    g = parse_instance(text)
    return text, g, run_pipeline(g)


def _peak_per_edge(m: int, call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / m


def test_parse_keeps_one_tuple_per_edge(dense):
    text, g, _ = dense
    parsed, per_edge = _peak_per_edge(g.edge_count, parse_instance, text)
    assert parsed == g
    assert per_edge < 360


def test_parse_stops_at_a_bad_edge():
    # the edge on line 3 is out of range; the 100,000 valid lines after
    # it are never read, so the peak is the first piece of lines, not a
    # tuple per edge (about 12 MiB)
    n = 500
    pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    valid = [f"e {u} {v} {u + v}" for u, v in islice(pairs, 100_000)]
    text = f"p mg {n} 100002\ne 1 2 1\ne 1 {n + 1} 1\n" + "\n".join(valid) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"line 3: vertex id out of range in 'e 1 {n + 1} 1'"
    assert peak < 2 << 20


def _refusal_peak(error, text):
    """The exception `parse_instance(text)` raises, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as err:
            parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return err.value, peak


@pytest.mark.parametrize("header, counts", [
    ("p mg 100000000 0", "100000000 vertices and 0 edges"),
    ("p mg 10 4000001", "10 vertices and 4000001 edges"),
])
def test_parse_refuses_an_oversized_header(header, counts):
    # refused before any edge is read or any n-length list is built
    exc, peak = _refusal_peak(BoundExceeded, f"# big\n{header}\ne 1 2 3\n")
    assert str(exc) == (f"line 2: header declares {counts}, above the bounds of "
                        f"{instances.MAX_VERTICES} vertices and {instances.MAX_EDGES} edges")
    assert peak < 1 << 20


def _lines_after_header(header: str, count: int, bad_at: int | None = None) -> str:
    n = 500
    pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    lines = [f"e {u} {v} {u + v}" for u, v in islice(pairs, count)]
    if bad_at is not None:
        lines[bad_at] = f"e 1 {n + 1} 1"
    return f"{header}\n" + "\n".join(lines) + "\n"


def test_parse_stops_reading_past_the_edge_bound(monkeypatch):
    # the header declares 0 edges; without the bound every one of the
    # 100,000 lines is stored before the count is compared (19 MiB)
    monkeypatch.setattr(instances, "MAX_EDGES", 1_000)
    exc, peak = _refusal_peak(BoundExceeded, _lines_after_header("p mg 500 0", 100_000))
    assert str(exc) == "line 1002: more than 1000 edge lines, above the bound"
    assert peak < 2 << 20


def test_parse_edge_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(instances, "MAX_EDGES", 1_000)
    assert parse_instance(_lines_after_header("p mg 500 1000", 1_000)).edge_count == 1_000
    with pytest.raises(BoundExceeded):
        parse_instance(_lines_after_header("p mg 500 1000", 1_001))


def test_parse_reports_a_bad_edge_before_the_edge_bound(monkeypatch):
    monkeypatch.setattr(instances, "MAX_EDGES", 1_000)
    exc, peak = _refusal_peak(
        InstanceFormatError, _lines_after_header("p mg 500 0", 100_000, bad_at=600))
    assert str(exc) == "line 602: vertex id out of range in 'e 1 501 1'"
    assert peak < 2 << 20


@pytest.mark.parametrize("argv, refusal", [
    (["gen", "random", "--n", "2000000"],
     "rnd_2000000_s0 has 2000000 vertices, above the bound of 1000000"),
    (["gen", "gap", "--n", "1000000", "--connected"],
     "gap_1000000c has 6000000 vertices and 2000005000000 edges, above the bounds "
     "of 1000000 vertices and 4000000 edges"),
    (["gen", "cycle", "--k", "600000"],
     "cycle_1200001_w1 has 1200001 vertices and 1200001 edges, above the bounds "
     "of 1000000 vertices and 4000000 edges"),
])
def test_gen_refuses_past_the_bounds(capsys, argv, refusal):
    # refused before a vertex pair is drawn or an edge list is built
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == f"refused: {refusal}\n"
    assert peak < 1 << 20


def test_generator_edge_bounds_are_inclusive(monkeypatch):
    monkeypatch.setattr(instances, "MAX_EDGES", 15)
    assert gen_random(6, 1, 5, seed=1).edge_count == 15
    monkeypatch.setattr(instances, "MAX_EDGES", 14)
    with pytest.raises(BoundExceeded, match="^rnd_6_s1 drew more than 14 edges, above the bound$"):
        gen_random(6, 1, 5, seed=1)
    monkeypatch.setattr(instances, "MAX_EDGES", 18)
    assert gen_gap_family(2, connected=True).edge_count == 18
    monkeypatch.setattr(instances, "MAX_EDGES", 17)
    with pytest.raises(BoundExceeded, match="^gap_2c has 12 vertices and 18 edges"):
        gen_gap_family(2, connected=True)


def test_double_graph_builds_only_its_rows(dense):
    _, g, _ = dense
    d, per_edge = _peak_per_edge(g.edge_count, double_graph, g)
    assert sum(map(len, d.rights)) == sum(map(len, d.weights)) == 2 * g.edge_count
    assert per_edge < 100


def test_run_pipeline_peak(dense):
    _, g, trace = dense
    again, per_edge = _peak_per_edge(g.edge_count, run_pipeline, g)
    assert again.result == trace.result
    assert per_edge < 110


def test_audit_keeps_no_per_edge_table(dense):
    _, g, trace = dense
    problems, per_edge = _peak_per_edge(g.edge_count, audit_pipeline, trace)
    assert problems == []
    assert per_edge < 10
