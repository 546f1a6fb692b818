"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line with its measured numbers once its
assertions hold; run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from matchcore.cli import main
from matchcore.halfint import decompose_components, fold_solution
from matchcore.instances import (
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    parse_instance,
    serialize_instance,
)
from matchcore.mechanism import analyze_cycle, run_mechanism, run_pipeline
from matchcore.verify import (
    check_core,
    coalition_worth_table,
    integrality_gap,
    odd_girth,
    worth_bruteforce,
)

from oracles import alternating_matching, bipartite_max_weight_dp, doubled_edges, solution_weight2

K3 = parse_instance("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")

TWO_THIRDS = Fraction(2, 3)


def random_corpus():
    """500 seeded instances, n <= 10, mixed densities, weights <= 10."""
    out = []
    for seed in range(1, 501):
        n = 1 + seed % 10
        p = Fraction(1 + seed % 4, 4)
        mw = 1 + seed % 10
        out.append(gen_random(n, p, mw, seed=seed))
    return out


def bipartite_corpus():
    """200 seeded bipartite instances, n <= 10."""
    out = []
    for seed in range(1, 201):
        n = 1 + seed % 10
        p = Fraction(1 + seed % 4, 4)
        mw = 1 + (3 * seed) % 10
        out.append(gen_random(n, p, mw, seed=seed, bipartite=True))
    return out


def high_girth_corpus():
    """First 100 seeded sparse instances whose odd girth is finite and >= 5.

    Requiring a finite girth keeps the fixture meaningful: every
    instance really contains an odd cycle, just none shorter than 5.
    """
    out = []
    seed = 0
    while len(out) < 100:
        seed += 1
        n = 5 + seed % 6
        g = gen_random(n, Fraction(1, 4), 1 + seed % 10, seed=seed)
        girth = odd_girth(g)
        if girth is not None and girth >= 5:
            out.append(g)
    return out


_traces = {}


def traces_for(instances):
    key = id(instances)
    if key not in _traces:
        _traces[key] = [(g, run_pipeline(g)) for g in instances]
    return _traces[key]


_corpora = {}


def corpus(name):
    if not _corpora:
        _corpora["unit_triangle"] = [K3]
        _corpora["gap_family"] = [gen_gap_family(n) for n in range(1, 6)]
        _corpora["odd_cycles"] = [gen_odd_cycle(k) for k in range(1, 7)]
        _corpora["random"] = random_corpus()
        _corpora["bipartite"] = bipartite_corpus()
        _corpora["high_girth"] = high_girth_corpus()
    return _corpora[name]


@pytest.mark.timing
def test_c01_unit_triangle_payout():
    res = run_mechanism(K3)  # warm caches before timing
    best = min(_timed(run_mechanism, K3) for _ in range(10))
    assert res.c == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert res.factor_guarantee == TWO_THIRDS
    assert res.allocated == 1 == res.matching_weight
    assert best < 0.001
    print(f"\n[acceptance 01] PASS unit triangle: payout (1/3,1/3,1/3), "
          f"factor 2/3, solve {best * 1e6:.0f} us")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


@pytest.mark.timing
def test_c02_gap_family_ratio():
    worst = 0.0
    for n in range(1, 6):
        g = gen_gap_family(n)
        t0 = time.perf_counter()
        report = integrality_gap(g, max_edges=6 * n)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert report.opt_integral == 2 * n
        assert report.opt_fractional == 3 * n
        assert report.ratio == TWO_THIRDS
        assert elapsed < 1.0
    print(f"\n[acceptance 02] PASS gap family n=1..5: ratio exactly 2/3, "
          f"slowest {worst * 1e3:.0f} ms")


def test_c03_unit_odd_cycles():
    for k in range(1, 7):
        length = 2 * k + 1
        res = run_mechanism(gen_odd_cycle(k))
        assert res.c == (Fraction(k, length),) * length
        assert res.allocated == k == res.matching_weight
        assert res.factor_guarantee == Fraction(2 * k, length)
    print("\n[acceptance 03] PASS unit odd cycles k=1..6: payout k/(2k+1) "
          "per vertex, full allocation k = w(T)")


@pytest.mark.timing
def test_c04_random_coalition_guarantee():
    t0 = time.perf_counter()
    checked = 0
    for g, trace in traces_for(corpus("random")):
        res = trace.result
        report = check_core(g, res.c, TWO_THIRDS)
        assert report.violations == ()
        assert res.allocated <= res.matching_weight <= report.grand_worth
        checked += report.checked_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[acceptance 04] PASS 500 random instances: {checked} coalitions "
          f"at alpha 2/3, zero violations, budget chain exact, {elapsed:.1f} s")


def test_c05_bipartite_exactness():
    for g, trace in traces_for(corpus("bipartite")):
        res = trace.result
        assert set(trace.result.factors) <= {Fraction(1)}
        assert res.c == tuple(Fraction(x, 2) for x in fold_solution(trace.certificate).v2)
        report = check_core(g, res.c, Fraction(1))
        assert report.violations == ()
        assert report.budget_ok is True
        assert res.allocated == report.grand_worth  # full worth distributed
    print("\n[acceptance 05] PASS 200 bipartite instances: factors all 1, "
          "payout equals the optimal cover, exact core check at alpha 1")


def test_c06_high_girth_factor():
    girths = set()
    for g, trace in traces_for(corpus("high_girth")):
        girth = odd_girth(g)
        assert girth is not None and girth >= 5
        girths.add(girth)
        report = check_core(g, trace.result.c, Fraction(4, 5))
        assert report.violations == ()
        assert report.budget_ok is True
    print(f"\n[acceptance 06] PASS 100 instances with odd girth >= 5 "
          f"(girths seen: {sorted(girths)}): coalition check at alpha 4/5")


def test_c07_cycle_identity_ledger():
    cycles = solves = 0
    for name in ("unit_triangle", "gap_family", "odd_cycles", "random",
                 "bipartite", "high_girth"):
        for g, trace in traces_for(corpus(name)):
            # a trace keeps no fold and no components: derive them from its certificate
            folded = fold_solution(trace.certificate)
            comps = decompose_components(folded)
            v = [Fraction(x, 2) for x in folded.v2]
            assert Fraction(solution_weight2(g, folded), 2) == sum(v, Fraction(0))
            weight = {}
            for (a, b, w) in g.edges:
                weight[a, b] = weight[b, a] = w
            # the integral edges carry the instance's weights, and
            # resolving the half paths and even cycles kept the weight
            assert all(weight[a, b] == w for (a, b, w) in comps.integral)
            integral = sum(w for (_, _, w) in comps.integral)
            assert 2 * integral + sum(c.w_C for c in comps.odd_cycles) == sum(folded.v2)
            solves += 1
            for cyc in comps.odd_cycles:
                k = cyc.k
                L = 2 * k + 1
                assert cyc.weights == tuple(
                    weight[cyc.vertices[t], cyc.vertices[(t + 1) % L]] for t in range(L))
                v_C = sum(v[i] for i in cyc.vertices)
                assert cyc.w_C == 2 * v_C
                # w(M_j): every other weight after position j, k of them
                matching_weights = [sum(cyc.weights[(j + 1 + 2 * t) % L] for t in range(k))
                                    for j in range(L)]
                assert sum(matching_weights) == 2 * k * v_C
                heaviest = analyze_cycle(cyc, folded.v2)
                assert (2 * k + 1) * heaviest.weight >= 2 * k * v_C
                for j, mw in enumerate(matching_weights):
                    assert v[cyc.vertices[j]] == v_C - mw
                    edges = alternating_matching(cyc.vertices, j)
                    assert mw == sum(weight[e] for e in edges)
                    if cyc.vertices[j] == heaviest.removed_vertex:
                        assert heaviest.edges == edges
                        assert heaviest.weight == mw == max(matching_weights)
                cycles += 1
    print(f"\n[acceptance 07] PASS identity ledger: {solves} solves at exact "
          f"strong duality, {cycles} odd cycles, zero tolerance")


def test_c08_oracle_equivalence():
    checked = 0
    for name in ("unit_triangle", "gap_family", "odd_cycles", "random",
                 "bipartite", "high_girth"):
        for g, trace in traces_for(corpus(name)):
            n = g.vertex_count
            if n > 12:
                continue
            dp = bipartite_max_weight_dp(n, n, doubled_edges(g.edges))
            assert trace.result.worth_fractional == Fraction(dp, 2)
            recursive = worth_bruteforce(g, max_edges=max(24, g.edge_count))
            assert recursive == coalition_worth_table(g)[-1]
            checked += 1
    print(f"\n[acceptance 08] PASS oracle equivalence on {checked} instances "
          f"<= 12 vertices: fractional optimum and grand worth both confirmed")


def test_c09_emptiness_fixture(tmp_path, capsys):
    k3 = tmp_path / "k3.mg"
    k3.write_text("p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"values": ["1/2", "1/2", "1/2"]}))
    assert main(["verify", str(k3), str(cover), "--alpha", "1"]) == 1

    assert main(["gap", str(k3)]) == 0
    reports = [json.loads(capsys.readouterr().out.splitlines()[-1])]
    for n in (1, 2, 3):
        gpath = tmp_path / f"g{n}.mg"
        main(["gen", "gap", "--n", str(n), str(gpath)])
        capsys.readouterr()
        assert main(["gap", str(gpath), "--brute-max-edges", "30"]) == 0
        reports.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    assert all(r["core_nonempty"] is False for r in reports)

    from matchcore.instances import serialize_instance
    bip_fixtures = [
        parse_instance("p mg 2 1\ne 1 2 5\n"),
        gen_random(6, Fraction(1), 1, seed=0, bipartite=True),
        gen_random(9, Fraction(1, 2), 10, seed=4, bipartite=True),
        gen_random(10, Fraction(3, 4), 7, seed=9, bipartite=True),
    ]
    for idx, g in enumerate(bip_fixtures):
        path = tmp_path / f"bip{idx}.mg"
        path.write_text(serialize_instance(g))
        code = main(["gap", str(path), "--brute-max-edges", "40"])
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert report["core_nonempty"] is True
    print("\n[acceptance 09] PASS emptiness fixtures: raw cover rejected at "
          "alpha 1, core empty on triangle family, nonempty on bipartite")


@pytest.mark.timing
def test_c10_large_instance_runtime(tmp_path, capsys):
    g = gen_random(200, Fraction(1, 2), 10, seed=10)
    from matchcore.instances import serialize_instance
    path = tmp_path / "n200.mg"
    path.write_text(serialize_instance(g))
    t0 = time.perf_counter()
    code = main(["solve", str(path), "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 200
    assert elapsed < 5.0
    print(f"\n[acceptance 10] PASS n=200 density 1/2: solve in {elapsed:.2f} s "
          f"({g.edge_count} edges)")


# SHA-256 of `solve --json` stdout over each corpus, instance after
# instance. Recorded while covers were still carried as `Fraction`s, so
# every later refactor of the pipeline is held to byte-identical output.
GOLDEN_SOLVE_JSON = {
    "unit_triangle": "a58bb0dcdf9277ab695d552a37a2d3996d1426fe1a883ce2804f1929fd06f471",
    "gap_family": "869a607723089b9f1a233024e2cbbfb8f2c7e3082b7d2914cbe13c59607f155d",
    "odd_cycles": "6d126d869186e20be673569945a85adccf345bb96ac153fcf8aee162e3b9139e",
    "random": "bf125aedc6aa0fa67cf29445dfe9fe99a1cada8599794249ec818b5f8f37cfa4",
    "bipartite": "7bcbfc4ebcd2904f51c1813dd53241f6ed4bf500f71218c0b4c947358b35d28d",
    "high_girth": "23b9b943191539145a7f6d3bd5697fae09b97419a0bd4a02faf4e99c3a573e35",
}


@pytest.mark.parametrize("name", list(GOLDEN_SOLVE_JSON))
def test_c11_golden_solve_output(name, tmp_path, capsys):
    path = tmp_path / "instance.mg"
    digest = hashlib.sha256()
    for g in corpus(name):
        path.write_text(serialize_instance(g))
        assert main(["solve", str(path), "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_SOLVE_JSON[name]
    print(f"\n[acceptance 11] PASS {name}: {len(corpus(name))} solves "
          f"byte-identical to the recorded output")


# SHA-256 of `verify` stdout and exit code over each corpus: every
# instance's payout checked in both modes, at its `factor_guarantee`
# and at alpha 1, so violations and budget failures are in the hash.
# Recorded while `check_core` still compared `Fraction`s edge by edge
# and built its coalition table one mask at a time.
GOLDEN_VERIFY_JSON = {
    "unit_triangle": "5a0eeaac2b30b3496e721ce5d0796295a368b761f1904e40bf442ccfa9d2efb1",
    "gap_family": "c761e651469582be61529f4afbffb4a5dbc4a0e56a3f75e21dc82e2076526a6c",
    "odd_cycles": "f56ebdbbfb332ea44e07de789fef647799bfc5656229239bc9c5f67880fb03ad",
    "random": "1de8018f54d5301ed21eeaafcade79199d7931f7e352674c0ade2b3b1508a7fb",
    "bipartite": "bf31901e8a497276eafe87e3d56f4328a561c7824b5e93d4548b71fa1a02a930",
    "high_girth": "766560b34297b482ea6e0a78552bfe103c031c5d88c3ae34f64bee8ed221c8f8",
}


@pytest.mark.parametrize("name", list(GOLDEN_VERIFY_JSON))
def test_c12_golden_verify_output(name, tmp_path, capsys):
    path = tmp_path / "instance.mg"
    payout = tmp_path / "payout.json"
    digest = hashlib.sha256()
    codes = {}
    for g, trace in traces_for(corpus(name)):
        res = trace.result.to_json_dict()
        path.write_text(serialize_instance(g))
        payout.write_text(json.dumps({"values": res["values"]}))
        for mode in ("exhaustive", "edges"):
            for alpha in (res["factor_guarantee"], "1"):
                code = main(["verify", str(path), str(payout),
                             "--mode", mode, "--alpha", alpha])
                digest.update(capsys.readouterr().out.encode())
                digest.update(f"exit {code}\n".encode())
                codes[code] = codes.get(code, 0) + 1
    assert digest.hexdigest() == GOLDEN_VERIFY_JSON[name]
    print(f"\n[acceptance 12] PASS {name}: {len(corpus(name))} instances, "
          f"4 verify runs each (exit codes {dict(sorted(codes.items()))}) "
          f"byte-identical to the recorded output")


def _int_leaves(value, path):
    """Paths of the leaves under `value` that are not plain `int`s,
    walking records (NamedTuples) by field name, and tuples and lists."""
    if hasattr(value, "_fields"):
        return [p for f in value._fields
                for p in _int_leaves(getattr(value, f), f"{path}.{f}")]
    if isinstance(value, (tuple, list)):
        return [p for i, x in enumerate(value) for p in _int_leaves(x, f"{path}[{i}]")]
    return [] if type(value) is int else [f"{path}: {value!r}"]


def test_trace_artifacts_are_ints():
    # everything but the instance and the result serialises as integers
    for name in ("unit_triangle", "gap_family", "odd_cycles", "random",
                 "bipartite", "high_girth"):
        for g, trace in traces_for(corpus(name)):
            for f in trace._fields:
                if f not in ("instance", "result"):
                    assert _int_leaves(getattr(trace, f), f) == []
