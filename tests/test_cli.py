"""Command-line behavior: outputs, exit codes, pipe discipline."""

import hashlib
import json
import runpy
import sys
import warnings
from fractions import Fraction

import pytest

from matchcore import _hungarian_py, cli
from matchcore.cli import main
from matchcore.halfint import fold_solution
from matchcore.instances import gen_gap_family, gen_random, parse_instance, serialize_instance
from matchcore.mechanism import audit_pipeline, run_pipeline

K3_TEXT = "p mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"


@pytest.fixture
def k3_path(tmp_path):
    path = tmp_path / "k3.mg"
    path.write_text(K3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_k3_json(capsys, k3_path):
    code, out, err = run(capsys, "solve", k3_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["1/3", "1/3", "1/3"]
    assert data["factor_guarantee"] == "2/3"
    assert data["allocated"] == "1"
    assert data["matching_weight"] == "1"
    assert data["fractional_optimum"] == "3/2"
    assert data["factors"] == ["2/3", "2/3", "2/3"]
    assert len(data["matching"]) == 1


def test_solve_k3_check_and_table(capsys, k3_path):
    code, out, err = run(capsys, "solve", k3_path, "--check")
    assert code == 0
    assert "payout" in out
    assert "factor guarantee 2/3" in out


@pytest.mark.parametrize("g", [gen_gap_family(2, connected=True), gen_random(9, Fraction(1, 2), 7, seed=5)],
                         ids=["gap_2c", "rnd_9"])
def test_solve_table_columns_are_the_json_strings(capsys, tmp_path, g):
    path = tmp_path / "g.mg"
    path.write_text(serialize_instance(g))
    code, table, err = run(capsys, "solve", str(path), "--check")
    assert code == 0
    data = json.loads(run(capsys, "solve", str(path), "--json")[1])
    rows = [line.split() for line in table.splitlines()[1:g.vertex_count + 1]]
    v2 = fold_solution(run_pipeline(g).certificate).v2
    assert rows == [[str(i + 1), str(Fraction(v2[i], 2)), data["factors"][i], data["values"][i]]
                    for i in range(g.vertex_count)]


def test_solve_check_reports_each_audit_problem(capsys, k3_path, monkeypatch):
    def tampered(g):
        trace = run_pipeline(g)
        c = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))
        return trace._replace(result=trace.result._replace(c=c))

    monkeypatch.setattr(cli, "run_pipeline", tampered)
    code, out, err = run(capsys, "solve", k3_path, "--check", "--json")
    problems = audit_pipeline(tampered(parse_instance(K3_TEXT)))
    assert problems == ["stored result.c[2] is 1/4; the certificate gives 1/3"]
    assert code == 1 and out == ""
    assert err.splitlines() == [f"check failed: {p}" for p in problems]


def test_solve_broken_kernel_exits_1(capsys, tmp_path, monkeypatch):
    kernel = _hungarian_py.solve_max_weight_bipartite

    def lowered_dual(*args):
        match_l, match_r, u, v = kernel(*args)
        u[0] -= 1
        return match_l, match_r, u, v

    monkeypatch.setattr(_hungarian_py, "solve_max_weight_bipartite", lowered_dual)
    inst = tmp_path / "e.mg"
    inst.write_text("p mg 2 1\ne 1 2 5\n")
    code, out, err = run(capsys, "solve", str(inst))
    assert code == 1 and out == ""
    assert err == ("internal invariant failed: solver produced an invalid certificate: "
                   "dual infeasible on edge (0, 3): short by 1\n")


def test_module_runs_as_a_script(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["matchcore", "gen", "cycle", "--k", "1"])
    with warnings.catch_warnings():
        # runpy warns that matchcore.cli is already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("matchcore.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "# cycle_3_w1\np mg 3 3\ne 1 2 1\ne 2 3 1\ne 1 3 1\n"


def _repeat_first_edge(text):
    """The header's edge count raised by one, and the first edge line
    (after the comment and the header) repeated at the end."""
    lines = text.splitlines(keepends=True)
    p, mg, n, m = lines[1].split()
    lines[1] = f"{p} {mg} {n} {int(m) + 1}\n"
    return "".join(lines) + lines[2]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


RANDOM_300 = ["random", "--n", "300", "--p", "1/2", "--max-weight", "1000000", "--seed", "1"]


# Byte for byte: a file `gen` writes (its SHA-256, where pinned), then
# the exit code, SHA-256 of stdout and stderr of `solve --json --check`
# on it, and the exit code of `verify --mode edges` on that payout at
# each alpha. The 2k/(2k+1) guarantee holds, and it is tight: one step
# above it, `verify` exits 1.
PINNED_RUNS = {
    # 22,300 edges in pair order, which the parser reads as columns
    # with no set of pairs
    "random_300": (RANDOM_300, None,
                   "224e38cb1dbe8d532c894f3696f2d582bae421bd5a35fa8590e48a5017956b00",
                   (0, "2c9b449dca9d543a445fc9e24afa3137d64bba63139a170c6eaf946ae0b90350", ""),
                   {}),
    # the same columns, then the first pair repeated on the last line
    "random_300_repeat": (RANDOM_300, _repeat_first_edge, None,
                          (2, _sha256(""), "error: line 22303: duplicate edge (1, 2), "
                                           "first seen at line 3\n"),
                          {}),
    # 200 unit triangles: every cycle's weighing, checks and backing matching
    "gap_100": (["gap", "--n", "100"], None, None,
                (0, "c66372b8d7e17fd3b3db4257b4acc17981bf49daeff175b8a2c7705a822d1a34", ""),
                {"2/3": 0}),
    # a 1,001-cycle: the payout falls short one step above 1000/1001
    "cycle_1001": (["cycle", "--k", "500"], None, None,
                   (0, "34d812516ff0e3be31cdfe5fcfcf931d16cd622df6a0e44e5e66552320594e0e", ""),
                   {"1000/1001": 0, "1001/1002": 1}),
    # weights up to 9: a 7-cycle and a triangle of uneven edge weights
    # are scaled (factors 6/7 and 2/3); the least factor is the guarantee
    "random_40_w9": (["random", "--n", "40", "--p", "1/8", "--max-weight", "9", "--seed", "23"],
                     None, "cbbaa04505beedb51e30b166eb7c0627f13e6f1551c4e3fea2d36e6a8a228e5e",
                     (0, "4c63433392cc58b5fc1832d60e0125497dd7b2f3491ec6be5ead16d85b922f87", ""),
                     {"2/3": 0, "201/300": 1}),
}


@pytest.mark.parametrize("gen, edit, file_sha, solved, verified",
                         list(PINNED_RUNS.values()), ids=list(PINNED_RUNS))
def test_pinned_runs(capsys, tmp_path, gen, edit, file_sha, solved, verified):
    inst, payout = tmp_path / "g.mg", tmp_path / "g.json"
    assert run(capsys, "gen", *gen, str(inst))[0] == 0
    if edit:
        inst.write_text(edit(inst.read_text()))
    if file_sha:
        assert hashlib.sha256(inst.read_bytes()).hexdigest() == file_sha
    code, out, err = run(capsys, "solve", str(inst), "--json", "--check")
    assert (code, _sha256(out), err) == solved
    payout.write_text(out)
    assert {alpha: run(capsys, "verify", str(inst), str(payout),
                       "--alpha", alpha, "--mode", "edges")[0]
            for alpha in verified} == verified


def test_solve_single_edge(capsys, tmp_path):
    path = tmp_path / "edge5.mg"
    path.write_text("p mg 2 1\ne 1 2 5\n")
    code, out, _ = run(capsys, "solve", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert sum(Fraction(v) for v in data["values"]) == 5
    assert data["matching"] == [[1, 2]]
    assert data["allocated"] == "5"
    assert data["factor_guarantee"] == "1"


def test_solve_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.mg"
    path.write_text("p mg 2 1\ne 1 1 4\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert "line 2" in err


def test_solve_ignores_a_leading_byte_order_mark(capsys, k3_path, tmp_path):
    marked = tmp_path / "k3-bom.mg"
    marked.write_text("\ufeff" + K3_TEXT, encoding="utf-8")
    plain = run(capsys, "solve", k3_path, "--json")
    assert plain[0] == 0
    assert run(capsys, "solve", str(marked), "--json") == plain


def test_solve_refuses_a_byte_order_mark_past_the_start(capsys, tmp_path):
    path = tmp_path / "bom2.mg"
    path.write_text(K3_TEXT.replace("\ne", "\n\ufeffe", 1), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: unknown directive: '\\ufeffe'\n"


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.mg")
    assert code == 2
    assert err


def test_verify_mechanism_output(capsys, k3_path, tmp_path):
    imp = tmp_path / "k3-imp.json"
    imp.write_text(json.dumps({"values": ["1/3", "1/3", "1/3"]}))
    code, out, _ = run(capsys, "verify", k3_path, str(imp),
                       "--alpha", "2/3", "--mode", "exhaustive")
    assert code == 0
    report = json.loads(out)
    assert report["checked_count"] == 8
    assert report["violations"] == []
    assert report["budget_ok"] is True
    assert [1, 2] in report["tight_coalitions"]


def test_verify_ignores_a_leading_byte_order_mark(capsys, k3_path, tmp_path):
    text = json.dumps({"values": ["1/3", "1/3", "1/3"]})
    plain, marked = tmp_path / "imp.json", tmp_path / "imp-bom.json"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    expected = run(capsys, "verify", k3_path, str(plain))
    assert expected[0] == 0
    assert run(capsys, "verify", k3_path, str(marked)) == expected


def test_verify_raw_cover_fails(capsys, k3_path, tmp_path):
    # the optimal cover allocates 3/2 > 1: the exact core is empty
    imp = tmp_path / "k3-cover.json"
    imp.write_text(json.dumps({"values": ["1/2", "1/2", "1/2"]}))
    code, out, _ = run(capsys, "verify", k3_path, str(imp), "--alpha", "1")
    assert code == 1
    report = json.loads(out)
    assert report["violations"] == []
    assert report["budget_ok"] is False


def test_verify_accepts_solve_output(capsys, k3_path, tmp_path):
    code = main(["solve", k3_path, "--json"])
    out = capsys.readouterr().out
    imp = tmp_path / "from-solve.json"
    imp.write_text(out)
    code, out2, _ = run(capsys, "verify", k3_path, str(imp), "--alpha", "2/3")
    assert code == 0


def test_verify_bound_exit_3(capsys, tmp_path):
    inst = tmp_path / "big.mg"
    main(["gen", "random", "--n", "30", "--p", "1/4", "--seed", "1", str(inst)])
    capsys.readouterr()
    imp = tmp_path / "imp.json"
    imp.write_text(json.dumps({"values": ["0"] * 30}))
    code, _, err = run(capsys, "verify", str(inst), str(imp),
                       "--mode", "exhaustive")
    assert code == 3
    assert "refused" in err


def test_solve_oversized_header_exit_3(capsys, tmp_path):
    # an edge count past the bound, so that a parser without the bound
    # fails fast instead of building a huge graph
    path = tmp_path / "huge.mg"
    path.write_text("p mg 10 4000001\n")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("refused: line 1: header declares 10 vertices and 4000001 edges")


def test_verify_alpha_validation(capsys, k3_path, tmp_path):
    imp = tmp_path / "imp.json"
    imp.write_text(json.dumps({"values": ["1/3", "1/3", "1/3"]}))
    code, _, err = run(capsys, "verify", k3_path, str(imp), "--alpha", "3/2")
    assert code == 2
    code, _, err = run(capsys, "verify", k3_path, str(imp), "--alpha", "0.5")
    assert code == 2


def test_verify_wrong_length_exits_2(capsys, k3_path, tmp_path):
    imp = tmp_path / "imp.json"
    imp.write_text(json.dumps({"values": ["1/3", "1/3"]}))
    code, _, _ = run(capsys, "verify", k3_path, str(imp))
    assert code == 2


@pytest.mark.parametrize("values", ["23", {"2": 0, "3": 0}, 5, None])
def test_verify_values_must_be_an_array(capsys, tmp_path, values):
    # a string or an object would otherwise be read item by item
    inst = tmp_path / "edge5.mg"
    inst.write_text("p mg 2 1\ne 1 2 5\n")
    imp = tmp_path / "imp.json"
    imp.write_text(json.dumps({"values": values}))
    code, out, err = run(capsys, "verify", str(inst), str(imp), "--alpha", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'values' array" in err


def test_gen_gap(capsys, tmp_path):
    out_path = tmp_path / "g3.mg"
    code, out, _ = run(capsys, "gen", "gap", "--n", "3", str(out_path))
    assert code == 0
    assert "18 vertices" in out
    text = out_path.read_text()
    assert text.splitlines()[1] == "p mg 18 18"


def test_gen_cycle(capsys, tmp_path):
    out_path = tmp_path / "c5.mg"
    code, out, _ = run(capsys, "gen", "cycle", "--k", "2", "--weight", "1",
                       str(out_path))
    assert code == 0
    assert "5 vertices, 5 edges" in out


def test_gen_random_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.mg", tmp_path / "b.mg"
    run(capsys, "gen", "random", "--n", "10", "--p", "1/2", "--seed", "7", str(a))
    run(capsys, "gen", "random", "--n", "10", "--p", "1/2", "--seed", "7", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout_keeps_summary_on_stderr(capsys):
    code, out, err = run(capsys, "gen", "cycle", "--k", "1")
    assert code == 0
    assert out.startswith("# cycle_3_w1\np mg 3 3\n")
    assert "3 vertices" in err


def test_gen_bad_params_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "gap", "--n", "0", str(tmp_path / "x.mg"))
    assert code == 2
    code, _, err = run(capsys, "gen", "random", "--n", "5", "--p", "3/2",
                       str(tmp_path / "y.mg"))
    assert code == 2


def test_gap_g1(capsys, tmp_path):
    inst = tmp_path / "g1.mg"
    main(["gen", "gap", "--n", "1", str(inst)])
    capsys.readouterr()
    code, out, _ = run(capsys, "gap", str(inst))
    assert code == 0
    assert json.loads(out) == {
        "opt_integral": "2",
        "opt_fractional": "3",
        "ratio": "2/3",
        "core_nonempty": False,
    }


def test_gap_k3(capsys, k3_path):
    code, out, _ = run(capsys, "gap", k3_path)
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == "2/3"
    assert report["core_nonempty"] is False


def test_gap_single_edge(capsys, tmp_path):
    inst = tmp_path / "edge5.mg"
    inst.write_text("p mg 2 1\ne 1 2 5\n")
    code, out, _ = run(capsys, "gap", str(inst))
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == "1"
    assert report["core_nonempty"] is True


def test_gap_refusal_exit_3_with_fractional(capsys, tmp_path):
    inst = tmp_path / "dense.mg"
    main(["gen", "random", "--n", "12", "--p", "1", "--seed", "1", str(inst)])
    capsys.readouterr()
    code, out, _ = run(capsys, "gap", str(inst))
    assert code == 3
    report = json.loads(out)
    assert report["opt_integral"] is None
    assert report["core_nonempty"] == "unknown"
    assert report["opt_fractional"] is not None


def test_gap_flag_lifts_bound(capsys, tmp_path):
    inst = tmp_path / "g5.mg"
    main(["gen", "gap", "--n", "5", str(inst)])
    capsys.readouterr()
    code, out, _ = run(capsys, "gap", str(inst), "--brute-max-edges", "30")
    assert code == 0
    report = json.loads(out)
    assert report["opt_integral"] == "10"
    assert report["opt_fractional"] == "15"
    assert report["ratio"] == "2/3"


@pytest.mark.parametrize("flag", ["--max-n", "--max-edges"])
def test_verify_has_no_bound_flags(capsys, k3_path, tmp_path, flag):
    imp = tmp_path / "imp.json"
    imp.write_text(json.dumps({"values": ["1/3"] * 3}))
    code, out, err = run(capsys, "verify", k3_path, str(imp), flag, "20")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 20" in err


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["gen"]) == 2


def test_stdout_is_pure_json(capsys, k3_path):
    code, out, err = run(capsys, "gap", k3_path)
    json.loads(out)  # must parse as a single JSON document
    assert err == ""


def test_parser_built_once_keeps_no_state(capsys, k3_path, tmp_path):
    # The parser is cached for the process; a call after a usage error
    # and after one with options must print what a freshly built parser
    # prints.
    from matchcore import cli
    imputation = tmp_path / "imp.json"
    imputation.write_text(json.dumps({"values": ["1/3", "1/3", "1/3"]}))
    argv = ("verify", k3_path, str(imputation))
    cli._build_parser.cache_clear()
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    cli._build_parser.cache_clear()
    assert run(capsys, "verify", k3_path, "--alpha")[0] == 2
    assert run(capsys, *argv, "--alpha", "3/4", "--mode", "edges")[0] == 1
    assert run(capsys, *argv) == fresh
    assert cli._build_parser.cache_info().misses == 1
