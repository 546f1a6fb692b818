"""Command-line behavior: outputs, exit codes, pipe discipline."""

import json
from fractions import Fraction

import pytest

from matchcore.cli import main

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
                       "--mode", "exhaustive", "--max-n", "20")
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
