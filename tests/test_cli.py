"""Command line interface: output shapes, exit codes, determinism."""
import json
import subprocess
import sys

import pytest

from ghcut import (
    brute_min_cut,
    format_graph,
    format_tree,
    generate,
    load_graph,
    max_flow,
    parse_gh_tree,
    random_steiner_tree,
)
from ghcut.cli import bench_recursion, main
import random


@pytest.fixture()
def workspace(tmp_path):
    g = generate("erdos-renyi-weighted", 9, seed=3)
    gpath = tmp_path / "g.dimacs"
    gpath.write_text(format_graph(g))
    tr = random_steiner_tree(range(9), 0, random.Random("cli-tree"))
    tpath = tmp_path / "t.tree"
    tpath.write_text(format_tree(tr))
    return g, str(gpath), tr, str(tpath), tmp_path


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_parseable_graph(capsys, tmp_path):
    out = tmp_path / "gen.dimacs"
    code, _, _ = run_cli(
        capsys, ["gen", "--kind", "clique", "--n", "6", "--seed", "z", "-o", str(out)]
    )
    assert code == 0
    g = load_graph(str(out))
    assert g.n == 6 and g.m == 15


def test_gen_stdout_deterministic(capsys):
    code, first, _ = run_cli(capsys, ["gen", "--n", "8", "--seed", "7"])
    code2, second, _ = run_cli(capsys, ["gen", "--n", "8", "--seed", "7"])
    assert code == code2 == 0
    assert first == second
    _, third, _ = run_cli(capsys, ["gen", "--n", "8", "--seed", "8"])
    assert third != first


def test_maxflow_report(capsys, workspace):
    g, gpath, _, _, _ = workspace
    code, out, err = run_cli(capsys, ["maxflow", gpath, "-s", "0", "-t", "5"])
    assert code == 0
    report = json.loads(out)
    res = max_flow(g, 0, 5)
    assert report["value"] == res.value
    assert report["sink_side"] == sorted(res.mincut.side)
    assert "elapsed" in err


def test_isolate_report(capsys, workspace):
    g, gpath, _, _, _ = workspace
    code, out, _ = run_cli(capsys, ["isolate", gpath, "--groups", "0,1;4;7"])
    assert code == 0
    report = json.loads(out)
    assert [c["group"] for c in report["cuts"]] == [[0, 1], [4], [7]]
    for c in report["cuts"]:
        assert set(c["group"]) <= set(c["side"])


def test_tree_mincuts_report_matches_library(capsys, workspace):
    g, gpath, tr, tpath, _ = workspace
    code, out, _ = run_cli(
        capsys, ["tree-mincuts", gpath, tpath, "--k", "2", "--seed", "s1"]
    )
    assert code == 0
    report = json.loads(out)
    from ghcut import CandidateCuts, tree_mincuts

    cuts = CandidateCuts([])
    tree_mincuts(g, tr, 2, cuts, "s1")
    want = {t: cuts.value(t) for t in cuts.terminals()}
    got = {row["terminal"]: row["value"] for row in report["values"]}
    assert got == want
    assert report["stats_totals"]["calls"] >= 1
    assert report["k"] == 2 and report["seed"] == "s1"


def test_tree_mincuts_witnesses_and_stats_file(capsys, workspace):
    g, gpath, tr, tpath, tmp = workspace
    stats_path = tmp / "stats.json"
    code, out, _ = run_cli(
        capsys,
        [
            "tree-mincuts",
            gpath,
            tpath,
            "--k",
            "2",
            "--witnesses",
            "--stats",
            str(stats_path),
        ],
    )
    assert code == 0
    report = json.loads(out)
    sides = {row["terminal"]: row["side"] for row in report["witness_sides"]}
    values = {row["terminal"]: row["value"] for row in report["values"]}
    from ghcut import cut_value

    for t, side in sides.items():
        if side is not None:
            assert cut_value(g, side) == values[t]
            assert t in side
    dumped = json.loads(stats_path.read_text())
    assert dumped["totals"]["calls"] >= 1
    assert "tree" in dumped["per_level"]


@pytest.mark.parametrize("coeff", ["inf", "nan", "-1"])
def test_bad_reps_coeff_exits_two(capsys, workspace, coeff):
    # --reps-coeff inf used to end in an OverflowError traceback
    _, gpath, _, tpath, _ = workspace
    code, out, err = run_cli(
        capsys, ["tree-mincuts", gpath, tpath, "--k", "2", f"--reps-coeff={coeff}"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: reps_coeff must be a positive finite number")
    assert "Traceback" not in err


def test_leaf_mincuts_rejects_non_leaf_source(capsys, workspace):
    g, gpath, tr, tpath, tmp = workspace
    # the fixture tree may or may not have a leaf source; build one that
    # definitely does not
    from ghcut import SteinerTree

    star = SteinerTree(range(9), [(0, v) for v in range(1, 9)], 0)
    bad = tmp / "star.tree"
    bad.write_text(format_tree(star))
    code, _, err = run_cli(capsys, ["leaf-mincuts", gpath, str(bad), "--k", "2"])
    assert code == 2
    assert "error:" in err


def test_sstcv_verdicts(capsys, workspace):
    g, gpath, tr, tpath, tmp = workspace
    lam = {t: brute_min_cut(g, 0, t).value for t in range(1, 9)}
    est = dict(lam)
    est[4] += 3
    est_path = tmp / "est.json"
    est_path.write_text(json.dumps({str(t): v for t, v in est.items()}))
    code, out, _ = run_cli(
        capsys,
        [
            "sstcv",
            gpath,
            "--source",
            "0",
            "--estimates",
            str(est_path),
            "--trees",
            tpath,
            "--k",
            "3",
            "--seed",
            "v",
        ],
    )
    assert code == 0
    report = json.loads(out)
    verdicts = {row["terminal"]: row["verdict"] for row in report["verdicts"]}
    assert set(verdicts) == set(range(1, 9))
    assert verdicts[4] == "loose"


@pytest.mark.parametrize("estimates", [
    '{"3": "2"}', '{"3": 2.5}', '{"3": true}', "[2]",
    # keys that name one terminal twice: the later one must not quietly win
    '{"3": 5, "03": 105}', '{"3": 5, "3": 5}',
])
def test_sstcv_malformed_estimates_exit_two(capsys, workspace, estimates):
    _, gpath, _, tpath, tmp = workspace
    est_path = tmp / "est.json"
    est_path.write_text(estimates)
    code, out, err = run_cli(
        capsys,
        ["sstcv", gpath, "--source", "0", "--estimates", str(est_path), "--trees", tpath,
         "--terminals", "3", "--k", "1"],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    if estimates.startswith("{"):
        assert "terminal 3" in err


@pytest.mark.parametrize("key", [" 3", "+3", "3_0", "\u0663", "3.0"])
def test_sstcv_estimate_key_not_plain_decimal_exit_two(capsys, workspace, key):
    # int() reads every one of these but the last as a terminal id
    _, gpath, _, tpath, tmp = workspace
    est_path = tmp / "est.json"
    est_path.write_text(json.dumps({"3": 5, key: 5}))
    code, out, err = run_cli(
        capsys,
        ["sstcv", gpath, "--source", "0", "--estimates", str(est_path), "--trees", tpath,
         "--k", "1"],
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: not a decimal integer: {key!r}")


@pytest.mark.parametrize("argv, bad", [
    (["isolate", "{g}", "--groups", "0,1_0;4"], "1_0"),
    (["isolate", "{g}", "--groups", "0;+4"], "+4"),
    (["oracle", "steiner", "{g}", "--terminals", "0,\u0663"], "\u0663"),
    (["oracle", "isolating", "{g}", "--groups", "0;0x5"], "0x5"),
    (["bench", "--sizes", "1_6", "--k", "1", "--seeds", "0"], "1_6"),
    (["bench", "--sizes", "16", "--k", "1", "--seeds", "+0"], "+0"),
])
def test_id_lists_not_plain_decimal_exit_two(capsys, workspace, argv, bad):
    _, gpath, _, _, _ = workspace
    code, out, err = run_cli(capsys, [a.format(g=gpath) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: not a decimal integer: {bad!r}")


# every numeric option, each refused spelling: '_', a leading '+', blanks
# and non-ASCII digits; argparse refuses them before any file is read
@pytest.mark.parametrize("argv, bad", [
    (["gen", "--n", "1_0"], "1_0"),
    (["gen", "--n", "+9"], "+9"),
    (["gen", "--n", " 9"], " 9"),
    (["gen", "--n", "\u0661\u0662"], "\u0661\u0662"),
    (["gen", "--n", "9", "--weight-lo", "+1"], "+1"),
    (["gen", "--n", "9", "--weight-hi", "1_0"], "1_0"),
    (["gen", "--n", "9", "--planted-value", "\u0663"], "\u0663"),
    (["gen", "--n", "9", "--p", "0_5"], "0_5"),
    (["gen", "--n", "9", "--p", "+0.5"], "+0.5"),
    (["gen", "--n", "9", "--p", "0.5 "], "0.5 "),
    (["gen", "--n", "9", "--p", "\u0660.5"], "\u0660.5"),
    (["gen", "--n", "9", "--p", "half"], "half"),
    (["maxflow", "{g}", "-s", "1_0", "-t", "1"], "1_0"),
    (["maxflow", "{g}", "-s", "0", "-t", "+1"], "+1"),
    (["tree-mincuts", "{g}", "{t}", "--k", "+2"], "+2"),
    (["tree-mincuts", "{g}", "{t}", "--k", "2", "--reps-coeff", "3_0"], "3_0"),
    (["leaf-mincuts", "{g}", "{t}", "--k", "\u0662"], "\u0662"),
    (["leaf-mincuts", "{g}", "{t}", "--k", "2", "--reps-coeff", "+3"], "+3"),
    (["sstcv", "{g}", "--source", " 0", "--estimates", "e.json", "--trees", "{t}", "--k", "2"], " 0"),
    (["sstcv", "{g}", "--source", "0", "--estimates", "e.json", "--trees", "{t}", "--k", "2_"], "2_"),
    (["sstcv", "{g}", "--source", "0", "--estimates", "e.json", "--trees", "{t}", "--k", "2",
      "--reps-coeff", "\u0666"], "\u0666"),
    (["oracle", "mincut", "{g}", "-s", "+0", "-t", "1"], "+0"),
    (["oracle", "mincut", "{g}", "-s", "0", "-t", "0x1"], "0x1"),
    (["oracle", "respecting", "{g}", "-s", "0", "-t", "1", "--tree", "{t}", "--k", "1_0"], "1_0"),
    (["bench", "--sizes", "16", "--k", "+1", "--seeds", "0"], "+1"),
    (["bench", "--sizes", "16", "--k", "1", "--seeds", "0", "--reps-coeff", "1_0"], "1_0"),
])
def test_numeric_options_not_plain_decimal_exit_two(capsys, workspace, argv, bad):
    _, gpath, _, tpath, _ = workspace
    with pytest.raises(SystemExit) as exc:
        main([a.format(g=gpath, t=tpath) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    kind = "number" if argv[-2] in ("--p", "--reps-coeff") else "integer"
    assert out == ""
    assert f"not a decimal {kind}: {bad!r}" in err
    assert "Traceback" not in err


def test_float_options_take_plain_spellings(capsys):
    _, half, _ = run_cli(capsys, ["gen", "--n", "9", "--p", "0.5"])
    for spelling in (".5", "5e-1", "0.5e+0", "-0.5"):
        code, out, err = run_cli(capsys, ["gen", "--n", "9", "--p", spelling])
        if spelling == "-0.5":
            assert code == 2 and out == "" and "edge probability" in err
        else:
            assert code == 0 and out == half


def test_id_lists_allow_blanks_around_items(capsys, workspace):
    _, gpath, _, _, _ = workspace
    code, out, _ = run_cli(capsys, ["isolate", gpath, "--groups", " 0, 1 ; 4;7 "])
    assert code == 0
    assert [c["group"] for c in json.loads(out)["cuts"]] == [[0, 1], [4], [7]]


def test_ghtree_verify_clean(capsys, workspace, tmp_path):
    g, gpath, _, _, _ = workspace
    out_path = tmp_path / "gh.txt"
    code, out, err = run_cli(capsys, ["ghtree", gpath, "--verify", "-o", str(out_path)])
    assert code == 0
    assert "verified" in err
    tree = parse_gh_tree(out_path.read_text())
    assert tree.n == g.n


def test_oracle_subcommands(capsys, workspace):
    g, gpath, tr, tpath, _ = workspace
    code, out, _ = run_cli(capsys, ["oracle", "mincut", gpath, "-s", "0", "-t", "5"])
    assert code == 0
    assert json.loads(out)["answers"][0]["value"] == brute_min_cut(g, 0, 5).value

    code, out, _ = run_cli(
        capsys,
        ["oracle", "respecting", gpath, "-s", "0", "-t", "5", "--tree", tpath, "--k", "2"],
    )
    assert code == 0
    assert json.loads(out)["answers"][0]["value"] is not None

    code, out, _ = run_cli(capsys, ["oracle", "steiner", gpath, "--terminals", "0,3,5"])
    assert code == 0

    code, out, _ = run_cli(capsys, ["oracle", "isolating", gpath, "--groups", "0;5"])
    assert code == 0
    assert len(json.loads(out)["answers"]) == 2


def test_oracle_missing_flags_exit_two(capsys, workspace):
    _, gpath, _, _, _ = workspace
    code, _, err = run_cli(capsys, ["oracle", "mincut", gpath, "-s", "0"])
    assert code == 2
    assert "error:" in err and "--sink" in err


def test_oracle_infeasible_value_is_null(capsys, workspace):
    g, gpath, tr, tpath, _ = workspace
    code, out, _ = run_cli(
        capsys,
        ["oracle", "respecting", gpath, "-s", "0", "-t", "5", "--tree", tpath, "--k", "0"],
    )
    assert code == 0
    assert json.loads(out)["answers"][0]["value"] is None


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, ["maxflow", "/no/such/file", "-s", "0", "-t", "1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", [
    '{"n": 2.5, "edges": [[0, 1, 1]]}',
    '{"n": true, "edges": [[0, 1, 1]]}',
    '{"n": 3, "edges": [[0, 1.5, 1]]}',
    '{"n": 3, "edges": [[0, 1, 1.5]]}',
])
def test_maxflow_bad_json_graph_exit_two(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, ["maxflow", str(path), "--format", "json", "-s", "0", "-t", "1"])
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_bench_single_size_k_zero_counts_top_call_only():
    table = bench_recursion([32], 0, [0], 1.0)
    row = table["rows"][0]
    assert row["mean_calls"] == 1
    # with one call the vertex total is exactly the instance size
    g = generate("erdos-renyi-weighted", 32, seed=0)
    envelope = 1.0 * __import__("math").log2(32)
    assert row["ratio_vertices"] == pytest.approx(g.n / ((g.n - 1) * envelope))
    assert "slope_vertices" not in table


def test_bench_rejects_bad_sizes():
    with pytest.raises(ValueError):
        bench_recursion([], 2, [0], 1.0)
    with pytest.raises(ValueError):
        bench_recursion([64, 32], 2, [0], 1.0)
    with pytest.raises(ValueError):
        bench_recursion([32], 2, [], 1.0)


def test_bench_cli_table_output(capsys):
    code, out, _ = run_cli(
        capsys, ["bench", "--sizes", "16,32", "--k", "1", "--seeds", "0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "ratio_vertices", "ratio_edges", "mean_calls"]
    assert lines[1].split()[0] == "16"
    assert "slope" in lines[-1]


def test_bench_cli_json_deterministic(capsys):
    argv = ["bench", "--sizes", "16,32", "--k", "1", "--seeds", "0", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    json.loads(first)


def test_subprocess_byte_identical(tmp_path):
    gpath = tmp_path / "g.dimacs"
    gpath.write_text(format_graph(generate("erdos-renyi-weighted", 10, seed=1)))

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "ghcut.cli", *argv],
            capture_output=True,
            timeout=120,
        )

    for argv in (
        ["gen", "--n", "9", "--seed", "q"],
        ["maxflow", str(gpath), "-s", "0", "-t", "9"],
    ):
        a = run(argv)
        b = run(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
