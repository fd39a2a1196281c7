"""Release gate: one test per criterion, tolerances pinned in the asserts.

Each criterion is a separate test so the verbose pytest report reads as one
pass/fail line per criterion.  Batteries use fixed seeds throughout; the
randomized-search criteria measure observed success rates against explicit
thresholds instead of asserting per-run luck.
"""
import json
import random
import subprocess
import sys
import time

import ghcut.gomoryhu
import ghcut.maxflow
from ghcut import (
    CandidateCuts,
    Cut,
    GENERATOR_KINDS,
    Graph,
    RecursionStats,
    brute_isolating_cuts,
    brute_leaf_respecting_min_cut,
    brute_min_cut,
    brute_respecting_min_cut,
    build_gusfield,
    generate,
    isolating_cuts,
    leaf_mincuts,
    max_flow,
    random_steiner_tree,
    respects_count,
    sstcv_verify,
    tree_mincuts,
)
from ghcut.cli import bench_recursion
from ghcut.graph import save_graph
from ghcut.steiner import SteinerTree, save_tree


def _random_connected(rng, n, lo=1, hi=10):
    """Connected graph on n vertices, every weight in [lo, hi]."""
    perm = rng.sample(range(n), n)
    edges = {}
    for i in range(1, n):
        u, v = perm[rng.randrange(i)], perm[i]
        edges[(min(u, v), max(u, v))] = rng.randint(lo, hi)
    p = rng.uniform(0.1, 0.6)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges[(u, v)] = rng.randint(lo, hi)
    return Graph(n, [(u, v, w) for (u, v), w in edges.items()])


def test_criterion_1_maxflow_exact_on_500_random_graphs(monkeypatch):
    # the solve's cost is pinned by its count of searches, which does not
    # drift with the machine's speed as a wall-clock bound would.  Every
    # path the solver pushes is a shortest augmenting path, and each search
    # pushes at least one, so Edmonds and Karp's bound of O(nm)
    # augmentations bounds the searches too.  No theorem caps them at n, as
    # Dinic's rising s-t distance did; n is a checked work bound that these
    # small graphs stay within
    searches = 0
    levels = ghcut.maxflow._levels

    def counted_levels(*args):
        nonlocal searches
        searches += 1
        return levels(*args)

    monkeypatch.setattr(ghcut.maxflow, "_levels", counted_levels)
    most = 0
    start = time.perf_counter()
    for i in range(500):
        rng = random.Random(f"acc1|{i}")
        n = rng.randint(2, 12)
        g = _random_connected(rng, n)
        s, t = rng.sample(range(n), 2)
        searches = 0
        got = max_flow(g, s, t).value
        assert searches <= n, (i, n, searches)
        most = max(most, searches)
        want = brute_min_cut(g, s, t).value
        assert got == want, (i, s, t, got, want)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: PASS  500/500 exact, at most {most} searches "
          f"per flow, in {elapsed:.2f}s")


def test_criterion_2_isolating_cuts_exact_and_minimal():
    for i in range(200):
        rng = random.Random(f"acc2|{i}")
        n = rng.randint(4, 12)
        g = _random_connected(rng, n)
        ng = rng.randint(2, 4)
        picked = rng.sample(range(n), rng.randint(ng, n))
        groups = [[picked[j]] for j in range(ng)]
        for v in picked[ng:]:
            groups[rng.randrange(ng)].append(v)
        got = isolating_cuts(g, groups)
        want = brute_isolating_cuts(g, groups)
        for gc, ans in zip(got, want):
            assert gc.value == ans.value, (i, sorted(gc.group))
            assert gc.side == ans.minimal_side(), (i, sorted(gc.group))
    print("criterion 2: PASS  200/200 values exact, sides minimal")


def _sandwich_battery(leaf):
    """Shared protocol for the two guided-search criteria.

    Returns (clean run counts per coefficient, worst run time, largest
    `RecursionStats` totals of any one run).  The totals are fixed by the
    seeds, so they bound each run's work without the clock.
    """
    clean = {3.0: 0, 6.0: 0}
    worst = 0.0
    most = dict.fromkeys(("calls", "vertices", "tree_vertices", "edges"), 0)
    for i in range(200):
        rng = random.Random(f"acc{'4' if leaf else '3'}|{i}")
        n = rng.randint(5, 12)
        g = generate(rng.choice(GENERATOR_KINDS), n, seed=i)
        nt = rng.randint(3, n)
        verts = rng.sample(range(n), nt)
        s = verts[0]
        rest = verts[1:]
        if leaf:
            # random tree on the other terminals, source attached as a leaf
            tedges = []
            for j in range(1, len(rest)):
                tedges.append((rest[rng.randrange(j)], rest[j]))
            tedges.append((s, rng.choice(rest)))
            tr = SteinerTree(verts, tedges, s)
        else:
            tr = random_steiner_tree(verts, s, rng)
        k = rng.choice([2, 3, 4])
        if leaf:
            hi = {t: brute_leaf_respecting_min_cut(g, tr, s, t, k).value
                  for t in rest}
        else:
            hi = {t: brute_respecting_min_cut(g, tr, s, t, k).value
                  for t in rest}
        lo = {t: brute_min_cut(g, s, t).value for t in rest}
        for coeff in (3.0, 6.0):
            cuts = CandidateCuts([])
            stats = RecursionStats()
            t0 = time.perf_counter()
            if leaf:
                leaf_mincuts(g, tr, k, cuts, f"run|{i}|{coeff}", stats,
                             reps_coeff=coeff)
            else:
                tree_mincuts(g, tr, k, cuts, f"run|{i}|{coeff}", stats,
                             reps_coeff=coeff)
            worst = max(worst, time.perf_counter() - t0)
            for key, value in stats.totals().items():
                most[key] = max(most[key], value)
            for t in rest:
                assert cuts.value(t) >= lo[t], (i, coeff, t)
            if all(cuts.value(t) <= hi[t] for t in rest):
                clean[coeff] += 1
    return clean, worst, most


# Largest `RecursionStats` totals of any one run of each battery, as
# measured when they replaced a wall-clock bound: a run that does more
# recursive work than this fails, however fast the machine.
SANDWICH_MAX_TOTALS = {
    "tree": {"calls": 16575, "vertices": 147312, "tree_vertices": 77026, "edges": 620245},
    "leaf": {"calls": 13666, "vertices": 123162, "tree_vertices": 77849, "edges": 303422},
}


def test_criterion_3_tree_search_sandwich():
    clean, worst, most = _sandwich_battery(leaf=False)
    assert clean[3.0] >= 190, f"default reps: {clean[3.0]}/200 clean"
    assert clean[6.0] == 200, f"doubled reps: {clean[6.0]}/200 clean"
    for key, bound in SANDWICH_MAX_TOTALS["tree"].items():
        assert most[key] <= bound, f"a run's {key} total {most[key]} exceeds {bound}"
    print(f"criterion 3: PASS  lower bound 100%, upper {clean[3.0]}/200 "
          f"default and {clean[6.0]}/200 doubled, worst run {worst:.2f}s")


def test_criterion_4_leaf_search_sandwich():
    clean, worst, most = _sandwich_battery(leaf=True)
    assert clean[3.0] >= 190, f"default reps: {clean[3.0]}/200 clean"
    assert clean[6.0] == 200, f"doubled reps: {clean[6.0]}/200 clean"
    for key, bound in SANDWICH_MAX_TOTALS["leaf"].items():
        assert most[key] <= bound, f"a run's {key} total {most[key]} exceeds {bound}"
    print(f"criterion 4: PASS  lower bound 100%, upper {clean[3.0]}/200 "
          f"default and {clean[6.0]}/200 doubled, worst run {worst:.2f}s")


def test_criterion_5_tightness_verification():
    correct = 0
    for i in range(100):
        rng = random.Random(f"acc5|{i}")
        n = rng.randint(5, 12)
        g = generate(rng.choice(GENERATOR_KINDS), n, seed=100 + i)
        s, t = rng.sample(range(n), 2)
        ans = brute_min_cut(g, s, t)
        lam = ans.value
        side = ans.minimal_side()
        # spanning tree built from the witness: a star inside each side and
        # the (s, t) bridge, so exactly one tree edge crosses the cut
        tedges = [(t, v) for v in side if v != t]
        tedges += [(s, v) for v in range(n) if v not in side and v != s]
        tedges.append((s, t))
        tr = SteinerTree(range(n), tedges, s)
        assert respects_count(tr, Cut(side, lam)) <= 4
        est = lam if i % 2 == 0 else lam + rng.randint(1, 3)
        verdict = sstcv_verify(g, [t], s, {t: est}, [tr], 4, f"acc5|{i}")[t]
        if verdict == "loose":
            assert est != lam, f"instance {i}: loose verdict on tight estimate"
        if (verdict == "tight") == (est == lam):
            correct += 1
    assert correct >= 95, f"{correct}/100 correct verdicts"
    print(f"criterion 5: PASS  {correct}/100 verdicts correct, "
          "all loose reports sound")


def test_criterion_6_gomory_hu_all_pairs(monkeypatch):
    # the build's cost is pinned by its flow count, which does not drift
    # with the machine's speed as a wall-clock bound would
    flows = 0

    def counted_max_flow(g, s, t):
        nonlocal flows
        flows += 1
        return max_flow(g, s, t)

    monkeypatch.setattr(ghcut.gomoryhu, "max_flow", counted_max_flow)
    start = time.perf_counter()
    for i in range(50):
        rng = random.Random(f"acc6|{i}")
        n = rng.randint(4, 40)
        g = generate(rng.choice(GENERATOR_KINDS), n, seed=500 + i)
        flows = 0
        ght = build_gusfield(g)
        assert flows == n - 1, (i, n, flows)
        for a in range(n):
            for b in range(a + 1, n):
                assert ght.query(a, b) == max_flow(g, a, b).value, (i, a, b)
    elapsed = time.perf_counter() - start
    print(f"criterion 6: PASS  50/50 trees, all pairs exact in {elapsed:.2f}s")


def test_criterion_7_recursion_growth():
    out = bench_recursion([64, 128, 256, 512, 1024], 2, [0], 1.0)
    sv, se = out["slope_vertices"], out["slope_edges"]
    assert sv <= 0.1, f"vertex-ratio slope {sv:.4f}"
    assert se <= 0.1, f"edge-ratio slope {se:.4f}"
    print(f"criterion 7: PASS  log-log slopes {sv:.4f} (vertices), "
          f"{se:.4f} (edges)")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ghcut.cli", *args],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_8_cli_determinism(tmp_path):
    gpath = tmp_path / "g.dimacs"
    save_graph(generate("erdos-renyi-weighted", 10, seed=3), gpath)
    tr = random_steiner_tree(range(10), 0, random.Random("acc8"))
    tpath = tmp_path / "t.txt"
    save_tree(tr, tpath)
    epath = tmp_path / "est.json"
    epath.write_text(json.dumps({"3": 20, "7": 24}))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    commands = [
        ["gen", "--kind", "planted-cut", "--n", "12", "--seed", "5"],
        ["maxflow", str(gpath), "-s", "0", "-t", "5"],
        ["isolate", str(gpath), "--groups", "0,1;4;7,9"],
        ["tree-mincuts", str(gpath), str(tpath), "--k", "2", "--seed", "9"],
        ["leaf-mincuts", str(gpath), str(tpath), "--k", "2", "--seed", "9"],
        ["sstcv", str(gpath), "--source", "0", "--estimates", str(epath),
         "--trees", str(tpath), "--k", "3", "--seed", "9"],
        ["ghtree", str(gpath)],
        ["oracle", "mincut", str(gpath), "-s", "0", "-t", "5"],
        ["bench", "--sizes", "8,16", "--k", "1", "--seeds", "0", "--json"],
    ]
    for args in commands:
        if args[0] == "leaf-mincuts":
            # the shared guide tree may not have a leaf source; build one
            ltr = SteinerTree(
                range(10),
                [(i, i + 1) for i in range(9)],
                0,
            )
            save_tree(ltr, tmp_path / "lt.txt")
            args = [args[0], str(gpath), str(tmp_path / "lt.txt"),
                    *args[3:]]
        first = _run_cli(args + (["-o", str(out1)] if args[0] == "gen" else []))
        second = _run_cli(args + (["-o", str(out2)] if args[0] == "gen" else []))
        assert first == second, f"stdout differs for {args[0]}"
        if args[0] == "gen":
            assert out1.read_bytes() == out2.read_bytes()
    print(f"criterion 8: PASS  {len(commands)}/9 subcommands byte-identical")
