"""Guided single-source min-cut search: soundness, completeness, bookkeeping.

The search is randomized.  Soundness (every reported value is a real cut)
must hold on every run; completeness (the value reaches the tree-respecting
optimum) only with high probability, so those batteries assert observed
rates over fixed seeds rather than per-run guarantees.
"""
import math
import random

import pytest

from ghcut import (
    CandidateCuts,
    Cut,
    Graph,
    RecursionStats,
    SteinerTree,
    brute_leaf_respecting_min_cut,
    brute_min_cut,
    brute_respecting_min_cut,
    cut_value,
    generate,
    leaf_mincuts,
    random_steiner_tree,
    sstcv_verify,
    tree_mincuts,
)


def tree_instance(inst, leaf_source=False):
    rng = random.Random(f"tmc|{inst}|{leaf_source}")
    n = rng.randint(5, 10)
    g = generate(
        rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]),
        n,
        seed=inst,
    )
    nt = rng.randint(4, min(7, n))
    verts = rng.sample(range(n), nt)
    s = verts[0]
    if leaf_source:
        spine = random_steiner_tree(verts[1:], verts[1], rng)
        tr = SteinerTree(verts, list(spine.edges) + [(s, rng.choice(verts[1:]))], s)
    else:
        tr = random_steiner_tree(verts, s, rng)
    return g, tr, s


class TestCandidateCuts:
    def test_offer_only_improves(self):
        cuts = CandidateCuts([1, 2])
        assert cuts.value(1) == math.inf
        assert cuts.offer(1, 10, Cut(frozenset({1}), 10))
        assert not cuts.offer(1, 10)
        assert not cuts.offer(1, 12)
        assert cuts.offer(1, 9, Cut(frozenset({1, 2}), 9))
        assert cuts.value(1) == 9
        assert cuts.witness(1) == Cut(frozenset({1, 2}), 9)

    def test_unknown_terminal_ignored(self):
        cuts = CandidateCuts([1])
        assert not cuts.offer(17, 3)
        assert cuts.terminals() == [1]

    def test_ensure_adds_without_clobbering(self):
        cuts = CandidateCuts([1])
        cuts.offer(1, 5)
        cuts.ensure([1, 2])
        assert cuts.value(1) == 5
        assert cuts.value(2) == math.inf

    def test_witness_tracking_disabled(self):
        cuts = CandidateCuts([1], track_witnesses=False)
        cuts.offer(1, 4, Cut(frozenset({1}), 4))
        assert cuts.witness(1) is None
        assert cuts.value(1) == 4


class TestRecursionStats:
    def test_record_and_totals(self):
        st = RecursionStats()
        st.record("tree", 2, 10, 5, 9)
        st.record("tree", 2, 6, 3, 4)
        st.record("leaf", 1, 4, 2, 2)
        assert st.rows[("tree", 2)] == [2, 16, 8, 13]
        assert st.totals() == {
            "calls": 3,
            "vertices": 20,
            "tree_vertices": 10,
            "edges": 15,
        }
        d = st.as_dict()
        assert d["tree"]["2"]["vertices"] == 16
        assert d["leaf"]["1"]["calls"] == 1


def test_budget_zero_is_noop():
    g, tr, s = tree_instance(0)
    cuts = CandidateCuts([])
    stats = RecursionStats()
    tree_mincuts(g, tr, 0, cuts, "seed", stats)
    assert all(cuts.value(t) == math.inf for t in tr.vertices if t != s)
    # the top call still records itself before bailing
    assert stats.totals()["calls"] == 1
    assert stats.rows[("tree", 0)][1] == g.n


def test_base_case_is_exact():
    rng = random.Random("base")
    for inst in range(20):
        n = rng.randint(4, 10)
        g = generate("erdos-renyi-weighted", n, seed=40 + inst)
        nt = rng.randint(2, 4)
        verts = rng.sample(range(n), nt)
        tr = random_steiner_tree(verts, verts[0], rng)
        cuts = CandidateCuts([])
        tree_mincuts(g, tr, rng.randint(1, 3), cuts, f"b{inst}")
        for t in verts[1:]:
            assert cuts.value(t) == brute_min_cut(g, verts[0], t).value


def test_two_vertex_leaf_tree_is_exact():
    g = generate("clique", 6, seed=9)
    tr = SteinerTree((1, 4), ((1, 4),), 1)
    cuts = CandidateCuts([])
    leaf_mincuts(g, tr, 3, cuts, "two")
    assert cuts.value(4) == brute_min_cut(g, 1, 4).value


def test_soundness_every_value_is_a_real_cut():
    # unconditional: holds for every seed, not just most
    for inst in range(12):
        g, tr, s = tree_instance(inst)
        for k in (1, 2, 3):
            cuts = CandidateCuts([])
            tree_mincuts(g, tr, k, cuts, f"sound{inst}|{k}")
            for t in tr.vertices:
                if t == s:
                    continue
                v = cuts.value(t)
                w = cuts.witness(t)
                assert v >= brute_min_cut(g, s, t).value
                if v != math.inf:
                    assert w is not None
                    assert t in w.side and s not in w.side
                    assert cut_value(g, w.side) == v == w.value


def test_tree_sandwich_battery():
    runs = 0
    clean_default = 0
    clean_doubled = 0
    for inst in range(40):
        g, tr, s = tree_instance(inst)
        k = 2 + inst % 3
        bounds = {
            t: (
                brute_min_cut(g, s, t).value,
                brute_respecting_min_cut(g, tr, s, t, k).value,
            )
            for t in tr.vertices
            if t != s
        }
        for coeff, bucket in ((3.0, "d"), (6.0, "x")):
            cuts = CandidateCuts([])
            tree_mincuts(g, tr, k, cuts, f"sw{inst}", reps_coeff=coeff)
            ok = True
            for t, (lo, hi) in bounds.items():
                assert cuts.value(t) >= lo
                ok = ok and cuts.value(t) <= hi
            if bucket == "d":
                runs += 1
                clean_default += ok
            else:
                clean_doubled += ok
    assert clean_default / runs >= 0.95
    assert clean_doubled == runs


def test_leaf_sandwich_battery():
    runs = 0
    clean_default = 0
    clean_doubled = 0
    for inst in range(40):
        g, tr, s = tree_instance(inst, leaf_source=True)
        k = 2 + inst % 3
        bounds = {
            t: (
                brute_min_cut(g, s, t).value,
                brute_leaf_respecting_min_cut(g, tr, s, t, k).value,
            )
            for t in tr.vertices
            if t != s
        }
        for coeff, bucket in ((3.0, "d"), (6.0, "x")):
            cuts = CandidateCuts([])
            leaf_mincuts(g, tr, k, cuts, f"lw{inst}", reps_coeff=coeff)
            ok = True
            for t, (lo, hi) in bounds.items():
                assert cuts.value(t) >= lo
                ok = ok and cuts.value(t) <= hi
            if bucket == "d":
                runs += 1
                clean_default += ok
            else:
                clean_doubled += ok
    assert clean_default / runs >= 0.95
    assert clean_doubled == runs


def test_every_terminal_gets_a_finite_value():
    for inst in range(10):
        g, tr, s = tree_instance(inst)
        cuts = CandidateCuts([])
        tree_mincuts(g, tr, 2, cuts, f"fin{inst}")
        assert all(cuts.value(t) < math.inf for t in tr.vertices if t != s)


def test_monotone_in_budget():
    # same seed, growing k: coverage only widens on this fixed battery
    for inst in range(25):
        g, tr, s = tree_instance(inst)
        prev = None
        for k in (1, 2, 3, 4):
            cuts = CandidateCuts([])
            tree_mincuts(g, tr, k, cuts, f"mono{inst}")
            cur = {t: cuts.value(t) for t in tr.vertices if t != s}
            if prev is not None:
                for t in cur:
                    assert cur[t] <= prev[t]
            prev = cur


def test_collapse_when_tree_respects_a_min_cut():
    # build the tree from an optimal side: spanning star on each half plus
    # one bridge, so exactly one tree edge crosses that min cut
    hits = 0
    total = 0
    for inst in range(30):
        rng = random.Random(f"collapse|{inst}")
        n = rng.randint(6, 11)
        g = generate("erdos-renyi-weighted", n, seed=60 + inst)
        s, t = rng.sample(range(n), 2)
        lam = brute_min_cut(g, s, t)
        side = lam.minimal_side()
        inside = sorted(side)
        outside = sorted(set(range(n)) - side)
        edges = [(t, v) for v in inside if v != t]
        edges += [(s, v) for v in outside if v != s]
        edges.append((s, t))
        tr = SteinerTree(range(n), edges, s)
        cuts = CandidateCuts([])
        tree_mincuts(g, tr, 2, cuts, f"c{inst}")
        total += 1
        hits += cuts.value(t) == lam.value
    assert hits / total >= 0.95


def test_determinism_same_seed():
    g, tr, s = tree_instance(7)
    a = CandidateCuts([])
    b = CandidateCuts([])
    tree_mincuts(g, tr, 3, a, "same")
    tree_mincuts(g, tr, 3, b, "same")
    assert a.values == b.values
    assert a.witnesses == b.witnesses


def test_rng_accepts_random_instance():
    # a Random seed works, and keeping stats changes no value or witness
    for fn, leaf in ((tree_mincuts, False), (leaf_mincuts, True)):
        g, tr, s = tree_instance(3, leaf_source=leaf)
        a = CandidateCuts([])
        b = CandidateCuts([])
        fn(g, tr, 2, a, random.Random(123), stats=None)
        fn(g, tr, 2, b, random.Random(123), stats=RecursionStats())
        assert a.values == b.values
        assert a.witnesses == b.witnesses

    g, tr, s = tree_instance(4)
    guides = [tr, random_steiner_tree(tr.vertices, s, random.Random(4))]
    terminals = [t for t in tr.vertices if t != s]
    estimates = {t: brute_min_cut(g, s, t).value for t in terminals}
    verdicts = [
        sstcv_verify(g, terminals, s, estimates, guides, 2, random.Random(7), stats=st)
        for st in (None, RecursionStats())
    ]
    assert verdicts[0] == verdicts[1]


def test_stats_accumulate_per_level():
    g, tr, s = tree_instance(5)
    stats = RecursionStats()
    cuts = CandidateCuts([])
    tree_mincuts(g, tr, 3, cuts, "stats", stats)
    assert ("tree", 3) in stats.rows
    assert stats.rows[("tree", 3)][0] == 1
    total = stats.totals()
    assert total["calls"] == sum(r[0] for r in stats.rows.values())
    assert total["vertices"] >= g.n
    # no row may claim more tree vertices than instance vertices
    for (proc, k), (calls, sn, st_, sm) in stats.rows.items():
        assert 0 <= st_ <= sn


def test_leaf_requires_leaf_source():
    g = generate("clique", 5, seed=0)
    tr = SteinerTree((0, 1, 2), ((0, 1), (0, 2)), 0)
    with pytest.raises(ValueError):
        leaf_mincuts(g, tr, 2, CandidateCuts([]), "x")


def test_validation_errors():
    g = generate("clique", 4, seed=0)
    tr = SteinerTree((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)), 0)
    with pytest.raises(ValueError):
        tree_mincuts(g, tr, -1, CandidateCuts([]), "x")
    small = Graph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        tree_mincuts(small, tr, 2, CandidateCuts([]), "x")


class TestSstcv:
    def test_exact_estimates_all_tight(self):
        # tiny terminal sets drop straight into the exact base case
        g = generate("erdos-renyi-weighted", 7, seed=21)
        s = 0
        terms = [2, 5, 6]
        tr = random_steiner_tree([s] + terms, s, random.Random("sst0"))
        est = {t: brute_min_cut(g, s, t).value for t in terms}
        out = sstcv_verify(g, terms, s, est, [tr], 3, "v0")
        assert out == {t: "tight" for t in terms}

    def test_inflated_estimate_reported_loose(self):
        g = generate("erdos-renyi-weighted", 8, seed=22)
        s, t = 1, 6
        lam = brute_min_cut(g, s, t)
        side = lam.minimal_side()
        edges = [(t, v) for v in sorted(side) if v != t]
        edges += [(s, v) for v in sorted(set(range(8)) - side) if v != s]
        edges.append((s, t))
        tr = SteinerTree(range(8), edges, s)
        hi = brute_respecting_min_cut(g, tr, s, t, 2)
        assert hi.value == lam.value
        est = {v: brute_min_cut(g, s, v).value for v in range(8) if v != s}
        est[t] = lam.value + 1
        out = sstcv_verify(g, [v for v in range(8) if v != s], s, est, [tr], 2, "v1")
        assert out[t] == "loose"

    def test_report_matches_direct_comparison(self):
        g = generate("erdos-renyi-weighted", 9, seed=23)
        s = 4
        rng = random.Random("sst2")
        terms = [v for v in range(9) if v != s]
        trees = [
            random_steiner_tree(range(9), s, rng),
            random_steiner_tree(range(9), s, rng),
        ]
        lam = {t: brute_min_cut(g, s, t).value for t in terms}
        est = dict(lam)
        est[1] += 2
        est[7] += 1
        out = sstcv_verify(g, terms, s, est, trees, 4, "v2", reps_coeff=6.0)
        for t in terms:
            want = "tight" if est[t] == lam[t] else "loose"
            assert out[t] == want

    def test_validation(self):
        g = generate("clique", 5, seed=1)
        tr = random_steiner_tree(range(5), 0, random.Random(0))
        with pytest.raises(ValueError):
            sstcv_verify(g, [], 0, {}, [tr], 2, "x")
        with pytest.raises(ValueError):
            sstcv_verify(g, [1], 0, {1: 3}, [], 2, "x")
        with pytest.raises(ValueError):
            sstcv_verify(g, [1], 2, {1: 3}, [tr], 2, "x")
        short = SteinerTree((0, 1), ((0, 1),), 0)
        with pytest.raises(ValueError):
            sstcv_verify(g, [1, 3], 0, {1: 3, 3: 4}, [short], 2, "x")
        with pytest.raises(ValueError):
            sstcv_verify(g, [1, 3], 0, {1: 3}, [tr], 2, "x")


def test_centroid_side_terminals_regression():
    # These path-tree instances once had a terminal whose only optimal
    # respecting cut keeps the centroid on the terminal side; every phase
    # used to hide that shape inside a source supernode, leaving the value
    # strictly above the oracle bound on every rerun.  Fixed-seed runs must
    # now land inside the sandwich for every terminal.
    for inst in (9, 45, 49, 56, 100, 110, 138):
        rng = random.Random(f"gap|{inst}")
        n = rng.randint(6, 11)
        kind = rng.choice(["erdos-renyi-weighted", "planted-cut", "clique"])
        g = generate(kind, n, seed=2000 + inst)
        nt = rng.randint(5, min(9, n))
        verts = rng.sample(range(n), nt)
        s = verts[0]
        rest = verts[1:]
        rng.shuffle(rest)
        seq = [s] + rest
        tr = SteinerTree(
            verts, [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)], s
        )
        k = rng.choice([2, 3])
        cuts = CandidateCuts([])
        tree_mincuts(g, tr, k, cuts, f"g{inst}|0", reps_coeff=6.0)
        for t in rest:
            hi = brute_respecting_min_cut(g, tr, s, t, k).value
            lo = brute_min_cut(g, s, t).value
            assert lo <= cuts.value(t) <= hi, (inst, t)


def test_centroid_side_terminals_leaf_regression():
    # Same shape for the leaf-source search: the branch child collapses the
    # centroid into its new source, so the mirrored child must recover cuts
    # that keep the centroid with the terminal.
    for inst in (0, 1, 2, 3, 4):
        rng = random.Random(f"leafgap|{inst}")
        n = rng.randint(6, 11)
        kind = rng.choice(["erdos-renyi-weighted", "planted-cut", "clique"])
        g = generate(kind, n, seed=7000 + inst)
        nt = rng.randint(5, min(9, n))
        verts = rng.sample(range(n), nt)
        s = verts[0]
        rest = verts[1:]
        rng.shuffle(rest)
        shape = rng.random()
        edges = []
        if shape < 0.5:
            seq = [s] + rest
            edges = [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
        else:
            spine_len = rng.randint(2, len(rest))
            spine = rest[:spine_len]
            seq = [s] + spine
            edges = [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
            for v in rest[spine_len:]:
                edges.append((rng.choice(spine), v))
        tr = SteinerTree(verts, edges, s)
        k = rng.choice([2, 3])
        cuts = CandidateCuts([])
        leaf_mincuts(g, tr, k, cuts, f"lg{inst}|0", reps_coeff=6.0)
        for t in rest:
            hi = brute_leaf_respecting_min_cut(g, tr, s, t, k).value
            lo = brute_min_cut(g, s, t).value
            assert lo <= cuts.value(t) <= hi, (inst, t)
