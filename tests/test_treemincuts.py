"""Guided single-source min-cut search: soundness, completeness, bookkeeping.

The search is randomized.  Soundness (every reported value is a real cut)
must hold on every run; completeness (the value reaches the tree-respecting
optimum) only with high probability, so those batteries assert observed
rates over fixed seeds rather than per-run guarantees.
"""
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ghcut.treemincuts as treemincuts
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
    decompose,
    generate,
    leaf_mincuts,
    random_spanning_tree,
    random_steiner_tree,
    sstcv_verify,
    tree_mincuts,
)
from ghcut.cli import bench_recursion


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

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_rejects_non_integer_terminals(self, bad):
        # CandidateCuts([1.0, True]) used to keep the key 1.0 and answer
        # terminals() == [1.0]
        with pytest.raises(ValueError, match="not an integer"):
            CandidateCuts([bad, 2])
        cuts = CandidateCuts([2])
        with pytest.raises(ValueError, match="not an integer"):
            cuts.ensure([3, bad])
        assert cuts.terminals() == [2]

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_offer_rejects_non_integer_terminals(self, bad):
        # offer(True, 3) used to lower terminal 1's value
        cuts = CandidateCuts([1])
        with pytest.raises(ValueError, match="not an integer"):
            cuts.offer(bad, 3)
        assert cuts.value(1) == math.inf

    @pytest.mark.parametrize("bad", [9, -1, True, 1.0, "1", None])
    def test_lookups_reject_non_terminals(self, bad):
        # value(9) and witness(9) used to raise a bare KeyError, and
        # value(True) answered terminal 1
        cuts = CandidateCuts([1, 2])
        cuts.offer(1, 4, Cut(frozenset({1}), 4))
        with pytest.raises(ValueError, match="not a terminal"):
            cuts.value(bad)
        with pytest.raises(ValueError, match="not a terminal"):
            cuts.witness(bad)


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


@pytest.mark.parametrize("bad", [1.5, True, "2"])
@pytest.mark.parametrize("search", ["tree", "leaf", "sstcv"])
def test_budget_must_be_an_integer(search, bad):
    # on this cycle sstcv_verify(..., k=1.5) used to answer {3: "loose"}
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    tr = SteinerTree(range(4), ((0, 1), (1, 2), (2, 3)), 0)
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        if search == "tree":
            tree_mincuts(g, tr, bad, CandidateCuts([]), "x")
        elif search == "leaf":
            leaf_mincuts(g, tr, bad, CandidateCuts([]), "x")
        else:
            sstcv_verify(g, [3], 0, {3: 2}, [tr], bad, "x")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0, 0.0, -1.0, True, "3", None,
                                 pytest.param(10**400, id="10**400"), 1e308])
@pytest.mark.parametrize("search", ["tree", "leaf", "sstcv", "bench"])
@pytest.mark.parametrize("k", [1, 2])
def test_reps_coeff_must_be_positive_and_finite(k, search, bad):
    # inf used to raise OverflowError and nan, "3" or None a TypeError or
    # a float conversion error, -1.0 silently ran one round, and at k=1
    # nothing was checked at all; 10**400 and 1e308 passed the check but
    # overflowed the round count
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    tr = SteinerTree(range(4), ((0, 1), (1, 2), (2, 3)), 0)
    message = f"reps_coeff must be a positive finite number, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        if search == "tree":
            tree_mincuts(g, tr, k, CandidateCuts([]), "x", reps_coeff=bad)
        elif search == "leaf":
            leaf_mincuts(g, tr, k, CandidateCuts([]), "x", reps_coeff=bad)
        elif search == "sstcv":
            sstcv_verify(g, [3], 0, {3: 2}, [tr], k, "x", reps_coeff=bad)
        else:
            bench_recursion([8], k, [0], bad)


@pytest.mark.parametrize("coeff", [1, 0.5, 1e-9])
def test_reps_coeff_accepts_positive_ints_and_floats(coeff):
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    tr = SteinerTree(range(4), ((0, 1), (1, 2), (2, 3)), 0)
    cuts = CandidateCuts([])
    leaf_mincuts(g, tr, 2, cuts, "x", reps_coeff=coeff)
    assert cuts.values == {1: 2, 2: 2, 3: 2}


@pytest.mark.parametrize("bad", ["2", 2.0, True, None])
def test_sstcv_estimates_must_be_integers(bad):
    # an estimate of "2" used to be reported "loose" on this cycle
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    tr = SteinerTree(range(4), ((0, 1), (1, 2), (2, 3)), 0)
    with pytest.raises(ValueError, match=f"estimate {bad!r} for terminal 3"):
        sstcv_verify(g, [3], 0, {3: bad}, [tr], 1, 0)
    assert sstcv_verify(g, [3], 0, {3: 2}, [tr], 1, 0) == {3: "tight"}


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


def test_children_are_contracted_once_per_call(monkeypatch):
    # Pruning rounds revisit the same children and repeat the same flows.
    # Each (parent graph, merged group) pair must be contracted only once
    # per call, no flow, multi-sink flow or isolating call may repeat its
    # (graph, arguments), and the memo must not change what the search
    # finds.
    g = generate("erdos-renyi-weighted", 70, seed=70)
    tr = random_spanning_tree(g, 0, random.Random("memo|70"))
    real_contract, real_child = treemincuts.contract, treemincuts._child
    wrapped = ("_isolating_cuts", "max_flow", "max_flow_multi")
    real = {name: getattr(treemincuts, name) for name in wrapped}
    outputs = []
    for stats in (None, RecursionStats()):
        pairs = []
        calls = []
        children = [0]

        def counted(name):
            def wrapper(h, *args):
                calls.append((name, h.n, h.edges, args))
                return real[name](h, *args)
            return wrapper

        def counted_contract(h, groups):
            pairs.append((h.n, h.edges, frozenset(groups[0])))
            return real_contract(h, groups)

        def counted_child(*args, **kwargs):
            children[0] += 1
            return real_child(*args, **kwargs)

        monkeypatch.setattr(treemincuts, "contract", counted_contract)
        monkeypatch.setattr(treemincuts, "_child", counted_child)
        for name in wrapped:
            monkeypatch.setattr(treemincuts, name, counted(name))
        cuts = CandidateCuts([])
        tree_mincuts(g, tr, 2, cuts, "memo", stats)
        assert len(set(pairs)) == len(pairs)
        assert len(set(calls)) == len(calls)
        # the instance does repeat children, and the isolating and
        # multi-sink calls run on the full graph too, so the memo is
        # exercised at the input's own size
        assert children[0] > len(pairs) > 0
        for name in wrapped:
            assert any(c[0] == name for c in calls), name
        assert {c[0] for c in calls if c[1] == g.n} == {"_isolating_cuts", "max_flow_multi"}
        outputs.append((cuts.values, cuts.witnesses))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("leaf", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_children_keep_only_the_centroid_of_the_merged_set(monkeypatch, k, leaf):
    # `_child` lifts each child terminal back onto the one kept vertex that
    # maps to it, which needs every call's kept and merged sets to share
    # exactly one vertex: the centroid of the tree being split.  The merged
    # set arrives as a bitmask of the parent graph's vertices.
    rng = random.Random(f"overlap|{k}|{leaf}")
    n = 40
    g = generate("erdos-renyi-weighted", n, seed=40 + k)
    verts = rng.sample(range(n), 30)
    tr = _leaf_tree(verts, rng) if leaf else random_steiner_tree(verts, verts[0], rng)
    real_child = treemincuts._child
    shared = []

    def checked_child(rec, h, tree, k, cuts, seed, cfg, merge, keep, *extra):
        merged = {v for v in range(h.n) if merge >> v & 1}
        shared.append((merged & set(keep), decompose(tree).centroid))
        return real_child(rec, h, tree, k, cuts, seed, cfg, merge, keep, *extra)

    monkeypatch.setattr(treemincuts, "_child", checked_child)
    fn = leaf_mincuts if leaf else tree_mincuts
    fn(g, tr, k, CandidateCuts([]), "overlap", RecursionStats(), reps_coeff=1.0)
    assert shared
    for both, c in shared:
        assert both == {c}


def test_budget_one_children_run_once_per_call(monkeypatch):
    # A budget-1 child draws no random numbers, so its answer depends on
    # the instance alone: no (procedure, graph, tree, supernodes) entered
    # from `_child` at k=1 may be recursed into twice within one call.
    g = generate("erdos-renyi-weighted", 48, seed=48)
    tr = random_spanning_tree(g, 0, random.Random("once|48"))
    real = {name: getattr(treemincuts, name) for name in ("_tree_rec", "_leaf_rec")}
    entered = []

    def recording(name):
        def wrapper(h, tree, k, cuts, seed, cfg):
            if k == 1 and sys._getframe(1).f_code.co_name == "_child":
                entered.append((name, h, tree, cfg.supernodes))
            return real[name](h, tree, k, cuts, seed, cfg)
        return wrapper

    for name in real:
        monkeypatch.setattr(treemincuts, name, recording(name))
    for k in (2, 3):
        for stats in (None, RecursionStats()):
            entered.clear()
            tree_mincuts(g, tr, k, CandidateCuts([]), f"once{k}", stats, reps_coeff=1.0)
            assert {e[0] for e in entered} == set(real)
            assert len(set(entered)) == len(entered)


# recorded before repeated rounds were replayed
REPLAYED_STATS = {
    False: {
        "leaf": {
            "1": {"calls": 289, "vertices": 3159, "tree_vertices": 1600, "edges": 4246},
            "2": {"calls": 13, "vertices": 127, "tree_vertices": 76, "edges": 145},
        },
        "tree": {
            "1": {"calls": 124, "vertices": 1200, "tree_vertices": 956, "edges": 1468},
            "2": {"calls": 7, "vertices": 64, "tree_vertices": 64, "edges": 77},
        },
    },
    True: {
        "leaf": {
            "1": {"calls": 271, "vertices": 2058, "tree_vertices": 1718, "edges": 1946},
            "2": {"calls": 13, "vertices": 95, "tree_vertices": 95, "edges": 90},
        },
        "tree": {
            "1": {"calls": 14, "vertices": 119, "tree_vertices": 78, "edges": 127},
        },
    },
}


@pytest.mark.parametrize("leaf", [False, True])
def test_repeated_pruning_rounds_are_replayed(monkeypatch, leaf):
    # On a path from the source the centroid has one side tree, so the
    # k=2 pruning loop draws one of two trees in each of its 13 rounds.
    # Budget-1 rounds draw no random numbers, so a round that repeats an
    # earlier round's tree in the same loop must not split it again: each
    # loop decomposes and isolates on behalf of each procedure at most
    # once per distinct tree, that is at most 2 ** parts times, while
    # the stats still count every round.
    n = 20
    g = generate("erdos-renyi-weighted", n, seed=20)
    path = random.Random("replay|20").sample(range(n), n)
    tr = SteinerTree(path, list(zip(path, path[1:])), path[0])
    real = {name: getattr(treemincuts, name) for name in ("decompose", "_isolate")}
    loops = {}  # loop frame -> (is the top-level loop, rounds, prunable parts)
    calls = {}  # (loop frame, wrapped name, calling function) -> calls

    def counted(name):
        def wrapper(*args):
            # the loop this call works for, unless it is a child's own work
            frame = sys._getframe(1)
            caller = frame.f_code.co_name
            while frame and frame.f_code.co_name not in ("_child", "_prune_rounds"):
                frame = frame.f_back
            if frame and frame.f_code.co_name == "_prune_rounds" and frame.f_locals["k"] == 2:
                loop = frame.f_locals
                loops[frame] = (loop["tree"] is tr, loop["rounds"], len(loop["parts"]))
                key = (frame, name, caller)
                calls[key] = calls.get(key, 0) + 1
            return real[name](*args)
        return wrapper

    for name in real:
        monkeypatch.setattr(treemincuts, name, counted(name))
    stats = RecursionStats()
    fn = leaf_mincuts if leaf else tree_mincuts
    fn(g, tr, 2, CandidateCuts([]), "replay", stats)
    assert (True, 13, 1) in loops.values()
    for (frame, _, _), count in calls.items():
        assert count <= 2 ** loops[frame][2]
    assert stats.as_dict() == REPLAYED_STATS[leaf]


@pytest.mark.parametrize("leaf", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_untracked_runs_find_the_tracked_values(k, leaf):
    # The memo keeps witnesses only when the table tracks them, and keys
    # supernodes only when stats are kept; neither may change a value.
    rng = random.Random(f"untracked|{k}|{leaf}")
    n = 36
    g = generate("erdos-renyi-weighted", n, seed=k)
    verts = rng.sample(range(n), 24)
    tr = _leaf_tree(verts, rng) if leaf else random_steiner_tree(verts, verts[0], rng)
    fn = leaf_mincuts if leaf else tree_mincuts
    values, totals = [], []
    for track in (True, False):
        for stats in (RecursionStats(), None):
            cuts = CandidateCuts([], track_witnesses=track)
            fn(g, tr, k, cuts, "untracked", stats, reps_coeff=2.0)
            values.append(cuts.values)
            if stats is not None:
                totals.append(stats.as_dict())
            for t, w in cuts.witnesses.items():
                if track:
                    assert cut_value(g, w.side) == w.value == cuts.value(t)
                else:
                    assert w is None
    assert all(v == values[0] for v in values)
    assert all(math.isfinite(v) for v in values[0].values())
    assert totals[0] == totals[1]


def _leaf_tree(verts, rng):
    s = verts[0]
    spine = random_steiner_tree(verts[1:], verts[1], rng)
    return SteinerTree(verts, list(spine.edges) + [(s, rng.choice(verts[1:]))], s)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 60), seed=st.integers(0, 2**32), k=st.integers(1, 2),
       leaf=st.booleans())
def test_lifted_witnesses_are_real_cuts_against_networkx(n, seed, k, leaf):
    # Past the brute-force oracles' reach: every finite value comes with a
    # witness that is a real (s, t)-cut of the input graph, of that value,
    # and no lighter than the true minimum cut.
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    g = generate("erdos-renyi-weighted", n, seed=seed)
    verts = rng.sample(range(n), rng.randint(min(n, 7), n))
    s = verts[0]
    tr = _leaf_tree(verts, rng) if leaf else random_steiner_tree(verts, s, rng)
    cuts = CandidateCuts([])
    fn = leaf_mincuts if leaf else tree_mincuts
    fn(g, tr, k, cuts, seed, reps_coeff=1.0)

    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_weighted_edges_from(g.edges, weight="capacity")
    for t in verts[1:]:
        value = cuts.value(t)
        assert value < math.inf
        wit = cuts.witness(t)
        assert t in wit.side and s not in wit.side
        assert cut_value(g, wit.side) == wit.value == value
        assert value >= nx.minimum_cut_value(nxg, s, t)
