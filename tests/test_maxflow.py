"""Max-flow against the exhaustive oracle, including cut side semantics."""
import random
import sys
import threading

import pytest

import ghcut.graph
from ghcut import (
    Graph,
    brute_min_cut,
    build_gusfield,
    contract,
    cut_value,
    generate,
    isolating_cuts,
    max_flow,
    max_flow_multi,
)


def test_single_edge():
    g = Graph(2, [(0, 1, 7)])
    res = max_flow(g, 0, 1)
    assert res.value == 7
    assert res.mincut.side == frozenset({1})
    assert res.mincut.value == 7


def test_path_bottleneck():
    g = Graph(4, [(0, 1, 9), (1, 2, 2), (2, 3, 8)])
    res = max_flow(g, 0, 3)
    assert res.value == 2
    # residual reachability puts everything behind the bottleneck on the
    # sink side, which is the maximal optimal side
    assert res.mincut.side == frozenset({2, 3})


def test_disconnected_terminals():
    g = Graph(4, [(0, 1, 5), (2, 3, 5)])
    res = max_flow(g, 0, 3)
    assert res.value == 0
    assert res.mincut.side == frozenset({2, 3})


def test_rejects_bad_terminals():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        max_flow(g, 0, 0)
    with pytest.raises(ValueError):
        max_flow(g, 0, 3)
    with pytest.raises(ValueError):
        max_flow(g, -1, 2)


def test_value_matches_oracle_battery():
    rng = random.Random("flow-battery")
    for inst in range(60):
        n = rng.randint(2, 10)
        kind = rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"])
        g = generate(kind, n, seed=inst)
        s, t = rng.sample(range(n), 2)
        res = max_flow(g, s, t)
        ans = brute_min_cut(g, s, t)
        assert res.value == ans.value
        assert t in res.mincut.side and s not in res.mincut.side
        assert cut_value(g, res.mincut.side) == res.value


def test_returned_side_is_maximal_sink_side():
    # the residual construction must yield the complement of the minimal
    # source side on every instance, not just some optimal side
    rng = random.Random("flow-side")
    for inst in range(40):
        n = rng.randint(3, 9)
        g = generate("erdos-renyi-weighted", n, seed=700 + inst)
        s, t = rng.sample(range(n), 2)
        res = max_flow(g, s, t)
        assert res.mincut.side == brute_min_cut(g, s, t).maximal_side()


def test_large_weights():
    big = 2**40
    g = Graph(3, [(0, 1, big), (1, 2, big - 1)])
    assert max_flow(g, 0, 2).value == big - 1


def test_determinism():
    g = generate("erdos-renyi-weighted", 12, seed=8)
    a = max_flow(g, 0, 11)
    b = max_flow(g, 0, 11)
    assert a.value == b.value
    assert a.mincut.side == b.mincut.side


def test_multi_matches_contracted_flow():
    rng = random.Random("multi")
    for inst in range(25):
        n = rng.randint(4, 10)
        g = generate("erdos-renyi-weighted", n, seed=800 + inst)
        sinks = rng.sample(range(n), rng.randint(2, 3))
        s = rng.choice([v for v in range(n) if v not in sinks])
        res = max_flow_multi(g, s, sinks)
        q, cm = contract(g, [sinks])
        ref = max_flow(q, cm.forward[s], cm.forward[sinks[0]])
        assert res.value == res.mincut.value == ref.value
        assert res.mincut.side == cm.lift_side(ref.mincut.side)
        assert cut_value(g, res.mincut.side) == res.value


def test_multi_single_sink_degenerates():
    g = generate("clique", 6, seed=2)
    assert max_flow_multi(g, 0, [4]).value == max_flow(g, 0, 4).value


def test_multi_rejects_source_in_sinks():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        max_flow_multi(g, 1, [1, 2])
    with pytest.raises(ValueError):
        max_flow_multi(g, 0, [])


@pytest.mark.parametrize("sink, match", [
    (1.5, "sink 1.5 is not an integer"),
    (True, "sink True is not an integer"),
    (-1, "sink out of range: -1"),
    (3, "sink out of range: 3"),
])
def test_multi_rejects_malformed_sinks(sink, match):
    # the sinks are checked by max_flow_multi itself, and the error names
    # the offending sink
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match=match):
        max_flow_multi(g, 0, [2, sink])


@pytest.mark.parametrize("s", [-1, 3, 5])
def test_multi_rejects_out_of_range_source(s):
    # -1 must not wrap around to vertex 2, nor 5 escape as an IndexError
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="terminal out of range"):
        max_flow_multi(g, s, [1])


def test_flows_on_two_graphs_interleaved():
    # two graphs' ordered pairs, twice each, shuffled together: each answer
    # must match a fresh graph's and the oracle's
    rng = random.Random("flow-reuse")
    for inst in range(8):
        n = rng.randint(4, 10) if inst < 6 else 24
        graphs = [generate(rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]), n,
                           seed=900 + 2 * inst + i) for i in range(2)]
        pairs = [(i, s, t) for i in range(2) for s in range(n) for t in range(n) if s != t] * 2
        rng.shuffle(pairs)
        ref = {(i, s, t): max_flow(Graph(n, graphs[i].edges), s, t) for i, s, t in set(pairs)}
        for i, s, t in pairs:
            g = graphs[i]
            res = max_flow(g, s, t)
            assert res == ref[i, s, t]
            if n <= 10:
                ans = brute_min_cut(g, s, t)
                assert res.value == ans.value
                assert res.mincut.side == ans.maximal_side()


def test_set_flows_leave_the_graph_arcs_as_built():
    # set flows solve on a view of the graph's arcs with each set merged
    # into one node; a view that wrote its merging into the graph would
    # hand the next flow on it another instance
    g = generate("erdos-renyi-weighted", 24, seed=8)
    fresh = Graph(g.n, g.edges)
    for flows in (lambda: max_flow_multi(g, 0, [5, 9, 17]),
                  lambda: isolating_cuts(g, [[0, 1], [6], [11, 12, 13], [20]])):
        flows()
        assert (g.to, g.adj, g.cap0) == (fresh.to, fresh.adj, fresh.cap0)
    assert max_flow(g, 5, 0) == max_flow(fresh, 5, 0)


def test_arc_ids_shared_under_threads(monkeypatch):
    # graphs draw their arc ids from one shared tuple whose item i is i; a
    # pool that two threads extended at once could repeat a range of ids,
    # and a graph drawn from it would list another edge's arc in some
    # adj[v].  Each round empties the pool, so that it grows while four
    # threads build graphs of growing m
    rng = random.Random("arc-ids")
    n = 40
    raws = [[[(rng.randrange(n), rng.randrange(n), rng.randint(1, 9)) for _ in range(m + i)]
             for m in range(1, 40)] for i in range(4)]
    serial = [[Graph(n, raw) for raw in raw_list] for raw_list in raws]
    results: list = [None] * 4
    errors: list = []

    def work(i):
        try:
            results[i] = [Graph(n, raw) for raw in raws[i]]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            monkeypatch.setattr(ghcut.graph, "_ARC_IDS", ())
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            assert not errors
            for built, ref in zip(results, serial):
                for g, want in zip(built, ref):
                    assert all(g.to[e ^ 1] == v for v in range(n) for e in g.adj[v])
                    assert (g.to, g.cap0, g.adj) == (want.to, want.cap0, want.adj)
    finally:
        sys.setswitchinterval(old)


def test_shared_network_under_threads():
    # four threads solve on two graphs' shared arcs; a solve that wrote
    # into a graph's capacities, arc heads or adjacency would corrupt other
    # threads' answers
    graphs = [generate("erdos-renyi-weighted", 30, seed=seed) for seed in (11, 12)]
    pairs = [(s, t) for s in range(30) for t in range(30) if s != t][::7]
    groups = [[[s], [t], [(s + t) % 30]] for s, t in pairs if (s + t) % 30 not in (s, t)]

    def flows(g):
        return ([max_flow(g, s, t) for s, t in pairs]
                + [max_flow_multi(g, s, [t, (t + 1) % 30]) for s, t in pairs if (t + 1) % 30 != s]
                + [isolating_cuts(g, grps) for grps in groups])

    serial_trees = [build_gusfield(Graph(g.n, g.edges)) for g in graphs]
    serial_flows = [flows(Graph(g.n, g.edges)) for g in graphs]
    results: list = [None] * 4
    errors: list = []

    def work(i):
        g = graphs[i // 2]
        try:
            if i % 2:
                results[i] = build_gusfield(g)
            else:
                results[i] = flows(g)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert results[1::2] == serial_trees
    assert results[0::2] == serial_flows
