"""Max-flow against the exhaustive oracle, including cut side semantics."""
import random
import sys
import threading

import pytest

import ghcut.maxflow
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
    verify_gomory_hu,
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


def _count_network_builds(monkeypatch) -> list:
    # every residual network built from now on appends its size here
    builds: list = []
    real = ghcut.maxflow.ResidualNetwork

    def counting(n, edges):
        builds.append(n)
        return real(n, edges)

    monkeypatch.setattr(ghcut.maxflow, "ResidualNetwork", counting)
    return builds


def test_kept_network_reused_across_pairs(monkeypatch):
    # two graphs' ordered pairs, twice each, shuffled together: the kept
    # network is both reused and replaced, and each answer must match a
    # fresh graph's and the oracle's
    rng = random.Random("flow-reuse")
    builds = _count_network_builds(monkeypatch)
    for inst in range(8):
        n = rng.randint(4, 10) if inst < 6 else 24
        graphs = [generate(rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]), n,
                           seed=900 + 2 * inst + i) for i in range(2)]
        pairs = [(i, s, t) for i in range(2) for s in range(n) for t in range(n) if s != t] * 2
        rng.shuffle(pairs)
        ref = {(i, s, t): max_flow(Graph(n, graphs[i].edges), s, t) for i, s, t in set(pairs)}
        builds.clear()
        for i, s, t in pairs:
            g = graphs[i]
            res = max_flow(g, s, t)
            assert res == ref[i, s, t]
            if n <= 10:
                ans = brute_min_cut(g, s, t)
                assert res.value == ans.value
                assert res.mincut.side == ans.maximal_side()
        swaps = 1 + sum(a[0] != b[0] for a, b in zip(pairs, pairs[1:]))
        assert len(builds) == swaps < len(pairs)


def test_one_network_per_gusfield_build(monkeypatch):
    # Gusfield's n-1 flows share one network, and the verifier's pairs on
    # the same graph right after reuse it
    g = generate("erdos-renyi-weighted", 40, seed=5)
    builds = _count_network_builds(monkeypatch)
    tree = build_gusfield(g)
    assert builds == [40]
    assert verify_gomory_hu(g, tree) is None
    assert builds == [40]


def test_set_flows_leave_the_kept_network_as_built():
    # set flows solve on a view of the graph's kept network with each set
    # merged into one node; a view that wrote its merging into the network
    # would hand the next flow on the graph another instance
    g = generate("erdos-renyi-weighted", 24, seed=8)
    net = ghcut.maxflow._network(g)
    fresh = ghcut.maxflow.ResidualNetwork(g.n, g.edges)
    for flows in (lambda: max_flow_multi(g, 0, [5, 9, 17]),
                  lambda: isolating_cuts(g, [[0, 1], [6], [11, 12, 13], [20]])):
        flows()
        assert ghcut.maxflow._network(g) is net
        assert (net.to, net.adj, net.cap0) == (fresh.to, fresh.adj, fresh.cap0)
    assert max_flow(g, 5, 0) == max_flow(Graph(g.n, g.edges), 5, 0)


def test_shared_network_under_threads():
    # four threads on two graphs share the kept network and keep replacing
    # it; a solve that wrote into the shared capacities or arc heads, or
    # took another graph's network, would corrupt other threads' answers
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
