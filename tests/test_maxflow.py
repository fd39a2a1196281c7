"""Max-flow against the exhaustive oracle, including cut side semantics."""
import random
import sys
import threading

import pytest

from ghcut import (
    Graph,
    attach_network,
    brute_min_cut,
    build_gusfield,
    contract,
    cut_value,
    generate,
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
        assert res.value == ref.value
        assert set(sinks) <= res.mincut.side
        assert s not in res.mincut.side
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


def test_attached_network_reused_across_pairs():
    # one network serves every ordered pair, twice, in shuffled order; each
    # answer must match a fresh graph (no attached network) and the oracle
    rng = random.Random("flow-reuse")
    for inst in range(8):
        n = rng.randint(4, 10) if inst < 6 else 24
        g = generate(rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]), n, seed=900 + inst)
        attach_network(g)
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t] * 2
        rng.shuffle(pairs)
        for s, t in pairs:
            res = max_flow(g, s, t)
            ref = max_flow(Graph(n, g.edges), s, t)
            assert res == ref
            if n <= 10:
                ans = brute_min_cut(g, s, t)
                assert res.value == ans.value
                assert res.mincut.side == ans.maximal_side()


def test_attaching_network_keeps_identity():
    g = generate("erdos-renyi-weighted", 12, seed=3)
    twin = Graph(g.n, g.edges)
    before = (hash(g), repr(g))
    net = attach_network(g)
    assert attach_network(g) is net
    assert g == twin and twin == g
    assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))
    assert {twin: 1}[g] == 1


def test_shared_network_under_threads():
    # four threads share one graph and its network; a solve that wrote into
    # the shared capacities would corrupt other threads' answers
    g = generate("erdos-renyi-weighted", 30, seed=11)
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t][::7]
    serial_tree = build_gusfield(Graph(g.n, g.edges))
    serial_flows = [max_flow(Graph(g.n, g.edges), s, t) for s, t in pairs]
    results: list = [None] * 4
    errors: list = []

    def work(i):
        try:
            if i % 2:
                results[i] = build_gusfield(g)
            else:
                results[i] = [max_flow(g, s, t) for s, t in pairs]
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
    assert results[1] == results[3] == serial_tree
    assert results[0] == results[2] == serial_flows
