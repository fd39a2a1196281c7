"""The reference checker accepts correct outputs and rejects corrupted ones.

Correct outputs are made here from networkx alone, then corrupted one
value at a time.  Run with `python3 -m pytest perfbench/test_checker.py`
or `python3 perfbench/test_checker.py`.
"""
from __future__ import annotations

import random

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

import checker
import inputs


def small_graph(n: int, seed: str) -> list[tuple[int, int, int]]:
    return inputs.er_graph(n, 0.3, random.Random(seed))


def nx_gh_tree(n: int, edges) -> nx.Graph:
    return nx.gomory_hu_tree(checker.nx_graph(n, edges), capacity="capacity", flow_func=edmonds_karp)


def rooted(tree: nx.Graph) -> tuple[list[int], list[int]]:
    parent, weight = [-1] * len(tree), [0] * len(tree)
    for u, v in nx.bfs_edges(tree, 0):
        parent[v], weight[v] = u, tree[u][v]["weight"]
    return parent, weight


def gh_build_case():
    n = 16
    edges = small_graph(n, "build")
    parent, weight = rooted(nx_gh_tree(n, edges))
    return {0: (n, edges)}, [{"op": 0, "graph": 0, "parent": parent, "weight": weight}]


def sst_case():
    n, s = 12, 0
    edges = small_graph(n, "sst")
    g = checker.nx_graph(n, edges)
    tree_edges = inputs.dfs_spanning_tree(n, edges, s, random.Random("tree"))
    values, witnesses = {}, {}
    for t in range(1, n):
        lam, (_, t_side) = nx.minimum_cut(g, s, t, capacity="capacity", flow_func=edmonds_karp)
        values[str(t)], witnesses[str(t)] = lam, sorted(t_side)
    trees = [{"graph": 0, "source": s, "edges": tree_edges}]
    return {0: (n, edges)}, trees, [{"op": 0, "values": values, "witnesses": witnesses}]


def test_gh_build_accepts_networkx_tree():
    graphs, builds = gh_build_case()
    assert checker.check_gh_build(graphs, builds) == []


def test_gh_build_rejects_a_tree_weight_lowered_by_one():
    graphs, builds = gh_build_case()
    weight = builds[0]["weight"]
    heaviest = max(range(1, len(weight)), key=weight.__getitem__)
    weight[heaviest] -= 1
    problems = checker.check_gh_build(graphs, builds)
    assert problems and "networkx" in problems[0]


def test_sst_accepts_exact_minimum_cuts():
    graphs, trees, results = sst_case()
    problems, info = checker.check_sst(graphs, trees, 2, results)
    assert problems == [] and info["eligible"] > 0


def test_sst_rejects_a_value_below_lambda():
    graphs, trees, results = sst_case()
    results[0]["values"]["5"] -= 1
    problems, _ = checker.check_sst(graphs, trees, 2, results)
    assert any("below lambda" in p for p in problems)


def test_sst_rejects_a_changed_witness_side():
    graphs, trees, results = sst_case()
    n, edges = graphs[0]
    side = set(results[0]["witnesses"]["5"])
    # move one vertex across the cut so that the witness weight changes
    for v in range(1, n):
        moved = side ^ {v}
        if v != 5 and sum(w for a, b, w in edges if (a in moved) != (b in moved)) != results[0]["values"]["5"]:
            break
    results[0]["witnesses"]["5"] = sorted(moved)
    problems, _ = checker.check_sst(graphs, trees, 2, results)
    assert any("witness weighs" in p for p in problems)


def test_sst_rejects_a_witness_holding_the_source():
    graphs, trees, results = sst_case()
    results[0]["witnesses"]["5"].append(0)
    problems, _ = checker.check_sst(graphs, trees, 2, results)
    assert any("does not separate" in p for p in problems)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
