"""Reference checks of every recorded output, computed without ghcut.

Values come from networkx (Gomory-Hu trees and minimum cuts with
Edmonds-Karp, Stoer-Wagner global cuts) or from properties every correct
output must have (a witness is a cut of the stated weight), never from a
stored copy of an earlier run.  Each `check_*` function takes plain data
and returns a list of problems, empty when everything holds; `check_run`
reads a finished run's files and dispatches.
"""
from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

import inputs

# Share of eligible sst-guided terminals whose value must equal the true
# minimum cut.  Eligible terminals have a minimum cut crossing at most k
# guide-tree edges, which the search finds with high probability; the
# program's own acceptance battery holds the default repetition
# coefficient to the same 95%.
SST_EXACT_SHARE = 0.95


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        g.add_edge(u, v, capacity=w)
    return g


def path_minima(n: int, tree_edges, sources=None) -> dict[int, list[int]]:
    """Lightest edge on every tree path, one row per source vertex."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in tree_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = {}
    for s in range(n) if sources is None else sources:
        row = [-1] * n
        row[s] = 0
        stack = [(s, None)]
        while stack:
            u, best = stack.pop()
            for v, w in adj[u]:
                if row[v] == -1:
                    m = w if best is None or w < best else best
                    row[v] = m
                    stack.append((v, m))
        rows[s] = row
    return rows


def reference_gh(n: int, edges) -> list[tuple[int, int, int]]:
    t = nx.gomory_hu_tree(nx_graph(n, edges), capacity="capacity", flow_func=edmonds_karp)
    return [(u, v, d["weight"]) for u, v, d in t.edges(data=True)]


def tree_problem(n: int, parent, weight) -> str | None:
    if len(parent) != n or len(weight) != n or parent[0] != -1:
        return f"not a rooted tree on {n} vertices"
    for v in range(1, n):
        if not 0 <= parent[v] < n or weight[v] < 1:
            return f"vertex {v} has parent {parent[v]} and weight {weight[v]}"
    rows = path_minima(n, [(parent[v], v, 1) for v in range(1, n)], [0])
    if -1 in rows[0][1:]:
        return "parent pointers do not connect every vertex to the root"
    return None


def check_gh_build(graphs: dict[int, tuple[int, list]], builds: list[dict]) -> list[str]:
    """Every pair's tree value equals networkx's Gomory-Hu tree, and the
    lightest tree edge equals the Stoer-Wagner global minimum cut."""
    problems = []
    refs = {}
    verdicts: dict[tuple, list[str]] = {}
    for b in builds:
        j = b["graph"]
        n, edges = graphs[j]
        key = (j, tuple(b["parent"]), tuple(b["weight"]))
        if key not in verdicts:
            if j not in refs:
                refs[j] = (path_minima(n, reference_gh(n, edges)),
                           nx.stoer_wagner(nx_graph(n, edges), weight="capacity")[0])
            ref, global_cut = refs[j]
            found = []
            bad = tree_problem(n, b["parent"], b["weight"])
            if bad:
                found.append(bad)
            else:
                got = path_minima(n, [(b["parent"][v], v, b["weight"][v]) for v in range(1, n)])
                for a in range(n):
                    if got[a] != ref[a]:
                        c = next(c for c in range(n) if got[a][c] != ref[a][c])
                        found.append(f"pair ({a},{c}): tree {got[a][c]}, networkx {ref[a][c]}")
                        break
                lightest = min(b["weight"][1:])
                if lightest != global_cut:
                    found.append(f"lightest edge {lightest}, Stoer-Wagner {global_cut}")
            verdicts[key] = found
        problems += [f"gh-build op {b['op']} graph {j}: {p}" for p in verdicts[key]]
    return problems


def check_sst(graphs: dict[int, tuple[int, list]], trees: list[dict], k: int,
              results: list[dict]) -> tuple[list[str], dict[str, int]]:
    """Per terminal: the witness holds the terminal and not the source, its
    weight is the reported value, and the value is at least lambda(s, t).
    Across terminals: enough of those whose networkx minimum cut crosses at
    most k guide-tree edges get exactly lambda."""
    problems = []
    mincut: dict[tuple[int, int, int], tuple[int, frozenset]] = {}
    eligible = exact = 0
    for r in results:
        tree = trees[r["op"]]
        j, s = tree["graph"], tree["source"]
        n, edges = graphs[j]
        g = None
        values = {int(t): v for t, v in r["values"].items()}
        sides = {int(t): w for t, w in r["witnesses"].items()}
        where = f"sst-guided op {r['op']} graph {j}"
        if set(values) != set(range(n)) - {s}:
            problems.append(f"{where}: terminals {sorted(values)[:5]}... are not every vertex but the source")
        for t in sorted(values):
            value, side = values[t], sides.get(t)
            if value is None or side is None:
                problems.append(f"{where} terminal {t}: no value or no witness")
                continue
            side = frozenset(side)
            if t not in side or s in side or not side <= set(range(n)):
                problems.append(f"{where} terminal {t}: witness does not separate it from the source")
                continue
            weight = sum(w for u, v, w in edges if (u in side) != (v in side))
            if weight != value:
                problems.append(f"{where} terminal {t}: value {value}, witness weighs {weight}")
            if (j, s, t) not in mincut:
                if g is None:
                    g = nx_graph(n, edges)
                lam, (_, t_side) = nx.minimum_cut(g, s, t, capacity="capacity", flow_func=edmonds_karp)
                mincut[j, s, t] = (lam, frozenset(t_side))
            lam, t_side = mincut[j, s, t]
            if value < lam:
                problems.append(f"{where} terminal {t}: value {value} below lambda {lam}")
            if sum((u in t_side) != (v in t_side) for u, v in tree["edges"]) <= k:
                eligible += 1
                exact += value == lam
    if eligible == 0 or exact < SST_EXACT_SHARE * eligible:
        problems.append(f"sst-guided: {exact} of {eligible} terminals with a minimum cut crossing "
                        f"at most {k} tree edges are exact, below {SST_EXACT_SHARE:.0%}")
    return problems, {"eligible": eligible, "exact": exact}


def _records(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def check_run(workload: str, work: Path, completed: list[int]) -> tuple[list[str], dict]:
    """Check the files a finished run left in `work`.  `completed` holds the
    indices of the operations that did not fail."""
    info: dict = {}
    records = _records(work / "outputs.jsonl")
    problems = []
    if [r["op"] for r in records] != completed:
        problems.append(f"{workload}: recorded outputs do not match the completed operations")
    if workload == "gh-build":
        graphs = {b["graph"]: inputs.read_dimacs(work / f"graph{b['graph']}.dimacs") for b in records}
        problems += check_gh_build(graphs, records)
    elif workload == "sst-guided":
        spec = inputs.read_json(work / "trees.json")
        used = {spec["trees"][r["op"]]["graph"] for r in records}
        graphs = {j: inputs.read_dimacs(work / f"graph{j}.dimacs") for j in used}
        found, info = check_sst(graphs, spec["trees"], spec["k"], records)
        problems += found
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems, info
