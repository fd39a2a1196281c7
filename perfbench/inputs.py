"""Seeded benchmark inputs and their file formats.

Nothing here imports ghcut: the workloads hand the program only the files
written by this module, and the reference checker reads the same files
back with its own parser, so a change to the program's generators or
readers cannot change what is measured or what it is checked against.
"""
from __future__ import annotations

import json
import math
import random


def er_graph(n: int, p: float | None, rng: random.Random) -> list[tuple[int, int, int]]:
    """Weighted Erdos-Renyi edges, repaired to be connected.

    The same model as the program's `erdos-renyi-weighted` kind: every pair
    is kept with probability p (default (ln n + 2)/n) and weighted uniformly
    in [1, 10]; consecutive components are then joined by one random edge
    each until the graph is connected.
    """
    if p is None:
        p = min(1.0, (math.log(n) + 2.0) / n)
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges[(u, v)] = rng.randint(1, 10)
    while True:
        comps = components(n, edges)
        if len(comps) == 1:
            return [(u, v, w) for (u, v), w in sorted(edges.items())]
        for a, b in zip(comps, comps[1:]):
            u, v = sorted((rng.choice(a), rng.choice(b)))
            edges[(u, v)] = edges.get((u, v), 0) + rng.randint(1, 10)


def components(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for v in adj[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def dfs_spanning_tree(n: int, edges, source: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random depth-first spanning tree: from the top of the stack, step to
    a uniformly chosen unvisited neighbour."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {source}
    stack = [source]
    tree = []
    while stack:
        u = stack[-1]
        nxt = [v for v in adj[u] if v not in seen]
        if not nxt:
            stack.pop()
            continue
        v = nxt[rng.randrange(len(nxt))]
        seen.add(v)
        tree.append((u, v))
        stack.append(v)
    if len(seen) != n:
        raise ValueError("graph is not connected")
    return tree


def write_dimacs(path, n: int, edges) -> None:
    lines = [f"p {n} {len(edges)}"] + [f"e {u} {v} {w}" for u, v, w in edges]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dimacs(path) -> tuple[int, list[tuple[int, int, int]]]:
    n = None
    edges = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            f = line.split()
            if f and f[0] == "p":
                n = int(f[1])
            elif f and f[0] == "e":
                edges.append((int(f[1]), int(f[2]), int(f[3])))
    if n is None:
        raise ValueError(f"{path}: no 'p' header")
    return n, edges


def write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)
