"""Gomory-Hu cut trees via Gusfield's construction.

A Gomory-Hu tree stores, in n-1 edges, the minimum cut value of every
vertex pair: the answer for (a, b) is the smallest edge weight on the a-b
tree path.  Gusfield's variant needs no graph contractions, just one
max-flow per non-root vertex, which makes it a clean baseline against the
contraction-heavy machinery elsewhere in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphFormatError, connected_components
from .maxflow import attach_network, max_flow


class GomoryHuTree:
    """Rooted spanning tree over vertex ids 0..n-1 with weighted edges.

    Vertex 0 is the root; every other vertex stores its parent and the
    weight of the edge to it.  parent[0] is -1 by convention.  depth[v] is
    the number of edges from v up to the root.
    """

    __slots__ = ("parent", "weight", "depth")

    def __init__(self, parent: Sequence[int], weight: Sequence[int]):
        parent = tuple(parent)
        weight = tuple(weight)
        n = len(parent)
        if n < 1 or len(weight) != n:
            raise ValueError("parent and weight arrays must have equal positive length")
        if parent[0] != -1:
            raise ValueError("vertex 0 must be the root (parent -1)")
        for v in range(1, n):
            if not (0 <= parent[v] < n):
                raise ValueError(f"vertex {v} has out-of-range parent {parent[v]}")
            if weight[v] < 1:
                raise ValueError(f"vertex {v} has non-positive edge weight {weight[v]}")
        # climbing from every vertex must reach the root: rules out cycles
        depth = [-1] * n
        depth[0] = 0
        for v in range(1, n):
            trail = []
            u = v
            while depth[u] < 0:
                trail.append(u)
                u = parent[u]
                if u < 0 or len(trail) > n:
                    raise ValueError("parent pointers do not form a tree")
            for i, x in enumerate(reversed(trail)):
                depth[x] = depth[u] + i + 1
        self.parent = parent
        self.weight = weight
        self.depth = tuple(depth)

    @property
    def n(self) -> int:
        return len(self.parent)

    def edges(self) -> list[tuple[int, int, int]]:
        """Tree edges as (parent, child, weight) triples, by child id."""
        return [(self.parent[v], v, self.weight[v]) for v in range(1, self.n)]

    def query(self, a: int, b: int) -> int:
        """Minimum cut value between a and b: the lightest tree edge on
        their path."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"vertex out of range: ({a}, {b}) with n={self.n}")
        if a == b:
            raise ValueError("query endpoints must differ")
        parent, weight, depth = self.parent, self.weight, self.depth
        if depth[a] < depth[b]:
            a, b = b, a
        # lift the deeper endpoint to b's depth, then climb both to the
        # common ancestor
        best = None
        while depth[a] > depth[b]:
            w = weight[a]
            if best is None or w < best:
                best = w
            a = parent[a]
        while a != b:
            w = min(weight[a], weight[b])
            if best is None or w < best:
                best = w
            a = parent[a]
            b = parent[b]
        return best

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GomoryHuTree)
            and self.parent == other.parent
            and self.weight == other.weight
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.weight))

    def __repr__(self) -> str:
        return f"GomoryHuTree(n={self.n})"


def build_gusfield(g: Graph) -> GomoryHuTree:
    """Build a Gomory-Hu tree with n-1 max-flow calls and no contractions.

    Every vertex i >= 1 starts parented at 0; step i computes the minimum
    (i, parent)-cut, re-parents later siblings that fall on i's side, and
    when the grandparent falls on i's side as well, i takes its parent's
    place in the tree.  Disconnected graphs are rejected.  The graph's
    residual network is built once and stays attached to `g`.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least two vertices to build a cut tree")
    if len(connected_components(g)) != 1:
        raise ValueError("graph is disconnected; cut tree requires a connected graph")
    parent = [0] * n
    parent[0] = -1
    weight = [0] * n
    attach_network(g)
    for i in range(1, n):
        t = parent[i]
        res = max_flow(g, i, t)
        sink_side = res.mincut.side  # contains t, not i
        weight[i] = res.value
        for j in range(i + 1, n):
            if parent[j] == t and j not in sink_side:
                parent[j] = i
        if t != 0 and parent[t] not in sink_side:
            parent[i] = parent[t]
            parent[t] = i
            weight[i] = weight[t]
            weight[t] = res.value
    return GomoryHuTree(parent, weight)


@dataclass(frozen=True)
class GHViolation:
    """First pair on which a tree disagrees with the graph's cut values."""

    a: int
    b: int
    tree_value: int
    true_value: int


def verify_gomory_hu(g: Graph, tree: GomoryHuTree) -> GHViolation | None:
    """Exhaustively check the tree against one max-flow per vertex pair.

    Returns None when every pair agrees, else the first violation in
    lexicographic pair order.  Like `build_gusfield`, it leaves the graph's
    residual network attached to `g`.
    """
    if tree.n != g.n:
        raise ValueError(f"tree has {tree.n} vertices but graph has {g.n}")
    attach_network(g)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            tv = tree.query(a, b)
            fv = max_flow(g, a, b).value
            if tv != fv:
                return GHViolation(a, b, tv, fv)
    return None


# ---------------------------------------------------------------------------
# serialisation: the tree file format plus one 'w <v> <weight>' line per
# non-root vertex


def format_gh_tree(tree: GomoryHuTree) -> str:
    lines = [f"t {tree.n}"]
    lines += [f"e {p} {v}" for p, v, _ in tree.edges()]
    lines.append("s 0")
    lines += [f"w {v} {w}" for _, v, w in tree.edges()]
    return "\n".join(lines) + "\n"


def parse_gh_tree(text: str) -> GomoryHuTree:
    size = None
    edges: list[tuple[int, int]] = []
    weights: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        try:
            if fields[0] == "t" and len(fields) == 2:
                size = int(fields[1])
            elif fields[0] == "e" and len(fields) == 3:
                edges.append((int(fields[1]), int(fields[2])))
            elif fields[0] == "s" and len(fields) == 2:
                if int(fields[1]) != 0:
                    raise GraphFormatError("cut tree root must be vertex 0", lineno)
            elif fields[0] == "w" and len(fields) == 3:
                weights[int(fields[1])] = int(fields[2])
            else:
                raise GraphFormatError(f"unknown record {line!r}", lineno)
        except ValueError as exc:
            raise GraphFormatError(f"bad record: {exc}", lineno) from exc
    if size is None:
        raise GraphFormatError("missing 't <k>' header")
    if len(edges) != size - 1:
        raise GraphFormatError(f"expected {size - 1} edges, got {len(edges)}")
    adj: dict[int, list[int]] = {v: [] for v in range(size)}
    for u, v in edges:
        if not (0 <= u < size and 0 <= v < size):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * size
    order = [0]
    seen = {0}
    while order:
        u = order.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
    if len(seen) != size:
        raise GraphFormatError("tree edges do not connect all vertices")
    weight = [0] * size
    for v in range(1, size):
        if v not in weights:
            raise GraphFormatError(f"missing 'w {v} <weight>' line")
        weight[v] = weights[v]
    try:
        return GomoryHuTree(parent, weight)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def save_gh_tree(tree: GomoryHuTree, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_gh_tree(tree))


def load_gh_tree(path: str) -> GomoryHuTree:
    with open(path, "r", encoding="ascii") as fh:
        return parse_gh_tree(fh.read())
