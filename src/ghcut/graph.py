"""Weighted undirected graphs: cuts, contraction, generators, file I/O.

Vertex ids are dense integers in [0, n).  Edge weights are positive
integers.  Construction canonicalises the edge list: parallel edges are
merged by summing their weights, self-loops are dropped, and endpoints are
stored as (u, v) with u < v in sorted order.  Graphs are immutable once
built, so they can be shared freely between concurrent computations.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

# Total weight is capped so that any sum of cut values fits comfortably in a
# 64-bit accumulator even after repeated contraction.
WEIGHT_CAP = 2**62


class InvalidCutError(ValueError):
    """A vertex set that is empty, full, or out of range is not a cut side."""


class GraphFormatError(ValueError):
    """Malformed graph or tree file; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Immutable weighted undirected graph.

    `_adj`, `_hash` and `_net` are caches filled on first use; `_net` holds
    the residual network that `maxflow.attach_network` builds for callers
    that run many flows on one graph.
    """

    __slots__ = ("n", "edges", "_adj", "_hash", "_net")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        # n and endpoints must be ints (bool is refused); a weight may also
        # be an integral float such as 2.0, stored as an int
        if type(n) is not int:
            raise ValueError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        merged: dict[tuple[int, int], int] = {}
        for e in edges:
            try:
                u, v, w = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a (u, v, weight) triple") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has a non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if type(w) is not int:
                if type(w) is not float or not w.is_integer():
                    raise ValueError(f"edge ({u},{v}) has non-integer weight {w!r}")
                w = int(w)
            if w < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + w
        if sum(merged.values()) >= WEIGHT_CAP:
            raise ValueError("total edge weight exceeds the 2^62 overflow guard")
        self.n = n
        self.edges: tuple[tuple[int, int, int], ...] = tuple(
            sorted((u, v, w) for (u, v), w in merged.items())
        )
        self._adj: tuple[tuple[tuple[int, int], ...], ...] | None = None
        self._hash: int | None = None
        self._net = None

    @classmethod
    def _from_merged(cls, n: int, merged: dict[tuple[int, int], int]) -> "Graph":
        # internal fast path: caller guarantees keys are (u, v) with u < v in
        # range and weights are positive ints within the overflow guard
        g = cls.__new__(cls)
        g.n = n
        g.edges = tuple(sorted((u, v, w) for (u, v), w in merged.items()))
        g._adj = None
        g._hash = None
        g._net = None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbour, weight) pairs, built lazily."""
        if self._adj is None:
            lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                lists[u].append((v, w))
                lists[v].append((u, w))
            self._adj = tuple(tuple(l) for l in lists)
        return self._adj

    def weighted_degree(self, v: int) -> int:
        return sum(w for _, w in self.adjacency()[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.edges))
        return h

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """One side of a cut together with its crossing weight.

    By convention the stored side is the one containing the terminal (the
    sink for s-t cuts); the complement contains the source.
    """

    side: frozenset[int]
    value: int


@dataclass(frozen=True)
class ContractionMap:
    """Vertex mapping produced by `contract`.

    `forward[v]` is the quotient id of original vertex v.  `contracted_nodes`
    holds the quotient ids that absorbed two or more original vertices.
    """

    forward: tuple[int, ...]
    contracted_nodes: frozenset[int]

    def lift_side(self, quotient_side: Iterable[int]) -> frozenset[int]:
        """Expand a quotient vertex set back to original vertex ids."""
        qs = set(quotient_side)
        return frozenset(v for v, q in enumerate(self.forward) if q in qs)


def _check_pair(n: int, s: int, t: int) -> None:
    """Refuse a terminal pair unless both are ints (bool refused) in [0, n)
    and distinct."""
    if type(s) is not int or type(t) is not int:
        raise ValueError(f"terminals must be integers, got s={s!r}, t={t!r}")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"terminal out of range: s={s}, t={t}, n={n}")
    if s == t:
        raise ValueError("terminals must differ")


def _vertex_groups(
    n: int, groups: Iterable[Iterable[int]], what: str
) -> tuple[list[frozenset[int]], dict[int, int]]:
    """Check that `groups` are nonempty, pairwise disjoint sets of int
    vertex ids (bool refused) in [0, n).

    Returns the groups as frozensets and the map from each grouped vertex
    to its group's index.  Each raw element is checked before the frozenset
    is made, so 1.0 or True is refused rather than merged into vertex 1.
    `what` names the groups in the error messages.
    """
    gsets: list[frozenset[int]] = []
    owner: dict[int, int] = {}
    try:
        numbered = enumerate(groups)
    except TypeError:
        raise ValueError(f"{what} groups must be a collection of groups, got {groups!r}") from None
    for i, grp in numbered:
        if not isinstance(grp, (frozenset, set, list, tuple, range)):
            try:
                grp = tuple(grp)  # walked twice below
            except TypeError:
                raise ValueError(f"{what} group {grp!r} is not a collection of vertex ids") from None
        for v in grp:
            if type(v) is not int:
                raise ValueError(f"{what} group contains non-integer vertex {v!r}")
            if not (0 <= v < n):
                raise ValueError(f"{what} group contains out-of-range vertex {v} for n={n}")
            if owner.setdefault(v, i) != i:
                raise ValueError(f"{what} groups overlap on vertex {v}")
        gset = frozenset(grp)
        if not gset:
            raise ValueError(f"{what} group may not be empty")
        gsets.append(gset)
    return gsets, owner


def cut_value(g: Graph, side: Iterable[int]) -> int:
    """Total weight of edges with exactly one endpoint in `side`."""
    side = tuple(side)  # checked before the set merges 1.0 or True into vertex 1
    for v in side:
        if type(v) is not int:
            raise InvalidCutError(f"cut side contains non-integer vertex {v!r}")
        if not (0 <= v < g.n):
            raise InvalidCutError(f"cut side contains out-of-range vertex {v}")
    s = frozenset(side)
    if not s or len(s) >= g.n:
        raise InvalidCutError(f"cut side must be a proper nonempty subset, got {len(s)} of {g.n}")
    return sum(w for u, v, w in g.edges if (u in s) != (v in s))


def contract(g: Graph, groups: Sequence[Iterable[int]]) -> tuple[Graph, ContractionMap]:
    """Merge each vertex group into a single quotient vertex.

    Groups must be nonempty and pairwise disjoint; vertices outside every
    group survive as singletons.  Parallel edges created by the merge are
    summed and self-loops dropped, so any cut of the quotient graph has
    exactly the weight of the corresponding cut of `g`.
    """
    gsets, owner = _vertex_groups(g.n, groups, "contraction")

    forward = [-1] * g.n
    group_q = [-1] * len(gsets)
    nq = 0
    for v in range(g.n):
        gi = owner.get(v)
        if gi is None:
            forward[v] = nq
            nq += 1
        elif group_q[gi] < 0:
            group_q[gi] = forward[v] = nq
            nq += 1
        else:
            forward[v] = group_q[gi]

    acc: dict[tuple[int, int], int] = {}
    for u, v, w in g.edges:
        qu, qv = forward[u], forward[v]
        if qu == qv:
            continue
        key = (qu, qv) if qu < qv else (qv, qu)
        acc[key] = acc.get(key, 0) + w
    quotient = Graph._from_merged(nq, acc)
    contracted = frozenset(group_q[i] for i, grp in enumerate(gsets) if len(grp) >= 2)
    return quotient, ContractionMap(tuple(forward), contracted)


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    adj = g.adjacency()
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


GENERATOR_KINDS = ("erdos-renyi-weighted", "clique", "planted-cut")


def generate(
    kind: str,
    n: int,
    seed: int | str = 0,
    weight_range: tuple[int, int] = (1, 10),
    *,
    p: float | None = None,
    planted_value: int | None = None,
) -> Graph:
    """Seeded random graph generator; always returns a connected graph.

    Kinds:
      erdos-renyi-weighted -- each pair kept with probability `p` (default
        (ln n + 2)/n), missing connectivity repaired by joining components.
      clique -- complete graph.
      planted-cut -- two dense halves joined by cross edges whose weights sum
        to `planted_value` (default: the high end of `weight_range`), making
        the half/half split the unique global minimum cut value.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"generator needs an integer n >= 2, got {n!r}")
    try:
        lo, hi = weight_range
    except (TypeError, ValueError):
        raise ValueError(f"weight_range must be a (low, high) pair, got {weight_range!r}") from None
    if type(lo) is not int or type(hi) is not int or not (1 <= lo <= hi):
        raise ValueError(f"bad weight_range {weight_range!r}")
    rng = random.Random(f"ghcut-gen|{kind}|{n}|{seed}")

    if kind == "clique":
        edges = [(u, v, rng.randint(lo, hi)) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, edges)

    if kind == "erdos-renyi-weighted":
        if p is None:
            p = min(1.0, (math.log(n) + 2.0) / n)
        # a bool is refused too; NaN fails the range test
        if type(p) not in (int, float) or not (0.0 <= p <= 1.0):
            raise ValueError(f"edge probability p must be a number in [0, 1], got {p!r}")
        edges = [
            (u, v, rng.randint(lo, hi))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        comps = connected_components(g)
        while len(comps) > 1:
            # join consecutive components with one random edge each
            extra = []
            for a, b in zip(comps, comps[1:]):
                extra.append((rng.choice(a), rng.choice(b), rng.randint(lo, hi)))
            edges = list(g.edges) + extra
            g = Graph(n, edges)
            comps = connected_components(g)
        return g

    if kind == "planted-cut":
        v = hi if planted_value is None else planted_value
        if type(v) is not int or v < 1:
            raise ValueError(f"planted value must be a positive integer, got {planted_value!r}")
        order = list(range(n))
        rng.shuffle(order)
        half_a, half_b = order[: n // 2], order[n // 2 :]
        edges = []
        for half in (half_a, half_b):
            for i in range(len(half)):
                for j in range(i + 1, len(half)):
                    # every intra-half edge outweighs the whole planted cut
                    edges.append((half[i], half[j], v + rng.randint(lo, hi)))
        k_cross = min(len(half_a), len(half_b), v)
        q, r = divmod(v, k_cross)
        weights = [q + 1] * r + [q] * (k_cross - r)
        a_pick = rng.sample(half_a, k_cross)
        b_pick = rng.sample(half_b, k_cross)
        for a, b, w in zip(a_pick, b_pick, weights):
            edges.append((a, b, w))
        return Graph(n, edges)

    raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


# ---------------------------------------------------------------------------
# serialisation


def format_graph(g: Graph, fmt: str = "dimacs") -> str:
    if fmt == "dimacs":
        lines = [f"p {g.n} {g.m}"]
        lines += [f"e {u} {v} {w}" for u, v, w in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


def parse_graph(text: str, fmt: str = "dimacs") -> Graph:
    if fmt == "json":
        try:
            obj = json.loads(text)
            return Graph(obj["n"], [tuple(e) for e in obj["edges"]])
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise GraphFormatError(f"bad json graph: {exc}") from exc
    if fmt != "dimacs":
        raise ValueError(f"unknown graph format {fmt!r}")

    n = m = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(fields) != 3:
                raise GraphFormatError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise GraphFormatError(f"bad header: {exc}", lineno) from exc
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge before header", lineno)
            if len(fields) != 4:
                raise GraphFormatError("edge must be 'e <u> <v> <w>'", lineno)
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError as exc:
                raise GraphFormatError(f"bad edge: {exc}", lineno) from exc
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}", lineno)
            if w < 1:
                raise GraphFormatError(f"non-positive weight {w}", lineno)
            edges.append((u, v, w))
        else:
            raise GraphFormatError(f"unknown record {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if m != len(edges):
        raise GraphFormatError(f"header declares {m} edges but file has {len(edges)}")
    return Graph(n, edges)


def save_graph(g: Graph, path: str, fmt: str = "dimacs") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(g, fmt))


def load_graph(path: str, fmt: str = "dimacs") -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read(), fmt)
