"""Steiner trees over graph vertices and their centroid decomposition.

A Steiner tree here is any tree whose nodes are vertex ids of some graph;
its edges do NOT need to be graph edges.  Trees guide the recursive min-cut
search: the decomposition splits a tree at a centroid into the parts used by
the search, and `prune_sample` draws the random subtrees kept by one pruning
round.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import Cut, Graph, GraphFormatError, _records


class SteinerTree:
    """Immutable tree on integer vertex ids with a designated source."""

    __slots__ = ("vertices", "edges", "source")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]], source: int):
        # ids must be ints (bool is refused): 1.0 or True would pass the
        # membership tests below as vertex 1
        vset = _vertex_set(vertices)
        vs = tuple(sorted(vset))
        if type(source) is not int or source not in vset:
            raise ValueError(f"source {source!r} not among tree vertices")
        norm = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"tree edge {e!r} is not a (u, v) pair") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"tree edge ({u!r},{v!r}) has a non-integer endpoint")
            if u == v:
                raise ValueError(f"tree edge ({u},{v}) is a self-loop")
            if u not in vset or v not in vset:
                raise ValueError(f"tree edge ({u},{v}) leaves the vertex set")
            norm.append((u, v) if u < v else (v, u))
        es = tuple(sorted(norm))
        if len(set(es)) != len(es):
            raise ValueError("duplicate tree edge")
        if len(es) != len(vs) - 1:
            raise ValueError(f"{len(vs)} vertices need {len(vs) - 1} tree edges, got {len(es)}")
        if len(_walk(vs, es, source)[0]) != len(vs):
            raise ValueError("tree edges do not connect the vertex set")
        self.vertices = vs
        self.edges = es
        self.source = source

    @classmethod
    def _derived(cls, vertices: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 source: int) -> SteinerTree:
        """A tree built from a checked one, taken without the constructor's
        checks: the caller vouches that `vertices` is a sorted tuple, `edges`
        a sorted tuple of (u, v) pairs with u < v, and that they make a tree
        holding `source`, as the constructor would have stored them."""
        t = object.__new__(cls)
        t.vertices = vertices
        t.edges = edges
        t.source = source
        return t

    @property
    def size(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> dict[int, list[int]]:
        """Neighbour lists, each sorted: the edges are sorted (u, v) pairs
        with u < v, so a vertex meets its lower neighbours first."""
        return _adjacency(self.vertices, self.edges)

    def degree(self, v: int) -> int:
        # True and 1.0 would otherwise count vertex 1's edges
        if type(v) is not int or v not in self.vertices:
            raise ValueError(f"{v!r} is not a tree vertex")
        return sum(1 for u, w in self.edges if v in (u, w))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SteinerTree)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.source == other.source
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.source))

    def __repr__(self) -> str:
        return f"SteinerTree(size={self.size}, source={self.source})"


def _vertex_set(vertices: Iterable[int]) -> set[int]:
    # check before the set merges 1.0 or True into an int 1
    vs = tuple(vertices)
    for v in vs:
        if type(v) is not int:
            raise ValueError(f"tree vertex {v!r} is not an integer")
    return set(vs)


def _adjacency(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Neighbour lists, each in edge order."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _walk(vertices: Iterable[int], edges: Iterable[tuple[int, int]],
          root: int) -> tuple[list[int], dict[int, int]]:
    """Preorder and parents (the root its own) of what `root` reaches by a
    stack DFS that marks a vertex when it pushes it; on a tree every
    subtree is a contiguous run of the preorder."""
    adj = _adjacency(vertices, edges)
    parent = {root: root}
    order: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    return order, parent


@dataclass(frozen=True)
class Decomposition:
    """Split of a tree at its centroid, seen from the source.

    `path` runs from the source to the centroid.  `side_trees` are the
    components of the tree minus the centroid that do not contain the
    source.  `forest` holds the subtrees hanging off the source away from
    the path, and `trunk` is everything else: the path interior with its
    hanging subtrees, plus the centroid itself.  When source == centroid the
    forest and trunk are empty and every component is a side tree.
    """

    centroid: int
    path: tuple[int, ...]
    forest: frozenset[int]
    trunk: frozenset[int]
    side_trees: tuple[frozenset[int], ...]


def centroid(t: SteinerTree) -> int:
    """Vertex minimising the largest component left by its removal.

    Ties break to the lowest id; every remaining component has at most
    floor(2/3 * size) vertices.
    """
    return decompose(t).centroid


def decompose(t: SteinerTree) -> Decomposition:
    """Centroid split of `t`; see `Decomposition` for the part semantics.

    One `_walk` from the source gives every part: parents, subtree sizes, and
    a preorder in which the subtree of the vertex at position i is the run
    `order[i : i + size[order[i]]]`.
    """
    s, n = t.source, t.size
    order, parent = _walk(t.vertices, t.edges, s)
    size = dict.fromkeys(order, 1)
    heavy = dict.fromkeys(order, 0)  # size of the largest child subtree
    for u in order[:0:-1]:  # children before parents, the source skipped
        p = parent[u]
        size[p] += size[u]
        if size[u] > heavy[p]:
            heavy[p] = size[u]
    # t.vertices is sorted and min keeps the first minimum: lowest id wins
    c = min(t.vertices, key=lambda v: max(n - size[v], heavy[v]))
    # the side trees are the centroid's child subtrees, which tile its run
    ic = order.index(c)
    side = []
    i = ic + 1
    while i < ic + size[c]:
        j = i + size[order[i]]
        side.append(frozenset(order[i:j]))
        i = j
    side.sort(key=min)
    if c == s:
        return Decomposition(c, (s,), frozenset(), frozenset(), tuple(side))
    path = [c]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    # path[1]'s run holds the trunk and the side trees; the source's other
    # children's runs, before and after it, make up the forest
    i1 = order.index(path[1])
    end1 = i1 + size[path[1]]
    return Decomposition(
        centroid=c,
        path=tuple(path),
        forest=frozenset(order[1:i1] + order[end1:]),
        trunk=frozenset(order[i1 : ic + 1] + order[ic + size[c] : end1]),
        side_trees=tuple(side),
    )


def respects_count(t: SteinerTree, cut: Cut) -> int:
    """Number of tree edges crossing the cut."""
    side = cut.side
    return sum(1 for u, v in t.edges if (u in side) != (v in side))


def prune_sample(
    t: SteinerTree, parts: Sequence[Iterable[int]], rng: random.Random
) -> SteinerTree:
    """Remove each part independently with probability 1/2.

    Parts must be disjoint vertex sets not containing the source, and each
    part must hang off the rest of the tree, so that removing any subset
    leaves a tree.  One coin is drawn per part, in the given order.
    """
    psets = [_vertex_set(p) for p in parts]
    taken: set[int] = set()
    vset = set(t.vertices)
    for p in psets:
        if not p:
            raise ValueError("prunable part may not be empty")
        if t.source in p:
            raise ValueError("prunable part contains the source")
        if not p <= vset:
            raise ValueError(f"prunable part {p} leaves the tree")
        if p & taken:
            raise ValueError("prunable parts overlap")
        taken |= p
    pruned = _pruned(t, psets, rng)
    # a part that does not hang off the tree leaves it disconnected, which
    # SteinerTree rejects
    return pruned if pruned is t else SteinerTree(pruned.vertices, pruned.edges, t.source)


def _pruned(tree: SteinerTree, parts: Iterable[set[int] | frozenset[int]],
            rng: random.Random) -> SteinerTree:
    """`tree` with each part removed independently with probability 1/2, one
    coin drawn per part in order; derived without the checks, so the parts
    must hang off the rest of the tree, as `decompose`'s parts do."""
    removed: set[int] = set()
    for p in parts:
        if rng.random() < 0.5:
            removed |= p
    return _subtree(tree, set(tree.vertices) - removed) if removed else tree


def _subtree(tree: SteinerTree, verts: Iterable[int],
             extra_edges: Sequence[tuple[int, int]] = ()) -> SteinerTree:
    """Subtree induced on `verts` (which must include the source), plus any
    explicitly added (u, v) edges with u < v.  Nothing is checked: the
    caller vouches that the result is a tree (`SteinerTree._derived`)."""
    vset = set(verts)
    edges = [e for e in tree.edges if e[0] in vset and e[1] in vset]
    if extra_edges:
        edges = sorted(edges + list(extra_edges))
    return SteinerTree._derived(tuple(sorted(vset)), tuple(edges), tree.source)


def _check_guide(g: Graph, tree: SteinerTree, k: int) -> None:
    """Refuse a crossing budget that is not an int >= 0, or tree ids not in `g`."""
    if type(k) is not int or k < 0:
        raise ValueError(f"crossing budget k must be a non-negative integer, got {k!r}")
    if tree.vertices[0] < 0 or tree.vertices[-1] >= g.n:
        raise ValueError("tree vertices leave the graph's vertex range")


def random_steiner_tree(vertices: Iterable[int], source: int, rng: random.Random) -> SteinerTree:
    """Random tree shape over the given vertex ids (edges need not exist in
    any graph): each vertex attaches to a uniformly chosen earlier one."""
    vs = sorted(_vertex_set(vertices))
    if type(source) is not int or source not in vs:
        raise ValueError(f"source {source!r} not among vertices")
    others = [v for v in vs if v != source]
    rng.shuffle(others)
    seq = [source] + others
    edges = [(seq[rng.randrange(i)], seq[i]) for i in range(1, len(seq))]
    return SteinerTree(vs, edges, source)


def random_spanning_tree(g: Graph, source: int, rng: random.Random) -> SteinerTree:
    """Random DFS spanning tree of a connected graph; edges are graph edges."""
    if type(source) is not int or not (0 <= source < g.n):
        raise ValueError(f"source {source!r} out of range")
    adj = g.adjacency()
    seen = {source}
    edges: list[tuple[int, int]] = []
    stack = [source]
    while stack:
        u = stack[-1]
        nxt = [v for v, _ in adj[u] if v not in seen]
        if not nxt:
            stack.pop()
            continue
        v = nxt[rng.randrange(len(nxt))]
        seen.add(v)
        edges.append((u, v))
        stack.append(v)
    if len(seen) != g.n:
        raise ValueError("graph is not connected; no spanning tree exists")
    return SteinerTree(range(g.n), edges, source)


# ---------------------------------------------------------------------------
# serialisation


def format_tree(t: SteinerTree) -> str:
    lines = [f"t {t.size}"]
    lines += [f"e {u} {v}" for u, v in t.edges]
    lines.append(f"s {t.source}")
    return "\n".join(lines) + "\n"


def _read_tree(text: str, extra: dict[str, tuple[str, str]] | None = None,
               take: Callable[..., None] | None = None) -> tuple[int, list[tuple[int, int]], int]:
    """Size, edges and source of a tree file: one 't <k>' header, k >= 1,
    before every 'e <u> <v>' edge, and one 's <vertex>' line.  `extra` adds
    tags (as `graph._records` takes them); `take` gets the 's' record and
    each record with those tags, as (line, tag, numbers), when it is read."""
    size = source = None
    edges: list[tuple[int, int]] = []
    forms = {"t": ("tree header", "t <k>"), "e": ("tree edge", "e <u> <v>"),
             "s": ("source line", "s <vertex>"), **(extra or {})}
    for lineno, tag, numbers in _records(text, forms):
        if tag == "t":
            if size is not None:
                raise GraphFormatError("duplicate tree header", lineno)
            size = numbers[0]
            if size < 1:
                raise GraphFormatError(f"tree needs at least one vertex, got {size}", lineno)
        elif tag == "e":
            if size is None:
                raise GraphFormatError("edge before tree header", lineno)
            edges.append((numbers[0], numbers[1]))
        else:
            if tag == "s":
                if source is not None:
                    raise GraphFormatError("duplicate source line", lineno)
                source = numbers[0]
            if take is not None:
                take(lineno, tag, numbers)
    if size is None:
        raise GraphFormatError("missing 't <k>' header")
    if source is None:
        raise GraphFormatError("missing 's <source>' line")
    return size, edges, source


def parse_tree(text: str) -> SteinerTree:
    """Read a tree file (`_read_tree`) whose header counts the ids it names."""
    size, edges, source = _read_tree(text)
    vertices = {source, *(v for e in edges for v in e)}
    if len(vertices) != size:
        raise GraphFormatError(
            f"header declares {size} vertices but edges and source mention {len(vertices)}"
        )
    try:
        return SteinerTree(vertices, edges, source)
    except ValueError as exc:
        raise GraphFormatError(f"not a tree: {exc}") from exc


def save_tree(t: SteinerTree, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tree(t))


def load_tree(path: str) -> SteinerTree:
    with open(path, "r", encoding="ascii") as fh:
        return parse_tree(fh.read())
