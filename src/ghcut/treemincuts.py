"""Guided single-source minimum cuts over a Steiner tree.

`tree_mincuts` estimates, for every tree vertex t other than the source s,
the minimum weight of an (s, t)-cut, searching only cuts that cross few
tree edges.  Every reported value is the weight of an actual (s, t)-cut in
the input graph, so estimates never undershoot the true minimum; with high
probability over the seed they do not exceed the cheapest cut crossing at
most k tree edges.  `leaf_mincuts` is the companion routine for a leaf
source, restricted to cuts that also cross the leaf's own tree edge.

The recursion alternates three devices: random pruning of whole subtrees
(lowering the crossing budget k), isolating cuts that split the instance
into disjoint contracted subinstances (same budget, smaller trees), and a
reduced tree in which the source is reattached next to the centroid.
Results computed on contracted graphs are lifted back through the
contraction maps, so all writes land on original vertex ids.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graph import ContractionMap, Cut, Graph, contract
from .isolating import isolating_cuts
from .maxflow import max_flow, max_flow_multi
from .steiner import SteinerTree, decompose, prune_sample

# Trees at most this large are handled by one exact max-flow per terminal.
BASE_TREE_SIZE = 6


class CandidateCuts:
    """Best cut value found so far for each terminal.

    Values only move down.  Every stored witness is a cut of the graph the
    table was created for, with the terminal inside `side` and the source
    outside; witness tracking can be disabled for measurement runs.
    """

    __slots__ = ("values", "witnesses", "track_witnesses")

    def __init__(self, terminals: Iterable[int], track_witnesses: bool = True):
        self.values: dict[int, float] = {t: math.inf for t in terminals}
        self.witnesses: dict[int, Cut | None] = dict.fromkeys(self.values)
        self.track_witnesses = track_witnesses

    def ensure(self, terminals: Iterable[int]) -> None:
        for t in terminals:
            self.values.setdefault(t, math.inf)
            self.witnesses.setdefault(t, None)

    def offer(self, t: int, value: int, witness: Cut | None = None) -> bool:
        """Record a candidate; ignored unless strictly better and t is known."""
        cur = self.values.get(t)
        if cur is None or value >= cur:
            return False
        self.values[t] = value
        if self.track_witnesses:
            self.witnesses[t] = witness
        return True

    def value(self, t: int) -> float:
        return self.values[t]

    def witness(self, t: int) -> Cut | None:
        return self.witnesses[t]

    def terminals(self) -> list[int]:
        return sorted(self.values)

    def __repr__(self) -> str:
        done = sum(1 for v in self.values.values() if v != math.inf)
        return f"CandidateCuts({done}/{len(self.values)} terminals bounded)"


class RecursionStats:
    """Per-(procedure, k) call totals accumulated over one run.

    Tracks call count, instance vertices, tree sizes, and live edges (edges
    whose endpoints are both ordinary vertices rather than contracted
    supernodes); when stats are passed, every call records itself on entry,
    including k = 0.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[tuple[str, int], list[int]] = {}

    def record(self, procedure: str, k: int, n: int, tree_size: int, live_edges: int) -> None:
        row = self.rows.setdefault((procedure, k), [0, 0, 0, 0])
        row[0] += 1
        row[1] += n
        row[2] += tree_size
        row[3] += live_edges

    def totals(self) -> dict[str, int]:
        agg = [0, 0, 0, 0]
        for row in self.rows.values():
            for i in range(4):
                agg[i] += row[i]
        return {"calls": agg[0], "vertices": agg[1], "tree_vertices": agg[2], "edges": agg[3]}

    def as_dict(self) -> dict[str, dict[str, dict[str, int]]]:
        out: dict[str, dict[str, dict[str, int]]] = {}
        for (proc, k), (calls, sn, st, sm) in sorted(self.rows.items()):
            out.setdefault(proc, {})[str(k)] = {
                "calls": calls,
                "vertices": sn,
                "tree_vertices": st,
                "edges": sm,
            }
        return out

    def __repr__(self) -> str:
        t = self.totals()
        return f"RecursionStats(calls={t['calls']}, vertices={t['vertices']})"


# Repeated pruning rounds rebuild identical contracted instances, so the
# deterministic flow work repeats too; one cache per top-level run collapses
# it.  Large graphs are left uncached: few repeats, costly keys.
_CACHE_MAX_N = 64


@dataclass(frozen=True)
class _Cfg:
    reps_coeff: float
    stats: RecursionStats | None
    cache: dict = field(default_factory=dict)


def _cached(cfg: _Cfg, fn, g: Graph, *args):
    """`fn(g, *args)`, memoised per top-level run on graphs up to the cutoff;
    the arguments must be hashable."""
    if g.n > _CACHE_MAX_N:
        return fn(g, *args)
    key = (fn, g, *args)
    res = cfg.cache.get(key)
    if res is None:
        res = cfg.cache[key] = fn(g, *args)
    return res


def _seed_string(rng: random.Random | int | str) -> str:
    if isinstance(rng, random.Random):
        return f"r{rng.getrandbits(64):016x}"
    return f"s{rng}"


def _live_edges(g: Graph, contracted: frozenset[int]) -> int:
    if not contracted:
        return g.m
    return sum(1 for u, v, _ in g.edges if u not in contracted and v not in contracted)


def _enter(procedure: str, g: Graph, tree: SteinerTree, k: int, cuts: CandidateCuts,
           cfg: _Cfg, contracted: frozenset[int]) -> bool:
    """Shared prologue of both recursions: record the call when stats are
    kept, and settle the instance outright when the budget is spent or the
    tree is small (one exact flow per terminal).  True when the caller must
    go on and split the tree."""
    if cfg.stats is not None:
        cfg.stats.record(procedure, k, g.n, tree.size, _live_edges(g, contracted))
    if k == 0:
        return False
    if tree.size <= BASE_TREE_SIZE:
        s = tree.source
        for t in tree.vertices:
            if t != s:
                res = _cached(cfg, max_flow, g, s, t)
                cuts.offer(t, res.value, res.mincut)
        return False
    return True


def _subtree(tree: SteinerTree, verts: Iterable[int],
             extra_edges: Sequence[tuple[int, int]] = ()) -> SteinerTree:
    """Subtree induced on `verts` (which must include the source), plus any
    explicitly added edges."""
    vset = set(verts)
    edges = [(u, v) for u, v in tree.edges if u in vset and v in vset]
    edges.extend(extra_edges)
    return SteinerTree(vset, edges, tree.source)


def _source_edge(tree: SteinerTree, c: int) -> tuple[tuple[int, int], ...]:
    """The edge reattaching the source at `c`, unless the tree has it."""
    s = tree.source
    sc = (s, c) if s < c else (c, s)
    return () if sc in tree.edges else (sc,)


def _prune_rounds(rec, g: Graph, tree: SteinerTree, k: int, cuts: CandidateCuts,
                  seed: str, cfg: _Cfg, contracted: frozenset[int],
                  parts: Sequence[frozenset[int]]) -> None:
    """Random pruning lowers the budget: any cut whose extra tree crossings
    sit inside pruned parts is caught by a k-1 call on the thinned tree."""
    rounds = max(1, math.ceil(cfg.reps_coeff * math.log2(max(2, g.n)))) if parts else 1
    for r in range(rounds):
        coin = random.Random(f"{seed}/p{r}#coins")
        pruned = prune_sample(tree, parts, coin)
        rec(g, pruned, k - 1, cuts, f"{seed}/p{r}", cfg, contracted)


def _isolate(cfg: _Cfg, g: Graph, s: int, groups: Sequence[frozenset[int]],
             cuts: CandidateCuts):
    """Isolating cuts of `groups`; each side is itself a cut separating its
    group from s, so it is offered to every terminal of the group."""
    iso = _cached(cfg, isolating_cuts, g, tuple(groups))
    for gc in iso:
        if s not in gc.group:
            for t in sorted(gc.group):
                cuts.offer(t, gc.value, gc.as_cut())
    return iso


def _child(rec, g: Graph, tree: SteinerTree, k: int, cuts: CandidateCuts, seed: str,
           cfg: _Cfg, contracted: frozenset[int], merge: Iterable[int],
           keep: set[int], pivot: int,
           extra: Sequence[tuple[int, int]] = ()) -> None:
    """Recurse at budget k on `g` with `merge` contracted to one node.

    The child tree is the subtree induced on `keep`, plus the `extra`
    edges, mapped to quotient ids, with the source's image as its source.
    Results are lifted back into `cuts`; the node holding `pivot` reports
    as `pivot`, so a supernode that stands in for a real vertex keeps its
    identity.
    """
    child_g, cm = contract(g, [merge])
    f = cm.forward
    edges = [(f[u], f[v]) for u, v in tree.edges if u in keep and v in keep]
    edges.extend((f[u], f[v]) for u, v in extra)
    child_tree = SteinerTree({f[v] for v in keep}, edges, f[tree.source])
    view = CandidateCuts((v for v in child_tree.vertices if v != child_tree.source),
                         cuts.track_witnesses)
    # supernodes are only needed to count live edges
    if cfg.stats is not None:
        contracted = frozenset(f[v] for v in contracted) | cm.contracted_nodes
    rec(child_g, child_tree, k, view, seed, cfg, contracted)
    _merge_child(cuts, view, cm, pivot)


def _merge_child(cuts: CandidateCuts, child: CandidateCuts, cm: ContractionMap,
                 pivot: int) -> None:
    """Lift a contracted child's results into the parent table.

    A child terminal that is the image of a single original vertex lands on
    that vertex, and the image of `pivot` lands on `pivot`; any other
    supernode result is dropped.
    """
    pre = cm.preimage_lists()
    q_pivot = cm.forward[pivot]
    for q, val in child.values.items():
        if val == math.inf:
            continue
        if q == q_pivot:
            target = pivot
        elif len(pre[q]) == 1:
            target = pre[q][0]
        else:
            continue
        wit = child.witnesses[q]
        lifted = Cut(cm.lift_side(wit.side), wit.value) if wit is not None else None
        cuts.offer(target, int(val), lifted)


def _validate(g: Graph, tree: SteinerTree, k: int) -> None:
    if k < 0:
        raise ValueError(f"crossing budget k must be non-negative, got {k}")
    if tree.vertices[0] < 0 or tree.vertices[-1] >= g.n:
        raise ValueError("tree vertices leave the graph's vertex range")


def tree_mincuts(
    g: Graph,
    tree: SteinerTree,
    k: int,
    cuts: CandidateCuts,
    rng: random.Random | int | str,
    stats: RecursionStats | None = None,
    *,
    reps_coeff: float = 3.0,
) -> None:
    """Bound the source-to-terminal cut values guided by `tree`.

    Mutates `cuts`: for every tree vertex t other than the source, the
    final value is the weight of a real (source, t)-cut, and with high
    probability it is at most the cheapest such cut crossing at most k tree
    edges.  `reps_coeff` scales the number of random pruning repetitions
    per level; `stats`, when given, accumulates per-level call totals.
    With `stats=None` no per-call bookkeeping is done.
    """
    _validate(g, tree, k)
    cuts.ensure(v for v in tree.vertices if v != tree.source)
    _tree_rec(g, tree, k, cuts, _seed_string(rng), _Cfg(reps_coeff, stats), frozenset())


def leaf_mincuts(
    g: Graph,
    tree: SteinerTree,
    k: int,
    cuts: CandidateCuts,
    rng: random.Random | int | str,
    stats: RecursionStats | None = None,
    *,
    reps_coeff: float = 3.0,
) -> None:
    """Variant of `tree_mincuts` for a source that is a leaf of the tree.

    Only cuts crossing the source's single tree edge are targeted: with
    high probability each terminal's value is at most the cheapest cut that
    crosses at most k tree edges, one of them being the source's edge.
    As there, `stats=None` does no per-call bookkeeping.
    """
    _validate(g, tree, k)
    if tree.degree(tree.source) != 1:
        raise ValueError("the leaf variant needs the source to be a tree leaf")
    cuts.ensure(v for v in tree.vertices if v != tree.source)
    _leaf_rec(g, tree, k, cuts, _seed_string(rng), _Cfg(reps_coeff, stats), frozenset())


def _tree_rec(
    g: Graph,
    tree: SteinerTree,
    k: int,
    cuts: CandidateCuts,
    seed: str,
    cfg: _Cfg,
    contracted: frozenset[int],
) -> None:
    if not _enter("tree", g, tree, k, cuts, cfg, contracted):
        return

    s = tree.source
    dec = decompose(tree)
    c = dec.centroid
    sides = dec.side_trees
    trunk_inner = dec.trunk - {c}

    # At budget 1 the pruned calls would be no-ops, so skip them outright.
    if k > 1:
        parts = ([dec.forest] if dec.forest else []) + list(sides)
        _prune_rounds(_tree_rec, g, tree, k, cuts, seed, cfg, contracted, parts)

        # The source-side forest on its own, one budget lower.
        if dec.forest:
            t2 = _subtree(tree, dec.forest | {s})
            _tree_rec(g, t2, k - 1, cuts, f"{seed}/f", cfg, contracted)

    # Isolating cuts split the rest of the work into disjoint contracted
    # children, each recursed at the same budget: one child per side tree,
    # with everything outside that tree's isolating side merged into the
    # child's new source.  These children pin the centroid to the source
    # supernode, which is wrong for cuts that keep the centroid with the
    # terminal.  Side trees only ever need the pinned version (a cut
    # claiming the centroid would cross their root edge and pruning owns
    # that case); the trunk and the forest instead go to the folded child
    # below, where the centroid's node is free to land on either side.
    groups: list[frozenset[int]] = [frozenset([s])]
    if c != s:
        groups.append(frozenset([c]))
    # child seeds number the parts in this order: trunk, side trees, forest
    parts_at = len(groups)
    if trunk_inner:
        groups.append(trunk_inner)
    first = len(groups)
    groups.extend(sides)
    if dec.forest:
        groups.append(dec.forest)
    iso = _isolate(cfg, g, s, groups, cuts)
    side_cuts = iso[first:first + len(sides)]

    everything = frozenset(range(g.n))
    for j, (side, gc) in enumerate(zip(sides, side_cuts), start=first - parts_at):
        _child(_tree_rec, g, tree, k, cuts, f"{seed}/i{j}", cfg, contracted,
               everything - gc.side, side | {c}, c)
    if c == s:
        return

    # One child for the source's whole component of the tree minus the
    # centroid: the centroid and every side region fold into a single node
    # that stands in for the centroid, so cuts may take it or leave it.
    # The centroid bound keeps this child at roughly two thirds of the
    # tree.
    keep = {s, c} | dec.forest | trunk_inner
    if len(keep) < tree.size:
        merge = frozenset((c,)).union(*(gc.side for gc in side_cuts))
        _child(_tree_rec, g, tree, k, cuts, f"{seed}/y", cfg, contracted, merge, keep, c)

    # Reduced tree: drop the forest and the trunk interior, reattach the
    # source directly at the centroid.  The leaf variant hunts cuts through
    # the new source edge at full budget; everything else has lost at least
    # one crossing, so a k-1 pass completes the coverage.
    t4 = _subtree(tree, {s, c}.union(*sides), _source_edge(tree, c))
    _leaf_rec(g, t4, k, cuts, f"{seed}/l", cfg, contracted)
    if k > 1:
        _tree_rec(g, t4, k - 1, cuts, f"{seed}/r", cfg, contracted)


def _leaf_rec(
    g: Graph,
    tree: SteinerTree,
    k: int,
    cuts: CandidateCuts,
    seed: str,
    cfg: _Cfg,
    contracted: frozenset[int],
) -> None:
    if not _enter("leaf", g, tree, k, cuts, cfg, contracted):
        return

    s = tree.source
    # a leaf source has no forest of its own: its component of the tree
    # minus the centroid is exactly the trunk, and the side trees are the
    # prunable parts
    dec = decompose(tree)
    c = dec.centroid
    own_branch = dec.trunk - {c}
    sides = dec.side_trees

    if k > 1:
        _prune_rounds(_leaf_rec, g, tree, k, cuts, seed, cfg, contracted, sides)

        # Drop the source's own branch and reattach the source at the
        # centroid; cuts through the old source edge that stay out of the
        # branch lose a crossing, so the unrestricted variant at k-1 covers
        # them.
        t2 = _subtree(tree, {s, c}.union(*sides), _source_edge(tree, c))
        _tree_rec(g, t2, k - 1, cuts, f"{seed}/b", cfg, contracted)

    groups: list[frozenset[int]] = [frozenset([s]), frozenset([c])]
    groups.extend(sides)
    if own_branch:
        groups.append(own_branch)
    iso = _isolate(cfg, g, s, groups, cuts)
    side_cuts = iso[2:2 + len(sides)]

    # Source-branch child at the same budget: the centroid and the side
    # regions collapse into a single node hanging off the branch, free to
    # land on either side of a cut, so both centroid placements survive.
    keep = {s, c} | own_branch
    if own_branch and len(keep) < tree.size:
        merge = frozenset((c,)).union(*(gc.side for gc in side_cuts))
        _child(_leaf_rec, g, tree, k, cuts, f"{seed}/y", cfg, contracted, merge, keep, c)

    # One exact cut from the source to everything at or beyond the
    # centroid; its value is shared by all those terminals at once.
    far = tuple(sorted({c}.union(*sides)))
    res = _cached(cfg, max_flow_multi, g, s, far)
    for t in far:
        cuts.offer(t, res.value, res.mincut)

    # Single side-tree branch: recurse only where the current estimate is
    # weakest, merging the centroid and every other side region into one
    # node.  Descending into all side trees would blow up the recursion;
    # the shared cut above pays for the branches we skip.
    if sides:
        pool = sorted(set().union(*sides))
        z = max(pool, key=lambda t: (cuts.value(t), -t))
        i_star = next(i for i, side in enumerate(sides) if z in side)
        merge = {c}.union(*(gc.side for i, gc in enumerate(side_cuts) if i != i_star))
        if own_branch:
            merge |= iso[-1].side
        part = sides[i_star]
        if len(merge) > 1 or len(part) + 2 < tree.size:
            _child(_leaf_rec, g, tree, k, cuts, f"{seed}/z", cfg, contracted,
                   merge, part | {s, c}, c, _source_edge(tree, c))


def sstcv_verify(
    g: Graph,
    terminals: Iterable[int],
    s: int,
    estimates: Mapping[int, int],
    guide_trees: Sequence[SteinerTree],
    k: int,
    rng: random.Random | int | str,
    *,
    reps_coeff: float = 6.0,
    stats: RecursionStats | None = None,
) -> dict[int, str]:
    """Classify per-terminal cut estimates as tight or loose.

    Runs the guided search over every guide tree into one shared table and
    reports, for each terminal, "tight" when the pooled search matched its
    estimate and "loose" otherwise.  The verdict
    is reliable (with high probability) whenever the estimates are upper
    bounds on the true cut values and every terminal whose estimate is
    tight has some guide tree crossing one of its minimum cuts at most k
    times.  `stats`, when given, accumulates over all guide trees; with
    `stats=None` no per-call bookkeeping is done.
    """
    tset = sorted(set(terminals) - {s})
    if not tset:
        raise ValueError("need at least one terminal besides the source")
    if not guide_trees:
        raise ValueError("need at least one guide tree")
    for tr in guide_trees:
        if tr.source != s:
            raise ValueError(f"guide tree source {tr.source} differs from s={s}")
        if not set(tset) <= set(tr.vertices):
            raise ValueError("guide tree does not span the terminals")
    missing = [t for t in tset if t not in estimates]
    if missing:
        raise ValueError(f"missing estimates for terminals {missing}")

    cuts = CandidateCuts([])
    seed = _seed_string(rng)
    for i, tr in enumerate(guide_trees):
        tree_mincuts(g, tr, k, cuts, f"{seed}/g{i}", stats, reps_coeff=reps_coeff)
    return {t: ("tight" if cuts.value(t) == estimates[t] else "loose") for t in tset}
