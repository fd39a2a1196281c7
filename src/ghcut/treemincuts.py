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
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, compress, count
from operator import attrgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import ContractionMap, Cut, Graph, contract
from .isolating import _isolating_cuts
from .maxflow import max_flow, max_flow_multi
from .steiner import SteinerTree, _check_guide, _pruned, _subtree, decompose

# Trees at most this large are handled by one exact max-flow per terminal.
BASE_TREE_SIZE = 6


class CandidateCuts:
    """Best cut value found so far for each terminal.

    Values only move down.  Every stored witness is a cut of the graph the
    table was created for, with the terminal inside `side` and the source
    outside; witness tracking can be disabled for measurement runs.
    Terminals must be `int`s, and offered values non-negative `int`s (a
    `bool` is refused as either); every terminal starts at `math.inf`.
    """

    __slots__ = ("values", "witnesses", "track_witnesses")

    def __init__(self, terminals: Iterable[int], track_witnesses: bool = True):
        self.values: dict[int, float] = {t: math.inf for t in _terminal_ids(terminals)}
        self.witnesses: dict[int, Cut | None] = dict.fromkeys(self.values)
        self.track_witnesses = track_witnesses

    def ensure(self, terminals: Iterable[int]) -> None:
        for t in _terminal_ids(terminals):
            self.values.setdefault(t, math.inf)
            self.witnesses.setdefault(t, None)

    def offer(self, t: int, value: int, witness: Cut | None = None) -> bool:
        """Record a candidate; ignored unless strictly better and t is known."""
        if type(t) is not int:
            raise ValueError(f"terminal {t!r} is not an integer")
        if type(value) is not int or value < 0:
            raise ValueError(f"cut value {value!r} is not a non-negative integer")
        cur = self.values.get(t)
        if cur is None or value >= cur:
            return False
        self.values[t] = value
        if self.track_witnesses:
            self.witnesses[t] = witness
        return True

    def value(self, t: int) -> float:
        return self.values[self._known(t)]

    def witness(self, t: int) -> Cut | None:
        return self.witnesses[self._known(t)]

    def _known(self, t: int) -> int:
        if type(t) is not int or t not in self.values:
            raise ValueError(f"{t!r} is not a terminal of this table")
        return t

    def terminals(self) -> list[int]:
        return sorted(self.values)

    def __repr__(self) -> str:
        done = sum(1 for v in self.values.values() if v != math.inf)
        return f"CandidateCuts({done}/{len(self.values)} terminals bounded)"


def _terminal_ids(terminals: Iterable[int]) -> tuple[int, ...]:
    # checked before a dict merges 1.0 or True into the key 1
    ts = tuple(terminals)
    for t in ts:
        if type(t) is not int:
            raise ValueError(f"terminal {t!r} is not an integer")
    return ts


class RecursionStats:
    """Per-(procedure, k) call totals accumulated over one run.

    Tracks call count, instance vertices, tree sizes, and live edges (edges
    whose endpoints are both ordinary vertices rather than contracted
    supernodes); when stats are passed, every call records itself on entry,
    including k = 0.  The counts are of the recursion's logical calls: a
    child answered from the per-call memo, and a replayed pruning round,
    add the rows their first visit recorded, so the totals do not depend
    on either.
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
# deterministic work repeats too; one cache per top-level run collapses it.
# Every flow, multi-sink flow, isolating call and contracted child of the
# search goes through `_cached`, at every graph size.  A repeated child is
# then the same Graph object, so the lookups on it match by identity.
# Inside the search every cut side is an int bitmask of the vertices of
# its graph (bit v is vertex v), and the memo keeps results in that form:
# a flow as (value, sink-side mask), or its value alone when the table
# keeps no witnesses, and an isolating call as one (value, side mask) per
# group.  Merged sets are masks too, and a quotient is keyed by its
# merged set's mask.  Every table the recursion writes keeps its witnesses
# as masks of its instance's graph, which `_child` lifts onto the parent's
# ids; `_search` builds the caller's `Cut`s once, at the end.
# Random numbers are drawn only by pruning rounds, which run at k > 1, so a
# budget-1 child answers the same for the same instance whatever its seed:
# `_child` keeps its answer under (procedure, child graph, child tree,
# supernodes) and merges a repeat from there without recursing.  The answer
# is kept compact: the finite entries of the child's table with their
# witness masks, and, when stats are kept, the child's own
# `RecursionStats`, which every visit adds to the caller's.
# Everything the cache holds is dropped when the top-level call returns.
#
# Pruning rounds at k == 2 run at budget 1 and, with few prunable parts,
# mostly draw a tree an earlier round of the same loop drew.  Up to its
# leaf step (`_leaf_tail`) a budget-1 round only offers into its table,
# and a repeat would offer the same cuts, all refused since values
# only go down; the leaf step alone chooses by the table's values.  So
# `_prune_rounds` keeps, for that loop only, each pruned tree's body rows
# and the step its body returned, and a repeat adds those rows and runs
# the leaf step live; a `/z` child it repeats is answered from the memo.


@dataclass(frozen=True)
class _Cfg:
    reps_coeff: float
    stats: RecursionStats | None
    # the instance's contracted nodes and its `_live_edges`, kept with the stats alone
    supernodes: frozenset[int] | None = None
    live_edges: int | None = None
    cache: dict = field(default_factory=dict)


def _cached(cfg: _Cfg, fn, g: Graph, *args, keep=None):
    """`fn(g, *args)`, or `keep` of it when given, memoised per top-level
    run; the arguments must be hashable."""
    key = (fn, g, *args)
    res = cfg.cache.get(key)
    if res is None:
        res = fn(g, *args)
        res = cfg.cache[key] = res if keep is None else keep(res)
    return res


# what the memo keeps of a flow's result, and of an isolating call's
_value = attrgetter("value")


def _value_and_side(res) -> tuple[int, int]:
    return res.value, _mask(res.mincut.side)


def _group_sides(iso) -> tuple[tuple[int, int], ...]:
    return tuple((gc.value, _mask(gc.side)) for gc in iso)


def _flow(cfg: _Cfg, cuts: _MaskCuts, fn, g: Graph, s: int, sinks) -> tuple[int, int | None]:
    """Value and sink-side mask of the flow `fn(g, s, sinks)`.  When `cuts`
    keeps no witnesses the memo keeps the value alone, and the mask is
    None."""
    if cuts.track_witnesses:
        return _cached(cfg, fn, g, s, sinks, keep=_value_and_side)
    return _cached(cfg, fn, g, s, sinks, keep=_value), None


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of distinct vertex ids (a sum of distinct powers of two
    is their union)."""
    return sum(map((1).__lshift__, vertices))


# a mask's binary digits, lowest first, as bytes 0 and 1, and back
_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(mask: int) -> bytes:
    """Byte v is 1 when bit v of `mask` is set, else 0, up to its top bit."""
    return bin(mask)[:1:-1].encode().translate(_TO_BITS)


def _members(mask: int) -> Iterator[int]:
    """The vertex ids of `mask`, in increasing order."""
    return compress(count(), _bits(mask))


def _lift(forward: Sequence[int], mask: int, nq: int) -> int:
    """The mask of a side of an `nq`-vertex quotient lifted to the original
    ids: vertex v is in it when its image `forward[v]` is."""
    bits = _bits(mask).ljust(nq, b"\0")
    return int(bytes(map(bits.__getitem__, forward)).translate(_TO_DIGITS)[::-1], 2)


class _MaskCuts(CandidateCuts):
    """A table of the search, whose witnesses are side masks, not `Cut`s."""

    __slots__ = ()


def _seed_string(rng: random.Random | int | str) -> str:
    if isinstance(rng, random.Random):
        return f"r{rng.getrandbits(64):016x}"
    return f"s{rng}"


def _live_edges(g: Graph, supernodes: frozenset[int]) -> int:
    to = g.to
    return sum(1 for v, u in zip(to[::2], to[1::2]) if u not in supernodes and v not in supernodes)


def _enter(procedure: str, g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, cfg: _Cfg) -> bool:
    """Shared prologue of both recursions: record the call when stats are
    kept, and settle the instance outright when the budget is spent or the
    tree is small (one exact flow per terminal).  True when the caller must
    go on and split the tree."""
    if cfg.stats is not None:
        cfg.stats.record(procedure, k, g.n, tree.size, cfg.live_edges)
    if k == 0:
        return False
    if tree.size <= BASE_TREE_SIZE:
        s = tree.source
        for t in tree.vertices:
            if t != s:
                cuts.offer(t, *_flow(cfg, cuts, max_flow, g, s, t))
        return False
    return True


def _source_edge(tree: SteinerTree, c: int) -> tuple[tuple[int, int], ...]:
    """The edge reattaching the source at `c`, unless the tree has it."""
    s = tree.source
    sc = (s, c) if s < c else (c, s)
    return () if sc in tree.edges else (sc,)


def _prune_rounds(body, g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts,
                  seed: str, cfg: _Cfg, parts: Sequence[frozenset[int]]) -> None:
    """Random pruning lowers the budget: any cut whose extra tree crossings
    sit inside pruned parts is caught by a k-1 call on the thinned tree.

    A round is that call as its recursion makes it: `body`, then the leaf
    step `_leaf_tail`.  At k == 2 a round that repeats an earlier round's
    pruned tree replays its first visit: it adds the body's rows and runs
    only the leaf step (see the cache notes above).
    """
    rounds = max(1, math.ceil(cfg.reps_coeff * math.log2(max(2, g.n)))) if parts else 1
    visits: dict[SteinerTree, tuple] = {}
    for r in range(rounds):
        coin = random.Random(f"{seed}/p{r}#coins")
        pruned = _pruned(tree, parts, coin)
        if k > 2:
            _leaf_tail(body(g, pruned, k - 1, cuts, f"{seed}/p{r}", cfg), cuts, cfg)
            continue
        visit = visits.get(pruned)
        if visit is None:
            # the body's rows are counted apart, so that a repeat can add them
            own = None if cfg.stats is None else RecursionStats()
            body_cfg = cfg if own is None else replace(cfg, stats=own)
            step = body(g, pruned, 1, cuts, f"{seed}/p{r}", body_cfg)
            visit = visits[pruned] = (own, step)
        # a budget-1 call draws no random numbers, so the first visit's
        # seed in `step` serves the repeat too
        own, step = visit
        if own is not None:
            _add_rows(cfg.stats, own)
        _leaf_tail(step, cuts, cfg)


def _add_rows(stats: RecursionStats, own: RecursionStats) -> None:
    for row_key, row in own.rows.items():
        total = stats.rows.setdefault(row_key, [0, 0, 0, 0])
        for i, x in enumerate(row):
            total[i] += x


def _isolate(cfg: _Cfg, g: Graph, groups: Sequence[frozenset[int]],
             cuts: _MaskCuts) -> tuple[tuple[int, int], ...]:
    """Isolating cuts as (value, side mask) for each group but the source's
    own, `groups[0]`; each side separates its group from the source, so it
    is offered to every terminal of the group."""
    iso = _cached(cfg, _isolating_cuts, g, tuple(groups), 1, keep=_group_sides)
    for group, (value, mask) in zip(groups[1:], iso):
        for t in sorted(group):
            cuts.offer(t, value, mask)
    return iso


def _child(rec, g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, seed: str, cfg: _Cfg,
           merge: int, keep: set[int], extra: Sequence[tuple[int, int]] = ()) -> None:
    """Recurse at budget k on `g` with the vertices of mask `merge`
    contracted to one node.

    The child tree is the subtree induced on `keep`, plus the `extra`
    edges, mapped to quotient ids, with the source's image as its source.
    `keep` and `merge` share exactly one vertex, the centroid, so every
    child terminal is the image of exactly one vertex of `keep`, and its
    result is lifted back onto that vertex; only results that improve the
    parent's value are lifted, as the others would be refused anyway.  A
    budget-1 child that repeats within the call is answered from the memo
    (see the cache notes above).
    """
    # memoised like every flow and isolating call
    child_g, cm = _cached(cfg, _quotient, g, merge)
    f = cm.forward
    back = {f[v]: v for v in keep}
    # derived unchecked: `f` is not monotone, so order and sort as the constructor does
    edges = [(a, b) if a < b else (b, a) for a, b in
             ((f[u], f[v]) for u, v in chain(tree.edges, extra) if u in keep and v in keep)]
    child_tree = SteinerTree._derived(tuple(sorted(back)), tuple(sorted(edges)), f[tree.source])
    stats = cfg.stats
    supernodes = (None if stats is None
                  else frozenset(f[v] for v in cfg.supernodes) | cm.contracted_nodes)
    key = (rec, child_g, child_tree, supernodes)
    answer = cfg.cache.get(key) if k == 1 else None
    if answer is None:
        view = _MaskCuts((v for v in child_tree.vertices if v != child_tree.source),
                         cuts.track_witnesses)
        # counted apart, so that every visit of a kept answer adds the same rows
        own = None if stats is None else RecursionStats()
        live = None if stats is None else _live_edges(child_g, supernodes)
        rec(child_g, child_tree, k, view, seed,
            replace(cfg, stats=own, supernodes=supernodes, live_edges=live))
        answer = (_entries(view), own)
        if k == 1:
            cfg.cache[key] = answer
    entries, own = answer
    if own is not None:
        _add_rows(stats, own)
    best = cuts.values
    for q, val, mask in entries:
        v = back[q]
        if val < best[v]:
            cuts.offer(v, val, None if mask is None else _lift(f, mask, child_g.n))


def _entries(view: _MaskCuts) -> tuple[tuple[int, int, int | None], ...]:
    """The finite entries of a table as (terminal, value, witness mask or None)."""
    wits = view.witnesses
    return tuple((q, val, wits[q]) for q, val in view.values.items() if val != math.inf)


def _quotient(g: Graph, mask: int) -> tuple[Graph, ContractionMap]:
    """`g` with the vertices of mask `mask` merged into one node, and its
    map."""
    return contract(g, [[*_members(mask)]])


def _validate(g: Graph, tree: SteinerTree, k: int, reps_coeff: float) -> None:
    _check_guide(g, tree, k)
    # checked at every k, though only pruning rounds (k > 1) read it; a
    # value whose round count overflows a float could never finish anyway
    if (isinstance(reps_coeff, bool) or not isinstance(reps_coeff, (int, float))
            or not 0 < reps_coeff <= sys.float_info.max
            or math.isinf(reps_coeff * math.log2(max(2, g.n)))):
        raise ValueError(f"reps_coeff must be a positive finite number, got {reps_coeff!r}")


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
    _validate(g, tree, k, reps_coeff)
    _search(_tree_rec, g, tree, k, cuts, rng, stats, reps_coeff)


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
    _validate(g, tree, k, reps_coeff)
    if tree.degree(tree.source) != 1:
        raise ValueError("the leaf variant needs the source to be a tree leaf")
    _search(_leaf_rec, g, tree, k, cuts, rng, stats, reps_coeff)


def _search(rec, g: Graph, tree: SteinerTree, k: int, cuts: CandidateCuts, rng,
            stats: RecursionStats | None, reps_coeff: float) -> None:
    """Run the recursion `rec` on a mask table that starts at the caller's
    values, then offer `cuts` each value it improved, with its `Cut`."""
    terminals = [v for v in tree.vertices if v != tree.source]
    cuts.ensure(terminals)
    table = _MaskCuts(terminals, cuts.track_witnesses)
    # the leaf step chooses by these values
    table.values.update((t, cuts.values[t]) for t in terminals)
    cfg = _Cfg(reps_coeff, stats, None if stats is None else frozenset(), g.m)
    rec(g, tree, k, table, _seed_string(rng), cfg)
    for t, value, mask in _entries(table):
        if value < cuts.values[t]:
            cuts.offer(t, value, None if mask is None else Cut(frozenset(_members(mask)), value))


def _tree_rec(g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, seed: str, cfg: _Cfg) -> None:
    _leaf_tail(_tree_body(g, tree, k, cuts, seed, cfg), cuts, cfg)


def _leaf_rec(g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, seed: str, cfg: _Cfg) -> None:
    _leaf_tail(_leaf_body(g, tree, k, cuts, seed, cfg), cuts, cfg)


def _tree_body(g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, seed: str,
               cfg: _Cfg) -> tuple | None:
    """`_tree_rec` up to the leaf step of its `/l` call at k == 1: that
    step, as `_leaf_body` returns it, or None when there is none.  At
    k > 1 the `/l` and `/r` calls are made here, and None is returned."""
    if not _enter("tree", g, tree, k, cuts, cfg):
        return None

    s = tree.source
    dec = decompose(tree)
    c = dec.centroid
    sides = dec.side_trees
    trunk_inner = dec.trunk - {c}

    # At budget 1 the pruned calls would be no-ops, so skip them outright.
    if k > 1:
        parts = ([dec.forest] if dec.forest else []) + list(sides)
        _prune_rounds(_tree_body, g, tree, k, cuts, seed, cfg, parts)

        # The source-side forest on its own, one budget lower.
        if dec.forest:
            t2 = _subtree(tree, dec.forest | {s})
            _tree_rec(g, t2, k - 1, cuts, f"{seed}/f", cfg)

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
    iso = _isolate(cfg, g, groups, cuts)
    side_masks = [mask for _, mask in iso[first - 1:first - 1 + len(sides)]]

    everything = (1 << g.n) - 1
    for j, (side, mask) in enumerate(zip(sides, side_masks), start=first - parts_at):
        _child(_tree_rec, g, tree, k, cuts, f"{seed}/i{j}", cfg, everything ^ mask, side | {c})
    if c == s:
        return None

    # One child for the source's whole component of the tree minus the
    # centroid: the centroid and every side region fold into a single node
    # that stands in for the centroid, so cuts may take it or leave it.
    # The centroid bound keeps this child at roughly two thirds of the
    # tree.
    keep = {s, c} | dec.forest | trunk_inner
    if len(keep) < tree.size:
        merge = reduce(or_, side_masks, 1 << c)
        _child(_tree_rec, g, tree, k, cuts, f"{seed}/y", cfg, merge, keep)

    # Reduced tree: drop the forest and the trunk interior, reattach the
    # source directly at the centroid.  The leaf variant hunts cuts through
    # the new source edge at full budget; everything else has lost at least
    # one crossing, so a k-1 pass completes the coverage.
    t4 = _subtree(tree, {s, c}.union(*sides), _source_edge(tree, c))
    if k == 1:
        return _leaf_body(g, t4, k, cuts, f"{seed}/l", cfg)
    _leaf_rec(g, t4, k, cuts, f"{seed}/l", cfg)
    _tree_rec(g, t4, k - 1, cuts, f"{seed}/r", cfg)
    return None


def _leaf_body(g: Graph, tree: SteinerTree, k: int, cuts: _MaskCuts, seed: str,
               cfg: _Cfg) -> tuple | None:
    """`_leaf_rec` up to its single side-tree branch: returns what
    `_leaf_tail` needs for that branch, or None when there is none."""
    if not _enter("leaf", g, tree, k, cuts, cfg):
        return None

    s = tree.source
    # a leaf source has no forest of its own: its component of the tree
    # minus the centroid is exactly the trunk, and the side trees are the
    # prunable parts
    dec = decompose(tree)
    c = dec.centroid
    own_branch = dec.trunk - {c}
    sides = dec.side_trees

    if k > 1:
        _prune_rounds(_leaf_body, g, tree, k, cuts, seed, cfg, sides)

        # Drop the source's own branch and reattach the source at the
        # centroid; cuts through the old source edge that stay out of the
        # branch lose a crossing, so the unrestricted variant at k-1 covers
        # them.
        t2 = _subtree(tree, {s, c}.union(*sides), _source_edge(tree, c))
        _tree_rec(g, t2, k - 1, cuts, f"{seed}/b", cfg)

    groups: list[frozenset[int]] = [frozenset([s]), frozenset([c])]
    groups.extend(sides)
    if own_branch:
        groups.append(own_branch)
    iso = _isolate(cfg, g, groups, cuts)
    side_masks = [mask for _, mask in iso[1:1 + len(sides)]]

    # Source-branch child at the same budget: the centroid and the side
    # regions collapse into a single node hanging off the branch, free to
    # land on either side of a cut, so both centroid placements survive.
    keep = {s, c} | own_branch
    if own_branch and len(keep) < tree.size:
        merge = reduce(or_, side_masks, 1 << c)
        _child(_leaf_rec, g, tree, k, cuts, f"{seed}/y", cfg, merge, keep)

    # One exact cut from the source to everything at or beyond the
    # centroid; its value is shared by all those terminals at once.
    far = tuple(sorted({c}.union(*sides)))
    value, mask = _flow(cfg, cuts, max_flow_multi, g, s, far)
    for t in far:
        cuts.offer(t, value, mask)

    if not sides:
        return None
    branch = iso[-1][1] if own_branch else 0
    return (g, tree, k, seed, c, sides, side_masks, branch, set().union(*sides))


def _leaf_tail(step, cuts: _MaskCuts, cfg: _Cfg) -> None:
    """The single side-tree branch of `_leaf_rec`, the one step of either
    recursion that chooses by the values in `cuts`: recurse only where the
    current estimate is weakest, merging the centroid, every other side
    region and the source's branch into one node.  Descending into all
    side trees would blow up the recursion; the shared cut above pays for
    the branches we skip.  Nothing to do when `step` is None.  A replayed
    step that picks a side tree again meets the same budget-1 `/z` child,
    which `_child` answers from the memo."""
    if step is None:
        return
    g, tree, k, seed, c, sides, side_masks, branch, pool = step
    values = cuts.values
    # (value, -t) orders the terminals strictly, so the first maximum is
    # the only one
    z = max(pool, key=lambda t: (values[t], -t))
    i_star = next(i for i, side in enumerate(sides) if z in side)
    merge = reduce(or_, (m for i, m in enumerate(side_masks) if i != i_star), 1 << c | branch)
    part = sides[i_star]
    if merge.bit_count() > 1 or len(part) + 2 < tree.size:
        _child(_leaf_rec, g, tree, k, cuts, f"{seed}/z", cfg,
               merge, part | {tree.source, c}, _source_edge(tree, c))


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
    if type(s) is not int:
        raise ValueError(f"source must be an integer, got {s!r}")
    tset = sorted(set(_terminal_ids(terminals)) - {s})
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
    for t in tset:
        # a str or float would silently compare unequal: "loose"
        if type(estimates[t]) is not int:
            raise ValueError(f"estimate {estimates[t]!r} for terminal {t} is not an integer")

    cuts = CandidateCuts([])
    seed = _seed_string(rng)
    for i, tr in enumerate(guide_trees):
        tree_mincuts(g, tr, k, cuts, f"{seed}/g{i}", stats, reps_coeff=reps_coeff)
    return {t: ("tight" if cuts.value(t) == estimates[t] else "loose") for t in tset}
