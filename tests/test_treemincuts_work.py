"""The guided search's work on one seeded case, pinned.

A refactor of the recursion or its memo must find the same cuts
(`tests/test_treemincuts_golden.py`) and must do so with the same work:
the same flow solves and searches, the same hits and misses of
each memo kind, and the same `_child` calls, `decompose` calls and
`SteinerTree` builds, checked and derived.  A change that adds or removes
work fails here, under a name that says so, and declares its new figures.
"""
import functools
import random

import ghcut.maxflow as maxflow
import ghcut.treemincuts as treemincuts
from ghcut import CandidateCuts, RecursionStats, SteinerTree, generate, random_spanning_tree, tree_mincuts


class CountingMemo(dict):
    """The search's memo, counting hits and misses per kind of entry (the
    function that a key starts with); a miss is counted where the search
    stores what it computed."""

    def __init__(self):
        super().__init__()
        self.hits = {}
        self.misses = {}

    def get(self, key, default=None):
        res = super().get(key, default)
        if res is not None:
            kind = key[0].__name__
            self.hits[kind] = self.hits.get(kind, 0) + 1
        return res

    def __setitem__(self, key, value):
        kind = key[0].__name__
        self.misses[kind] = self.misses.get(kind, 0) + 1
        super().__setitem__(key, value)


def count_work(monkeypatch, search):
    """Run `search()` and count its work, as a dict of named counts."""
    counts = dict.fromkeys(
        ["solves", "level_searches", "children", "decompositions", "trees", "derived_trees"], 0)
    memo = CountingMemo()

    def counted(name, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(treemincuts, "_Cfg", functools.partial(treemincuts._Cfg, cache=memo))
        m.setattr(maxflow, "_dinic", counted("solves", maxflow._dinic))
        m.setattr(maxflow, "_levels", counted("level_searches", maxflow._levels))
        m.setattr(treemincuts, "_child", counted("children", treemincuts._child))
        m.setattr(treemincuts, "decompose", counted("decompositions", treemincuts.decompose))
        m.setattr(SteinerTree, "__init__", counted("trees", SteinerTree.__init__))
        m.setattr(SteinerTree, "_derived", counted("derived_trees", SteinerTree._derived))
        search()
    counts["memo_hits"] = dict(sorted(memo.hits.items()))
    counts["memo_misses"] = dict(sorted(memo.misses.items()))
    return counts


# one `sst-guided`-sized call: n=72, k=2, witnesses and stats kept.
# The search asks the isolating core (`_isolating_cuts`, the memo kind
# that was `isolating_cuts`) for every group's side but the source's own,
# which it never read, so that group's region flows are gone: 95 fewer
# solves (2,151 before) and 371 fewer level searches (7,632 before).
# `_child`, `decompose` and every memo hit and miss stay.  Every tree the
# search builds is derived from a checked one without the constructor's
# checks, so the 1,371 builds are all `_derived` and none is checked.
# Augmenting along each search's own trees, and stopping once the arcs out
# of the source are saturated, took level searches from 7,261 to 7,245.
WORK = {
    "solves": 2056,
    "level_searches": 7245,
    "children": 908,
    "decompositions": 316,
    "trees": 0,
    "derived_trees": 1371,
    "memo_hits": {
        "_isolating_cuts": 106, "_leaf_rec": 335, "_quotient": 499,
        "_tree_rec": 84, "max_flow": 437, "max_flow_multi": 77,
    },
    "memo_misses": {
        "_isolating_cuts": 210, "_leaf_rec": 242, "_quotient": 409,
        "_tree_rec": 158, "max_flow": 1281, "max_flow_multi": 125,
    },
}


def test_search_work_matches_snapshot(monkeypatch):
    g = generate("erdos-renyi-weighted", 72, seed=72)
    tr = random_spanning_tree(g, 0, random.Random("work|72"))
    cuts = CandidateCuts([])
    stats = RecursionStats()
    work = count_work(monkeypatch, lambda: tree_mincuts(g, tr, 2, cuts, "work", stats))
    assert work == WORK
