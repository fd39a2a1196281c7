"""Golden outputs of the flow solver under fixed seeds.

Every flow in the package runs through one Dinic solver, and the reported
sides are the canonical ones (see `maxflow`), so a change to the solver
that claims the same outputs must reproduce these digests exactly:

- the `(parent, weight)` arrays of Gusfield trees over a fixed battery of
  generated graphs, up to the n=200, p=0.05 graphs the `gh-build`
  benchmark builds on;
- `(value, sorted sink side)` of seeded `max_flow`, `max_flow_multi` and
  `isolating_cuts` solves on random graphs with weights up to 1000;
- the number of level searches (Dinic phases, plus the last search that
  finds the sink out of reach) of every solve in both batteries.  Each
  search must find every shortest augmenting path: one that left a path
  out would take more phases, which the outputs alone would not show.

The digests are sha256 over canonical JSON.
"""
import hashlib
import json
import random

import ghcut.maxflow
from ghcut import Graph, build_gusfield, generate, isolating_cuts, max_flow, max_flow_multi

# (kind, n, seed, weight range, p); p=None is the generator's default
GUSFIELD_BATTERY = (
    [("erdos-renyi-weighted", n, seed, (1, 10), None)
     for n in (4, 7, 12, 25, 50, 100, 200) for seed in (0, 1)]
    + [("erdos-renyi-weighted", n, seed, (1, 1000), None) for n in (9, 33, 120) for seed in (2, 3)]
    + [("erdos-renyi-weighted", 200, seed, (1, 100), 0.05) for seed in range(3)]
    + [("planted-cut", n, seed, (1, 10), None) for n in (4, 9, 16, 40, 80) for seed in (0, 1)]
    + [("clique", n, seed, (1, 10), None) for n in (4, 6, 10, 20, 40) for seed in (0, 1)]
)

GUSFIELD_DIGEST = "96889994e9ee1c9254cce1346a91bdc4aae43c399991fb09fd718516087ce02c"
FLOW_DIGEST = "7bd7fc77da4732946115a38053f796bf6771a8fea1929d30dd37bb3be5e67c8f"
# level searches per solve, in solve order over both batteries: the list
# of 4644 solves and 16552 searches made when every isolating group ran a
# flow, less the 625 solves (1103 searches) of groups whose region is the
# group, which now run none
SOLVES, SEARCHES = 4019, 15449
SEARCHES_DIGEST = "15d8de43f489acea5c41df68ff870d82ece57da88a56a18bf9e5c3d9e154d7d5"


def digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def gusfield_trees():
    out = []
    for kind, n, seed, weights, p in GUSFIELD_BATTERY:
        kw = {} if p is None else {"p": p}
        tree = build_gusfield(generate(kind, n, seed=seed, weight_range=weights, **kw))
        out.append([kind, n, seed, list(tree.parent), list(tree.weight)])
    return out


def random_graph(rng, n):
    p = rng.uniform(0.5, 5.0) / n
    return Graph(n, [(u, v, rng.randint(1, 1000)) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def flow_solves():
    out = []
    for i in range(300):
        rng = random.Random(f"flow-golden|{i}")
        n = rng.randint(2, 60)
        g = random_graph(rng, n)
        s, t = rng.sample(range(n), 2)
        res = max_flow(g, s, t)
        out.append(["max_flow", res.value, sorted(res.mincut.side)])
        if n >= 3:
            s, *sinks = rng.sample(range(n), rng.randint(2, min(8, n)))
            res = max_flow_multi(g, s, sinks)
            out.append(["max_flow_multi", res.value, sorted(res.mincut.side)])
        if n >= 4:
            picked = rng.sample(range(n), rng.randint(2, min(n, 12)))
            cut = rng.randint(1, len(picked) - 1)
            groups = [picked[:cut], picked[cut:]] if i % 2 else [[v] for v in picked]
            out.append(["isolating_cuts"] + [[gc.value, sorted(gc.side)]
                                             for gc in isolating_cuts(g, groups)])
    return out


def test_gusfield_trees_match_golden():
    assert digest(gusfield_trees()) == GUSFIELD_DIGEST


def test_flow_solves_match_golden():
    assert digest(flow_solves()) == FLOW_DIGEST


def test_level_searches_per_solve_match_golden(monkeypatch):
    counts = []
    dinic, levels = ghcut.maxflow._dinic, ghcut.maxflow._levels

    def counted_dinic(*args):
        counts.append(0)
        return dinic(*args)

    def counted_levels(*args):
        counts[-1] += 1
        return levels(*args)

    monkeypatch.setattr(ghcut.maxflow, "_dinic", counted_dinic)
    monkeypatch.setattr(ghcut.maxflow, "_levels", counted_levels)
    gusfield_trees()
    flow_solves()
    assert (len(counts), sum(counts)) == (SOLVES, SEARCHES)
    assert digest(counts) == SEARCHES_DIGEST
