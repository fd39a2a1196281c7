"""The guided search's per-call memo: it changes nothing, and stays compact.

The memo (`treemincuts._Cfg.cache`) answers repeated flows, isolating
calls, quotients and budget-1 children within one top-level call.  A run
whose memo never hits must find the same values, witnesses and
`RecursionStats` as a normal run, for both procedures and for
`sstcv_verify`, with witnesses tracked or not.  And the memo holds cut
sides as int bitmasks: outside the quotients no entry may keep a
`frozenset`, `Cut`, `FlowResult` or `GroupCut`.
"""
import functools
import random

import pytest

import ghcut.treemincuts as treemincuts
from ghcut import (
    CandidateCuts,
    Cut,
    FlowResult,
    GroupCut,
    RecursionStats,
    SteinerTree,
    generate,
    leaf_mincuts,
    max_flow,
    random_spanning_tree,
    random_steiner_tree,
    sstcv_verify,
    tree_mincuts,
)


class NeverHits(dict):
    """A memo that keeps nothing, so every lookup misses; it counts what
    the search stored, to show that the search went through it."""

    def __init__(self):
        super().__init__()
        self.stores = 0

    def __setitem__(self, key, value):
        self.stores += 1


def with_cache(monkeypatch, cache):
    monkeypatch.setattr(treemincuts, "_Cfg", functools.partial(treemincuts._Cfg, cache=cache))


def leaf_tree(verts, rng):
    s = verts[0]
    spine = random_steiner_tree(verts[1:], verts[1], rng)
    return SteinerTree(verts, list(spine.edges) + [(s, rng.choice(verts[1:]))], s)


def search_instance(case, leaf):
    rng = random.Random(f"memo-off|{case}|{leaf}")
    n = rng.choice([20, 32, 44])
    g = generate("erdos-renyi-weighted", n, seed=case)
    verts = rng.sample(range(n), rng.randint(n // 2, n))
    tr = leaf_tree(verts, rng) if leaf else random_steiner_tree(verts, verts[0], rng)
    return g, tr


def run_search(fn, g, tr, k, track, seed):
    cuts = CandidateCuts([], track_witnesses=track)
    stats = RecursionStats()
    fn(g, tr, k, cuts, seed, stats, reps_coeff=1.5)
    witnesses = {t: None if w is None else (w.side, w.value) for t, w in cuts.witnesses.items()}
    return cuts.values, witnesses, stats.as_dict()


@pytest.mark.parametrize("track", [True, False], ids=["witnesses", "no-witnesses"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("leaf", [False, True], ids=["tree", "leaf"])
def test_a_memo_that_never_hits_finds_the_same_cuts(monkeypatch, leaf, k, track):
    fn = leaf_mincuts if leaf else tree_mincuts
    for case in range(3):
        g, tr = search_instance(case, leaf)
        seed = f"memo-off|{case}"
        with_memo = run_search(fn, g, tr, k, track, seed)
        cache = NeverHits()
        with monkeypatch.context() as m:
            with_cache(m, cache)
            assert run_search(fn, g, tr, k, track, seed) == with_memo, case
        assert cache.stores > 0


@pytest.mark.parametrize("k", [1, 2])
def test_a_memo_that_never_hits_gives_the_same_verdicts(monkeypatch, k):
    for case in range(3):
        rng = random.Random(f"memo-off-sstcv|{case}")
        n = 30
        g = generate("erdos-renyi-weighted", n, seed=100 + case)
        terminals = rng.sample(range(1, n), 12)
        trees = [random_spanning_tree(g, 0, rng) for _ in range(2)]
        # true values and values one above them, so both verdicts occur
        estimates = {t: max_flow(g, 0, t).value + i % 2 for i, t in enumerate(terminals)}
        runs = []
        for cache in (None, NeverHits()):
            with monkeypatch.context() as m:
                if cache is not None:
                    with_cache(m, cache)
                stats = RecursionStats()
                verdicts = sstcv_verify(g, terminals, 0, estimates, trees, k, f"memo-off|{case}",
                                        reps_coeff=1.5, stats=stats)
                runs.append((verdicts, stats.as_dict()))
        assert cache.stores > 0
        assert set(runs[0][0].values()) == {"tight", "loose"}
        assert runs[0] == runs[1], case


def sides_in(obj):
    """Every object in `obj`'s tuples, lists, dicts and `RecursionStats`
    rows that is a cut side or a result carrying one."""
    if isinstance(obj, (frozenset, set, Cut, FlowResult, GroupCut)):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from sides_in(x)
    elif isinstance(obj, dict):
        for kv in obj.items():
            yield from sides_in(kv)
    elif isinstance(obj, RecursionStats):
        yield from sides_in(obj.rows)


@pytest.mark.parametrize("track", [True, False], ids=["witnesses", "no-witnesses"])
def test_the_memo_keeps_sides_as_masks(monkeypatch, track):
    g = generate("erdos-renyi-weighted", 48, seed=48)
    tr = random_spanning_tree(g, 0, random.Random("compact|48"))
    cache = {}
    with_cache(monkeypatch, cache)
    tree_mincuts(g, tr, 2, CandidateCuts([], track_witnesses=track), "compact", RecursionStats())
    kinds = {}
    for key, value in cache.items():
        kind = key[0]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind is treemincuts._quotient:
            continue
        assert not list(sides_in(value)), kind
        if kind in (treemincuts.max_flow, treemincuts.max_flow_multi):
            # a flow keeps its sink side's mask only when witnesses are kept
            assert type(value) is (tuple if track else int)
    # every kind of entry was there to be checked
    assert set(kinds) == {treemincuts._quotient, treemincuts.max_flow, treemincuts.max_flow_multi,
                          treemincuts._isolating_cuts, treemincuts._tree_rec, treemincuts._leaf_rec}
