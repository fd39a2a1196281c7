"""Isolating cuts: exact values, minimal sides, disjointness."""
import math
import random

import pytest

import ghcut.maxflow
from ghcut import (
    Graph,
    brute_isolating_cuts,
    cut_value,
    generate,
    isolating_cuts,
)


def groups_of(rng, n, count):
    verts = rng.sample(range(n), rng.randint(count, min(n, count + 3)))
    groups = [sorted(verts[i::count]) for i in range(count)]
    return [g for g in groups if g]


def test_frozen_anchor():
    g = generate("erdos-renyi-weighted", 8, seed=3)
    cuts = isolating_cuts(g, [[0], [3], [6]])
    assert [c.value for c in cuts] == [5, 23, 18]
    assert sorted(cuts[0].side) == [0]
    assert sorted(cuts[1].side) == [1, 2, 3, 4, 5, 7]
    assert sorted(cuts[2].side) == [6]


def test_values_and_minimal_sides_match_oracle():
    rng = random.Random("iso-battery")
    for inst in range(40):
        n = rng.randint(4, 10)
        g = generate(
            rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]),
            n,
            seed=inst,
        )
        groups = groups_of(rng, n, rng.randint(2, 4))
        if len(groups) < 2:
            continue
        got = isolating_cuts(g, groups)
        want = brute_isolating_cuts(g, groups)
        for cut, ans in zip(got, want):
            assert cut.value == ans.value
            assert frozenset(cut.side) == ans.minimal_side()


def test_groups_their_regions_isolate_run_no_flow(monkeypatch):
    # groups that cover every vertex each get a region equal to the group,
    # so the ceil(log2 G) bipartition flows are the only solves, and each
    # side is the group with its boundary as the value
    solves = []
    dinic = ghcut.maxflow._dinic

    def counted_dinic(*args):
        solves.append(args[1:])
        return dinic(*args)

    monkeypatch.setattr(ghcut.maxflow, "_dinic", counted_dinic)
    rng = random.Random("iso-partition")
    for inst in range(16):
        n = rng.randint(4, 12)
        g = generate(rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]), n,
                     seed=300 + inst)
        verts = list(range(n))
        rng.shuffle(verts)
        count = rng.randint(2, n)
        groups = [verts[i::count] for i in range(count)]
        solves.clear()
        got = isolating_cuts(g, groups)
        assert len(solves) == math.ceil(math.log2(count))
        for cut, grp, ans in zip(got, groups, brute_isolating_cuts(g, groups)):
            assert cut.side == frozenset(grp) == ans.minimal_side()
            assert cut.value == ans.value == cut_value(g, grp)


def test_sides_disjoint_and_contain_groups():
    rng = random.Random("iso-shape")
    for inst in range(25):
        n = rng.randint(5, 12)
        g = generate("erdos-renyi-weighted", n, seed=900 + inst)
        groups = groups_of(rng, n, 3)
        if len(groups) < 2:
            continue
        cuts = isolating_cuts(g, groups)
        seen = set()
        for cut, grp in zip(cuts, groups):
            side = set(cut.side)
            assert set(grp) <= side
            assert not side & seen
            seen |= side
            for other in groups:
                if other is not grp:
                    assert not side & set(other)
            assert cut_value(g, side) == cut.value


def test_as_cut_round_trip():
    g = generate("clique", 7, seed=4)
    cuts = isolating_cuts(g, [[0, 1], [4], [6]])
    for gc in cuts:
        c = gc.as_cut()
        assert c.value == gc.value
        assert c.side == frozenset(gc.side)


def test_two_groups_reduce_to_max_flow():
    from ghcut import max_flow_multi

    g = generate("erdos-renyi-weighted", 9, seed=11)
    a, b = isolating_cuts(g, [[2], [5]])
    assert a.value == max_flow_multi(g, 5, [2]).value
    assert b.value == max_flow_multi(g, 2, [5]).value


def test_rejects_bad_groups():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError):
        isolating_cuts(g, [[0]])
    with pytest.raises(ValueError):
        isolating_cuts(g, [[0], []])
    with pytest.raises(ValueError):
        isolating_cuts(g, [[0, 1], [1]])
    with pytest.raises(ValueError):
        isolating_cuts(g, [[0], [9]])


def test_determinism():
    g = generate("erdos-renyi-weighted", 11, seed=6)
    groups = [[0, 2], [5], [8, 10]]
    first = isolating_cuts(g, groups)
    second = isolating_cuts(g, groups)
    assert [(c.value, tuple(c.side)) for c in first] == [
        (c.value, tuple(c.side)) for c in second
    ]
