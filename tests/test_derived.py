"""What the guided search builds without the public checks equals what
the checked path builds.

Inside the search every tree is derived from a checked one and skips the
constructor's checks (`SteinerTree._derived`): `_child`'s mapped child
tree, the reduced trees and forests of `steiner._subtree`, and the pruned
trees of `steiner._pruned`.  Each must equal, with an equal hash, the tree
the checked constructor or `prune_sample` builds from the same parts.  And
the search asks the isolating core (`isolating._isolating_cuts`) for the
sides from group 1 on; they must equal `isolating_cuts`' own, and the
brute-force oracle's on small graphs.
"""
import random

import pytest

import ghcut.treemincuts as treemincuts
from ghcut import (
    CandidateCuts,
    RecursionStats,
    SteinerTree,
    brute_isolating_cuts,
    decompose,
    generate,
    isolating_cuts,
    leaf_mincuts,
    prune_sample,
    random_spanning_tree,
    random_steiner_tree,
    tree_mincuts,
)
from ghcut.isolating import _isolating_cuts
from ghcut.steiner import _pruned, _subtree
from ghcut.treemincuts import _source_edge


def same_tree(got, want):
    assert got == want
    assert hash(got) == hash(want)


def seeded_trees(tag, count=60):
    rng = random.Random(f"derived|{tag}")
    for _ in range(count):
        n = rng.randint(2, 40)
        verts = rng.sample(range(3 * n), n)
        yield random_steiner_tree(verts, rng.choice(verts), rng)


def induced(tree, verts, extra=()):
    """The checked build of the subtree induced on `verts`, plus `extra`."""
    vset = set(verts)
    edges = [(u, v) for u, v in tree.edges if u in vset and v in vset]
    return SteinerTree(vset, edges + list(extra), tree.source)


def test_subtrees_equal_checked_builds():
    with_edge = without_edge = 0
    for tree in seeded_trees("subtree"):
        s = tree.source
        dec = decompose(tree)
        c = dec.centroid
        # the forest with the source (the `/f` tree)
        if dec.forest:
            same_tree(_subtree(tree, dec.forest | {s}), induced(tree, dec.forest | {s}))
        if c == s:
            continue
        # the reduced tree, the source reattached at the centroid (`/l`, `/b`)
        verts = {s, c}.union(*dec.side_trees)
        extra = _source_edge(tree, c)
        same_tree(_subtree(tree, verts, extra), induced(tree, verts, extra))
        if extra:
            with_edge += 1
        else:
            without_edge += 1
    assert with_edge and without_edge


def fixed_coins(parts, seed):
    """What the coins of `random.Random(seed)` remove, one coin per part in
    order, and the generator after them."""
    coins = random.Random(seed)
    return set().union(*(p for p in parts if coins.random() < 0.5)), coins


def test_pruned_trees_equal_prune_sample():
    pruned = unpruned = 0
    for tree in seeded_trees("prune"):
        dec = decompose(tree)
        parts = ([dec.forest] if dec.forest else []) + list(dec.side_trees)
        for r in range(4):
            removed, coins = fixed_coins(parts, f"coins|{r}")
            want = induced(tree, set(tree.vertices) - removed) if removed else tree
            for build in (_pruned, prune_sample):
                rng = random.Random(f"coins|{r}")
                same_tree(build(tree, parts, rng), want)
                assert rng.getstate() == coins.getstate()
            if removed:
                pruned += 1
            else:
                unpruned += 1
    assert pruned and unpruned


@pytest.mark.parametrize("leaf", [False, True], ids=["tree", "leaf"])
def test_child_trees_equal_checked_builds(monkeypatch, leaf):
    # every child tree `_child` derives equals the checked tree on the kept
    # subtree plus its `extra` edges, mapped to the quotient's ids
    real_child, real_derived = treemincuts._child, SteinerTree._derived
    derived = []
    seen = {False: 0, True: 0}

    def recording_derived(*args):
        t = real_derived(*args)
        derived.append(t)
        return t

    def checked_child(rec, g, tree, k, cuts, seed, cfg, merge, keep, extra=()):
        _, cm = treemincuts._quotient(g, merge)
        f = cm.forward
        edges = [(f[u], f[v]) for u, v in tree.edges if u in keep and v in keep]
        edges += [(f[u], f[v]) for u, v in extra]
        want = SteinerTree({f[v] for v in keep}, edges, f[tree.source])
        mark = len(derived)
        real_child(rec, g, tree, k, cuts, seed, cfg, merge, keep, extra)
        # the quotient is not a tree, so the first tree derived is the child's
        same_tree(derived[mark], want)
        seen[bool(extra)] += 1

    monkeypatch.setattr(SteinerTree, "_derived", recording_derived)
    monkeypatch.setattr(treemincuts, "_child", checked_child)
    for case in range(3):
        rng = random.Random(f"derived-child|{case}|{leaf}")
        n = 36
        g = generate("erdos-renyi-weighted", n, seed=case)
        tr = random_spanning_tree(g, 0, rng)
        if leaf:
            # a leaf source: the spine spans the rest, the source hangs off it
            spine = random_steiner_tree(range(1, n), 1, rng)
            tr = SteinerTree(range(n), list(spine.edges) + [(0, rng.randrange(1, n))], 0)
        fn = leaf_mincuts if leaf else tree_mincuts
        fn(g, tr, 2, CandidateCuts([]), f"derived|{case}", RecursionStats(), reps_coeff=1.5)
    # both kinds of child occurred: with the source edge (`/z`) and without
    assert seen[False] and seen[True]


def seeded_groups(rng, n):
    verts = rng.sample(range(n), rng.randint(2, n))
    count = rng.randint(2, len(verts))
    cuts = sorted(rng.sample(range(1, len(verts)), count - 1))
    return [verts[i:j] for i, j in zip([0] + cuts, cuts + [len(verts)])]


def test_isolating_core_equals_isolating_cuts():
    rng = random.Random("derived-iso")
    for inst in range(60):
        n = rng.randint(3, 30)
        g = generate(rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]), n, seed=inst)
        groups = seeded_groups(rng, n)
        gsets = [frozenset(grp) for grp in groups]
        got = _isolating_cuts(g, gsets, 1)
        want = isolating_cuts(g, groups)
        assert len(got) == len(groups) - 1
        assert [(gc.group, gc.side, gc.value) for gc in got] == \
            [(gc.group, gc.side, gc.value) for gc in want[1:]]
        if n <= 12:
            for gc, ans in zip(got, brute_isolating_cuts(g, groups)[1:]):
                assert gc.value == ans.value
                assert gc.side == ans.minimal_side()
