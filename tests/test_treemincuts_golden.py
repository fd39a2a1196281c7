"""Golden outputs of the guided search under fixed seeds.

The search is deterministic given its seed string, so a refactor of the
recursion must reproduce these values, witnesses and per-level
`RecursionStats` exactly.  The small cases are spelled out; the n=72 case,
the size of the guided-search benchmark, is pinned by a sha256 digest of its
canonical JSON.  Together the small cases reach every recursive call site of
both procedures (pruning rounds, the forest, per-part and folded children,
the reduced tree and the leaf variant's single side-tree branch); one more
pins the branch in pruning rounds that repeat an earlier round's tree, and
one a second search into a table that already holds values.
"""
import hashlib
import json
import random

import pytest

from ghcut import (
    CandidateCuts,
    RecursionStats,
    SteinerTree,
    brute_min_cut,
    generate,
    leaf_mincuts,
    random_spanning_tree,
    random_steiner_tree,
    sstcv_verify,
    tree_mincuts,
)


def instance(n, nt, seed, leaf=False):
    rng = random.Random(f"golden|{seed}")
    g = generate("erdos-renyi-weighted", n, seed=seed)
    verts = rng.sample(range(n), nt)
    s = verts[0]
    if leaf:
        spine = random_steiner_tree(verts[1:], verts[1], rng)
        tr = SteinerTree(verts, list(spine.edges) + [(s, verts[1])], s)
    else:
        tr = random_steiner_tree(verts, s, rng)
    return g, tr


def run(fn, g, tr, k, seed):
    cuts = CandidateCuts([])
    stats = RecursionStats()
    fn(g, tr, k, cuts, seed, stats)
    return output(cuts, stats)


def output(cuts, stats):
    return {
        "values": dict(sorted(cuts.values.items())),
        "witnesses": {
            t: None if w is None else [sorted(w.side), w.value]
            for t, w in sorted(cuts.witnesses.items())
        },
        "stats": stats.as_dict(),
    }


def sstcv_case():
    g, tr = instance(10, 8, 6)
    s = tr.source
    rng = random.Random("golden|sstcv")
    guides = [tr, random_steiner_tree(tr.vertices, s, rng)]
    terminals = [t for t in tr.vertices if t != s]
    estimates = {t: brute_min_cut(g, s, t).value for t in terminals}
    estimates[terminals[0]] += 1
    stats = RecursionStats()
    verdicts = sstcv_verify(g, terminals, s, estimates, guides, 2, "sv", stats=stats)
    return {"verdicts": verdicts, "stats": stats.as_dict()}


def digest(out):
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# (procedure, instance arguments, leaf source, budget k, seed) -> output
SMALL = {
    "tree-k2": (
        ("tree", (10, 8, 1), False, 2, "c1"),
        {
            "values": {0: 11, 1: 17, 3: 16, 5: 15, 6: 14, 7: 17, 9: 17},
            "witnesses": {
                0: [[0, 4], 11],
                1: [[0, 1, 3, 4, 7], 17],
                3: [[3], 16],
                5: [[5], 15],
                6: [[6], 14],
                7: [[0, 1, 3, 4, 7], 17],
                9: [[6, 8, 9], 17],
            },
            "stats": {
                "leaf": {
                    "1": {"calls": 1, "vertices": 10, "tree_vertices": 5, "edges": 16},
                },
                "tree": {
                    "1": {"calls": 19, "vertices": 134, "tree_vertices": 76, "edges": 170},
                    "2": {"calls": 4, "vertices": 21, "tree_vertices": 18, "edges": 19},
                },
            },
        },
    ),
    "tree-k3": (
        ("tree", (12, 9, 2), False, 3, "c2"),
        {
            "values": {0: 12, 1: 22, 3: 22, 5: 22, 6: 17, 7: 22, 8: 13, 11: 9},
            "witnesses": {
                0: [[0, 11], 12],
                1: [[0, 1, 3, 4, 5, 6, 7, 8, 10, 11], 22],
                3: [[0, 1, 3, 4, 5, 6, 7, 8, 10, 11], 22],
                5: [[0, 1, 3, 4, 5, 6, 7, 8, 10, 11], 22],
                6: [[6], 17],
                7: [[0, 1, 3, 4, 5, 6, 7, 8, 10, 11], 22],
                8: [[0, 8, 11], 13],
                11: [[11], 9],
            },
            "stats": {
                "leaf": {
                    "1": {"calls": 5, "vertices": 60, "tree_vertices": 27, "edges": 105},
                    "2": {"calls": 3, "vertices": 36, "tree_vertices": 17, "edges": 63},
                    "3": {"calls": 1, "vertices": 12, "tree_vertices": 6, "edges": 21},
                },
                "tree": {
                    "1": {"calls": 87, "vertices": 835, "tree_vertices": 349, "edges": 1334},
                    "2": {"calls": 30, "vertices": 218, "tree_vertices": 126, "edges": 299},
                    "3": {"calls": 5, "vertices": 27, "tree_vertices": 21, "edges": 28},
                },
            },
        },
    ),
    "leaf-k2": (
        ("leaf", (11, 9, 4), True, 2, "c4"),
        {
            "values": {0: 12, 1: 12, 2: 12, 3: 12, 6: 6, 7: 8, 8: 6, 9: 12},
            "witnesses": {
                0: [[0, 1, 2, 3, 6, 8, 9, 10], 12],
                1: [[0, 1, 2, 3, 6, 8, 9, 10], 12],
                2: [[0, 1, 2, 3, 6, 8, 9, 10], 12],
                3: [[0, 1, 2, 3, 6, 8, 9, 10], 12],
                6: [[6], 6],
                7: [[7], 8],
                8: [[8], 6],
                9: [[0, 1, 2, 3, 6, 8, 9, 10], 12],
            },
            "stats": {
                "leaf": {
                    "1": {"calls": 15, "vertices": 146, "tree_vertices": 77, "edges": 196},
                    "2": {"calls": 2, "vertices": 15, "tree_vertices": 12, "edges": 17},
                },
                "tree": {
                    "1": {"calls": 5, "vertices": 25, "tree_vertices": 21, "edges": 19},
                },
            },
        },
    ),
    "leaf-k3": (
        ("leaf", (10, 8, 5), True, 3, "c5"),
        {
            "values": {0: 12, 1: 14, 2: 24, 5: 18, 6: 15, 7: 41, 9: 16},
            "witnesses": {
                0: [[0], 12],
                1: [[1], 14],
                2: [[2], 24],
                5: [[0, 5], 18],
                6: [[6], 15],
                7: [[7], 41],
                9: [[9], 16],
            },
            "stats": {
                "leaf": {
                    "1": {"calls": 160, "vertices": 1354, "tree_vertices": 817, "edges": 2524},
                    "2": {"calls": 23, "vertices": 192, "tree_vertices": 129, "edges": 346},
                    "3": {"calls": 2, "vertices": 18, "tree_vertices": 14, "edges": 33},
                },
                "tree": {
                    "1": {"calls": 45, "vertices": 288, "tree_vertices": 186, "edges": 475},
                    "2": {"calls": 5, "vertices": 23, "tree_vertices": 19, "edges": 28},
                },
            },
        },
    ),
}

SSTCV = {
    "verdicts": {
        0: "loose", 2: "tight", 4: "tight", 5: "tight", 6: "tight", 7: "tight", 9: "tight",
    },
    "stats": {
        "leaf": {
            "1": {"calls": 4, "vertices": 40, "tree_vertices": 23, "edges": 68},
            "2": {"calls": 1, "vertices": 10, "tree_vertices": 6, "edges": 17},
        },
        "tree": {
            "1": {"calls": 87, "vertices": 562, "tree_vertices": 330, "edges": 765},
            "2": {"calls": 11, "vertices": 47, "tree_vertices": 39, "edges": 42},
        },
    },
}

# A leaf run in which five pruning rounds repeat an earlier round's tree of
# the same loop while the table has moved on, so that the leaf step picks
# another side tree than at the first visit: replaying a repeat must still
# decide that step from the table as it stands.  Recorded before repeated
# rounds were replayed.
REPLAY = (
    ((11, 11, 1), "z1"),
    {
        "values": {0: 18, 1: 1, 2: 22, 3: 8, 4: 10, 5: 11, 6: 22, 7: 11, 8: 14, 9: 20},
        "witnesses": {
            0: [[0], 18],
            1: [[1], 1],
            2: [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 22],
            3: [[3], 8],
            4: [[3, 4, 5], 10],
            5: [[3, 5], 11],
            6: [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 22],
            7: [[7], 11],
            8: [[1, 7, 8], 14],
            9: [[1, 3, 4, 5, 7, 8, 9], 20],
        },
        "stats": {
            "leaf": {
                "1": {"calls": 29, "vertices": 225, "tree_vertices": 169, "edges": 286},
                "2": {"calls": 3, "vertices": 20, "tree_vertices": 20, "edges": 22},
            },
            "tree": {
                "1": {"calls": 5, "vertices": 25, "tree_vertices": 19, "edges": 23},
            },
        },
    },
)

# Two searches into one table: a tree search at k=2, then a leaf search
# from the same source at k=3, with one `RecursionStats` for both.  The
# second search starts from the values the first left, and its leaf steps
# choose their side trees by them; had it started from math.inf, it would
# choose others and count other rows.
TWO_SEARCHES = (
    ((10, 8, 12), "t12"),
    {
        "values": {0: 21, 1: 6, 2: 16, 5: 2, 6: 10, 8: 20, 9: 24},
        "witnesses": {
            0: [[0], 21],
            1: [[1], 6],
            2: [[1, 2, 3, 5, 6], 16],
            5: [[5], 2],
            6: [[3, 5, 6], 10],
            8: [[8], 20],
            9: [[0, 4, 8, 9], 24],
        },
        "stats": {
            "leaf": {
                "1": {"calls": 60, "vertices": 467, "tree_vertices": 278, "edges": 669},
                "2": {"calls": 16, "vertices": 130, "tree_vertices": 74, "edges": 195},
                "3": {"calls": 3, "vertices": 18, "tree_vertices": 14, "edges": 20},
            },
            "tree": {
                "1": {"calls": 55, "vertices": 340, "tree_vertices": 200, "edges": 436},
                "2": {"calls": 10, "vertices": 45, "tree_vertices": 36, "edges": 40},
            },
        },
    },
)

BIG_DIGEST = "96fa68bfa937f39d246d70a6f2bd367e3499009beb41ec44e9f7d1a48f53a090"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_runs_match_golden(name):
    (proc, args, leaf, k, seed), expected = SMALL[name]
    fn = {"tree": tree_mincuts, "leaf": leaf_mincuts}[proc]
    g, tr = instance(*args, leaf=leaf)
    assert run(fn, g, tr, k, seed) == expected


def test_sstcv_matches_golden():
    assert sstcv_case() == SSTCV


def test_large_run_matches_golden():
    g = generate("erdos-renyi-weighted", 72, seed=72)
    tr = random_spanning_tree(g, 0, random.Random("golden|72"))
    out = run(tree_mincuts, g, tr, 2, "big")
    assert digest(out) == BIG_DIGEST


def test_replayed_rounds_redecide_the_leaf_step():
    (args, seed), expected = REPLAY
    g, tr = instance(*args, leaf=True)
    assert run(leaf_mincuts, g, tr, 2, seed) == expected


def test_a_second_search_starts_from_the_values_in_its_table():
    (args, seed), expected = TWO_SEARCHES
    g, tr = instance(*args, leaf=True)
    first = random_steiner_tree(tr.vertices, tr.source, random.Random(f"golden|two|{seed}"))
    cuts = CandidateCuts([])
    stats = RecursionStats()
    tree_mincuts(g, first, 2, cuts, f"{seed}/a", stats)
    leaf_mincuts(g, tr, 3, cuts, f"{seed}/b", stats)
    assert output(cuts, stats) == expected
