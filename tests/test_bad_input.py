"""Every public entry point rejects malformed vertex ids and counts.

Each case puts one bad value into one id or count argument (or a cut
estimate) of a name in `ghcut.__all__`: a float (integral or not), a str, a
bool, or an int out of range.  The call must raise a `ValueError` subclass.
Any other exception, or a silent answer, fails.  Names that take no vertex
id or count are listed in `NO_ID_ARGUMENTS` with the reason, so that a new
public name has to be placed in one list or the other.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

import ghcut
from ghcut import (
    CandidateCuts,
    Graph,
    GomoryHuTree,
    SteinerTree,
    brute_isolating_cuts,
    brute_leaf_respecting_min_cut,
    brute_min_cut,
    brute_respecting_min_cut,
    brute_steiner_min_cut,
    contract,
    cut_value,
    generate,
    isolating_cuts,
    leaf_mincuts,
    max_flow,
    max_flow_multi,
    prune_sample,
    random_spanning_tree,
    random_steiner_tree,
    sstcv_verify,
    tree_mincuts,
)

N = 4
CYCLE = Graph(N, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
PATH = SteinerTree(range(N), [(0, 1), (1, 2), (2, 3)], 0)  # source 0 is a leaf
STAR = SteinerTree(range(N), [(0, 1), (0, 2), (0, 3)], 0)  # every part {v} hangs off
GH = GomoryHuTree([-1, 0, 1, 2], [0, 2, 2, 2])


def outside(lo, hi=None):
    """Ints below `lo`, or at least `hi` when given."""
    below = st.integers(max_value=lo - 1)
    return below if hi is None else st.one_of(below, st.integers(min_value=hi))


VERTEX = outside(0, N)
ANY_INT = st.nothing()  # the slot accepts any int, e.g. a tree's own vertex ids or an estimate


def tree_with(x):
    """The tree 0-1-x with source 0, for a vertex x of the graph or not."""
    return SteinerTree([0, 1, x], [(0, 1), (1, x)], 0)


# (name in __all__, argument, call with the bad value, ints that are out of range)
CASES = [
    ("cut_value", "side", lambda x: cut_value(CYCLE, [x]), VERTEX),
    ("contract", "group", lambda x: contract(CYCLE, [[x, 2]]), VERTEX),
    ("max_flow", "s", lambda x: max_flow(CYCLE, x, 3), VERTEX),
    ("max_flow", "t", lambda x: max_flow(CYCLE, 0, x), VERTEX),
    ("max_flow_multi", "s", lambda x: max_flow_multi(CYCLE, x, [3]), VERTEX),
    ("max_flow_multi", "sinks", lambda x: max_flow_multi(CYCLE, 0, [x]), VERTEX),
    ("isolating_cuts", "groups", lambda x: isolating_cuts(CYCLE, [[0], [x]]), VERTEX),
    ("generate", "n", lambda x: generate("clique", x), outside(2)),
    ("generate", "weight_range", lambda x: generate("clique", 3, weight_range=(x, 10)), outside(1, 11)),
    ("generate", "planted_value", lambda x: generate("planted-cut", 4, planted_value=x), outside(1)),
    ("Graph", "n", lambda x: Graph(x, []), outside(1)),
    ("Graph", "edges", lambda x: Graph(N, [(0, x, 1)]), VERTEX),
    ("SteinerTree", "vertices", lambda x: SteinerTree([0, x], [(0, 1)], 0), ANY_INT),
    ("SteinerTree", "edges", lambda x: SteinerTree([0, 1], [(0, x)], 0), outside(0, 2)),
    ("SteinerTree", "source", lambda x: SteinerTree([0, 1], [(0, 1)], x), outside(0, 2)),
    ("random_steiner_tree", "vertices", lambda x: random_steiner_tree([0, x], 0, random.Random(0)), ANY_INT),
    ("random_steiner_tree", "source", lambda x: random_steiner_tree([0, 1], x, random.Random(0)), outside(0, 2)),
    ("random_spanning_tree", "source", lambda x: random_spanning_tree(CYCLE, x, random.Random(0)), VERTEX),
    ("prune_sample", "parts", lambda x: prune_sample(PATH, [[x]], random.Random(0)), outside(1, N)),
    ("GomoryHuTree", "parent", lambda x: GomoryHuTree([-1, x], [0, 1]), outside(0, 2)),
    ("GomoryHuTree", "weight", lambda x: GomoryHuTree([-1, 0], [0, x]), outside(1)),
    ("GomoryHuTree", "query", lambda x: GH.query(x, 2), VERTEX),
    ("tree_mincuts", "k", lambda x: tree_mincuts(CYCLE, PATH, x, CandidateCuts([]), "x"), outside(0)),
    ("tree_mincuts", "tree", lambda x: tree_mincuts(CYCLE, tree_with(x), 1, CandidateCuts([]), "x"),
     outside(0, N)),
    ("leaf_mincuts", "k", lambda x: leaf_mincuts(CYCLE, PATH, x, CandidateCuts([]), "x"), outside(0)),
    ("sstcv_verify", "terminals", lambda x: sstcv_verify(CYCLE, [x], 0, {x: 2}, [PATH], 1, "x"), VERTEX),
    ("sstcv_verify", "s", lambda x: sstcv_verify(CYCLE, [3], x, {3: 2}, [PATH], 1, "x"), VERTEX),
    ("sstcv_verify", "k", lambda x: sstcv_verify(CYCLE, [3], 0, {3: 2}, [PATH], x, "x"), outside(0)),
    # a cut value, not an id: any int is a valid estimate
    ("sstcv_verify", "estimates", lambda x: sstcv_verify(CYCLE, [3], 0, {3: x}, [PATH], 1, "x"), ANY_INT),
    # no graph, so no vertex range
    ("CandidateCuts", "terminals", lambda x: CandidateCuts([0, x]), ANY_INT),
    ("CandidateCuts", "ensure", lambda x: CandidateCuts([0]).ensure([x]), ANY_INT),
    ("brute_min_cut", "s", lambda x: brute_min_cut(CYCLE, x, 3), VERTEX),
    ("brute_min_cut", "t", lambda x: brute_min_cut(CYCLE, 0, x), VERTEX),
    ("brute_respecting_min_cut", "s", lambda x: brute_respecting_min_cut(CYCLE, PATH, x, 3, 1), VERTEX),
    ("brute_respecting_min_cut", "t", lambda x: brute_respecting_min_cut(CYCLE, PATH, 0, x, 1), VERTEX),
    ("brute_respecting_min_cut", "k", lambda x: brute_respecting_min_cut(CYCLE, PATH, 0, 3, x), outside(0)),
    ("brute_respecting_min_cut", "tree", lambda x: brute_respecting_min_cut(CYCLE, tree_with(x), 0, 1, 1),
     outside(0, N)),
    ("brute_leaf_respecting_min_cut", "s", lambda x: brute_leaf_respecting_min_cut(CYCLE, PATH, x, 3, 1), VERTEX),
    ("brute_leaf_respecting_min_cut", "t", lambda x: brute_leaf_respecting_min_cut(CYCLE, PATH, 0, x, 1), VERTEX),
    ("brute_leaf_respecting_min_cut", "k", lambda x: brute_leaf_respecting_min_cut(CYCLE, PATH, 0, 3, x), outside(0)),
    ("brute_isolating_cuts", "groups", lambda x: brute_isolating_cuts(CYCLE, [[0], [x]]), VERTEX),
    ("brute_steiner_min_cut", "terminals", lambda x: brute_steiner_min_cut(CYCLE, [0, x]), VERTEX),
]

NO_ID_ARGUMENTS = {
    # constants and exception classes
    "BASE_TREE_SIZE", "GENERATOR_KINDS", "ORACLE_MAX_N", "ORACLE_MAX_N_ISOLATING",
    "WEIGHT_CAP", "GraphFormatError", "InvalidCutError", "__version__",
    # result records that the library builds and never checks
    "ContractionMap", "Cut", "Decomposition", "FlowResult", "GHViolation",
    "GroupCut", "OracleAnswer",
    # filled by the search, keyed by procedure name and budget
    "RecursionStats",
    # take only a checked Graph, SteinerTree or GomoryHuTree (and a Cut)
    "attach_network", "build_gusfield", "centroid", "connected_components",
    "decompose", "respects_count", "verify_gomory_hu",
    # readers and writers: text or a path; the readers parse ids as ints
    "format_gh_tree", "format_graph", "format_tree", "load_gh_tree", "load_graph",
    "load_tree", "parse_gh_tree", "parse_graph", "parse_tree", "save_gh_tree",
    "save_graph", "save_tree",
}


# calls that put two ids equal to 1 into one set, with the second id
# standing for a bool or a float twin of vertex 1
TWIN_CALLS = [
    ("cut_value", lambda x: cut_value(CYCLE, [1, x])),
    ("contract", lambda x: contract(CYCLE, [[1, x]])),
    ("isolating_cuts", lambda x: isolating_cuts(CYCLE, [[0], [1, x]])),
    ("brute_isolating_cuts", lambda x: brute_isolating_cuts(CYCLE, [[0], [1, x]])),
    ("brute_steiner_min_cut", lambda x: brute_steiner_min_cut(CYCLE, [0, 1, x])),
    ("prune_sample", lambda x: prune_sample(STAR, [[1, x]], random.Random(0))),
]


@pytest.mark.parametrize("twin", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("name, call", TWIN_CALLS, ids=[name for name, _ in TWIN_CALLS])
def test_twin_of_an_int_id_is_refused_before_the_set(name, call, twin):
    # a set merges True and 1.0 into 1, so they must be checked one by one
    with pytest.raises(ValueError):
        call(twin)


# calls that pass an int where a collection of ids or of groups belongs,
# and the argument the error must name
NOT_A_COLLECTION = [
    ("max_flow_multi", lambda: max_flow_multi(CYCLE, 0, 3), "sinks"),
    ("contract", lambda: contract(CYCLE, [3]), "contraction group 3"),
    ("contract", lambda: contract(CYCLE, 3), "contraction groups"),
    ("isolating_cuts", lambda: isolating_cuts(CYCLE, [3, [1]]), "isolating group 3"),
    ("isolating_cuts", lambda: isolating_cuts(CYCLE, 3), "isolating groups"),
    ("brute_isolating_cuts", lambda: brute_isolating_cuts(CYCLE, [3, [1]]), "isolating group 3"),
]


@pytest.mark.parametrize("name, call, argument", NOT_A_COLLECTION,
                         ids=[f"{name}-{argument}" for name, _, argument in NOT_A_COLLECTION])
def test_int_in_place_of_a_collection_is_refused(name, call, argument):
    with pytest.raises(ValueError, match=argument):
        call()


def test_every_public_name_is_classified():
    names = {name for name, *_ in CASES}
    assert not names & NO_ID_ARGUMENTS
    assert names | NO_ID_ARGUMENTS == set(ghcut.__all__)


@pytest.mark.parametrize("name, argument, call, out_of_range", CASES,
                         ids=[f"{name}-{argument}" for name, argument, *_ in CASES])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_malformed_id_or_count_raises_value_error(name, argument, call, out_of_range, data):
    bad = data.draw(st.one_of(
        st.floats(),
        st.integers(-3, 5).map(float),  # integral floats equal to valid ids
        st.text(max_size=3),
        st.booleans(),
        out_of_range,
    ))
    with pytest.raises(ValueError):
        call(bad)
