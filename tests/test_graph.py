"""Graph construction, cuts, contraction, generators, and file round trips."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ghcut import (
    GENERATOR_KINDS,
    ContractionMap,
    Graph,
    GraphFormatError,
    InvalidCutError,
    connected_components,
    contract,
    cut_value,
    format_graph,
    generate,
    load_graph,
    parse_graph,
    save_graph,
)


def small_graphs():
    return st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9)),
            max_size=16,
        ).map(lambda es: Graph(n, es))
    )


def test_normalization_merges_and_drops():
    g = Graph(3, [(1, 0, 2), (0, 1, 3), (2, 2, 9), (1, 2, 4)])
    assert g.edges == ((0, 1, 5), (1, 2, 4))
    assert g.m == 2
    assert g.total_weight == 9


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, -3)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 2**62)])


def test_adjacency_and_degree():
    g = Graph(4, [(0, 1, 2), (1, 2, 5), (1, 3, 1)])
    adj = g.adjacency()
    assert adj[1] == ((0, 2), (2, 5), (3, 1))
    assert adj[3] == ((1, 1),)
    assert g.weighted_degree(1) == 8
    assert g.weighted_degree(0) == 2


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1, 2), (1, 2, 3)])
    b = Graph(3, [(1, 2, 3), (1, 0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1, 2)])


def test_contracted_graph_hashes_like_fresh_graph():
    g = Graph(5, [(0, 1, 2), (0, 2, 3), (1, 2, 4), (2, 3, 1), (3, 4, 6)])
    q, _ = contract(g, [[0, 1], [3, 4]])
    fresh = Graph(3, [(0, 1, 7), (1, 2, 1)])
    assert q == fresh and hash(q) == hash(fresh)
    # the second call on each side reads the cached value
    assert hash(q) == hash(fresh)
    assert {fresh: "x"}[q] == "x"


def test_cut_value_path():
    g = Graph(3, [(0, 1, 3), (1, 2, 5)])
    assert cut_value(g, {0}) == 3
    assert cut_value(g, {2}) == 5
    assert cut_value(g, {1}) == 8
    assert cut_value(g, {1, 2}) == 3


def test_cut_value_rejects_improper_sides():
    g = Graph(3, [(0, 1, 1)])
    with pytest.raises(InvalidCutError):
        cut_value(g, set())
    with pytest.raises(InvalidCutError):
        cut_value(g, {0, 1, 2})
    with pytest.raises(InvalidCutError):
        cut_value(g, {5})


@given(small_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_cut_complement_symmetry(g, data):
    side = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1)
    )
    rest = set(range(g.n)) - side
    assert cut_value(g, side) == cut_value(g, rest)


def test_contract_sums_parallel_and_drops_loops():
    g = Graph(4, [(0, 1, 2), (0, 2, 3), (1, 2, 4), (2, 3, 1)])
    q, cm = contract(g, [[0, 1]])
    assert q.n == 3
    # 0 and 1 fold together; their edges to 2 merge, the (0,1) edge vanishes
    assert q.edges == ((0, 1, 7), (1, 2, 1))
    assert cm.forward == (0, 0, 1, 2)
    assert cm.contracted_nodes == frozenset({0})
    assert cm.preimage_lists() == ((0, 1), (2,), (3,))


def test_contract_rejects_bad_groups():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        contract(g, [[]])
    with pytest.raises(ValueError):
        contract(g, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        contract(g, [[0, 7]])


@given(small_graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_contract_preserves_cut_values(g, data):
    # any quotient cut must weigh exactly as much as its preimage cut
    k = data.draw(st.integers(1, max(1, g.n // 2)))
    verts = list(range(g.n))
    random.Random(data.draw(st.integers(0, 10**6))).shuffle(verts)
    groups, at = [], 0
    for _ in range(k):
        size = data.draw(st.integers(1, 3))
        grp = verts[at : at + size]
        at += size
        if grp:
            groups.append(grp)
    if not groups:
        groups = [[verts[0]]]
    q, cm = contract(g, groups)
    if q.n < 2:
        return
    qside = data.draw(st.sets(st.integers(0, q.n - 1), min_size=1, max_size=q.n - 1))
    lifted = cm.lift_side(qside)
    assert cut_value(q, qside) == cut_value(g, lifted)


def test_lift_side_expands_supernodes():
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    q, cm = contract(g, [[1, 2, 3]])
    assert q.n == 3
    sup = cm.forward[1]
    assert cm.lift_side({sup}) == frozenset({1, 2, 3})
    assert cm.lift_side({cm.forward[0]}) == frozenset({0})


def test_connected_components():
    g = Graph(5, [(0, 1, 1), (3, 4, 2)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]
    assert connected_components(Graph(1, [])) == [[0]]


def test_generators_basic_shape():
    for kind in GENERATOR_KINDS:
        g = generate(kind, 9, seed=4)
        assert g.n == 9
        assert len(connected_components(g)) == 1
        assert all(1 <= w for _, _, w in g.edges)


def test_generator_determinism():
    for kind in GENERATOR_KINDS:
        a = generate(kind, 11, seed="x")
        b = generate(kind, 11, seed="x")
        assert a == b
    assert generate("clique", 11, seed=1) != generate("clique", 11, seed=2)


def test_clique_is_complete():
    g = generate("clique", 7, seed=0)
    assert g.m == 21


def test_erdos_renyi_p_one_is_complete():
    g = generate("erdos-renyi-weighted", 6, seed=0, p=1.0)
    assert g.m == 15


def test_planted_cut_value_is_planted():
    from ghcut import brute_steiner_min_cut

    g = generate("planted-cut", 10, seed=5)
    assert brute_steiner_min_cut(g, range(10)).value == 10
    g2 = generate("planted-cut", 8, seed=1, planted_value=4)
    assert brute_steiner_min_cut(g2, range(8)).value == 4


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        generate("no-such-kind", 5)
    with pytest.raises(ValueError):
        generate("clique", 1)
    with pytest.raises(ValueError):
        generate("erdos-renyi-weighted", 5, p=1.5)
    with pytest.raises(ValueError):
        generate("clique", 5, weight_range=(0, 3))
    with pytest.raises(ValueError):
        generate("planted-cut", 6, planted_value=0)


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_dimacs_round_trip(g):
    assert parse_graph(format_graph(g, "dimacs"), "dimacs") == g


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_json_round_trip(g):
    assert parse_graph(format_graph(g, "json"), "json") == g


def test_dimacs_accepts_comments_and_blanks():
    text = "c a comment\n\np 3 1\nc another\ne 0 2 7\n"
    g = parse_graph(text)
    assert g == Graph(3, [(0, 2, 7)])


def test_dimacs_error_carries_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p 3 1\ne 0 9 2\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("e 0 1 2\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p 3 0\nq zzz\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("p 2 5\ne 0 1 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")


def test_json_parse_error():
    with pytest.raises(GraphFormatError):
        parse_graph("{not json", "json")
    with pytest.raises(GraphFormatError):
        parse_graph('{"edges": []}', "json")


def test_save_and_load(tmp_path):
    g = generate("erdos-renyi-weighted", 8, seed=3)
    for fmt in ("dimacs", "json"):
        path = str(tmp_path / f"g.{fmt}")
        save_graph(g, path, fmt)
        assert load_graph(path, fmt) == g


def test_unknown_format_rejected():
    g = Graph(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        format_graph(g, "xml")
    with pytest.raises(ValueError):
        parse_graph("p 2 0", "xml")


def test_contraction_map_identity():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    q, cm = contract(g, [[1]])
    assert q == g
    assert cm.forward == (0, 1, 2)
    assert cm.contracted_nodes == frozenset()
