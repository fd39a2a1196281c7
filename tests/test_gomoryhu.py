"""Gomory-Hu construction, queries, verification, and tree files."""
import random

import pytest

import ghcut.gomoryhu
from ghcut import (
    GHViolation,
    GomoryHuTree,
    Graph,
    GraphFormatError,
    build_gusfield,
    format_gh_tree,
    generate,
    load_gh_tree,
    max_flow,
    parse_gh_tree,
    save_gh_tree,
    verify_gomory_hu,
)


def path_min_edge(tree, a, b):
    """Reference query: lightest edge on the a-b tree path, found by BFS."""
    adj = {v: [] for v in range(tree.n)}
    for p, v, w in tree.edges():
        adj[p].append((v, w))
        adj[v].append((p, w))
    prev = {a: (None, None)}
    queue = [a]
    while queue:
        u = queue.pop(0)
        for v, w in adj[u]:
            if v not in prev:
                prev[v] = (u, w)
                queue.append(v)
    best = None
    v = b
    while prev[v][0] is not None:
        u, w = prev[v]
        best = w if best is None else min(best, w)
        v = u
    return best


def test_single_edge():
    g = Graph(2, [(0, 1, 7)])
    tree = build_gusfield(g)
    assert tree.query(0, 1) == 7
    assert tree.edges() == [(0, 1, 7)]


def test_unit_k4_all_pairs_three():
    g = Graph(4, [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
    tree = build_gusfield(g)
    for a in range(4):
        for b in range(a + 1, 4):
            assert tree.query(a, b) == 3


def test_all_pairs_match_max_flow():
    rng = random.Random("gh")
    for inst in range(10):
        n = rng.randint(4, 14)
        g = generate(
            rng.choice(["erdos-renyi-weighted", "clique", "planted-cut"]),
            n,
            seed=inst,
        )
        tree = build_gusfield(g)
        for a in range(n):
            for b in range(a + 1, n):
                assert tree.query(a, b) == max_flow(g, a, b).value


def test_uses_exactly_n_minus_one_flows(monkeypatch):
    calls = []
    real = ghcut.gomoryhu.max_flow

    def counting(g, s, t):
        calls.append((s, t))
        return real(g, s, t)

    monkeypatch.setattr(ghcut.gomoryhu, "max_flow", counting)
    g = generate("erdos-renyi-weighted", 13, seed=5)
    build_gusfield(g)
    assert len(calls) == 12


def gusfield_full_scan(g):
    """Gusfield's construction with no early exit: every step scans every
    later vertex and checks the grandparent, whatever the cut."""
    n = g.n
    parent = [0] * n
    parent[0] = -1
    weight = [0] * n
    for i in range(1, n):
        t = parent[i]
        res = max_flow(g, i, t)
        sink_side = res.mincut.side
        weight[i] = res.value
        for j in range(i + 1, n):
            if parent[j] == t and j not in sink_side:
                parent[j] = i
        if t != 0 and parent[t] not in sink_side:
            parent[i] = parent[t]
            parent[t] = i
            weight[i] = weight[t]
            weight[t] = res.value
    return GomoryHuTree(parent, weight)


def heavy_pendant_graph(n, seed):
    """A random connected core with a pendant vertex hung on every third
    core vertex by a heavy edge, so the core vertex's cut from the rest
    takes its pendant along."""
    rng = random.Random(f"heavy-pendant|{seed}")
    core = n - n // 4
    edges = [(v, rng.randrange(v), rng.randint(1, 10)) for v in range(1, core)]
    edges += [(u, v, rng.randint(1, 10)) for u in range(core) for v in range(u + 1, core)
              if rng.random() < 3 / core]
    edges += [(u, core + k, 1000) for k, u in enumerate(rng.sample(range(core), n - core))]
    return Graph(n, edges)


def test_early_exit_builds_the_full_scan_tree(monkeypatch):
    graphs = [generate("planted-cut", n, seed=seed) for n in (6, 15, 40) for seed in (0, 1)]
    graphs += [generate("clique", n, seed=seed) for n in (5, 12) for seed in (0, 1)]
    graphs += [heavy_pendant_graph(n, seed) for n in (8, 20, 60) for seed in (0, 1)]
    alone = []
    real = ghcut.gomoryhu.max_flow

    def recording(g, s, t):
        res = real(g, s, t)
        alone.append(len(res.mincut.side) == g.n - 1)
        return res

    monkeypatch.setattr(ghcut.gomoryhu, "max_flow", recording)
    for g in graphs:
        assert build_gusfield(g) == gusfield_full_scan(g)
    # both branches ran: steps that end early, and steps that move vertices
    assert True in alone and False in alone


def test_query_agrees_with_path_walk():
    g = generate("erdos-renyi-weighted", 12, seed=7)
    tree = build_gusfield(g)
    for a in range(12):
        for b in range(12):
            if a != b:
                assert tree.query(a, b) == path_min_edge(tree, a, b)


def test_query_on_deep_path_tree():
    # a path-shaped tree with its root in the middle: depths up to ~500 and
    # common ancestors at every height
    n = 1001
    rng = random.Random("deep-path")
    order = list(range(1, n))
    rng.shuffle(order)
    parent = [-1] * n
    weight = [0] * n
    for half in (order[: n // 2], order[n // 2 :]):
        prev = 0
        for v in half:
            parent[v] = prev
            weight[v] = rng.randint(1, 10**6)
            prev = v
    tree = GomoryHuTree(parent, weight)
    assert max(tree.depth) == n // 2
    for _ in range(300):
        a, b = rng.sample(range(n), 2)
        assert tree.query(a, b) == path_min_edge(tree, a, b)


def test_query_rejects_bad_pairs():
    tree = build_gusfield(Graph(3, [(0, 1, 2), (1, 2, 3)]))
    with pytest.raises(ValueError):
        tree.query(1, 1)
    with pytest.raises(ValueError):
        tree.query(0, 5)


def test_verify_accepts_correct_tree():
    g = generate("planted-cut", 9, seed=2)
    assert verify_gomory_hu(g, build_gusfield(g)) is None


def test_verify_flags_perturbed_weight():
    g = generate("erdos-renyi-weighted", 8, seed=3)
    tree = build_gusfield(g)
    parent = list(tree.parent)
    weight = list(tree.weight)
    weight[1] += 1
    bad = GomoryHuTree(parent, weight)
    violation = verify_gomory_hu(g, bad)
    assert violation is not None
    assert isinstance(violation, GHViolation)
    assert violation.tree_value != violation.true_value
    assert violation.tree_value == bad.query(violation.a, violation.b)
    assert violation.true_value == max_flow(g, violation.a, violation.b).value


def test_verify_reports_first_pair_in_order():
    g = Graph(3, [(0, 1, 4), (1, 2, 6)])
    tree = build_gusfield(g)
    bad = GomoryHuTree(list(tree.parent), [0] + [w + 1 for w in tree.weight[1:]])
    violation = verify_gomory_hu(g, bad)
    assert (violation.a, violation.b) == (0, 1)


def test_build_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        build_gusfield(Graph(1, []))
    with pytest.raises(ValueError):
        build_gusfield(Graph(4, [(0, 1, 1), (2, 3, 1)]))


def test_tree_validation():
    with pytest.raises(ValueError):
        GomoryHuTree([0, 0], [0, 1])
    with pytest.raises(ValueError):
        GomoryHuTree([-1, 0], [0, 0])
    with pytest.raises(ValueError):
        GomoryHuTree([-1, 2, 1], [0, 1, 1])


@pytest.mark.parametrize("root_weight", [-1, 1, 0.0, False, "a", None])
def test_root_weight_must_be_int_zero(root_weight):
    # the root has no tree edge; equality and hashing compare weight[0] too,
    # so any other value would make two trees with the same answers differ
    with pytest.raises(ValueError, match=r"weight\[0\] must be 0"):
        GomoryHuTree([-1, 0], [root_weight, 1])
    tree = GomoryHuTree([-1, 0], [0, 1])
    assert tree == build_gusfield(Graph(2, [(0, 1, 1)]))
    assert tree == parse_gh_tree(format_gh_tree(tree))


def test_format_shape():
    g = Graph(3, [(0, 1, 4), (1, 2, 6)])
    tree = build_gusfield(g)
    text = format_gh_tree(tree)
    lines = text.splitlines()
    assert lines[0] == "t 3"
    assert "s 0" in lines
    assert sum(1 for l in lines if l.startswith("e ")) == 2
    assert sum(1 for l in lines if l.startswith("w ")) == 2


def test_parse_round_trip():
    g = generate("erdos-renyi-weighted", 10, seed=9)
    tree = build_gusfield(g)
    back = parse_gh_tree(format_gh_tree(tree))
    assert back.parent == tree.parent
    assert back.weight == tree.weight


def test_parse_reorients_edges():
    # edge direction in the file must not matter; parsing roots at 0
    text = "c comment\nt 3\ne 1 0\ne 2 1\ns 0\nw 1 4\nw 2 6\n"
    tree = parse_gh_tree(text)
    assert tree.query(0, 2) == 4
    assert tree.query(1, 2) == 6


@pytest.mark.parametrize("text, line, message", [
    ("t 3\ne 1 0\ne 2 1\ns 0\nw 1 4\nw 2 6\nw 1 5\n", 7, "duplicate weight line for vertex 1"),
    ("t 3\ne 1 0\ne 2 1\ns 0\nw 1 4\nw 2 6\nw 3 5\n", 7, "vertex 3, not a non-root"),
    ("t 3\ne 1 0\ne 2 1\ns 0\nw 0 9\nw 1 4\nw 2 6\n", 5, "vertex 0, not a non-root"),
    ("t 3\ne 1 0\ne 2 1\ns 2\nw 1 4\nw 2 6\n", 4, "root must be vertex 0"),
    ("t 3\ne 1 0\nt 2\ns 0\nw 1 4\n", 3, "duplicate tree header"),
])
def test_parse_rejects_bad_weight_lines(text, line, message):
    with pytest.raises(GraphFormatError, match=message) as exc:
        parse_gh_tree(text)
    assert exc.value.line == line
    assert str(exc.value).count(f"line {line}:") == 1


def test_save_and_load(tmp_path):
    g = generate("clique", 7, seed=3)
    tree = build_gusfield(g)
    path = str(tmp_path / "gh.tree")
    save_gh_tree(tree, path)
    back = load_gh_tree(path)
    assert back.parent == tree.parent
    assert back.weight == tree.weight
