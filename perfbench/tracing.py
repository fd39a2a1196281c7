"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.install` wraps the public functions and methods of the measured
modules (graph, maxflow, isolating, steiner, treemincuts, gomoryhu).  The
modules import each other's functions by name, so every `ghcut` module
attribute that holds an original function is replaced, not just the one
in the defining module.  Each span stores its layer, the operation it
belongs to (-1 during setup), its parent span, start, end, and the size
and vertex count of its input where the layer has them; spans stay in
flat in-memory arrays until `dump` writes them out at the end of the run.
`layer_metrics` turns a dump into the per-layer metrics; it runs in the
benchmark's parent process.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path


def _graph_edges(args) -> int:
    return args[0].m


def _graph_vertices(args) -> int:
    return args[0].n


# (span name, module, attribute, class or None, size of the call or None,
# vertex count of the call or None); "op" is one whole benchmark operation
SPANS = (
    ("op", None, None, None, None, None),
    ("graph.contract", "ghcut.graph", "contract", None, _graph_edges, None),
    ("graph.hash", "ghcut.graph", "__hash__", "Graph", None, None),
    ("graph.load", "ghcut.graph", "load_graph", None, None, None),
    ("maxflow", "ghcut.maxflow", "max_flow", None, _graph_edges, _graph_vertices),
    ("maxflow.multi", "ghcut.maxflow", "max_flow_multi", None, None, None),
    ("isolating", "ghcut.isolating", "isolating_cuts", None, lambda a: len(a[1]), None),
    ("steiner.tree", "ghcut.steiner", "__init__", "SteinerTree", None, None),
    ("steiner.decompose", "ghcut.steiner", "decompose", None, None, None),
    ("steiner.prune", "ghcut.steiner", "prune_sample", None, None, None),
    ("treemincuts", "ghcut.treemincuts", "tree_mincuts", None, None, None),
    ("gomoryhu.build", "ghcut.gomoryhu", "build_gusfield", None, None, None),
)
NAMES = tuple(s[0] for s in SPANS)
# max_flow answers graphs of at most this many vertices in closed form
SMALL_FLOW_N = 3
COLUMNS = (("kind", "B"), ("op", "i"), ("parent", "i"), ("start", "d"),
           ("end", "d"), ("size", "q"), ("verts", "i"))


class Tracer:
    def __init__(self):
        self.kind = array("B")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.verts = array("i")
        self.stack = [-1]
        self.current_op = -1
        # CandidateCuts.offer calls and improving calls in the timed region
        self.offers = [0, 0]

    def _wrap(self, kind: int, fn, size_of, verts_of):
        kinds, ops, parents = self.kind, self.op, self.parent
        starts, ends, sizes, stack = self.start, self.end, self.size, self.stack
        verts = self.verts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            kinds.append(kind)
            ops.append(tracer.current_op)
            parents.append(stack[-1])
            sizes.append(size_of(args) if size_of else 0)
            verts.append(verts_of(args) if verts_of else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        import ghcut  # noqa: F401  (loads every submodule)

        mods = [m for name, m in sys.modules.items() if name == "ghcut" or name.startswith("ghcut.")]
        for kind, (_, modname, attr, clsname, size_of, verts_of) in enumerate(SPANS):
            if modname is None:
                continue
            home = sys.modules[modname]
            if clsname is not None:
                cls = getattr(home, clsname)
                setattr(cls, attr, self._wrap(kind, getattr(cls, attr), size_of, verts_of))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(kind, orig, size_of, verts_of)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

        cc = sys.modules["ghcut.treemincuts"].CandidateCuts
        offer = cc.offer
        counts = self.offers
        tracer = self

        def counted_offer(self_, t, value, witness=None):
            better = offer(self_, t, value, witness)
            if tracer.current_op >= 0:
                counts[0] += 1
                counts[1] += better
            return better

        cc.offer = counted_offer

    def begin_op(self, i: int) -> None:
        self.current_op = i
        n = len(self.start)
        self.kind.append(0)
        self.op.append(i)
        self.parent.append(-1)
        self.size.append(0)
        self.verts.append(0)
        self.end.append(0.0)
        self.stack.append(n)
        self.start.append(time.perf_counter())

    def end_op(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()
        self.current_op = -1

    def dump(self, directory: Path) -> None:
        for name, _ in COLUMNS:
            with open(directory / f"spans.{name}", "wb") as fh:
                getattr(self, name).tofile(fh)
        with open(directory / "spans.json", "w", encoding="ascii") as fh:
            json.dump({"names": NAMES, "count": len(self.start), "offers": self.offers}, fh)


def load_spans(directory: Path) -> tuple[dict, dict[str, array]]:
    with open(directory / "spans.json", encoding="ascii") as fh:
        meta = json.load(fh)
    if tuple(meta["names"]) != NAMES:
        raise ValueError("span file was written with another layer table")
    cols = {}
    for name, code in COLUMNS:
        col = array(code)
        with open(directory / f"spans.{name}", "rb") as fh:
            col.fromfile(fh, meta["count"])
        cols[name] = col
    return meta, cols


def layer_metrics(directory: Path, timed_ops: int, recursion: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics from a span dump.

    Times are self times (span duration minus the duration of its direct
    child spans).  Everything is divided by `timed_ops` and taken from the
    timed region only, except the load self time, which is a setup total
    because loading happens once, before the first operation.
    """
    meta, cols = load_spans(directory)
    kind, op, parent = cols["kind"], cols["op"], cols["parent"]
    start, end, size, verts = cols["start"], cols["end"], cols["size"], cols["verts"]
    count = len(start)
    child = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    nk = len(NAMES)
    calls = [0] * nk
    self_s = [0.0] * nk
    sizes = [0] * nk
    setup_self = [0.0] * nk
    small = 0
    maxflow = NAMES.index("maxflow")
    for i in range(count):
        k = kind[i]
        t = end[i] - start[i] - child[i]
        if op[i] < 0:
            setup_self[k] += t
            continue
        calls[k] += 1
        self_s[k] += t
        sizes[k] += size[i]
        if k == maxflow and verts[i] <= SMALL_FLOW_N:
            small += 1

    def per_op(x):
        return x / timed_ops

    ix = NAMES.index
    offers, improving = meta["offers"]
    out = {
        "graph.contract.calls": per_op(calls[ix("graph.contract")]),
        "graph.contract.edges_in": per_op(sizes[ix("graph.contract")]),
        "graph.contract.self_s": per_op(self_s[ix("graph.contract")]),
        "graph.hash.calls": per_op(calls[ix("graph.hash")]),
        "graph.hash.self_s": per_op(self_s[ix("graph.hash")]),
        "graph.load.self_s": setup_self[ix("graph.load")],
        "maxflow.calls": per_op(calls[maxflow]),
        "maxflow.calls_small": per_op(small),
        "maxflow.edges_in": per_op(sizes[maxflow]),
        # the maxflow layer is both entry points: max_flow_multi's own work
        # (one contraction aside) is lifting the cut back
        "maxflow.self_s": per_op(self_s[maxflow] + self_s[ix("maxflow.multi")]),
        "maxflow.multi.calls": per_op(calls[ix("maxflow.multi")]),
        "isolating.calls": per_op(calls[ix("isolating")]),
        "isolating.groups_in": per_op(sizes[ix("isolating")]),
        "isolating.self_s": per_op(self_s[ix("isolating")]),
        "steiner.tree.calls": per_op(calls[ix("steiner.tree")]),
        "steiner.tree.self_s": per_op(self_s[ix("steiner.tree")]),
        "steiner.decompose.calls": per_op(calls[ix("steiner.decompose")]),
        "steiner.decompose.self_s": per_op(self_s[ix("steiner.decompose")]),
        "steiner.prune.calls": per_op(calls[ix("steiner.prune")]),
        "steiner.prune.self_s": per_op(self_s[ix("steiner.prune")]),
        "treemincuts.self_s": per_op(self_s[ix("treemincuts")]),
        "treemincuts.recursion_calls": per_op(recursion.get("calls", 0)),
        "treemincuts.recursion_vertices": per_op(recursion.get("vertices", 0)),
        "treemincuts.recursion_edges": per_op(recursion.get("edges", 0)),
        "treemincuts.offers": per_op(offers),
        "treemincuts.offers_improving": per_op(improving),
        "treemincuts.offer_yield": improving / offers if offers else 0.0,
        "gomoryhu.build.calls": per_op(calls[ix("gomoryhu.build")]),
        "gomoryhu.build.self_s": per_op(self_s[ix("gomoryhu.build")]),
    }
    return out
