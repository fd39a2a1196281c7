"""One benchmark workload, run alone in a fresh single-threaded process.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
       --trace 0|1 --work DIR

Setup writes the seeded inputs into DIR, loads them through the program's
own readers, builds any fixtures and runs one warm-up operation.  Then a
single client runs a fixed count of operations in a closed loop (the next
operation starts when the previous one returns).  The count is a whole
number of rounds, sized so that the timed region lasts about S seconds at
the reference cost per operation; it depends on S only, never on how fast
the run goes, so every run of a workload does the same work.  Outputs go
to DIR for the reference checker, which runs after this process exits;
timings go to DIR/summary.json.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import inputs

# Each workload cycles through an odd number of inputs, so that the median
# operation falls inside the middle input's cluster of latencies rather
# than on the edge between two clusters.
# gh-build: whole-graph Gusfield builds, m ~ 5n
BUILD_N, BUILD_P, BUILD_GRAPHS, BUILD_OP_S = 200, 0.05, 5, 0.33
# sst-guided: default-density graphs above the flow cache cutoff (64)
SST_N, SST_K, SST_GRAPHS, SST_OP_S = 72, 2, 5, 1.05


def rounds_for(seconds: int, round_s: float) -> int:
    return max(2, round(seconds / round_s))


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    return random.Random("|".join(["perfbench", workload, str(seed), *map(str, parts)]))


class GhBuild:
    """Each operation is one `build_gusfield` call on one of a few graphs."""

    name = "gh-build"

    def __init__(self, gh, work: Path, seed: int, seconds: int):
        self.gh = gh
        self.graphs = []
        for j in range(BUILD_GRAPHS):
            edges = inputs.er_graph(BUILD_N, BUILD_P, rng_for(self.name, seed, "graph", j))
            path = work / f"graph{j}.dimacs"
            inputs.write_dimacs(path, BUILD_N, edges)
            self.graphs.append(gh.load_graph(str(path)))
        rounds = rounds_for(seconds, BUILD_GRAPHS * BUILD_OP_S)
        self.ops = [j for _ in range(rounds) for j in range(BUILD_GRAPHS)]
        self.warmup = 0
        self.out = open(work / "outputs.jsonl", "w", encoding="ascii")

    def run(self, j):
        return self.gh.build_gusfield(self.graphs[j])

    def record(self, i, j, tree) -> None:
        self.out.write(json.dumps({"op": i, "graph": j, "parent": tree.parent,
                                   "weight": tree.weight}) + "\n")


class SstGuided:
    """Each operation is one `tree_mincuts` call with a fresh random
    spanning tree of one of a few graphs, witnesses tracked."""

    name = "sst-guided"

    def __init__(self, gh, work: Path, seed: int, seconds: int):
        self.gh = gh
        self.graphs = []
        edge_lists = []
        for j in range(SST_GRAPHS):
            edges = inputs.er_graph(SST_N, None, rng_for(self.name, seed, "graph", j))
            path = work / f"graph{j}.dimacs"
            inputs.write_dimacs(path, SST_N, edges)
            edge_lists.append(edges)
            self.graphs.append(gh.load_graph(str(path)))
        rounds = rounds_for(seconds, SST_GRAPHS * SST_OP_S)
        count = rounds * SST_GRAPHS
        # operation i runs on graph i mod SST_GRAPHS; tree `count` is the
        # warm-up's
        trees = []
        for i in range(count + 1):
            j = i % SST_GRAPHS
            edges = inputs.dfs_spanning_tree(SST_N, edge_lists[j], 0, rng_for(self.name, seed, "tree", i))
            trees.append({"graph": j, "source": 0, "edges": edges})
        inputs.write_json(work / "trees.json", {"k": SST_K, "trees": trees})
        self.trees = [gh.SteinerTree(range(SST_N), t["edges"], t["source"]) for t in trees]
        self.ops = list(range(count))
        self.warmup = count
        self.seed = seed
        self.out = open(work / "outputs.jsonl", "w", encoding="ascii")

    def run(self, i):
        gh = self.gh
        cuts = gh.CandidateCuts([])
        stats = gh.RecursionStats()
        gh.tree_mincuts(self.graphs[i % SST_GRAPHS], self.trees[i], SST_K, cuts,
                        f"perfbench|{self.seed}|{i}", stats)
        return cuts, stats

    def record(self, i, _, result) -> None:
        cuts, stats = result
        values = {}
        sides = {}
        for t in cuts.terminals():
            v = cuts.value(t)
            w = cuts.witness(t)
            values[t] = None if v == float("inf") else int(v)
            sides[t] = None if w is None else sorted(w.side)
        self.out.write(json.dumps({"op": i, "values": values, "witnesses": sides,
                                   "recursion": stats.totals()}) + "\n")


WORKLOADS = {w.name: w for w in (GhBuild, SstGuided)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import ghcut

    wl = WORKLOADS[args.workload](ghcut, args.work, args.seed, args.seconds)
    wl.run(wl.warmup)

    clock = time.perf_counter
    durations = []
    failed = []
    setup_done = time.monotonic()
    region_start = clock()
    for i, arg in enumerate(wl.ops):
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        try:
            result = wl.run(arg)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer:
            tracer.end_op()
        if error is None:
            durations.append(t1 - t0)
            wl.record(i, arg, result)
        else:
            failed.append({"op": i, "error": error})
    region_s = clock() - region_start
    wl.out.close()

    if tracer:
        tracer.dump(args.work)
    summary = {
        "workload": wl.name,
        "setup_done_monotonic": setup_done,
        "attempted": len(wl.ops),
        "failed": failed,
        "durations_s": durations,
        "region_s": region_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    inputs.write_json(args.work / "summary.json", summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
