"""Command-line surface: graph generation, flows, isolating cuts, guided
tree searches, Gomory-Hu trees, brute-force fixtures, and the recursion
size bench.

All algorithmic output goes to stdout and is byte-identical across reruns
with the same arguments and seed; wall-clock timing goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from typing import Sequence

from . import oracle
from .gomoryhu import build_gusfield, format_gh_tree, verify_gomory_hu
from .graph import GENERATOR_KINDS, _decimal, format_graph, generate, load_graph
from .isolating import isolating_cuts
from .maxflow import max_flow
from .steiner import load_tree, random_spanning_tree
from .treemincuts import (
    CandidateCuts,
    RecursionStats,
    leaf_mincuts,
    sstcv_verify,
    tree_mincuts,
)


def _int_arg(text: str) -> int:
    """`_decimal` as an argparse type: a refused value is a usage error."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _float_arg(text: str) -> float:
    """`float`, less what `_decimal` refuses: '_', blanks, a leading '+' and
    non-ASCII characters."""
    try:
        if text.isascii() and "_" not in text and text[:1] != "+" and text.split() == [text]:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")


def _ints(text: str) -> list[int]:
    return [_decimal(x.strip()) for x in text.split(",") if x.strip()]


def _group_list(text: str) -> list[list[int]]:
    """Parse semicolon-separated vertex groups: '0,1;2;5,7'."""
    groups = [_ints(part) for part in text.split(";") if part.strip()]
    if not groups:
        raise ValueError(f"no groups in {text!r}")
    return groups


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _finite_or_none(v):
    return None if v == math.inf else v


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _mu_report(command: str, args, cuts: CandidateCuts, stats: RecursionStats) -> dict:
    values = [
        {"terminal": t, "value": _finite_or_none(cuts.value(t))}
        for t in cuts.terminals()
    ]
    report = {
        "command": command,
        "seed": args.seed,
        "k": args.k,
        "reps_coeff": args.reps_coeff,
        "values": values,
        "stats_totals": stats.totals(),
    }
    if args.witnesses:
        report["witness_sides"] = [
            {
                "terminal": t,
                "side": sorted(cuts.witness(t).side) if cuts.witness(t) else None,
            }
            for t in cuts.terminals()
        ]
    return report


def _dump_stats(stats: RecursionStats, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {"per_level": stats.as_dict(), "totals": stats.totals()},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")


def bench_recursion(
    sizes: Sequence[int],
    k: int,
    seeds: Sequence[int],
    reps_coeff: float,
    kind: str = "erdos-renyi-weighted",
) -> dict:
    """Run the guided search on spanning trees of generated graphs and
    report its recursion totals against the expected growth shape.

    For each size the ratios divide the summed per-call vertex and live
    edge counts by (n-1) * log2(n)^(3k) * log2(t) and m * log2(n)^(3k) *
    log2(t) respectively; bounded ratios mean the recursion grows no faster
    than that envelope.  The returned dict carries one averaged row per
    size plus the least-squares slope of log-ratio against log-size for
    both columns.
    """
    if list(sizes) != sorted(set(sizes)) or not sizes:
        raise ValueError("sizes must be strictly ascending and nonempty")
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for n in sizes:
        ratio_v: list[float] = []
        ratio_e: list[float] = []
        calls: list[int] = []
        for seed in seeds:
            g = generate(kind, n, seed=seed)
            tree = random_spanning_tree(g, 0, random.Random(f"bench-tree|{n}|{seed}"))
            stats = RecursionStats()
            cuts = CandidateCuts([], track_witnesses=False)
            tree_mincuts(
                g, tree, k, cuts, f"bench|{n}|{seed}", stats, reps_coeff=reps_coeff
            )
            tot = stats.totals()
            envelope = (math.log2(n) ** (3 * k)) * math.log2(tree.size)
            ratio_v.append(tot["vertices"] / ((n - 1) * envelope))
            ratio_e.append(tot["edges"] / (g.m * envelope))
            calls.append(tot["calls"])
        rows.append(
            {
                "n": n,
                "ratio_vertices": statistics.fmean(ratio_v),
                "ratio_edges": statistics.fmean(ratio_e),
                "mean_calls": statistics.fmean(calls),
            }
        )
    out = {
        "k": k,
        "reps_coeff": reps_coeff,
        "kind": kind,
        "seeds": list(seeds),
        "rows": rows,
    }
    if len(rows) >= 2:
        xs = [math.log2(row["n"]) for row in rows]
        for col in ("ratio_vertices", "ratio_edges"):
            ys = [math.log2(row[col]) for row in rows]
            slope, _ = statistics.linear_regression(xs, ys)
            out["slope_" + col.removeprefix("ratio_")] = slope
    return out


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    g = generate(
        args.kind,
        args.n,
        seed=args.seed,
        weight_range=(args.weight_lo, args.weight_hi),
        p=args.p,
        planted_value=args.planted_value,
    )
    _write_text(format_graph(g, args.format), args.out)
    return 0


def _cmd_maxflow(args) -> int:
    g = load_graph(args.graph, args.format)
    res = max_flow(g, args.source, args.sink)
    _emit(
        {
            "command": "maxflow",
            "source": args.source,
            "sink": args.sink,
            "value": res.value,
            "sink_side": sorted(res.mincut.side),
        }
    )
    return 0


def _cmd_isolate(args) -> int:
    g = load_graph(args.graph, args.format)
    results = isolating_cuts(g, _group_list(args.groups))
    _emit(
        {
            "command": "isolate",
            "cuts": [
                {"group": sorted(gc.group), "value": gc.value, "side": sorted(gc.side)}
                for gc in results
            ],
        }
    )
    return 0


def _cmd_mincuts(args) -> int:
    """`tree-mincuts` and `leaf-mincuts`: `args.search` is the procedure."""
    g = load_graph(args.graph, args.format)
    tree = load_tree(args.tree)
    cuts = CandidateCuts([], track_witnesses=args.witnesses)
    stats = RecursionStats()
    args.search(g, tree, args.k, cuts, args.seed, stats, reps_coeff=args.reps_coeff)
    _emit(_mu_report(args.cmd, args, cuts, stats))
    _dump_stats(stats, args.stats)
    return 0


def _cmd_sstcv(args) -> int:
    g = load_graph(args.graph, args.format)
    with open(args.estimates, "r", encoding="ascii") as fh:
        raw = json.load(fh, object_pairs_hook=tuple)  # keeps repeated keys
    if not isinstance(raw, tuple):
        raise ValueError("estimates file must hold a JSON object: terminal -> value")
    estimates = {}
    for key, value in raw:
        t = _decimal(key)
        if t in estimates:
            raise ValueError(f"estimates file names terminal {t} more than once")
        estimates[t] = value
    trees = [load_tree(path) for path in args.trees]
    terminals = _ints(args.terminals) if args.terminals else sorted(estimates)
    stats = RecursionStats()
    verdicts = sstcv_verify(
        g,
        terminals,
        args.source,
        estimates,
        trees,
        args.k,
        args.seed,
        reps_coeff=args.reps_coeff,
        stats=stats,
    )
    _emit(
        {
            "command": "sstcv",
            "seed": args.seed,
            "k": args.k,
            "source": args.source,
            "verdicts": [
                {"terminal": t, "verdict": verdicts[t]} for t in sorted(verdicts)
            ],
            "stats_totals": stats.totals(),
        }
    )
    _dump_stats(stats, args.stats)
    return 0


def _cmd_ghtree(args) -> int:
    g = load_graph(args.graph, args.format)
    tree = build_gusfield(g)
    _write_text(format_gh_tree(tree), args.out)
    if args.verify:
        bad = verify_gomory_hu(g, tree)
        if bad is not None:
            print(
                f"counterexample: pair ({bad.a},{bad.b}) "
                f"tree={bad.tree_value} graph={bad.true_value}",
                file=sys.stderr,
            )
            return 1
        print("verified: all pairs match", file=sys.stderr)
    return 0


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"oracle {args.which} needs {flags}")


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph, args.format)
    if args.which == "mincut":
        _require(args, "source", "sink")
        answers = [oracle.brute_min_cut(g, args.source, args.sink)]
    elif args.which == "respecting":
        _require(args, "source", "sink", "tree", "k")
        tree = load_tree(args.tree)
        answers = [oracle.brute_respecting_min_cut(g, tree, args.source, args.sink, args.k)]
    elif args.which == "leaf-respecting":
        _require(args, "source", "sink", "tree", "k")
        tree = load_tree(args.tree)
        answers = [
            oracle.brute_leaf_respecting_min_cut(g, tree, args.source, args.sink, args.k)
        ]
    elif args.which == "isolating":
        _require(args, "groups")
        answers = oracle.brute_isolating_cuts(g, _group_list(args.groups))
    else:
        _require(args, "terminals")
        answers = [oracle.brute_steiner_min_cut(g, _ints(args.terminals))]
    _emit(
        {
            "command": f"oracle {args.which}",
            "answers": [
                {
                    "value": _finite_or_none(ans.value),
                    "witnesses": [sorted(c.side) for c in ans.witnesses],
                }
                for ans in answers
            ],
        }
    )
    return 0


def _cmd_bench(args) -> int:
    table = bench_recursion(
        _ints(args.sizes), args.k, _ints(args.seeds), args.reps_coeff, kind=args.kind
    )
    if args.json:
        _emit(table)
        return 0
    print(f"{'n':>6}  {'ratio_vertices':>16}  {'ratio_edges':>16}  {'mean_calls':>12}")
    for row in table["rows"]:
        print(
            f"{row['n']:>6}  {row['ratio_vertices']:>16.6f}  "
            f"{row['ratio_edges']:>16.6f}  {row['mean_calls']:>12.1f}"
        )
    if "slope_vertices" in table:
        print(
            f"slope vertices={table['slope_vertices']:.4f} "
            f"edges={table['slope_edges']:.4f}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghcut",
        description="Minimum-cut toolkit: guided single-source min-cuts, "
        "isolating cuts, and Gomory-Hu trees.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, tree_file=False):
        p.add_argument("graph", help="graph file")
        if tree_file:
            p.add_argument("tree", help="guide tree file")
        p.add_argument("--format", default="dimacs", choices=("dimacs", "json"))

    p = sub.add_parser("gen", help="generate a random graph")
    p.add_argument("--kind", default="erdos-renyi-weighted", choices=GENERATOR_KINDS)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--weight-lo", type=_int_arg, default=1)
    p.add_argument("--weight-hi", type=_int_arg, default=10)
    p.add_argument("--p", type=_float_arg, default=None, help="edge probability")
    p.add_argument("--planted-value", type=_int_arg, default=None)
    p.add_argument("--format", default="dimacs", choices=("dimacs", "json"))
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("maxflow", help="minimum s-t cut")
    add_common(p)
    p.add_argument("-s", "--source", type=_int_arg, required=True)
    p.add_argument("-t", "--sink", type=_int_arg, required=True)
    p.set_defaults(func=_cmd_maxflow)

    p = sub.add_parser("isolate", help="minimum isolating cuts")
    add_common(p)
    p.add_argument("--groups", required=True, help="e.g. '0,1;2;5,7'")
    p.set_defaults(func=_cmd_isolate)

    for name, search in (("tree-mincuts", tree_mincuts), ("leaf-mincuts", leaf_mincuts)):
        p = sub.add_parser(name, help=f"guided search ({name})")
        add_common(p, tree_file=True)
        p.add_argument("--k", type=_int_arg, required=True, help="tree crossing budget")
        p.add_argument("--seed", default="0")
        p.add_argument("--reps-coeff", type=_float_arg, default=3.0)
        p.add_argument("--stats", default=None, help="write per-level stats JSON here")
        p.add_argument("--witnesses", action="store_true", help="include witness sides")
        p.set_defaults(func=_cmd_mincuts, search=search)

    p = sub.add_parser("sstcv", help="classify cut estimates as tight or loose")
    add_common(p)
    p.add_argument("--source", type=_int_arg, required=True)
    p.add_argument("--estimates", required=True, help="JSON file: terminal -> value")
    p.add_argument("--trees", nargs="+", required=True, help="guide tree files")
    p.add_argument("--terminals", default=None, help="defaults to the estimate keys")
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--reps-coeff", type=_float_arg, default=6.0)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_sstcv)

    p = sub.add_parser("ghtree", help="Gomory-Hu tree (Gusfield construction)")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="check all pairs by max-flow")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_ghtree)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    p.add_argument(
        "which",
        choices=("mincut", "respecting", "leaf-respecting", "isolating", "steiner"),
    )
    p.add_argument("graph", help="graph file")
    p.add_argument("--format", default="dimacs", choices=("dimacs", "json"))
    p.add_argument("-s", "--source", type=_int_arg, default=None)
    p.add_argument("-t", "--sink", type=_int_arg, default=None)
    p.add_argument("--tree", default=None, help="guide tree file")
    p.add_argument("--k", type=_int_arg, default=None)
    p.add_argument("--groups", default=None)
    p.add_argument("--terminals", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="recursion size totals across graph sizes")
    p.add_argument("--sizes", default="64,128,256,512,1024")
    p.add_argument("--k", type=_int_arg, default=2)
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--reps-coeff", type=_float_arg, default=1.0)
    p.add_argument("--kind", default="erdos-renyi-weighted", choices=GENERATOR_KINDS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
