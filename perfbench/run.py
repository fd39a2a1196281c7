"""Benchmark entry point: one workload, one fresh process, then the checks.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload gh-build|sst-guided
                             --seed N --seconds S --trace 0|1

Runs perfbench/workload.py against the checkout's src/ in a child process,
waits for it to exit, checks every recorded output against networkx
(perfbench/checker.py) and prints, as the last line of stdout, one JSON
object: correct, attempted, failed and the metrics.  With --trace 0 these
are the end-to-end metrics (setup_s, ops_per_s, op_p50_ms, peak_rss_mb);
with --trace 1 the workload runs with every layer wrapped in spans and the
metrics are the per-layer ones.  Scratch files live in .perfbench/ and are
removed at exit, except the last result of each workload and mode.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gh-build", "sst-guided")
# the whole command must end within 180 s; checks take up to ~10 s
CHILD_TIMEOUT_S = 150
SHOWN_PROBLEMS = 5


def end_to_end(summary: dict, spawned: float) -> dict[str, tuple[float, str]]:
    durations = summary["durations_s"]
    return {
        # from just before the workload process was started to its first
        # timed operation: interpreter start, inputs, fixtures, warm-up
        "setup_s": (summary["setup_done_monotonic"] - spawned, "s"),
        "ops_per_s": (len(durations) / summary["region_s"], "op/s"),
        "op_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(work: Path, completed: int) -> dict[str, tuple[float, str]]:
    from tracing import layer_metrics

    recursion: dict[str, int] = {}
    outputs = work / "outputs.jsonl"
    if outputs.exists():
        with open(outputs, encoding="ascii") as fh:
            for line in fh:
                for key, val in json.loads(line).get("recursion", {}).items():
                    recursion[key] = recursion.get(key, 0) + val
    out = {}
    for name, value in layer_metrics(work, completed, recursion).items():
        if name == "graph.load.self_s":
            unit = "s"
        elif name.endswith("self_s"):
            unit = "s/op"
        elif name.endswith("yield"):
            unit = "ratio"
        else:
            unit = "count/op"
        out[name] = (value, unit)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "ghcut" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'ghcut'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=scratch))
    try:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: workload exited with code {proc.returncode}", file=sys.stderr)
            return 1
        summary = inputs.read_json(work / "summary.json")

        import checker

        failed_ops = {f["op"] for f in summary["failed"]}
        completed = [i for i in range(summary["attempted"]) if i not in failed_ops]
        problems, info = checker.check_run(args.workload, work, completed)
        for f in summary["failed"][:SHOWN_PROBLEMS]:
            print(f"perfbench: op {f['op']} failed: {f['error']}", file=sys.stderr)
        for p in problems[:SHOWN_PROBLEMS]:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        if len(problems) > SHOWN_PROBLEMS:
            print(f"perfbench: ... {len(problems) - SHOWN_PROBLEMS} more problems", file=sys.stderr)

        if args.trace:
            metrics = per_layer(work, len(completed))
        else:
            metrics = end_to_end(summary, spawned)
        result = {
            "correct": not problems,
            "attempted": summary["attempted"],
            "failed": len(summary["failed"]),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        # the traced run's throughput, set against an untraced run's, is the
        # tracing overhead
        inputs.write_json(scratch / f"last-{args.workload}-trace{args.trace}.json",
                          dict(result, seed=args.seed, seconds=args.seconds, checks=info,
                               problems=problems[:SHOWN_PROBLEMS],
                               ops_per_s=len(summary["durations_s"]) / summary["region_s"]))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
