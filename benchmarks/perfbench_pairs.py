"""Paired perfbench runs against a parent checkout, summarized as data.

Each change to the program records its perfbench medians as one JSON
line in ``benchmarks/results/perfbench.jsonl``.  Two steps:

    python3 benchmarks/perfbench_pairs.py run --parent ../parent \\
        --workload serve-zipf --seeds 2901-2910 --out runs.jsonl
    python3 benchmarks/perfbench_pairs.py summarize runs.jsonl \\
        --change "Lean tenant snapshots" --parent-commit 696ab8e \\
        >> benchmarks/results/perfbench.jsonl

``run`` plays one pair per seed: ``BENCHMARK.json``'s command with
``--workload W --seed S --seconds <run_seconds> --trace 0``, in the
parent tree and in this one, alternating which side goes first (the
parent on the first seed), and appends each run's result line to
``--out`` as ``{"side", "workload", "seed", "result"}``.  Run it once
per workload, into one file.

``summarize`` reduces such a file to one line: for each workload and
each end-to-end metric of ``BENCHMARK.json``, the parent's and the
change's median and quartiles (inclusive method), the number of pairs
the change won, the pair count and seeds, and whether every run was
``correct`` with 0 failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _seeds(text: str) -> List[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _command(workload: str, seed: Any) -> List[str]:
    return BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0",
    ]


def _one_run(tree: str, workload: str, seed: int) -> Dict[str, Any]:
    out = subprocess.run(
        _command(workload, seed), cwd=tree, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def run(args: argparse.Namespace) -> None:
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    for index, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = _one_run(trees[side], args.workload, seed)
            line = {"side": side, "workload": args.workload, "seed": seed, "result": result}
            with open(args.out, "a") as handle:
                handle.write(json.dumps(line) + "\n")
            metric = result["metrics"]["run_s"]["value"]
            print(f"{args.workload} seed {seed} {side}: run_s {metric:.3f}", file=sys.stderr)


def _spread(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(args: argparse.Namespace) -> None:
    metrics = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    runs: Dict[str, Dict[int, Dict[str, Any]]] = {}
    with open(args.runs) as handle:
        for raw in handle:
            line = json.loads(raw)
            runs.setdefault(line["workload"], {}).setdefault(line["seed"], {})[
                line["side"]
            ] = line["result"]
    workloads: Dict[str, Any] = {}
    for workload, by_seed in runs.items():
        pairs = {seed: sides for seed, sides in sorted(by_seed.items()) if len(sides) == 2}
        results = [r for sides in pairs.values() for r in sides.values()]
        summary: Dict[str, Any] = {
            "pairs": len(pairs),
            "seeds": list(pairs),
            "all_correct": all(r["correct"] is True and r["failed"] == 0 for r in results),
            "metrics": {},
        }
        for name, better in metrics.items():
            parent = [s["parent"]["metrics"][name]["value"] for s in pairs.values()]
            change = [s["change"]["metrics"][name]["value"] for s in pairs.values()]
            wins = sum(
                (c < p) if better == "lower" else (c > p)
                for p, c in zip(parent, change, strict=True)
            )
            summary["metrics"][name] = {
                "better": better,
                "parent": _spread(parent),
                "change": _spread(change),
                "change_better_pairs": wins,
            }
        workloads[workload] = summary
    line = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "command": " ".join(_command("W", "S")),
        "workloads": workloads,
    }
    print(json.dumps(line, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("run", help="play alternating parent/change pairs")
    pairs.add_argument("--parent", required=True, help="parent commit checkout")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", required=True, help='e.g. "2901-2910,2951"')
    pairs.add_argument("--out", required=True, help="raw run lines (appended)")
    pairs.set_defaults(func=run)
    summary = sub.add_parser("summarize", help="print one perfbench.jsonl line")
    summary.add_argument("runs", help="raw run lines written by `run`")
    summary.add_argument("--change", required=True, help="what the change is")
    summary.add_argument("--parent-commit", required=True)
    summary.set_defaults(func=summarize)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
