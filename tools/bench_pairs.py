"""Alternating parent/change pairs of one benchmark workload, as JSON.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload fit_shipped --pairs 10 --seconds 30 --out BENCH.json

DIR is a checkout holding ``bench/run.py`` and ``src/``. Pair i runs
``bench/run.py --workload W --seed SEED0+i --seconds S --trace 0`` in
both checkouts, parent first in even pairs and change first in odd ones.
``--traced-seed`` adds one ``--trace 1`` run per side. The entry for the
workload in ``--out`` is replaced; other workloads in it are kept. Each
side gets median and quartiles per end-to-end metric of the change's
``BENCHMARK.json``; so does ``ratio``, the per-pair change/parent ratio,
when no parent value is 0. ``wins`` counts the pairs where the change
reads better than the parent (ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def host() -> dict:
    # roc_mc draws its trial blocks on every usable CPU, so its timings
    # depend on the affinity mask as well as on the machine's CPU count
    return {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version()}


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()}}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        # the quartiles of each side need two runs; refuse before running any
        parser.error(f"--pairs must be at least 2, got {args.pairs}")

    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        seed = args.seed0 + i
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, args.seconds, 0)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    summary, wins = {}, {}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in sides}
        summary[name] = {side: spread(v) for side, v in runs.items()}
        if all(runs["parent"]):
            summary[name]["ratio"] = spread(
                [c / p for p, c in zip(runs["parent"], runs["change"])])
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (a - b) > 0 for a, b in zip(runs["parent"], runs["change"]))
        wins[name] = f"{won}/{len(pairs)}"
    entry = {"command": f"bench/run.py --workload {args.workload} --seconds "
                        f"{args.seconds:g} --trace 0",
             "host": host(), "pairs": pairs, "summary": summary, "wins": wins,
             "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                                for p in pairs for s in sides)}
    if args.traced_seed is not None:
        entry["traced"] = {side: run(path, args.workload, args.traced_seed,
                                     args.seconds, 1) for side, path in sides.items()}

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
