"""Run the benchmark over many seeds and keep every run's full report.

    python3 perfbench/sweep.py --out .perfbench_runs/change --seeds 1-10
    python3 perfbench/sweep.py --out .perfbench_runs/ab --seeds 1-10 \\
        --tree parent=../parent-checkout --tree change=.

Every workload of ``BENCHMARK.json`` runs untraced for its
``run_seconds``; each run writes ``<out>/<tree>/<workload>-s<seed>-t0.json``.
With two ``--tree`` options the runs of one seed alternate which tree goes
first, as the comparison rule asks; ``--held-out`` adds the protocol's
held-out seed.  Compare the results with ``perfbench/compare.py``.  For
per-layer figures run ``perfbench/run.py --trace 1`` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_protocol() -> dict:
    with open(os.path.join(HERE, "protocol.json")) as handle:
        return json.load(handle)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def run_one(tree: str, out: str, workload: str, seed: int, seconds: int) -> int:
    """One untraced benchmark run in checkout ``tree``; returns its exit code."""
    report = os.path.join(out, f"{workload}-s{seed}-t0.json")
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
        "--report", os.path.abspath(report),
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"{os.path.basename(out)} {workload} seed={seed} {status} {wall:.1f}s", flush=True)
    if result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
    return proc.returncode


def main(argv=None) -> int:
    protocol = load_protocol()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default=",".join(map(str, protocol["tuning_seeds"])))
    parser.add_argument("--held-out", action="store_true", help="add the held-out seed")
    parser.add_argument(
        "--tree", action="append", default=[],
        help="NAME=PATH of a checkout to run (repeat for A/B pairs); default: this one",
    )
    args = parser.parse_args(argv)
    trees = [tree.split("=", 1) for tree in args.tree] or [["run", ROOT]]
    seeds = parse_seeds(args.seeds)
    if args.held_out:
        seeds.append(protocol["held_out_seed"])
    for name, _ in trees:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
    failures = 0
    for index, seed in enumerate(seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            order = trees if index % 2 == 0 else trees[::-1]
            for name, path in order:
                failures += run_one(
                    path, os.path.join(args.out, name), workload, seed, bench["run_seconds"]
                ) != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
