"""Spread and comparison report over sets of benchmark runs.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--report`` files of ``perfbench/sweep.py``.
With one directory the report gives, per workload and end-to-end metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (quartile distance over median) against the metric's bound from
``BENCHMARK.json``.  With two it adds a verdict per workload and metric:

* ``improved`` — the change wins at least nine tenths of the seed-paired
  runs (ties count for neither) and the medians differ by more than the
  parent's quartile distance;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run reads better than every parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` — otherwise.

Runs with the held-out seed of ``protocol.json`` are kept out of these
statistics and shown in their own column, so a claim can be checked on a
seed nobody tuned against.

Per workload it also prints failed/attempted operations and the runs
that failed the correctness gate or the regime guard.  A workload is
marked ``FAILED`` when any run is incorrect or, with two directories,
when the change fails a larger share of its operations than the parent:
a timing gain does not count then.  It exits 1 when any workload is
``FAILED`` or any verdict is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-t0.json"))):
        with open(path) as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"no untraced run reports (*-t0.json) in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def split(runs, workload, metric, held_out):
    """``{seed: value}`` of the tuning runs, and the held-out value."""
    values, held = {}, None
    for run in runs:
        if run["workload"] != workload:
            continue
        seed = run["host"]["seed"]
        value = run["end_to_end"][metric]
        if seed == held_out:
            held = value
        else:
            values[seed] = value
    return values, held


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    spread = p3 - p1
    if seeds and wins >= 0.9 * len(seeds) and sign * (c_med - p_med) > spread:
        return "improved"
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    return "within bound"


def failures(runs: list[dict], workload: str) -> tuple[int, int, int]:
    """Failed operations, attempted operations and incorrect runs."""
    mine = [run for run in runs if run["workload"] == workload]
    return (
        sum(run["failed"] for run in mine),
        sum(run["attempted"] for run in mine),
        sum(not run["correct"] for run in mine),
    )


def header_lines(runs: list[dict], label: str) -> list[str]:
    hosts = {(r["host"]["cpus"], r["host"]["python"], r["host"]["numpy"], r["host"]["scipy"]) for r in runs}
    loads = [r["host"]["loadavg_1m"] for r in runs]
    lines = [
        f"{label}: {len(runs)} runs; host cpus/python/numpy/scipy {sorted(hosts)}; "
        f"load average at start {min(loads):.2f}..{max(loads):.2f}"
    ]
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        touched = statistics.median(r["header"]["touched_fraction_p50"] for r in mine)
        lines.append(
            f"  {workload}: n={mine[0]['header']['n']} nnz={mine[0]['header']['nnz']} "
            f"touched fraction p50 {touched:.4f}; latency samples per run "
            f"{min(r['latency_samples'] for r in mine)}..{max(r['latency_samples'] for r in mine)}"
        )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "protocol.json")) as handle:
        held_out = json.load(handle)["held_out_seed"]
    sets = [load_runs(directory) for directory in argv]
    for label, runs in zip(("parent", "change") if len(sets) == 2 else ("runs",), sets):
        print("\n".join(header_lines(runs, label)))
    worse = failed = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        print(f"\n{workload}")
        counts = [failures(runs, workload) for runs in sets]
        rates = [f / a if a else 0.0 for f, a, _ in counts]
        bad = any(incorrect for _, _, incorrect in counts) or (
            len(sets) == 2 and rates[1] > rates[0]
        )
        failed += bad
        print(
            "  failed/attempted "
            + " | ".join(f"{f}/{a} ({incorrect} incorrect runs)" for f, a, incorrect in counts)
            + (" -> FAILED" if bad else "")
        )
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            parts = [split(runs, workload, name, held_out) for runs in sets]
            if not all(values for values, _ in parts):
                continue
            for values, held in parts:
                q1, med, q3 = quartiles(list(values.values()))
                spread = (q3 - q1) / abs(med) if med else 0.0
                held_text = f" held-out {held:.6g}" if held is not None else ""
                columns.append(
                    f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}{held_text}"
                )
            line = f"  {name:<16} {metric['unit']:<10} bound {bound:<5} " + " | ".join(columns)
            if len(sets) == 2:
                result = verdict(parts[0][0], parts[1][0], metric["better"], bound)
                worse += result == "worse"
                line += f" -> {result}"
            else:
                values = list(parts[0][0].values())
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                steady = "steady" if spread < bound / 3 else "NOT steady (spread >= bound/3)"
                line += f" -> {steady}"
            print(line)
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
