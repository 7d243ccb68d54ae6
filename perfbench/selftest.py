"""Tiny-scale self-test of the benchmark (``run.py --self-test``).

Runs every workload of ``BENCHMARK.json`` on tiny inputs, untraced and
traced, and checks that the last output line carries exactly the
declared metrics with their declared units as finite numbers.  Then it
runs one workload with a deliberately corrupted answer and checks that
the gate counts it as failed and the command exits nonzero.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--tiny",
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        return proc.returncode, None


def _check(result: dict | None, declared: list[dict]) -> list[str]:
    if result is None:
        return ["no JSON result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = {metric["name"]: metric["unit"] for metric in declared}
    if set(result["metrics"]) != set(expected):
        problems.append(
            f"metric names differ: missing {sorted(set(expected) - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - set(expected))}"
        )
    for name, entry in result["metrics"].items():
        if entry.get("unit") != expected.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {expected.get(name)!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = _run(workload, trace)
            problems = _check(result, declared)
            if code != 0 or (result and not result["correct"]):
                problems.append(f"exit {code}, correct={result and result['correct']}")
            failures += bool(problems)
            print(f"{workload} trace={trace}: " + ("; ".join(problems) or "ok"), flush=True)
    code, result = _run("saturated", 0, "--corrupt-answer")
    caught = code != 0 and result is not None and result["failed"] >= 1 and not result["correct"]
    failures += not caught
    print("corrupted answer counted as failed: " + ("ok" if caught else f"NO (exit {code}, {result})"))
    print("self-test " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0
