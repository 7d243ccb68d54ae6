#!/usr/bin/env python
"""Observability smoke: serve through a real pool, scrape /metrics.

Launches ``python -m repro serve --workers 2 --metrics-port 0`` as a
subprocess (the exact deployment shape), parses the ephemeral port off
stderr, scrapes ``/metrics`` and ``/stats`` during the linger window,
and asserts the signals an operator would alarm on are present and
non-empty:

* Prometheus text parses (TYPE lines, cumulative histogram buckets);
* kernel-selection counters are non-empty — proof that engine
  introspection recorded in *worker processes* merged into the head
  registry across the IPC boundary;
* per-stage latency histograms and the touched-volume histogram carry
  one sample per request;
* every JSON response line carries a trace id, and the trace log holds
  one span per request;
* SIGTERM to serve leaves no new ``psm_*`` shared-memory segment in
  ``/dev/shm`` (the process group is SIGKILLed only if serve has not
  exited 10 s later).

Exits non-zero with a reason on any missing signal.  Used by CI; also
handy manually::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

N_QUERIES = 24
LINGER_S = 20.0


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill serve *and* its pool workers (they share a process group)."""
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def stop(proc: subprocess.Popen) -> None:
    """End a passing run with SIGTERM, which makes serve close its pool
    and unlink its shared memory; kill the whole process group only if
    serve has not exited within 10 s."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        kill_tree(proc)


def shm_segments() -> int:
    """Shared-memory segments in ``/dev/shm`` (0 where it is absent)."""
    return len(list(Path("/dev/shm").glob("psm_*")))


def fail(reason: str, proc: subprocess.Popen | None = None) -> "NoReturn":
    print(f"SMOKE FAIL: {reason}", file=sys.stderr)
    if proc is not None:
        kill_tree(proc)
    sys.exit(1)


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read().decode()


def main() -> int:
    # Removed on every exit, fail()'s sys.exit included.
    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        return run(Path(tmp))


def run(tmp: Path) -> int:
    segments_before = shm_segments()
    queries = tmp / "queries.txt"
    queries.write_text("".join(f"{seed} 15\n" for seed in range(N_QUERIES)))
    trace_path = tmp / "trace.jsonl"

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "cora", "--scale", "0.2",
            "--queries", str(queries),
            "--workers", "2",
            "--metrics-port", "0",
            "--trace-log", str(trace_path),
            "--linger-s", str(LINGER_S),
            "--stats",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    # The port announcement races the fit; poll stderr line-by-line.
    port = None
    deadline = time.time() + 120.0
    stderr_seen = []
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            if proc.poll() is not None:
                break
            continue
        stderr_seen.append(line)
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        fail(f"metrics port never announced; stderr: {''.join(stderr_seen)}", proc)

    # Wait for all responses on stdout (the service then lingers).
    responses = []
    for _ in range(N_QUERIES):
        line = proc.stdout.readline()
        if not line:
            fail("serve exited before answering every query", proc)
        responses.append(json.loads(line))
    if not all(record.get("trace_id") for record in responses):
        fail("response lines missing trace ids", proc)

    metrics = scrape(port, "/metrics")
    stats = json.loads(scrape(port, "/stats"))
    health = scrape(port, "/healthz")
    stop(proc)
    if shm_segments() > segments_before:
        fail(
            f"serve left {shm_segments() - segments_before} shared-memory "
            "segment(s) in /dev/shm"
        )

    if health.strip() != "ok":
        fail(f"unexpected /healthz body: {health!r}")

    kernel_lines = [
        line for line in metrics.splitlines()
        if line.startswith("laca_kernel_selections_total{")
    ]
    if not kernel_lines:
        fail("no kernel-selection counters: worker metrics never merged")
    if sum(float(line.rsplit(" ", 1)[1]) for line in kernel_lines) <= 0:
        fail(f"kernel-selection counters all zero: {kernel_lines}")

    for needle in (
        "# TYPE laca_request_seconds histogram",
        "# TYPE laca_stage_seconds histogram",
        "# TYPE laca_touched_volume histogram",
        'laca_stage_seconds_bucket{stage="queue_wait",le="+Inf"}',
    ):
        if needle not in metrics:
            fail(f"missing from /metrics: {needle!r}")

    volume_count = re.search(r"^laca_touched_volume_count (\d+)$", metrics, re.M)
    if volume_count is None or int(volume_count.group(1)) != N_QUERIES:
        fail(
            f"touched-volume histogram should carry {N_QUERIES} samples, "
            f"got {volume_count and volume_count.group(1)}"
        )

    if stats.get("requests") != N_QUERIES or "p50_queue_wait_s" not in stats:
        fail(f"/stats malformed: {json.dumps(stats)[:300]}")

    spans = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
        if json.loads(line).get("event") == "request"
    ]
    if len(spans) != N_QUERIES:
        fail(f"trace log holds {len(spans)} spans, expected {N_QUERIES}")
    if not all("worker_id" in span for span in spans):
        fail("pool spans missing worker attribution")

    print(
        f"obs smoke OK: {N_QUERIES} traced requests over 2 workers, "
        f"{len(kernel_lines)} kernel counter(s) "
        f"({', '.join(line.split(' ')[0] for line in kernel_lines)}), "
        f"p50 queue wait {stats['p50_queue_wait_s'] * 1e3:.2f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
