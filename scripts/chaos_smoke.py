#!/usr/bin/env python
"""Chaos smoke: SIGKILL a pool worker mid-stream, demand a perfect run.

Launches ``python -m repro serve --workers 2`` as a subprocess (the
exact deployment shape), waits for the first response, then SIGKILLs
one pool worker process out from under it.  The run must still end
perfectly:

* every query is answered — zero lost futures, zero error records;
* every answer is bitwise identical to a clean in-process run of the
  same query stream (the pool's governing contract, upheld through the
  kill via idempotent block retry);
* ``/stats`` records the supervision actually happening
  (``worker_restarts`` >= 1);
* SIGTERM to serve leaves no new ``psm_*`` shared-memory segment in
  ``/dev/shm`` (the process group is SIGKILLed only if serve has not
  exited 10 s later).

Exits non-zero with a reason on any violation.  Used by CI; also handy
manually::

    PYTHONPATH=src python scripts/chaos_smoke.py
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

N_QUERIES = 240
LINGER_S = 15.0

SERVE_ARGS = [
    "--dataset", "cora", "--scale", "0.2",
    "--max-batch", "8", "--max-wait-ms", "25",
]


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
    print(f"CHAOS SMOKE FAIL: {reason}", file=sys.stderr)
    if proc is not None:
        kill_tree(proc)
    sys.exit(1)


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.read().decode()


def pool_worker_pids(serve_pid: int) -> list[int]:
    """The forked pool workers: children of serve whose cmdline is the
    serve cmdline (multiprocessing's resource tracker re-execs with its
    own cmdline, so this filter never selects it)."""
    children_path = Path(f"/proc/{serve_pid}/task/{serve_pid}/children")
    serve_cmdline = Path(f"/proc/{serve_pid}/cmdline").read_bytes()
    workers = []
    for pid in children_path.read_text().split():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # raced an exit
        if cmdline == serve_cmdline:
            workers.append(int(pid))
    return workers


def expected_answers(queries: Path) -> list[dict]:
    """Clean in-process oracle run (--workers 0): the pool's contract is
    bitwise identity with exactly this."""
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            *SERVE_ARGS,
            "--queries", str(queries),
            "--workers", "0",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if result.returncode != 0:
        fail(f"oracle run failed: {result.stderr[-500:]}")
    return [json.loads(line) for line in result.stdout.splitlines()]


def main() -> int:
    segments_before = shm_segments()
    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    queries = tmp / "queries.txt"
    queries.write_text("".join(f"{seed} 15\n" for seed in range(N_QUERIES)))

    oracle = expected_answers(queries)
    if len(oracle) != N_QUERIES:
        fail(f"oracle answered {len(oracle)}/{N_QUERIES} queries")

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            *SERVE_ARGS,
            "--queries", str(queries),
            "--workers", "2",
            "--metrics-port", "0",
            "--linger-s", str(LINGER_S),
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

    first = proc.stdout.readline()
    if not first:
        fail("serve exited before the first answer", proc)
    responses = [json.loads(first)]

    # Chaos: SIGKILL one pool worker while ~30 blocks are still queued.
    victims = pool_worker_pids(proc.pid)
    if len(victims) != 2:
        fail(f"expected 2 pool workers, found {victims}", proc)
    os.kill(victims[0], signal.SIGKILL)
    killed_at = len(responses)

    # Zero lost futures: every remaining line must still arrive.
    for _ in range(N_QUERIES - 1):
        line = proc.stdout.readline()
        if not line:
            fail(
                f"serve stopped after {len(responses)}/{N_QUERIES} answers "
                "(lost futures)", proc,
            )
        responses.append(json.loads(line))

    # The respawn trails the drain by the backoff delay; poll /stats
    # during the linger window until supervision has visibly completed.
    stats = json.loads(scrape(port, "/stats"))
    poll_deadline = time.time() + LINGER_S - 2.0
    while time.time() < poll_deadline and (
        stats.get("worker_restarts", 0) < 1
        or stats.get("workers_alive") != 2
    ):
        time.sleep(0.2)
        stats = json.loads(scrape(port, "/stats"))
    stop(proc)
    if shm_segments() > segments_before:
        fail(
            f"serve left {shm_segments() - segments_before} shared-memory "
            "segment(s) in /dev/shm"
        )

    # Bitwise identity with the clean oracle, kill or no kill.
    for got, want in zip(responses, oracle):
        if got["seed"] != want["seed"] or got["members"] != want["members"]:
            fail(
                f"answer diverged after the kill: seed {got['seed']} "
                f"got {got['members'][:8]}... want {want['members'][:8]}..."
            )

    if stats.get("worker_restarts", 0) < 1:
        fail(f"no recorded worker restart: {json.dumps(stats)[:300]}")
    if stats.get("errors", 0) != 0:
        fail(f"errors recorded during chaos run: {stats['errors_by_kind']}")
    if stats.get("workers_alive") != 2:
        fail(f"killed worker was not respawned: {stats.get('workers_alive')}")

    print(
        f"chaos smoke OK: worker {victims[0]} SIGKILLed after answer "
        f"{killed_at}, {N_QUERIES}/{N_QUERIES} answers bitwise-equal to "
        f"the in-process oracle, {stats['worker_restarts']} restart(s), "
        f"{stats['block_retries']} block retr(ies)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
