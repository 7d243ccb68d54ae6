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
  exited 10 s later);
* it never hangs: the first answer must arrive within 120 s of the
  metrics port announcement and every later one within 60 s of the
  kill, or the run fails with the number of answers it reached.

Exits non-zero with a reason on any violation.  Used by CI; also handy
manually::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

N_QUERIES = 240
LINGER_S = 15.0
#: Every answer must arrive within this many seconds of the kill.
ANSWER_DEADLINE_S = 60.0

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
        stop(proc)
    sys.exit(1)


def line_queue(stream) -> queue.Queue:
    """The lines of ``stream`` as a daemon thread reads them (``None``
    at EOF), so the caller can stop waiting at a deadline instead of
    blocking in ``readline()`` on a server that wedged."""
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        try:
            for line in stream:
                lines.put(line)
        except (OSError, ValueError):
            pass  # the stream was closed under the reader
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return lines


def next_line(lines: queue.Queue, deadline: float) -> str | None:
    """The next line, or ``None`` at EOF or once ``deadline`` passed."""
    try:
        return lines.get(timeout=max(0.0, deadline - time.monotonic()))
    except queue.Empty:
        return None


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

    answers = line_queue(proc.stdout)
    first = next_line(answers, time.monotonic() + 120.0)
    if not first:
        fail("serve answered nothing within 120 s of announcing its port", proc)
    responses = [json.loads(first)]

    # Chaos: SIGKILL one pool worker while ~30 blocks are still queued.
    victims = pool_worker_pids(proc.pid)
    if len(victims) != 2:
        fail(f"expected 2 pool workers, found {victims}", proc)
    os.kill(victims[0], signal.SIGKILL)
    killed_at = len(responses)

    # Zero lost futures: every remaining line must still arrive, and in
    # time (a wedged pool would otherwise hang this script forever).
    deadline = time.monotonic() + ANSWER_DEADLINE_S
    for _ in range(N_QUERIES - 1):
        line = next_line(answers, deadline)
        if not line:
            fail(
                f"serve stopped or stalled after {len(responses)}/{N_QUERIES} "
                f"answers, {ANSWER_DEADLINE_S:.0f} s after the kill "
                "(lost futures or a wedged pool)", proc,
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
