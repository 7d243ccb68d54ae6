#!/usr/bin/env python
"""Chaos smoke: SIGKILL pool workers mid-stream, demand a perfect run.

Launches ``python -m repro serve --workers 2`` as a subprocess (the
exact deployment shape), waits for the first response, then SIGKILLs
one pool worker process out from under it.  Once that worker is back
(``workers_alive == 2``), it SIGKILLs every live worker at once, while
answers are still streaming: the lost blocks are then answered by
serve's dispatcher in-process until the respawns land.  A
``worker.block`` delay rule (``REPRO_FAULTS``) paces the workers so
the stream outlasts both kills.  serve runs at its default retry
budget: the pool marks both killed workers dead before it retries any
of their blocks, so each kill costs a lost request one retry.  The run
must still end perfectly:

* every query is answered — zero lost futures, zero error records;
* every answer is bitwise identical to a clean in-process run of the
  same query stream (the pool's governing contract, upheld through the
  kills via idempotent block retry and in-process answering);
* ``/stats`` records the supervision actually happening: three
  respawns (``worker_restarts`` >= 3), both workers alive at the end,
  a lost block retried after each kill (``block_retries`` >= 2), and
  some queries answered in-process (``engine_served`` exceeds the
  workers' ``worker_occupancy`` seeds);
* SIGTERM to serve leaves no new ``psm_*`` shared-memory segment in
  ``/dev/shm`` (the process group is SIGKILLed only if serve has not
  exited 10 s later);
* it never hangs: the first answer must arrive within 120 s of the
  metrics port announcement and every later one within 60 s of the
  first kill, or the run fails with the number of answers it reached;
* it leaves nothing behind: its query file's temporary directory is
  removed on every exit.

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
#: Every answer must arrive within this many seconds of the first kill.
ANSWER_DEADLINE_S = 60.0
#: How often /stats is read while waiting for the first kill's respawn.
POLL_S = 0.05
#: Each pool worker sleeps this long before each block it answers, so
#: the stream is still running when the respawn lands (~0.25 s after
#: the first kill): the 240 queries are ~60 worker blocks.
PACING = {"rules": [
    {"site": "worker.block", "action": "delay", "delay_s": 0.05, "times": 0},
]}

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
    own cmdline, so this filter never selects it).  Each thread of serve
    lists the children it forked: the main thread the first workers,
    the pool thread the respawns."""
    serve_cmdline = Path(f"/proc/{serve_pid}/cmdline").read_bytes()
    children = []
    for task in Path(f"/proc/{serve_pid}/task").iterdir():
        try:
            children += (task / "children").read_text().split()
        except OSError:
            continue  # the thread exited
    workers = []
    for pid in children:
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


def two_pool_workers(proc: subprocess.Popen) -> list[int]:
    """serve's pool worker pids; fails the run unless there are two."""
    workers = pool_worker_pids(proc.pid)
    if len(workers) != 2:
        fail(f"expected 2 pool workers, found {workers}", proc)
    return workers


def main() -> int:
    # Removed on every exit, fail()'s sys.exit included.
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        return run(Path(tmp) / "queries.txt")


def run(queries: Path) -> int:
    segments_before = shm_segments()
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
        env={**os.environ, "REPRO_FAULTS": json.dumps(PACING)},
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

    # Chaos, first kill: SIGKILL one pool worker while ~30 of its
    # blocks are still in flight.
    victims = two_pool_workers(proc)
    os.kill(victims[0], signal.SIGKILL)
    killed_at = len(responses)

    # Zero lost futures: every remaining line must still arrive, and in
    # time (a wedged pool would otherwise hang this script forever).
    # Second kill: once the first victim is back, every live worker at
    # once, before the stream ends.
    deadline = time.monotonic() + ANSWER_DEADLINE_S
    all_killed_at = None
    while len(responses) < N_QUERIES:
        wait_until = deadline
        if all_killed_at is None:
            stats = json.loads(scrape(port, "/stats"))
            if stats.get("worker_restarts", 0) >= 1 and stats.get("workers_alive") == 2:
                for pid in two_pool_workers(proc):
                    os.kill(pid, signal.SIGKILL)
                all_killed_at = len(responses)
            else:
                wait_until = min(deadline, time.monotonic() + POLL_S)
        line = next_line(answers, wait_until)
        if line is None and wait_until < deadline and proc.poll() is None:
            continue  # no answer within POLL_S: read /stats again
        if not line:
            fail(
                f"serve stopped or stalled after {len(responses)}/{N_QUERIES} "
                f"answers, {ANSWER_DEADLINE_S:.0f} s after the first kill "
                "(lost futures or a wedged pool)", proc,
            )
        responses.append(json.loads(line))
    if all_killed_at is None:
        fail(
            "the stream ended before the first killed worker was respawned, "
            "so no kill of every worker landed mid-stream", proc,
        )

    # The respawns trail the drain by the backoff delay; poll /stats
    # during the linger window until supervision has visibly completed.
    stats = json.loads(scrape(port, "/stats"))
    poll_deadline = time.time() + LINGER_S - 2.0
    while time.time() < poll_deadline and (
        stats.get("worker_restarts", 0) < 3
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

    # Bitwise identity with the clean oracle, kills or no kills.
    for got, want in zip(responses, oracle):
        if got["seed"] != want["seed"] or got["members"] != want["members"]:
            fail(
                f"answer diverged after the kills: seed {got['seed']} "
                f"got {got['members'][:8]}... want {want['members'][:8]}..."
            )

    if stats.get("worker_restarts", 0) < 3:
        fail(f"fewer than 3 recorded worker restarts: {json.dumps(stats)[:300]}")
    if stats.get("block_retries", 0) < 2:
        fail(f"a kill lost no in-flight block: {json.dumps(stats)[:300]}")
    in_process = stats.get("engine_served", 0) - sum(
        entry["seeds"] for entry in stats.get("worker_occupancy", {}).values()
    )
    if in_process <= 0:
        fail(
            "serve answered nothing in-process while every worker was dead: "
            f"{json.dumps(stats)[:300]}"
        )
    if stats.get("errors", 0) != 0:
        fail(f"errors recorded during chaos run: {stats['errors_by_kind']}")
    if stats.get("workers_alive") != 2:
        fail(f"killed workers were not respawned: {stats.get('workers_alive')}")

    print(
        f"chaos smoke OK: worker {victims[0]} SIGKILLed after answer "
        f"{killed_at}, every worker after answer {all_killed_at}, "
        f"{N_QUERIES}/{N_QUERIES} answers bitwise-equal to the in-process "
        f"oracle, {stats['worker_restarts']} restart(s), "
        f"{stats['block_retries']} block retr(ies), {in_process} answered "
        "in-process"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
