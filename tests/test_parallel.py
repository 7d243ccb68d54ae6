"""Tests for :func:`repro.parallel.map_on_cpus`."""

import sys
import threading
import time

import pytest

from repro import parallel


@pytest.mark.parametrize(
    ("cpus", "items", "work", "threads"),
    [
        (4, 10, 10 * 2**23, 4),  # one chunk per CPU
        (4, 3, 10 * 2**23, 3),  # no more chunks than items
        (4, 10, 2 * 2**23 + 1, 2),  # no more chunks than MIN_HELPER_WORK allows
        (4, 10, 2**23 - 1, 1),  # too little work for a helper
        (1, 10, 10 * 2**23, 1),
    ],
)
def test_maps_in_order_on_contiguous_chunks(monkeypatch, cpus, items, work, threads):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    seen = []

    def square(x):
        seen.append((threading.current_thread(), x))
        return x * x

    assert parallel.map_on_cpus(square, range(items), work) == [x * x for x in range(items)]
    by_thread = {}
    for thread, x in seen:
        by_thread.setdefault(thread, []).append(x)
    chunks = sorted(by_thread.values())
    cuts = parallel.contiguous_cuts(0, items, threads)
    assert chunks == [list(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert by_thread[threading.current_thread()] == chunks[0]


def test_an_error_is_raised_once_every_helper_has_finished(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    finished = []

    def work(x):
        if x == 0:  # the calling thread fails at once
            raise ValueError("chunk 0")
        time.sleep(0.1 * x)  # the helpers are still running
        finished.append(x)
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk 0"):
        parallel.map_on_cpus(work, range(3), 3 * parallel.MIN_HELPER_WORK)
    assert sorted(finished) == [1, 2]
    assert threading.active_count() == before


def test_no_result_is_lost_with_more_threads_than_cores(monkeypatch):
    """Eight threads write their chunks' results into one list while the
    interpreter switches threads as often as it can."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            items = list(range(2000))
            got = parallel.map_on_cpus(lambda x: x + 1, items, 8 * parallel.MIN_HELPER_WORK)
            assert got == [x + 1 for x in items]
    finally:
        sys.setswitchinterval(interval)
