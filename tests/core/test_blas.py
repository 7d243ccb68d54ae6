"""Tests for the one-BLAS-thread cap around LACA's Step 2 products and
block diffusions."""

import multiprocessing
import threading

import numpy as np
import pytest

import repro.attributes.tnam as tnam_module
import repro.core.laca as laca_module
from repro import parallel
from repro.core import blas
from repro.core.blas import _openblas_thread_controls, single_blas_thread
from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphDelta, GraphStore
from repro.graphs.datasets import load_dataset


@pytest.fixture
def two_threads():
    """Every mapped OpenBLAS set to two threads, restored afterwards."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def test_caps_to_one_thread_and_restores(two_threads):
    with single_blas_thread():
        assert [get() for get, _ in two_threads] == [1] * len(two_threads)
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)


def test_restores_after_an_exception(two_threads):
    with pytest.raises(RuntimeError), single_blas_thread():
        raise RuntimeError
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)


def test_block_diffusions_run_capped(two_threads, monkeypatch):
    """Both block diffusions of ``scores_batch`` (whose per-iteration
    ``degrees @ mask`` volumes reach BLAS) run with the cap set."""
    model = LACA(LacaConfig(metric="cosine", diffusion="greedy", k=8)).fit(
        load_dataset("arxiv", scale=0.1)
    )
    seen = []
    batch_diffuse = laca_module.batch_diffuse

    def recording_batch_diffuse(*args, **kwargs):
        seen.append([get() for get, _ in two_threads])
        return batch_diffuse(*args, **kwargs)

    monkeypatch.setattr(laca_module, "batch_diffuse", recording_batch_diffuse)
    model.scores_batch([0, 1, 2])
    assert seen == [[1] * len(two_threads)] * 2
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)


def test_threaded_tnam_runs_capped(two_threads, monkeypatch):
    """The TNAM's row-block work on every thread — the Gram partials of a
    fit and of a refresh, the projection and its normalization — and its
    eigensolve on the calling thread run with the cap set, and the cap
    is lifted afterwards."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "MIN_HELPER_WORK", 1)
    seen = {}
    for owner, name in (
        (tnam_module, "_block_partials"),
        (tnam_module, "_normalize_features"),
        (np.linalg, "eigh"),
    ):
        real = getattr(owner, name)

        def recording(*args, real=real, name=name):
            counts = tuple(get() for get, _ in two_threads)
            seen.setdefault(name, []).append((threading.current_thread(), counts))
            return real(*args)

        monkeypatch.setattr(owner, name, recording)
    graph = load_dataset("arxiv", scale=0.5)  # four row blocks
    model = LACA(LacaConfig(metric="cosine", k=8)).fit(graph)
    store = GraphStore(graph)
    store.apply(GraphDelta(set_attributes=([5, 3900], graph.attributes[[6, 3901]])))
    model.refresh(store)
    assert sorted(seen) == ["_block_partials", "_normalize_features", "eigh"]
    for name, calls in seen.items():
        assert {counts for _, counts in calls} == {(1,) * len(two_threads)}, name
        threads = [thread for thread, _ in calls]
        if name == "eigh":  # once per fit or refresh, on the calling thread
            assert threads == [threading.current_thread()] * 2
        else:
            assert threading.current_thread() in threads and len(set(threads)) > 1
    assert [get() for get, _ in two_threads] == [2] * len(two_threads)


def test_cap_holds_until_the_last_thread_leaves(two_threads):
    """A saves 2 and sets 1, B enters, A leaves: B still runs capped, and
    the count comes back only when B leaves too."""
    both_inside = threading.Barrier(2, timeout=10)
    a_left = threading.Barrier(2, timeout=10)
    b_entered = threading.Barrier(2, timeout=10)
    seen = {}
    errors = []

    def counts():
        return [get() for get, _ in two_threads]

    def thread_a():
        try:
            with single_blas_thread():
                b_entered.wait()
                both_inside.wait()
            a_left.wait()
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    def thread_b():
        try:
            b_entered.wait()
            with single_blas_thread():
                both_inside.wait()
                a_left.wait()
                seen["inside_b"] = counts()
            seen["after_b"] = counts()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    assert not errors, errors
    assert seen["inside_b"] == [1] * len(two_threads)
    assert seen["after_b"] == [2] * len(two_threads)


def _check_child_uncapped(controls_count):
    """In a forked child: the counts are back at two and the cap works."""
    counts = [get() for get, _ in _openblas_thread_controls()]
    assert counts == [2] * controls_count, counts
    with single_blas_thread():
        counts = [get() for get, _ in _openblas_thread_controls()]
        assert counts == [1] * controls_count, counts
    counts = [get() for get, _ in _openblas_thread_controls()]
    assert counts == [2] * controls_count, counts


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_forked_child_gets_a_free_lock_and_its_counts_back(two_threads):
    """Fork while one thread is inside the cap and another holds its lock:
    the child must neither deadlock on the lock nor stay capped."""
    inside, release = threading.Event(), threading.Event()

    def hold_cap():
        with single_blas_thread():
            inside.set()
            release.wait(30)

    holder = threading.Thread(target=hold_cap)
    holder.start()
    try:
        assert inside.wait(30)
        child = multiprocessing.get_context("fork").Process(
            target=_check_child_uncapped, args=(len(two_threads),)
        )
        with blas._CAP_LOCK:
            child.start()
    finally:
        release.set()
        holder.join(30)
    assert not holder.is_alive()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung on the BLAS cap")
    assert child.exitcode == 0
