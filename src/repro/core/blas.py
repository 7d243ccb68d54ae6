"""One BLAS thread for LACA's Step 2 products, block diffusions and TNAM
row blocks.

Step 2 of :func:`~repro.core.laca.laca_scores` and
:func:`~repro.core.laca.laca_scores_batch` is a pair of skinny dense
products per seed (``|support| × k`` against a vector) sitting between
sparse diffusions that run on the calling thread alone; the block
diffusions of :func:`~repro.core.laca.laca_scores_batch` add two dense
``degrees @ mask`` products per iteration.  A multithreaded OpenBLAS
wakes its helper threads for them, and the helpers then spin-wait for
the next call.  On a 2-CPU host a helper that lands on the diffusion's
CPU can slow every later block of the process: with two busy background
processes, the best B=64 block of the arxiv analog at scale 0.12 took
50–99 ms uncapped against 34–43 ms capped.  :func:`single_blas_thread`
caps OpenBLAS at one thread for Step 2 and the block diffusions, and for
the blocked TNAM build (:mod:`repro.attributes.tnam`), which spreads its
row-block products over the CPUs on threads of its own.  It puts the
previous count back afterwards, so the rest of the program (the
randomized k-SVD past 400 features, for one) keeps its threads.

The libraries are found through ``/proc/self/maps``: OpenBLAS as bundled
by the numpy/scipy wheels (``scipy_openblas``, 32- or 64-bit ints) or as
a system ``libopenblas``.  Elsewhere — another BLAS vendor, no procfs —
the cap does nothing.  The thread count is process-wide, and a routed
serving block runs Step 2 and block diffusions on several threads at
once, so the cap is reference-counted under a module lock: the first
thread in saves the counts and sets one, the last thread out puts them
back, and no thread is ever inside a capped section with the cap
lifted.  A process forked while another thread holds the cap (a pool
worker respawned during in-process fallback answering) starts with a
fresh lock and the saved counts put back, because no thread of the child
is inside a capped section.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

__all__ = ["single_blas_thread"]

_SYMBOL_PREFIXES = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES = ("", "64_")


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[object, object], ...]:
    """``(get_num_threads, set_num_threads)`` of each mapped OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(None, 5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5]
            }
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _SYMBOL_PREFIXES:
            for suffix in _SYMBOL_SUFFIXES:
                get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    controls.append((get, set_))
    return tuple(controls)


#: Guards the reference count below and the counts it saved.
_CAP_LOCK = threading.Lock()
#: Threads inside :func:`single_blas_thread` right now.
_cap_depth = 0
#: ``(set_num_threads, count)`` of each library the first thread capped.
_capped: list[tuple[object, int]] = []


@contextmanager
def single_blas_thread():
    """Run the ``with`` body with OpenBLAS capped at one thread."""
    global _cap_depth
    with _CAP_LOCK:
        if _cap_depth == 0:
            for get, set_ in _openblas_thread_controls():
                count = get()
                if count > 1:
                    set_(1)
                    _capped.append((set_, count))
        _cap_depth += 1
    try:
        yield
    finally:
        with _CAP_LOCK:
            _cap_depth -= 1
            if _cap_depth == 0:
                for set_, count in _capped:
                    set_(count)
                _capped.clear()


def _after_fork_in_child() -> None:
    global _CAP_LOCK, _cap_depth
    _CAP_LOCK = threading.Lock()
    _cap_depth = 0
    for set_, count in _capped:
        set_(count)
    _capped.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
