"""How a call spreads its work over the CPUs it may use.

:func:`usable_cpus` is the thread budget, :func:`contiguous_cuts` cuts a
range into near-equal contiguous chunks, and :func:`map_on_cpus` maps a
function over a list on one thread per chunk where the work pays for
the threads.  The module imports nothing from the package, so every
layer can use it: the TNAM of :mod:`repro.attributes` as well as the
block routing of :mod:`repro.core`, which imports ``attributes``.
"""

from __future__ import annotations

import os
import threading

__all__ = ["MIN_HELPER_WORK", "contiguous_cuts", "map_on_cpus", "usable_cpus"]

#: Least work, in multiply-adds, that each thread of a
#: :func:`map_on_cpus` call gets: 0.4–1 ms of one-thread BLAS products
#: (8–19 G multiply-adds/s measured on a 2-CPU host), against ~0.13 ms
#: to start and join a helper thread there.  Less work runs on fewer
#: threads, and under this much on the calling thread alone.
MIN_HELPER_WORK = 2**23


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def contiguous_cuts(start: int, stop: int, count: int) -> list[int]:
    """Bounds of ``count`` contiguous chunks of ``range(start, stop)``
    whose sizes differ by at most one, larger chunks first: chunk ``k``
    is ``[cuts[k], cuts[k + 1])``.  ``count`` must be in
    ``1..stop - start``."""
    size, extra = divmod(stop - start, count)
    return [start + k * size + min(k, extra) for k in range(count + 1)]


def map_on_cpus(fn, items, work: int) -> list:
    """``[fn(item) for item in items]``, computed in contiguous chunks of
    ``items``: one per usable CPU, but no more than one per item or per
    :data:`MIN_HELPER_WORK` of ``work``, the multiply-adds of all items.

    The calling thread maps the first chunk and one helper thread each
    of the others, so a single chunk starts no thread.  Helpers live
    only inside this call: it returns, or raises the first error of any
    thread, once every helper has finished.
    """
    items = list(items)
    results: list = [None] * len(items)
    count = min(usable_cpus(), len(items), work // MIN_HELPER_WORK)
    cuts = contiguous_cuts(0, len(items), max(1, count))
    errors: list[BaseException] = []

    def run(lo: int, hi: int) -> None:
        try:
            for i in range(lo, hi):
                results[i] = fn(items[i])
        except BaseException as exc:  # raised by the calling thread
            errors.append(exc)

    helpers = [
        threading.Thread(target=run, args=cuts[c : c + 2], name="map-on-cpus")
        for c in range(1, len(cuts) - 1)
    ]
    try:
        for helper in helpers:
            helper.start()
        run(cuts[0], cuts[1])
    finally:
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()
    if errors:
        raise errors[0]
    return results
