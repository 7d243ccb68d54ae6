"""How one block of seeds is answered: the routing rule of every caller.

:func:`route_block` is the single place that decides, seed by seed, which
engine path answers a block.  :meth:`~repro.core.pipeline.LACA.cluster_block`
(and so ``cluster_many``, the CLI ``--batch`` path and the evaluation
harness) calls it with one workspace; the serving layer's
:func:`~repro.serving.service.answer_block` calls it with one workspace
per usable CPU.

The block's first seed always runs alone on the calling thread, on the
sequential :meth:`~repro.core.pipeline.LACA.scores` path.  Its kernel
tally and scatter volume then route the rest:

- **Saturated.**  Once the merged kernel tally says the queries go
  graph-wide (:func:`~repro.diffusion.base.block_diffusion_pays`), the
  remaining seeds, if more than one, share one
  :meth:`~repro.core.pipeline.LACA.scores_batch` block diffusion.
- **Local with large scatters.**  With more than one workspace, and a
  first seed whose mean scatter volume reaches
  :data:`FANOUT_MIN_SCATTER_VOLUME`, the remaining seeds fan out over one
  thread per workspace.  Each thread claims the next seed from a shared
  cursor and answers it on its own workspace; numpy and scipy release the
  GIL in their C loops, so the queries' scatters overlap.  Every thread
  checks the merged tally before each claim, so a block that starts to
  saturate part-way still sends its rest to one batch.
- **Otherwise** the calling thread answers the rest alone, checking the
  tally before each seed.

Every seed's scores are bitwise those of
:meth:`~repro.core.pipeline.LACA.scores`, whichever path and thread
answered it: a batch column runs the same Step 2 code as the sequential
path (see :func:`~repro.core.laca.laca_scores_batch`).
Helper threads live only inside one :func:`route_block` call, and an
exception on any thread fails the whole call.
"""

from __future__ import annotations

import os
import threading

from ..diffusion.base import (
    begin_kernel_tally,
    block_diffusion_pays,
    end_kernel_tally,
)

__all__ = ["FANOUT_MIN_SCATTER_VOLUME", "route_block", "usable_cpus"]

#: Smallest mean scatter volume (edges per diffusion iteration) of a
#: block's first seed at which the rest of the block fans out over
#: threads.  Smaller scatters are bound by Python overhead, where two
#: threads contend for the GIL: measured ``model.cluster`` rates of two
#: threads over one, on a 2-CPU host, were 0.49–0.72 on a churn SBM at
#: ε = 1e-4 (0.6–1.2k edges per scatter) and 0.44–0.65 on cora (~6.4k),
#: against 1.13–1.73 on the arxiv analog at scale 2–5 (67–76k) and
#: 1.43–1.74 at scale 21 (21–32k).
FANOUT_MIN_SCATTER_VOLUME = 2**14


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def mean_scatter_volume(result) -> float:
    """Edges one diffusion iteration of ``result`` scattered, on average."""
    iterations = result.rwr.iterations + result.bdd.iterations
    if not iterations:
        return 0.0
    return (result.rwr.work + result.bdd.work) / iterations


class _Block:
    """Shared state of one routed block: the claim cursor, the merged
    kernel tally, each seed's record and the first error."""

    def __init__(self, model, seeds, sizes, take) -> None:
        self.model = model
        self.seeds = seeds
        self.sizes = sizes
        self.take = take
        self.records: list = [None] * len(seeds)
        self.tally: dict[str, int] = {}
        self.cursor = 0
        self.error: BaseException | None = None
        self.lock = threading.Lock()

    def answer_next(self, workspace, local: dict):
        """Claim the next seed and answer it sequentially on ``workspace``.

        Returns the seed's :class:`~repro.core.laca.LacaResult`, or None
        when there is nothing left for the sequential path: every seed is
        claimed, another thread failed, or the merged tally says the rest
        (more than one seed) belongs to the block engine.  ``local`` is
        this thread's kernel tally; it is merged and cleared per seed.
        """
        with self.lock:
            remaining = len(self.seeds) - self.cursor
            if (
                self.error is not None
                or remaining == 0
                or (remaining > 1 and block_diffusion_pays(self.tally))
            ):
                return None
            b = self.cursor
            self.cursor += 1
        result = self.model.scores(int(self.seeds[b]), workspace=workspace)
        # Taken before this workspace's next query overwrites its views.
        self.records[b] = self.take(result, int(self.sizes[b]))
        self.merge(local)
        return result

    def merge(self, local: dict) -> None:
        """Add one thread's kernel tally to the block's, then clear it."""
        with self.lock:
            for kind, count in local.items():
                self.tally[kind] = self.tally.get(kind, 0) + count
        local.clear()

    def drain(self, workspace, local: dict) -> None:
        """Answer seeds on this thread until :meth:`answer_next` stops;
        an exception is kept for the calling thread and stops the others."""
        try:
            while self.answer_next(workspace, local) is not None:
                pass
        except BaseException as exc:  # noqa: BLE001 — re-raised by route_block
            with self.lock:
                if self.error is None:
                    self.error = exc

    def help(self, workspace) -> None:
        """A helper thread's body: its own tally, then :meth:`drain`."""
        local = begin_kernel_tally()
        try:
            self.drain(workspace, local)
        finally:
            end_kernel_tally()


def route_block(model, workspaces, seeds, sizes, take):
    """Answer one block of seeds by the routing rule of this module.

    ``workspaces`` is a non-empty sequence of
    :class:`~repro.diffusion.DiffusionWorkspace`; the calling thread uses
    the first, and each other one may serve one helper thread.
    ``take(result, size)`` turns a seed's
    :class:`~repro.core.laca.LacaResult` into the record kept for it.  A
    sequential result is taken on the thread that answered the seed,
    before that workspace's next query; a batched seed's result is
    :meth:`~repro.core.laca.LacaBatchResult.query` of its column.

    Returns ``(records, tally)``: ``records[b]`` answers ``seeds[b]`` and
    ``tally`` is the block's merged kernel-selection count.  The seed at
    which a saturating block switches to the batch may depend on thread
    timing when the block fans out; the answers do not, because both
    paths return bitwise the same scores.
    """
    block = _Block(model, seeds, sizes, take)
    local = begin_kernel_tally()
    try:
        first = block.answer_next(workspaces[0], local)
        threads = min(len(workspaces), len(seeds) - block.cursor)
        helpers = []
        if (
            threads > 1
            and not block_diffusion_pays(block.tally)
            and mean_scatter_volume(first) >= FANOUT_MIN_SCATTER_VOLUME
        ):
            helpers = [
                threading.Thread(
                    target=block.help, args=(workspace,), name=f"laca-block-{i}"
                )
                for i, workspace in enumerate(workspaces[1:threads], start=1)
            ]
            for helper in helpers:
                helper.start()
        block.drain(workspaces[0], local)
        for helper in helpers:
            helper.join()
        if block.error is not None:
            raise block.error
        rest = block.cursor
        if rest < len(seeds):
            result = model.scores_batch(seeds[rest:])
            for c, size in enumerate(sizes[rest:]):
                block.records[rest + c] = take(result.query(c), int(size))
            block.merge(local)
    finally:
        end_kernel_tally()
    return block.records, block.tally
