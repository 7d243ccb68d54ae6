"""How one block of seeds is answered: the routing rule of every caller.

:func:`route_block` is the single place that decides, seed by seed, which
engine path answers a block.  :meth:`~repro.core.pipeline.LACA.cluster_block`
(and so ``cluster_many``, the CLI ``--batch`` path and the evaluation
harness) and a pool worker call it with one thread; the serving
dispatcher's :func:`~repro.serving.service.answer_block` calls it with
one thread per usable CPU.

The block's first seed always runs alone on the calling thread, on the
sequential :meth:`~repro.core.pipeline.LACA.scores` path.  Its scatter
volume decides which threads answer the rest, and the merged kernel
tally decides what each of them claims next:

- **Routing threads.**  With a thread count above one, more than one
  seed left and a first seed whose mean scatter volume reaches
  :data:`FANOUT_MIN_SCATTER_VOLUME`, helper threads join the calling
  thread, up to the thread count and one per seed left.  numpy and
  scipy release the GIL in their C loops, so large scatters and block
  diffusions overlap; small ones are bound by Python overhead, so
  their blocks stay on the calling thread.
- **Local claims.**  While the tally stays local, each claim takes the
  next seed from a shared cursor and answers it sequentially, on fresh
  buffers of its own.
- **Saturated claims.**  The first claim that finds the tally saturated
  (:func:`~repro.diffusion.base.block_diffusion_pays`), with more than
  one seed left, cuts the rest into contiguous chunks, one per routing
  thread, whose sizes differ by at most one.  Each thread then claims
  one chunk and answers it with one
  :meth:`~repro.core.pipeline.LACA.scores_batch` call: block diffusions
  through :func:`~repro.diffusion.batch.batch_diffuse`, the block
  engine's one entry point, and one result per seed.  On
  one thread the rest is one chunk; a fanned-out block that saturates
  part-way splits its rest over the same threads.

One claim loop, :meth:`_Block.answer_next`, hands out both kinds.

Every seed's scores are bitwise those of
:meth:`~repro.core.pipeline.LACA.scores`, whichever path and thread
answered it: a batched seed runs the same Step 2 code as the sequential
path (see :func:`~repro.core.laca.laca_scores_batch`), and both hand the
same :class:`~repro.core.laca.LacaResult` shape to ``take``.
Helper threads live only inside one :func:`route_block` call, and an
exception on any thread fails the whole call.
"""

from __future__ import annotations

import threading

from ..diffusion.base import (
    begin_kernel_tally,
    block_diffusion_pays,
    end_kernel_tally,
)
from ..parallel import contiguous_cuts

__all__ = ["FANOUT_MIN_SCATTER_VOLUME", "route_block"]

#: Smallest mean scatter volume (edges per diffusion iteration) of a
#: block's first seed at which the rest of the block, local or
#: saturated, runs on threads.  Smaller scatters are bound by Python
#: overhead, where two threads contend for the GIL: measured
#: ``model.cluster`` rates of two threads over one, on a 2-CPU host,
#: were 0.49–0.72 on a churn SBM at ε = 1e-4 (0.6–1.2k edges per
#: scatter) and 0.44–0.65 on cora (~6.4k), against 1.13–1.73 on the
#: arxiv analog at scale 2–5 (67–76k) and 1.43–1.74 at scale 21
#: (21–32k).  Saturating queries scatter 46–94k edges on the arxiv
#: analog at scale 1 and at most 10.0k at scale 0.1 (100 seeds each).
FANOUT_MIN_SCATTER_VOLUME = 2**14


def mean_scatter_volume(result) -> float:
    """Edges one diffusion iteration of ``result`` scattered, on average."""
    iterations = result.rwr.iterations + result.bdd.iterations
    if not iterations:
        return 0.0
    return (result.rwr.work + result.bdd.work) / iterations


class _Block:
    """Shared state of one routed block: the claim cursor, the chunks of a
    saturated rest, the merged kernel tally, each seed's record and the
    first error."""

    def __init__(self, model, seeds, sizes, take) -> None:
        self.model = model
        self.seeds = seeds
        self.sizes = sizes
        self.take = take
        self.records: list = [None] * len(seeds)
        self.tally: dict[str, int] = {}
        self.cursor = 0
        #: Routing threads, the calling thread included; set before any
        #: helper starts, and so before the block can saturate.
        self.threads = 1
        self.chunks: list[tuple[int, int]] = []
        self.error: BaseException | None = None
        self.lock = threading.Lock()

    def answer_next(self, local: dict):
        """Claim the next seed or chunk and answer it on this thread.

        While the block stays local, the next seed is answered
        sequentially and its :class:`~repro.core.laca.LacaResult`
        returned.  The first claim
        that finds the merged tally saturated (with more than one seed
        left) cuts the rest into one chunk per routing thread; each claim
        after that takes one chunk and answers it with one
        :meth:`~repro.core.pipeline.LACA.scores_batch`.  Returns None once
        this thread is done: it answered a chunk, nothing is left to
        claim, or another thread failed.  ``local`` is this thread's
        kernel tally; it is merged and cleared per claim.
        """
        with self.lock:
            if self.error is not None:
                return None
            end = len(self.seeds)
            rest = end - self.cursor
            if rest > 1 and block_diffusion_pays(self.tally):
                cuts = contiguous_cuts(self.cursor, end, min(self.threads, rest))
                self.chunks = list(zip(cuts, cuts[1:]))
                self.cursor = end
            if self.cursor < end:
                b = self.cursor
                self.cursor += 1
            elif self.chunks:
                start, stop = self.chunks.pop(0)
                b = None
            else:
                return None
        if b is not None:
            result = self.model.scores(int(self.seeds[b]))
            self.records[b] = self.take(result, int(self.sizes[b]))
        else:
            results = self.model.scores_batch(self.seeds[start:stop])
            for b, batched in enumerate(results, start):
                self.records[b] = self.take(batched, int(self.sizes[b]))
            result = None
        self.merge(local)
        return result

    def merge(self, local: dict) -> None:
        """Add one thread's kernel tally to the block's, then clear it."""
        with self.lock:
            for kind, count in local.items():
                self.tally[kind] = self.tally.get(kind, 0) + count
        local.clear()

    def drain(self, local: dict) -> None:
        """Claim and answer on this thread until :meth:`answer_next` stops;
        an exception is kept for the calling thread and stops the others."""
        try:
            while self.answer_next(local) is not None:
                pass
        except BaseException as exc:  # noqa: BLE001 — re-raised by route_block
            with self.lock:
                if self.error is None:
                    self.error = exc

    def help(self) -> None:
        """A helper thread's body: its own tally, then :meth:`drain`."""
        local = begin_kernel_tally()
        try:
            self.drain(local)
        finally:
            end_kernel_tally()


def route_block(model, threads, seeds, sizes, take):
    """Answer one block of seeds by the routing rule of this module.

    ``threads`` (at least 1) caps the routing threads, the calling
    thread included.  ``take(result, size)`` turns a seed's
    :class:`~repro.core.laca.LacaResult` into the record kept for it, on
    the thread that answered the seed, whichever path answered it.

    Returns ``(records, tally)``: ``records[b]`` answers ``seeds[b]`` and
    ``tally`` is the block's merged kernel-selection count, every
    thread's sequential and block kernels included.  The seed at which a
    saturating block switches to chunks may depend on thread timing when
    the block fans out; the answers do not, because both paths return
    bitwise the same scores.
    """
    block = _Block(model, seeds, sizes, take)
    local = begin_kernel_tally()
    try:
        first = block.answer_next(local)
        threads = min(threads, len(seeds) - block.cursor)
        helpers = []
        if threads > 1 and mean_scatter_volume(first) >= FANOUT_MIN_SCATTER_VOLUME:
            block.threads = threads
            helpers = [
                threading.Thread(target=block.help, name=f"laca-block-{i}")
                for i in range(1, threads)
            ]
            for helper in helpers:
                helper.start()
        block.drain(local)
        for helper in helpers:
            helper.join()
        if block.error is not None:
            raise block.error
    finally:
        end_kernel_tally()
    return block.records, block.tally
