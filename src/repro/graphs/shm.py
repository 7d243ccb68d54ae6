"""Shared-memory export of graph snapshots for multi-process serving.

A local clustering query touches a size-independent sliver of the graph
(Theorem IV.1), but a *worker pool* still needs the whole CSR resident in
every process.  Copying it per worker would multiply memory by the pool
size and add seconds of startup per epoch advance; this module instead
places the arrays a worker reads — ``indptr``, ``indices``, the all-ones
``data``, ``degrees``, ``inv_degrees`` and the TNAM factor ``z`` — into
:mod:`multiprocessing.shared_memory` segments, published through a small
picklable *manifest* (plain dict: segment names, shapes, dtypes, and the
snapshot's identity scalars).  The n×d attribute rows are not published:
workers answer from ``z``, and the TNAM refresh runs in the publisher.
The manifest's ``attributed`` flag keeps the attached graph on the SNAS
path, and reading its rows raises rather than reporting none.

Workers :func:`attach_snapshot` the manifest and get a **zero-copy**
:class:`~repro.graphs.graph.AttributedGraph` view: every array is backed
directly by the shared segment (``np.ndarray(..., buffer=shm.buf)``), so
``P`` applications in one worker read the same physical pages as every
other worker.  Attached arrays are marked read-only — snapshots are
immutable by contract, and a stray in-place write in one process must not
corrupt its siblings.  Bitwise identity is free: the segments hold the
parent's arrays byte for byte, so a diffusion in a worker is the same
arithmetic on the same bits as in the parent.

Lifecycle: the publishing process owns the segments and must keep its
:class:`SharedSnapshot` alive while any worker uses them, then call
:meth:`SharedSnapshot.close` (which unlinks).  Attachers close their
:class:`AttachedSnapshot` when done (never unlinking).

Recycling: fresh shared pages cost a page fault and a zero-fill each,
rewriting pages the publisher already maps does not, so
:func:`publish_snapshot` can write into a retired snapshot's segments
(``spare=``), growing a segment only when its array outgrew it (new
segments leave :data:`SEGMENT_HEADROOM`).  The caller must guarantee no
process still reads the spare: the pool passes the set two epochs old,
which every worker left when it acked the previous epoch barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph

__all__ = ["SharedSnapshot", "AttachedSnapshot", "publish_snapshot", "attach_snapshot"]

#: Manifest schema version, bumped on incompatible layout changes
#: (2: no ``attributes`` array, an ``attributed`` flag instead).
MANIFEST_VERSION = 2

#: Room a newly created segment leaves past the array it holds, as a
#: fraction of the array's bytes.  A recycled publish rewrites a segment
#: only while the array still fits, and node births grow every array
#: each epoch; without the room, a growing graph would recreate every
#: segment on every publish.  Tail pages nothing writes are never
#: allocated, so the room costs address space, not memory.
SEGMENT_HEADROOM = 1 / 8


def _export_array(
    array: np.ndarray, reuse: shared_memory.SharedMemory | None = None
) -> tuple[shared_memory.SharedMemory, dict]:
    """Copy ``array`` into ``reuse`` when it is large enough, else into a
    fresh segment with :data:`SEGMENT_HEADROOM`; returns (segment, spec).

    ``reuse`` stays the caller's either way, also when the copy fails.
    """
    array = np.ascontiguousarray(array)
    if reuse is not None and reuse.size >= array.nbytes:
        segment = reuse
    else:
        size = int(array.nbytes * (1 + SEGMENT_HEADROOM))
        segment = shared_memory.SharedMemory(create=True, size=max(size, 1))
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        spec = {
            "segment": segment.name,
            "shape": list(array.shape),
            "dtype": array.dtype.str,
        }
    except BaseException:
        view = None  # a live buffer view would block close()
        if segment is not reuse:
            # The segment exists under a published name the caller never
            # learns; without the unlink it outlives the process in /dev/shm.
            _discard(segment)
        raise
    return segment, spec


def _discard(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment this process owns (idempotent)."""
    try:
        segment.close()
    except BufferError:
        pass  # a view escaped; the mapping dies with the process
    try:
        segment.unlink()
    except FileNotFoundError:
        pass  # already unlinked


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without handing it to the resource tracker.

    ``SharedMemory(name=...)`` registers the mapping with the resource
    tracker, which "helpfully" unlinks anything still registered when its
    process exits — destroying segments the *publisher* still serves
    from — and, when attacher and publisher share one tracker (forked
    workers, same-process tests), an unregister-after-attach would
    instead clobber the publisher's own registration.  Attachers are not
    owners, so registration is suppressed entirely for the attach call
    (Python 3.13 grew ``track=False`` for exactly this; this is the
    portable equivalent).
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_array(spec: dict, segment: shared_memory.SharedMemory) -> np.ndarray:
    array: np.ndarray = np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=segment.buf
    )
    array.setflags(write=False)
    return array


@dataclass
class SharedSnapshot:
    """Publisher-side handle: the manifest plus ownership of the segments,
    one per array key."""

    manifest: dict
    _segments: dict[str, shared_memory.SharedMemory] = field(default_factory=dict)

    def close(self) -> None:
        """Close and unlink the segments (idempotent).

        Call only after every attacher is done — a worker still mapping
        an unlinked segment keeps its pages alive (POSIX semantics), but
        no new attach can succeed.
        """
        for segment in self._segments.values():
            _discard(segment)
        self._segments = {}


@dataclass
class AttachedSnapshot:
    """Worker-side handle: the zero-copy graph view over shared segments.

    Keep this object alive as long as ``graph`` (or ``tnam_z``) is in
    use — the arrays borrow the segment buffers it holds open.
    """

    graph: AttributedGraph
    tnam_z: np.ndarray | None
    _segments: list[shared_memory.SharedMemory] = field(default_factory=list)

    def close(self) -> None:
        """Drop the mappings (never unlinks; the publisher owns that)."""
        # The numpy views hold exported buffers; break our references
        # first so memoryview teardown does not outlive the segments.
        self.graph = None  # type: ignore[assignment]
        self.tnam_z = None
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                pass  # a view escaped; the mapping dies with the process
        self._segments = []


def publish_snapshot(
    graph: AttributedGraph,
    *,
    tnam_z: np.ndarray | None = None,
    spare: SharedSnapshot | None = None,
) -> SharedSnapshot:
    """Export what a worker reads of ``graph`` (and optionally a TNAM
    factor) to shared memory.

    Returns a :class:`SharedSnapshot` whose ``manifest`` is a plain,
    picklable dict — send it over a pipe/queue and
    :func:`attach_snapshot` in any process on this machine.  Neither the
    attribute rows nor the ground-truth community labels are exported:
    workers answer ``(seed, size)`` queries from the TNAM factor, and the
    manifest's ``attributed`` flag tells them to take the SNAS path.

    ``spare`` is a retired snapshot no process reads any more; the
    publish consumes it.  Each array is written into the spare's segment
    of the same key when it fits, else into a new segment (the one that
    is too small is unlinked), and spare segments of keys this snapshot
    lacks are unlinked.  On failure every segment written, created or
    recycled is unlinked, the spare's included.
    """
    adjacency = graph.adjacency
    arrays = {
        "indptr": adjacency.indptr,
        "indices": adjacency.indices,
        "data": adjacency.data,
        "degrees": graph.degrees,
        "inv_degrees": graph.inv_degrees,
    }
    if tnam_z is not None:
        arrays["tnam_z"] = np.asarray(tnam_z, dtype=np.float64)

    recycled: dict[str, shared_memory.SharedMemory] = {}
    if spare is not None:
        recycled, spare._segments = spare._segments, {}
    segments: dict[str, shared_memory.SharedMemory] = {}
    specs: dict[str, dict] = {}
    try:
        for key, array in arrays.items():
            segment, specs[key] = _export_array(array, recycled.get(key))
            segments[key] = segment
            if segment is recycled.get(key):
                del recycled[key]
    except BaseException:
        # Don't leak /dev/shm on a partial export.
        for segment in (*segments.values(), *recycled.values()):
            _discard(segment)
        raise
    for segment in recycled.values():  # outgrown, or a key now absent
        _discard(segment)
    manifest = {
        "version": MANIFEST_VERSION,
        "name": graph.name,
        "n": int(graph.n),
        "epoch": int(graph.epoch),
        "binary_adjacency": bool(graph._binary_adjacency),
        "attributed": bool(graph.is_attributed),
        "arrays": specs,
    }
    return SharedSnapshot(manifest=manifest, _segments=segments)


def attach_snapshot(manifest: dict) -> AttachedSnapshot:
    """Rebuild a zero-copy :class:`AttributedGraph` view from a manifest.

    The returned graph satisfies every invariant of the published
    snapshot (same epoch, degrees, adjacency bits) without validating or
    copying anything: construction goes through
    :meth:`AttributedGraph._from_parts`, trusting the publisher exactly
    like the incremental store does.
    """
    version = int(manifest.get("version", -1))
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported shared-snapshot manifest version {version} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    segments: list[shared_memory.SharedMemory] = []
    views: dict[str, np.ndarray] = {}
    try:
        for key, spec in manifest["arrays"].items():
            segment = _attach_segment(spec["segment"])
            segments.append(segment)
            views[key] = _attach_array(spec, segment)
    except Exception:
        for segment in segments:
            segment.close()
        raise

    n = int(manifest["n"])
    adjacency = sp.csr_matrix(
        (views["data"], views["indices"], views["indptr"]),
        shape=(n, n),
        copy=False,
    )
    graph = AttributedGraph._from_parts(
        adjacency=adjacency,
        degrees=views["degrees"],
        inv_degrees=views["inv_degrees"],
        binary_adjacency=bool(manifest["binary_adjacency"]),
        attributes=None,
        communities=None,
        secondary_communities=None,
        name=str(manifest["name"]),
        epoch=int(manifest["epoch"]),
        attributed=bool(manifest["attributed"]),
    )
    return AttachedSnapshot(
        graph=graph, tnam_z=views.get("tnam_z"), _segments=segments
    )
