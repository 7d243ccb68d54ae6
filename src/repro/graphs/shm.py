"""Shared-memory export of graph snapshots for multi-process serving.

A local clustering query touches a size-independent sliver of the graph
(Theorem IV.1), but a *worker pool* still needs the whole CSR resident in
every process.  Copying it per worker would multiply memory by the pool
size and add seconds of startup per epoch advance; this module instead
places the head snapshot's backing arrays — ``indptr``, ``indices``, the
all-ones ``data``, ``degrees``, ``inv_degrees``, the normalized attribute
matrix (written from the snapshot's row blocks), and the TNAM factor
``z`` — into
:mod:`multiprocessing.shared_memory` segments, published through a small
picklable *manifest* (plain dict: segment names, shapes, dtypes, and the
snapshot's identity scalars).

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
:class:`AttachedSnapshot` when done (never unlinking).  Epoch advances
publish a *new* set of segments and retire the old one only after every
worker has re-attached — the pool's barrier protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph

__all__ = ["SharedSnapshot", "AttachedSnapshot", "publish_snapshot", "attach_snapshot"]

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_VERSION = 1


def _export_array(
    array: np.ndarray | tuple[np.ndarray, ...],
) -> tuple[shared_memory.SharedMemory, dict]:
    """Copy ``array`` into a fresh named segment; returns (segment, spec).

    A tuple of row blocks is exported as their row-wise concatenation,
    written block by block.
    """
    pieces = array if isinstance(array, tuple) else (np.ascontiguousarray(array),)
    shape = (sum(piece.shape[0] for piece in pieces), *pieces[0].shape[1:])
    dtype = pieces[0].dtype
    nbytes = sum(piece.nbytes for piece in pieces)
    segment = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
    try:
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        lo = 0
        for piece in pieces:
            view[lo : lo + piece.shape[0]] = piece
            lo += piece.shape[0]
        spec = {
            "segment": segment.name,
            "shape": list(shape),
            "dtype": dtype.str,
        }
    except BaseException:
        # The segment exists under a published name the caller never
        # learns; without the unlink it outlives the process in /dev/shm.
        view = None  # a live buffer view would block close()
        segment.close()
        segment.unlink()
        raise
    return segment, spec


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
    """Publisher-side handle: the manifest plus ownership of the segments."""

    manifest: dict
    _segments: list[shared_memory.SharedMemory] = field(default_factory=list)

    def close(self, unlink: bool = True) -> None:
        """Release the segments (idempotent); ``unlink`` destroys them.

        Call only after every attacher is done — a worker still mapping
        an unlinked segment keeps its pages alive (POSIX semantics), but
        no new attach can succeed.
        """
        for segment in self._segments:
            try:
                segment.close()
                if unlink:
                    segment.unlink()
            except FileNotFoundError:
                pass  # already unlinked (double close)
        self._segments = []


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
    graph: AttributedGraph, *, tnam_z: np.ndarray | None = None
) -> SharedSnapshot:
    """Export ``graph`` (and optionally a TNAM factor) to shared memory.

    Returns a :class:`SharedSnapshot` whose ``manifest`` is a plain,
    picklable dict — send it over a pipe/queue and
    :func:`attach_snapshot` in any process on this machine.  Ground-truth
    community labels are deliberately not exported: serving workers
    answer ``(seed, size)`` queries and never consult ground truth.
    """
    adjacency = graph.adjacency
    arrays: dict[str, np.ndarray | tuple[np.ndarray, ...]] = {
        "indptr": adjacency.indptr,
        "indices": adjacency.indices,
        "data": adjacency.data,
        "degrees": graph.degrees,
        "inv_degrees": graph.inv_degrees,
    }
    if graph.is_attributed:
        # Written block by block: the snapshot need not form its matrix.
        arrays["attributes"] = graph.attribute_blocks
    if tnam_z is not None:
        arrays["tnam_z"] = np.asarray(tnam_z, dtype=np.float64)

    segments: list[shared_memory.SharedMemory] = []
    specs: dict[str, dict] = {}
    try:
        for key, array in arrays.items():
            segment, spec = _export_array(array)
            segments.append(segment)
            specs[key] = spec
    except Exception:
        for segment in segments:  # don't leak /dev/shm on a partial export
            try:
                segment.close()
                segment.unlink()
            except (BufferError, FileNotFoundError):
                pass  # keep unlinking the rest regardless
        raise
    manifest = {
        "version": MANIFEST_VERSION,
        "name": graph.name,
        "n": int(graph.n),
        "epoch": int(graph.epoch),
        "binary_adjacency": bool(graph._binary_adjacency),
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
        attributes=views.get("attributes"),
        communities=None,
        secondary_communities=None,
        name=str(manifest["name"]),
        epoch=int(manifest["epoch"]),
    )
    return AttachedSnapshot(
        graph=graph, tnam_z=views.get("tnam_z"), _segments=segments
    )
