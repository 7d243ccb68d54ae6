"""Durable write-ahead log for :class:`~repro.graphs.store.GraphStore`.

PR 5 made the graph evolvable through :class:`GraphDelta` streams, but
the stream only ever lived in memory: a crash between ``apply_update``
calls silently lost every committed epoch past the base snapshot.  The
WAL closes that gap with the classic discipline — **append before
splice**: :meth:`GraphStore.apply` writes the delta to the log (and,
under the default policy, fsyncs it) *before* mutating the head, so any
epoch the store ever exposed is reconstructible from base graph + log.

Record framing is CRC-checked JSONL — one line per applied delta::

    crc32(payload) as 8 hex chars, one space, compact JSON, newline
    deadbeef {"delta":{...},"epoch":3}

Properties that make recovery exact rather than best-effort:

- JSON round-trips every field bitwise: floats serialize via
  ``repr`` (shortest round-trip form, exact by construction) and edge /
  node ids are integers, so ``GraphDelta.from_mapping(to_mapping(d))``
  rebuilds the same delta and the store's determinism does the rest —
  a replayed head is **bitwise identical** to the crashed process's.
- A torn tail (the crash landed mid-write) is detected by the CRC or a
  missing terminator and *truncated*: the intact prefix is the log.
  Corruption anywhere else — a bad record with good records after it —
  cannot come from a single torn write and raises :class:`WalCorruption`
  instead of silently dropping committed epochs.
- ``fsync`` policy is explicit: ``"always"`` (default; every append is
  durable before the splice proceeds) or ``"never"`` (leave flushing to
  the OS — bounded data loss on power failure, fine for tests and
  benchmarks).
"""

from __future__ import annotations

import json
import os
import threading
import zlib

__all__ = ["GraphWAL", "WalCorruption", "read_wal_records"]

_FSYNC_POLICIES = frozenset({"always", "never"})


class WalCorruption(ValueError):
    """Non-tail WAL damage: a bad record with intact records after it."""


def _encode_record(payload: dict) -> bytes:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return b"%08x " % crc + data + b"\n"


def _decode_line(line: bytes) -> dict | None:
    """Parse one framed line; None when the frame or CRC is bad."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    data = line[9:]
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        return None
    try:
        payload = json.loads(data)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def read_wal_records(path: str) -> tuple[list[dict], int, bool]:
    """Read every intact record from ``path``.

    Returns ``(records, good_bytes, torn)`` where ``good_bytes`` is the
    length of the valid prefix and ``torn`` flags a damaged *final*
    record (safe to truncate away — it never committed).  Raises
    :class:`WalCorruption` when damage is followed by further intact
    records, which a single torn write cannot produce.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            return records, offset, True  # unterminated tail write
        payload = _decode_line(data[offset:newline])
        if payload is None:
            remainder = data[newline + 1:]
            for tail_line in remainder.split(b"\n"):
                if tail_line and _decode_line(tail_line) is not None:
                    raise WalCorruption(
                        f"record at byte {offset} of {path!r} is damaged "
                        "but later records are intact; refusing to drop "
                        "committed epochs"
                    )
            return records, offset, True
        records.append(payload)
        offset = newline + 1
    return records, offset, False


class GraphWAL:
    """Append-only CRC-framed JSONL log of applied graph deltas.

    Thread-safe; opened in binary append mode so concurrent appends
    from the store's lock'd apply path land whole.  ``fault_plan``
    hooks the ``wal.fsync`` site for deterministic disk-failure tests.
    """

    def __init__(
        self,
        path,
        *,
        fsync: str = "always",
        fault_plan=None,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {sorted(_FSYNC_POLICIES)}, "
                f"got {fsync!r}"
            )
        self.path = str(path)
        self.fsync = fsync
        self._fault_plan = fault_plan
        self._lock = threading.Lock()
        self._handle = open(self.path, "ab")
        self._handle.seek(0, os.SEEK_END)
        self.records_appended = 0

    # ------------------------------------------------------------------
    def tell(self) -> int:
        """Current end-of-log offset (the rollback point for append)."""
        with self._lock:
            self._require_open()
            return self._handle.tell()

    def append(self, payload: dict) -> int:
        """Frame, write, and (per policy) fsync one record.

        Returns the offset the record starts at.  When the fsync fails
        the record's durability is unknown — the store rolls the file
        back to the returned offset and re-raises.
        """
        frame = _encode_record(payload)
        with self._lock:
            self._require_open()
            offset = self._handle.tell()
            self._handle.write(frame)
            self._handle.flush()
            if self._fault_plan is not None:
                self._fault_plan.check("wal.fsync", path=self.path)
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
            self.records_appended += 1
            return offset

    def truncate_to(self, offset: int) -> None:
        """Roll the log back to ``offset`` (undo of a failed append)."""
        with self._lock:
            self._require_open()
            self._handle.truncate(offset)
            self._handle.seek(0, os.SEEK_END)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _require_open(self) -> None:
        if self._handle is None:
            raise ValueError(f"WAL {self.path!r} is closed")

    def __enter__(self) -> "GraphWAL":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphWAL(path={self.path!r}, fsync={self.fsync!r}, "
            f"records_appended={self.records_appended})"
        )
