"""Serving fixtures: a recorder of the shared-memory segments a test's
own process creates, so segment checks ignore every other process."""

from __future__ import annotations

import types
from pathlib import Path

import pytest

from repro.graphs import shm


class SegmentRecorder:
    """Names of every segment this process created through
    :mod:`repro.graphs.shm` while the test ran, in creation order."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def present(self) -> set[str]:
        """The recorded segments that still exist."""
        return {name for name in self.names if Path("/dev/shm", name).exists()}


@pytest.fixture
def created_segments(monkeypatch) -> SegmentRecorder:
    recorder = SegmentRecorder()
    real = shm.shared_memory.SharedMemory

    class Recorded(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                recorder.names.append(self.name)

    monkeypatch.setattr(shm, "shared_memory", types.SimpleNamespace(SharedMemory=Recorded))
    return recorder
