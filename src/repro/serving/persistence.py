"""Model persistence: fitted LACA models as single ``.npz`` archives.

Preprocessing (Algo 3) is the expensive, per-graph stage; serving wants
to pay it once, offline, and share the result across processes.
:func:`save_model` writes :meth:`LACA.fit_state` — config scalars plus
the TNAM — to one compressed archive (no pickle, the same idiom as
:mod:`repro.graphs.io`), and :func:`load_model` reattaches it to a graph
without re-running Algo 3, bitwise-reproducing the original model's
answers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.pipeline import LACA
from ..graphs.graph import AttributedGraph
from ..graphs.io import resolve_npz_path

__all__ = ["save_model", "load_model"]


def save_model(model: LACA, path: str | Path) -> Path:
    """Write a fitted ``model`` to ``path`` (``.npz`` appended if missing).

    The graph is not stored — persist it separately with
    :func:`repro.graphs.io.save_graph` and pair the two at load time.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **model.fit_state())
    return path


def load_model(path: str | Path, graph: AttributedGraph) -> LACA:
    """Load a model written by :func:`save_model` and attach ``graph``.

    ``graph`` must be the graph the model was fitted on; node-count
    mismatches are rejected.  Raises a :class:`FileNotFoundError` naming
    the attempted path(s) when no archive exists.
    """
    path = resolve_npz_path(path, "model")
    with np.load(path, allow_pickle=False) as archive:
        state = dict(archive.items())
    return LACA.from_fit_state(state, graph)
