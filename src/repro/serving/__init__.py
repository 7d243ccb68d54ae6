"""Serving layer: fit once offline, answer concurrent queries online.

The pipeline (``repro.core``) builds models and the batch engine
(``repro.diffusion.batch``) answers blocks of seeds cheaply; this
package turns the two into a long-lived service:

- :mod:`~repro.serving.persistence` — fitted models as ``.npz``
  artifacts (:func:`save_model` / :func:`load_model`);
- :mod:`~repro.serving.service` — :class:`ClusterService`, the
  thread-safe micro-batching scheduler that coalesces concurrent
  ``submit`` calls into block diffusions, applies live graph deltas
  (``apply_update``) without dropping traffic, and bounds what it
  buffers (``max_pending`` load-shedding, per-request deadlines);
- :mod:`~repro.serving.pool` — the worker pool every
  ``ClusterService(model, workers=N)`` owns (``N=0``: a pool with no
  workers): blocks fan out to worker *processes* over a shared-memory
  graph (:mod:`repro.graphs.shm`),
  with fault tolerance (worker death detection/respawn, idempotent block
  retry, in-process answering while no worker is alive);
- :mod:`~repro.serving.cache` — the epoch-aware LRU
  :class:`ResultCache` and the :func:`config_digest` that keys it;
- :mod:`~repro.serving.telemetry` — per-service latency/occupancy/
  throughput stats.

Typical use::

    from repro.serving import ClusterService, load_model, save_model

    save_model(LACA().fit(graph), "model.npz")          # offline, once
    model = load_model("model.npz", graph)               # any process
    with ClusterService(model, max_batch=64) as service:
        futures = [service.submit(seed, 50) for seed in seeds]
        clusters = [future.result() for future in futures]
        print(service.stats())
"""

from .cache import ResultCache, config_digest, query_key
from .persistence import load_model, save_model
from .pool import PoolClusterService, WorkerError
from .service import ClusterService, DeadlineExceeded, PoolSaturated, UpdateTimeout
from .telemetry import ServiceTelemetry

__all__ = [
    "ClusterService",
    "DeadlineExceeded",
    "PoolSaturated",
    "ResultCache",
    "ServiceTelemetry",
    "UpdateTimeout",
    "WorkerError",
    "config_digest",
    "load_model",
    "query_key",
    "save_model",
]
