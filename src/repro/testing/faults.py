"""Deterministic fault injection for chaos tests.

Fault tolerance is only testable if failures are *reproducible*: "kill a
worker sometime during the run" makes a flaky test, "kill worker 0 the
third time it picks up a block" makes a regression test.  A
:class:`FaultPlan` is a list of :class:`FaultRule`\\ s evaluated at named
**sites** that production code calls into (guarded, zero-cost when no
plan is installed)::

    plan = FaultPlan([
        {"site": "worker.block", "match": {"worker_id": 0, "spawn": 0},
         "after": 2, "action": "exit"},
    ])
    service = ClusterService(model, workers=2, fault_plan=plan)

Rules trigger on *counted observations*, not wall-clock or randomness:
each rule keeps a per-process hit counter over the site events matching
its ``match`` fields, skips the first ``after`` of them, then fires
``times`` times.  With the default ``probability=1.0`` a plan is fully
deterministic; probabilistic plans draw from a seeded stream so a given
``(seed, event order)`` still replays exactly.

Sites currently wired through the stack (``match`` fields in parens):

- ``worker.block`` — a pool worker about to compute a block
  (``worker_id``, ``spawn``, ``block_index``).  ``exit`` emulates a
  SIGKILL mid-block; ``raise`` emulates an engine crash.
- ``worker.reload`` — a pool worker handling an epoch-reload marker
  (``worker_id``, ``spawn``, ``generation``).  ``delay`` holds the ack
  back; ``raise`` fails the reload.
- ``pool.result`` — the pool thread about to handle a message it read
  from a worker's pipe (``kind``, ``worker_id``).  ``drop`` loses the
  message; ``delay`` holds the pool thread back.
- ``wal.fsync`` — the WAL about to fsync an appended record (``path``).
  ``raise`` emulates a full/failing disk (record written, durability
  not guaranteed).
- ``store.commit`` — :meth:`GraphStore.apply` about to publish the new
  head (``epoch``).  ``raise`` probes apply atomicity.

The plan travels by pickle into forked workers; counters are
per-process state (a respawned worker starts counting from zero, with
its ``spawn`` field incremented — match on ``spawn`` to target only the
first incarnation).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field

__all__ = ["FaultError", "FaultPlan", "FaultRule", "UnpicklableFault"]

_ACTIONS = frozenset({"raise", "exit", "drop", "delay"})
_EXC_KINDS = frozenset({"fault", "oserror", "unpicklable"})


class FaultError(RuntimeError):
    """Raised by a triggered rule with ``action="raise"`` (default kind)."""


class UnpicklableFault(RuntimeError):
    """A deliberately unpicklable exception (tests error portability).

    Holds a thread lock so ``pickle.dumps`` fails with ``TypeError`` —
    the same failure mode as exceptions capturing sockets or handles.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self._lock = threading.Lock()  # unpicklable on purpose


def _build_exception(rule: "FaultRule") -> BaseException:
    if rule.exc == "oserror":
        return OSError(rule.message)
    if rule.exc == "unpicklable":
        return UnpicklableFault(rule.message)
    return FaultError(rule.message)


@dataclass
class FaultRule:
    """One trigger: fire ``action`` at ``site`` on matching observations.

    Parameters
    ----------
    site:
        The injection point name (see module docstring).
    match:
        Field equalities an observation must satisfy to count toward
        this rule (e.g. ``{"worker_id": 0}``).  Empty matches all.
    after:
        Skip this many matching observations before firing.
    times:
        Fire at most this many times (<= 0 means unlimited).
    action:
        ``raise`` (throw an exception), ``exit`` (``os._exit`` — a hard
        kill, no cleanup, like SIGKILL), ``drop`` (caller discards the
        message/effect), ``delay`` (sleep ``delay_s`` then proceed).
    delay_s / exit_code / probability / message / exc:
        Knobs for the respective actions; ``exc`` picks the exception
        kind for ``raise``: ``fault`` | ``oserror`` | ``unpicklable``.
    """

    site: str
    match: dict = field(default_factory=dict)
    after: int = 0
    times: int = 1
    action: str = "raise"
    delay_s: float = 0.0
    exit_code: int = 17
    probability: float = 1.0
    message: str = "injected fault"
    exc: str = "fault"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {sorted(_ACTIONS)}"
            )
        if self.exc not in _EXC_KINDS:
            raise ValueError(
                f"unknown exception kind {self.exc!r}; "
                f"expected one of {sorted(_EXC_KINDS)}"
            )
        if not (0.0 <= float(self.probability) <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if int(self.after) < 0:
            raise ValueError("after must be >= 0")
        self.after = int(self.after)
        self.times = int(self.times)
        self.match = dict(self.match)

    def matches(self, site: str, fields: dict) -> bool:
        if site != self.site:
            return False
        return all(fields.get(key) == value for key, value in self.match.items())


class FaultPlan:
    """A seeded, picklable set of :class:`FaultRule` triggers.

    ``check(site, **fields)`` is the single entry point production code
    calls; it returns ``True`` when the triggered action is ``drop``
    (the caller discards the effect), sleeps through ``delay`` rules,
    raises for ``raise`` rules, and never returns from ``exit`` rules.
    ``fired`` logs every trigger for post-mortem assertions.
    """

    def __init__(self, rules=(), *, seed: int = 0) -> None:
        self.rules: list[FaultRule] = [
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in rules
        ]
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._hits = [0] * len(self.rules)  # matching observations per rule
        self._fires = [0] * len(self.rules)
        self.fired: list[tuple[str, dict]] = []
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "FaultPlan":
        """Build from a JSON-shaped spec: a rule list, or
        ``{"seed": ..., "rules": [...]}``."""
        if isinstance(spec, dict):
            return cls(spec.get("rules", ()), seed=spec.get("seed", 0))
        return cls(spec)

    @classmethod
    def from_env(cls, var: str = "REPRO_FAULTS") -> "FaultPlan | None":
        """Parse a plan from a JSON environment variable (None if unset)."""
        raw = os.environ.get(var, "").strip()
        if not raw:
            return None
        try:
            spec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{var} is not valid JSON: {exc}") from exc
        return cls.from_spec(spec)

    # -- pickling (the plan rides into forked/spawned workers) ----------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- evaluation -----------------------------------------------------
    def _trigger(self, site: str, fields: dict) -> FaultRule | None:
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(site, fields):
                    continue
                hit = self._hits[index]
                self._hits[index] = hit + 1
                if hit < rule.after:
                    continue
                if rule.times > 0 and self._fires[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and (
                    self._rng.random() >= rule.probability
                ):
                    continue
                self._fires[index] += 1
                self.fired.append((site, dict(fields)))
                return rule
        return None

    def check(self, site: str, **fields) -> bool:
        """Evaluate ``site``; returns True iff the caller must *drop*."""
        rule = self._trigger(site, fields)
        if rule is None:
            return False
        if rule.action == "delay":
            time.sleep(rule.delay_s)
            return False
        if rule.action == "drop":
            return True
        if rule.action == "exit":
            os._exit(rule.exit_code)  # hard kill: no atexit, no flush
        raise _build_exception(rule)

    def fire_count(self, site: str | None = None) -> int:
        """How many rules have fired (optionally only at ``site``)."""
        with self._lock:
            if site is None:
                return len(self.fired)
            return sum(1 for fired_site, _ in self.fired if fired_site == site)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed})"
