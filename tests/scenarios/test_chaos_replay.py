"""Chaos replay: a mixed trace through the pool, with and without a
worker kill, must drain to bitwise-identical answers.

Replay schedules are pure functions of ``(scenario, ReplayConfig)``, so
two runs submit exactly the same queries in the same order; the fault
path (kill → supervise → respawn → idempotent block retry) must be
invisible in the answers, only in the stats.
"""

import numpy as np
import pytest

from repro.core.config import LacaConfig
from repro.core.pipeline import LACA
from repro.graphs import GraphStore
from repro.scenarios import DynamicSBMConfig, ReplayConfig, generate_dynamic_sbm, replay
from repro.serving import ClusterService
from repro.testing import FaultPlan, FaultRule


@pytest.fixture(scope="module")
def scenario():
    config = DynamicSBMConfig(
        n=180,
        n_communities=3,
        avg_degree=6.0,
        d=16,
        epochs=3,
        churn_fraction=0.03,
        birth_fraction=0.02,
        death_fraction=0.0,
        drift_fraction=0.03,
    )
    return generate_dynamic_sbm(config, seed=11)


def _run(scenario, fault_plan=None):
    # Fresh fit per run: apply_update refreshes the model in place.
    model = LACA(LacaConfig(k=8)).fit(scenario.base)
    store = GraphStore(scenario.base, history=scenario.epochs + 1)
    service = ClusterService(
        model,
        workers=2,
        store=store,
        fault_plan=fault_plan,
        backoff_base_s=0.05,
        max_wait_s=0.0,
        max_batch=4,
        cache_size=0,
    )
    try:
        result = replay(
            service,
            scenario,
            ReplayConfig(
                queries_per_epoch=16, seed=21, keep_answers=True,
                drain_before_update=True,
            ),
        )
        stats = service.stats()
    finally:
        service.close(timeout=60)
    return result, stats


class TestChaosReplay:
    def test_worker_kill_mid_replay_is_answer_invisible(self, scenario):
        clean, clean_stats = _run(scenario)
        plan = FaultPlan(
            [
                FaultRule(
                    site="worker.block",
                    match={"worker_id": 0, "spawn": 0},
                    action="exit",
                )
            ]
        )
        chaotic, chaotic_stats = _run(scenario, fault_plan=plan)

        # The kill actually happened and was healed ...
        assert chaotic_stats["worker_restarts"] >= 1
        assert clean_stats["worker_restarts"] == 0

        # ... every query drained (nothing shed, nothing hung) ...
        for result in (clean, chaotic):
            assert result.summary()["queries"] == scenario.epochs * 16
            assert result.summary()["shed"] == 0

        # ... and the answer stream is bitwise identical.
        assert len(clean.answers) == len(chaotic.answers)
        for a, b in zip(clean.answers, chaotic.answers):
            assert a[:3] == b[:3]
            np.testing.assert_array_equal(a[3], b[3])
