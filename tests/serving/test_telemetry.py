"""Tests for the telemetry accumulator and its stats snapshot."""

import numpy as np

from repro.eval.harness import latency_percentile
from repro.serving import ServiceTelemetry


class TestServiceTelemetry:
    def test_empty_snapshot_is_all_zero(self):
        stats = ServiceTelemetry().snapshot()
        assert stats["requests"] == 0
        assert stats["batches"] == 0
        assert stats["mean_batch_occupancy"] == 0.0
        assert stats["seeds_per_s"] == 0.0
        assert stats["p50_latency_s"] == 0.0
        assert stats["p95_latency_s"] == 0.0

    def test_occupancy_and_throughput(self):
        telemetry = ServiceTelemetry()
        telemetry.record_batch(4, engine_seconds=0.1)
        telemetry.record_batch(2, engine_seconds=0.1)
        stats = telemetry.snapshot()
        assert stats["batches"] == 2
        assert stats["engine_served"] == 6
        assert stats["mean_batch_occupancy"] == 3.0
        assert stats["max_batch_occupancy"] == 4
        assert stats["seeds_per_s"] == 30.0

    def test_latency_percentiles_match_harness_helper(self):
        telemetry = ServiceTelemetry()
        samples = [0.01, 0.02, 0.03, 0.04, 0.4]
        for value in samples:
            telemetry.record_latency(value)
        stats = telemetry.snapshot()
        assert stats["p50_latency_s"] == round(latency_percentile(samples, 50.0), 6)
        assert stats["p95_latency_s"] == round(latency_percentile(samples, 95.0), 6)

    def test_latency_window_is_bounded(self):
        telemetry = ServiceTelemetry(latency_window=4)
        for value in (9.0, 9.0, 9.0, 0.1, 0.2, 0.3, 0.4):
            telemetry.record_latency(value)
        stats = telemetry.snapshot()
        # Only the last 4 samples survive; the 9.0s outliers rolled off.
        assert stats["p50_latency_s"] == round(
            latency_percentile([0.1, 0.2, 0.3, 0.4], 50.0), 6
        )
        assert stats["p95_latency_s"] < 1.0

    def test_update_counters_sum_invalidations(self):
        telemetry = ServiceTelemetry()
        telemetry.record_update(0.002, invalidated=5)
        telemetry.record_update(0.004)
        telemetry.record_update(0.006, invalidated=2)
        stats = telemetry.snapshot()
        assert stats["updates"] == 3
        assert stats["entries_invalidated"] == 7
        assert stats["entries_promoted"] == 0  # no entry outlives its epoch
        assert stats["p50_update_s"] == round(
            latency_percentile([0.002, 0.004, 0.006], 50.0), 6
        )

    def test_cache_and_error_counters(self):
        telemetry = ServiceTelemetry()
        telemetry.record_cache_hit()
        telemetry.record_cache_hit()
        telemetry.record_batch(1, engine_seconds=0.01)
        telemetry.record_error()
        stats = telemetry.snapshot()
        assert stats["cache_served"] == 2
        assert stats["requests"] == 3
        assert stats["errors"] == 1


class TestLatencyPercentile:
    def test_empty_sample(self):
        assert latency_percentile([], 50.0) == 0.0

    def test_matches_numpy(self, rng):
        sample = rng.random(101)
        assert latency_percentile(sample, 95.0) == float(np.percentile(sample, 95.0))

    def test_median_of_odd_sample(self):
        assert latency_percentile([3.0, 1.0, 2.0], 50.0) == 2.0
