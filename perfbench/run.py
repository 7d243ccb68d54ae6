"""Layered serving benchmark for the LACA repro.

    python3 perfbench/run.py --workload local --seed 1 --seconds 10 --trace 0

runs one workload (``local``, ``saturated`` or ``churn``) from the root
of a checkout, prints a readable report, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  It exits 1 when an answer fails the correctness gate or
the workload left its regime.  ``--report PATH`` also writes the full
report (host header, every metric, extras) as JSON.

    python3 perfbench/run.py --self-test

runs every workload at a tiny scale and checks that each declared metric
is emitted with its unit and that a corrupted answer is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: One BLAS thread per process, set before numpy loads.  On a 2-CPU host
#: the dispatcher (or, on ``churn``, two pool workers and the parent)
#: already fill the CPUs; BLAS helper threads on top of them made timings
#: follow the scheduler rather than the program.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

#: End-to-end metrics and units.  ``error_rate`` is printed in the report
#: but left out of the JSON line: it is 0 on a healthy run, and failures
#: already show as ``failed`` / ``attempted`` there.
END_TO_END = {
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "update_p50_ms": "ms",
    "precision": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORT_ONLY = {"error_rate": "fraction"}

PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.apply_ms": "ms",
    "attributes.tnam_build_s": "s",
    "attributes.tnam_update_ms": "ms",
    "diffusion.seq_calls": "calls/query",
    "diffusion.seq_ms_p50": "ms",
    "diffusion.block_calls": "calls/query",
    "diffusion.block_ms_p50": "ms",
    "diffusion.block_width_mean": "seeds",
    "diffusion.kernel_share.gather": "fraction",
    "diffusion.kernel_share.csc": "fraction",
    "diffusion.kernel_share.full": "fraction",
    "diffusion.kernel_share.block_sparse": "fraction",
    "diffusion.kernel_share.block_dense": "fraction",
    "diffusion.touched_fraction_p50": "fraction",
    "diffusion.touched_volume_p50": "edges",
    "core.raw_qps": "queries/s",
    "core.scores_ms_p50": "ms",
    "core.scores_batch_ms_per_seed": "ms",
    "core.step2_self_ms": "ms",
    "core.topk_ms_p50": "ms",
    "core.refresh_ms": "ms",
    "serving.efficiency": "ratio",
    "serving.self_ms_per_query": "ms",
    "serving.queue_wait_p50_ms": "ms",
    "serving.block_size_mean": "queries",
    "serving.cache_hit_rate": "fraction",
    "serving.entries_promoted": "count",
    "serving.entries_invalidated": "count",
    "serving.cache_advance_ms": "ms",
    "serving.pool.collect_p50_ms": "ms",
    "serving.pool.engine_p50_ms": "ms",
    "serving.pool.worker_balance": "ratio",
    "serving.pool.block_retries": "count",
    "serving.pool.worker_restarts": "count",
    "obs.telemetry_us_per_query": "us",
    "obs.trace_overhead_pct": "%",
}

#: Regime guard on the median touched fraction of the gate's sample.
REGIMES = {
    "local": ("touched fraction below 0.5", lambda fraction: fraction < 0.5),
    "saturated": ("touched fraction equal to 1", lambda fraction: fraction >= 1.0),
}


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def evaluate(name: str, outcome, tracer) -> dict:
    """Turn one run's outcome into the full report."""
    loop = outcome.loop
    attempted = loop.attempted + len(outcome.update_latencies)
    failed = loop.failed + outcome.gate_mismatches + outcome.block_retries
    touched = statistics.median(outcome.touched_fractions)
    volume = statistics.median(outcome.touched_volumes)
    guard = REGIMES.get(name)
    regime_ok = guard is None or guard[1](touched)
    samples = len(loop.latencies)
    end_to_end = {
        "throughput_qps": outcome.throughput_qps,
        "latency_p50_ms": _percentile(loop.latencies, 50) * 1e3,
        "latency_p95_ms": _percentile(loop.latencies, 95) * 1e3,
        "update_p50_ms": statistics.median(outcome.update_latencies) * 1e3,
        "precision": outcome.precision,
        "setup_s": statistics.median(outcome.setup_times),
        "peak_rss_mb": outcome.peak_rss_mb,
        "error_rate": failed / attempted,
    }
    report = {
        "workload": name,
        "header": {
            **outcome.header,
            "touched_fraction_p50": touched,
            "touched_volume_p50": volume,
            "regime": guard[0] if guard else None,
            "regime_ok": regime_ok,
        },
        "correct": outcome.gate_mismatches == 0 and regime_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "gate": {"checked": outcome.gate_checked, "mismatches": outcome.gate_mismatches},
        "latency_samples": samples,
        "beyond_p95": samples * 0.05,
        "updates": len(outcome.update_latencies),
        "update_ms": [latency * 1e3 for latency in outcome.update_latencies],
        "setup_times_s": outcome.setup_times,
        "end_to_end": end_to_end,
    }
    if tracer is not None:
        import layers

        ctx = outcome.layer_ctx
        ctx["touched_fraction_p50"] = touched
        ctx["touched_volume_p50"] = volume
        report["per_layer"], report["extras"] = layers.per_layer(tracer, ctx)
    return report


def print_report(report: dict, trace: bool) -> None:
    header = report["header"]
    print(f"perfbench {report['workload']}  " + "  ".join(
        f"{key}={value}" for key, value in report["host"].items()
    ))
    print(
        f"  inputs: n={header['n']} nnz={header['nnz']} "
        f"touched_fraction_p50={header['touched_fraction_p50']:.4f} "
        f"touched_volume_p50={header['touched_volume_p50']:.0f}"
    )
    if header["regime"]:
        state = "ok" if header["regime_ok"] else "LEFT ITS REGIME"
        print(f"  regime guard ({header['regime']}): {state}")
    gate = report["gate"]
    print(
        f"  correctness gate: {gate['checked']} sampled answers compared bitwise "
        f"with a fresh fit, {gate['mismatches']} mismatched"
    )
    print(
        f"  attempted={report['attempted']} failed={report['failed']} "
        f"updates={report['updates']} latency samples={report['latency_samples']} "
        f"({report['beyond_p95']:.1f} beyond p95"
        + ("" if report["beyond_p95"] >= 10 else ", fewer than 10")
        + ")"
    )
    units = {**END_TO_END, **REPORT_ONLY}
    print("  end-to-end:")
    for name, value in report["end_to_end"].items():
        print(f"    {name:<28} {value:>14.6g} {units[name]}")
    if trace:
        print("  per-layer:")
        for name, value in report["per_layer"].items():
            print(f"    {name:<38} {value:>14.6g} {PER_LAYER[name]}")
        for name, value in report["extras"].items():
            print(f"    (extra) {name:<30} {value!s:>14}")


def result_line(report: dict, trace: bool) -> str:
    if trace:
        metrics = {name: report["per_layer"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {name: report["end_to_end"][name] for name in END_TO_END}
        units = END_TO_END
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("local", "saturated", "churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full report to this JSON file")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument(
        "--corrupt-answer", action="store_true",
        help="alter one sampled answer before the gate (self-test)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    import workloads
    from tracer import Tracer

    host = workloads.host_header()
    tracer = None
    if args.trace:
        import layers

        tracer = Tracer()
        layers.install(tracer)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, tracer,
            tiny=args.tiny, corrupt=args.corrupt_answer,
        )
    finally:
        workloads.stop_children()
    report = evaluate(args.workload, outcome, tracer)
    report["host"] = {**host, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print_report(report, bool(args.trace))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=1, default=float)
    print(result_line(report, bool(args.trace)), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
