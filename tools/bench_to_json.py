#!/usr/bin/env python
"""Run the slow sweep-engine benchmarks and emit ``BENCH_sweep.json``.

The slow suite (``pytest -m slow benchmarks/``) *asserts* the repository's
performance claims but leaves no machine-readable trace; this emitter runs
the same measurement bodies (the ``measure_*`` functions shared with
``benchmarks/test_bench_engine.py``) and writes one JSON document so the
perf trajectory — cold ``import repro``, shared-sample speedup,
multiprocess scaling, simulator throughput — can be tracked across PRs and compared between machines.

Usage::

    python tools/bench_to_json.py                 # writes ./BENCH_sweep.json
    python tools/bench_to_json.py --output out.json
    python tools/bench_to_json.py --quick         # ~4x fewer trials, for CI

Scenarios that cannot run on the current machine are recorded as
``{"skipped": "<reason>"}`` rather than omitted, so a JSON diff across runs
always shows *why* a number is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Events per second of the pre-overhaul reference simulator on the
#: ``cluster_events_per_sec`` workload, as this emitter last measured it on a
#: 2-vCPU x86-64 host before that engine was deleted.  A fixed historical
#: number: nothing re-measures it.
REFERENCE_ENGINE_EVENTS_PER_SEC = 41_208


def _ensure_importable() -> None:
    # REPO_ROOT itself makes ``benchmarks.conftest`` importable (the bench
    # modules import ``run_once`` from it) regardless of the caller's cwd.
    for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def measure_import_repro() -> dict:
    """Time ``import repro`` in 5 fresh interpreters; report the median.

    Each child times the import alone (interpreter start-up excluded) and
    lists which of ``scipy.stats`` and ``scipy.optimize`` it loaded.  Each
    serves one call, so neither should load with the package.
    """
    runs = 5
    probe = (
        "import json, sys, time\n"
        "started = time.perf_counter()\n"
        "import repro\n"
        "seconds = time.perf_counter() - started\n"
        "loaded = [m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules]\n"
        "print(json.dumps({'seconds': seconds, 'loaded': loaded}))\n"
    )
    path = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    samples = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for _ in range(runs)
    ]
    times = [sample["seconds"] for sample in samples]
    loaded = {module for sample in samples for module in sample["loaded"]}
    return {
        "runs": runs,
        "median_s": statistics.median(times),
        "times_s": times,
        "scipy_stats_loaded": "scipy.stats" in loaded,
        "scipy_optimize_loaded": "scipy.optimize" in loaded,
    }


def run_benchmarks(quick: bool = False) -> dict:
    """Execute every runnable measurement and return the JSON document."""
    _ensure_importable()
    import numpy

    import test_bench_engine as bench

    if quick:
        bench.TRIALS = max(bench.TRIALS // 4, 25_000)

    cpu_count = os.cpu_count() or 1
    document: dict = {
        "schema": "pbs-repro/bench-sweep/v1",
        "generated_unix_time": time.time(),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "numpy": numpy.__version__,
            "cpu_count": cpu_count,
            "trials": bench.TRIALS,
            "configs": len(bench.CONFIGS),
            "quick": quick,
        },
        "benchmarks": {},
    }
    benchmarks = document["benchmarks"]

    print("cold import repro (5 fresh interpreters) ...", flush=True)
    benchmarks["import_repro"] = measure_import_repro()

    print(f"engine vs per-config loop ({bench.TRIALS} trials) ...", flush=True)
    benchmarks["engine_vs_per_config_loop"] = bench.measure_engine_vs_per_config_loop()

    if cpu_count >= 4:
        print("serial vs 4-worker sharding ...", flush=True)
        benchmarks["sharded_4_workers"] = bench.measure_sharded_speedup(workers=4)
    else:
        benchmarks["sharded_4_workers"] = {
            "skipped": f"needs >= 4 CPU cores, machine has {cpu_count}"
        }

    import test_bench_cluster as bench_cluster

    cluster_writes = max(bench_cluster.BENCH_WRITES // (4 if quick else 1), 500)
    print(f"cluster simulator events/sec ({cluster_writes} writes/run) ...", flush=True)
    benchmarks["cluster_events_per_sec"] = {
        **bench_cluster.measure_cluster_events_per_sec(writes=cluster_writes),
        "reference_engine_events_per_sec_historical": REFERENCE_ENGINE_EVENTS_PER_SEC,
    }

    validation_writes = 5_000 if quick else 50_000
    print(f"paper-scale validation cell ({validation_writes} writes) ...", flush=True)
    benchmarks["validation_cell_paper_scale"] = (
        bench_cluster.measure_paper_scale_validation_cell(writes=validation_writes)
    )

    analytics_writes = 5_000 if quick else 50_000
    print(f"trace recording and analytics ({analytics_writes} writes) ...", flush=True)
    benchmarks["trace_analytics"] = bench_cluster.measure_trace_analytics(
        writes=analytics_writes
    )

    import test_bench_analytic as bench_analytic

    if quick:
        bench_analytic.TRIALS = max(bench_analytic.TRIALS // 4, 25_000)
    print(
        f"analytic fast path vs Monte Carlo engine ({bench_analytic.TRIALS} trials) ...",
        flush=True,
    )
    benchmarks["analytic_vs_montecarlo"] = (
        bench_analytic.measure_analytic_vs_montecarlo()
    )

    import test_bench_serving as bench_serving

    serving_requests = max(bench_serving.REQUESTS // (4 if quick else 1), 1_000)
    print(f"serving-layer load test ({serving_requests} requests) ...", flush=True)
    benchmarks["serving_load"] = bench_serving.measure_serving_load(
        requests=serving_requests
    )
    print("serving rebuild after a refit (5 refits) ...", flush=True)
    benchmarks["serving_refit"] = bench_serving.measure_serving_refit()

    import test_bench_scenarios as bench_scenarios

    scenario_writes = 2_000 if quick else 5_000
    print(
        f"hostile-conditions scenario matrix ({scenario_writes} writes/scenario) ...",
        flush=True,
    )
    benchmarks["scenario_divergence"] = bench_scenarios.measure_scenario_divergence(
        writes=scenario_writes
    )

    import test_bench_faults as bench_faults

    recovery_writes = 2_000 if quick else 5_000
    print(
        f"adaptive-recovery closed loop ({recovery_writes} writes) ...", flush=True
    )
    benchmarks["adaptive_recovery"] = bench_faults.measure_adaptive_recovery(
        writes=recovery_writes
    )

    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the sweep-engine benchmarks and write BENCH_sweep.json"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="destination path (default: BENCH_sweep.json at the repo root)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run with ~4x fewer trials (noisier numbers, CI-friendly runtime)",
    )
    args = parser.parse_args(argv)
    document = run_benchmarks(quick=args.quick)
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    for name, result in document["benchmarks"].items():
        if "skipped" in result:
            print(f"{name}: skipped ({result['skipped']})")
        elif "lines" in result:
            # One divergence trajectory line per scenario.
            for scenario, line in result["lines"].items():
                print(
                    f"{name}[{scenario}]: consistency rmse "
                    f"{line['consistency_rmse_pct']:.2f}%, "
                    f"dropped {line['dropped_messages']}"
                )
        elif "final_recovered_fraction" in result:
            print(
                f"{name}: recovered {result['final_recovered_fraction']:.0%} "
                f"of static divergence "
                f"({result['static_mean_abs_delta_p_pct']:.2f}% -> "
                f"{result['final_mean_abs_delta_p_pct']:.2f}%) "
                f"in {result['windows_to_threshold']} window(s)"
            )
        elif "speedup" in result:
            print(f"{name}: speedup {result['speedup']:.2f}x")
        else:
            summary = ", ".join(
                f"{key} {value:.2f}" if isinstance(value, float) else f"{key} {value}"
                for key, value in result.items()
            )
            print(f"{name}: {summary}")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
