#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (from the repository root)::

    python3 perfbench/run.py --workload sim-cell --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
(``record {...}``) records the run: seed, versions, op parameters, per-op
times, deterministic counters and the host reference loop.

All three workloads, printed as one table (``--trace 1`` adds the layer
breakdown and the tracing overhead)::

    python3 perfbench/run.py --seconds 30
    python3 perfbench/run.py --seconds 30 --trace 1

``NOTE.md`` explains the workloads, ops, metrics and checks.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sim-cell", "answer-paths", "serve-http")

with open(ROOT / "BENCHMARK.json") as _handle:
    _BENCHMARK = json.load(_handle)
#: End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
#: name -> unit.  ``*_s`` layer times are self seconds per op; counts are per
#: op unless ``NOTE.md`` marks them as run totals.
END_TO_END = {metric["name"]: metric["unit"] for metric in _BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _BENCHMARK["per_layer"]}

#: Span name -> per-layer self-time metric.
SPAN_METRIC = {
    "workloads.generate": "workloads.generate_s",
    "cluster.build": "cluster.build_s",
    "cluster.run": "cluster.run_s",
    "analysis.observe": "analysis.observe_s",
    "analysis.latencies": "analysis.latencies_s",
    "analysis.compare": "analysis.compare_s",
    "core.wars_sample": "core.wars_sample_s",
    "montecarlo.sweep": "montecarlo.sweep_s",
    "kernels.reduce": "kernels.reduce_s",
    "analytic.env_build": "analytic.env_build_s",
    "analytic.tables": "analytic.tables_s",
    "analytic.query": "analytic.query_s",
    "core.sla": "core.sla_s",
    "latency.empirical_fit": "latency.empirical_fit_s",
    "serving.predict": "serving.service_s",
    "serving.recommend": "serving.service_s",
    "serving.ingest": "serving.service_s",
    "http.handler": "http.handler_s",
    "op": "unattributed_s",
}

#: Where each workload's largest layer is expected (see NOTE.md).
EXPECTED_LARGEST = {
    "sim-cell": "cluster.run_s",
    "answer-paths": "montecarlo.sweep_s",
    "serve-http": "http.overhead",
}

#: Set-ups measured in child processes after the timed phase, besides the
#: run's own; ``setup_s`` is the median of all of them.
SETUP_PROBES = 2


def host_reference_ms() -> float:
    """Time a fixed loop owned by the benchmark (~0.5 s on a 2-core VM).

    Pure-Python dict and int work plus a NumPy sort: the two kinds of work
    the program does.  Run while no program thread is busy, it shows how
    fast the host is at that moment.
    """
    import numpy as np

    started = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for value in range(1_200_000):
        key = value % 4_093
        table[key] = table.get(key, 0) + value
        total += value * 7 % 13
    # Small arrays sorted repeatedly, so the loop never sets peak_rss_mb.
    data = np.random.default_rng(12_345).random(250_000)
    for _ in range(20):
        np.sort(data)
    return (perf_counter() - started) * 1e3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and prove it is used."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def set_up(workload_name: str, trace: bool, seed: int):
    """Import, install hooks and warm up; returns ``(workload, tracer)``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"the program is missing: {SRC / 'repro'} not found (run from a full checkout)")
    OUT.mkdir(exist_ok=True)
    if workload_name == "serve-http":
        # The client never imports the program; the server process does.
        import serve_http

        spans = OUT / f"spans-serve-http-seed{seed}.json" if trace else None
        workload = serve_http.ServeHttp(ROOT, OUT, spans)
        workload.set_up()
        return workload, None
    load_program()
    import batch
    import layers

    tracer = layers.Tracer(timing=trace)
    layers.install(tracer)
    workload = batch.SimCell() if workload_name == "sim-cell" else batch.AnswerPaths()
    workload.warm_up()
    return workload, tracer


def probe_setup(workload_name: str, count: int) -> list[float]:
    """Set the workload up ``count`` more times, each in a fresh process."""
    values = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-400:]}")
        values.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# ----------------------------------------------------------------------
# Batch workloads.
# ----------------------------------------------------------------------
def run_batch(workload, tracer, seed: int, seconds: float) -> dict:
    """Run ops until ``seconds`` have passed (at least one op)."""
    op_seconds: list[float] = []
    op_counters: list[dict] = []
    problems: list[str] = []
    failed = 0
    started = perf_counter()
    index = 0
    while index == 0 or perf_counter() - started < seconds:
        tracer.set_op(index)
        before = Counter(tracer.counts)
        span = tracer.open("op") if tracer.timing else None
        op_started = perf_counter()
        try:
            answer, error = workload.op(seed + index), None
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            answer, error = None, exc
        op_seconds.append(perf_counter() - op_started)
        if span is not None:
            tracer.close(span)
        tracer.pause(True)
        try:
            wrong = [f"{type(error).__name__}: {error}"] if error else workload.check(answer)
            counts = {key: tracer.counts[key] - before.get(key, 0) for key in tracer.counts}
            if answer is not None:
                counts.update(workload.counters(answer))
        finally:
            tracer.pause(False)
        if wrong:
            failed += 1
            problems.extend(f"op {index}: {reason}" for reason in wrong)
        op_counters.append({key: value for key, value in sorted(counts.items()) if value})
        index += 1
    return {
        "elapsed_s": perf_counter() - started,
        "op_seconds": op_seconds,
        "op_counters": op_counters,
        "failed": failed,
        "problems": problems,
    }


def batch_end_to_end(result: dict) -> dict:
    times = [seconds * 1e3 for seconds in result["op_seconds"]]
    op_p50 = median(times)
    return {
        "ops_per_s": len(times) / result["elapsed_s"],
        "op_p50_ms": op_p50,
        # Fewer than 100 ops per run: the nearest-rank p99 is the slowest op.
        "op_p99_ms": max(times),
        # Every op writes its whole result afresh (see NOTE.md).
        "write_p50_ms": op_p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def batch_layers(tracer, result: dict) -> dict:
    import layers

    ops = len(result["op_seconds"])
    spans = tracer.spans
    self_s = layers.self_time_by_layer(spans, keep=lambda span: span[4] is not None)
    inclusive: dict[str, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None and (span[3] < 0 or spans[span[3]][0] != span[0]):
            inclusive[span[0]] += span[2] - span[1]
    totals: Counter = Counter()
    for counts in result["op_counters"]:
        totals.update(counts)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in self_s.items():
        metrics[SPAN_METRIC[name]] += seconds / ops
    for key in (
        "cluster.events",
        "cluster.draws",
        "cluster.draw_refills",
        "cluster.trace_rows",
        "analysis.observations",
        "core.wars_trials",
        "montecarlo.trials_run",
        "montecarlo.probes",
        "kernels.calls",
        "analytic.env_builds",
        "core.sla_configs",
    ):
        metrics[key] = totals[key] / ops
    if inclusive["cluster.run"]:
        metrics["cluster.events_per_s"] = totals["cluster.events"] / inclusive["cluster.run"]
    if totals["cluster.draws_refilled"]:
        metrics["cluster.draw_use_ratio"] = totals["cluster.draws"] / totals["cluster.draws_refilled"]
    if inclusive["montecarlo.sweep"]:
        metrics["montecarlo.trials_per_s"] = totals["montecarlo.trials_run"] / inclusive["montecarlo.sweep"]
    metrics["op.wall_s"] = sum(result["op_seconds"]) / ops
    return metrics


# ----------------------------------------------------------------------
# serve-http.
# ----------------------------------------------------------------------
def serve_layers(result: dict, spans_path: Path) -> dict:
    import layers

    with open(spans_path) as handle:
        spans = json.load(handle)["spans"]
    timed = {index: (kind, seconds, status) for index, kind, seconds, status in result["requests"]}
    requests = len(timed)
    self_s = layers.self_time_by_layer(spans, keep=lambda span: span[4] in timed)
    service: dict[int, float] = defaultdict(float)
    handler: dict[int, float] = defaultdict(float)
    by_tag: dict[str, list[float]] = defaultdict(list)
    spot_check_s = 0.0
    start, end = result["window"]
    for span in spans:
        name, began, ended, parent, op, thread, tag = span
        duration = ended - began
        if thread == layers.SPOT_CHECK_THREAD:
            if name == "montecarlo.sweep" and parent < 0 and start <= began <= end:
                spot_check_s += duration
            continue
        if op not in timed:
            continue
        if name == "http.handler":
            handler[op] += duration
        elif name.startswith("serving.") and parent >= 0 and spans[parent][0] == "http.handler":
            service[op] += duration
            by_tag[f"{name}.{tag}"].append(duration * 1e3)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in self_s.items():
        metrics[SPAN_METRIC[name]] += seconds / requests
    client_s = sum(seconds for _, seconds, _ in timed.values())
    metrics["unattributed_s"] = (client_s - sum(handler.values())) / requests
    metrics["op.wall_s"] = client_s / requests
    metrics["http.overhead_ms"] = median(
        (seconds - service[op]) * 1e3 for op, (_, seconds, _) in timed.items()
    )
    for metric, key in (
        ("serving.predict_hit_ms", "serving.predict.hit"),
        ("serving.predict_miss_ms", "serving.predict.miss"),
        ("serving.recommend_miss_ms", "serving.recommend.miss"),
        ("serving.ingest_ms", "serving.ingest.None"),
    ):
        metrics[metric] = median(by_tag[key]) if by_tag[key] else 0.0
    metrics["montecarlo.spot_check_s"] = spot_check_s
    metrics.update(serve_counters(result))
    return metrics


def serve_counters(result: dict) -> dict:
    before, after = result["before"], result["after"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "serving.cache_hits": hits,
        "serving.cache_misses": misses,
        "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.refits": after["tenants"][0]["refits"] - before["tenants"][0]["refits"],
        "serving.refit_failures": after["refit_failures"] - before["refit_failures"],
        "serving.degraded": after["degraded_tenants"],
        "serving.spot_checks": after["spot_checks"]["run"] - before["spot_checks"]["run"],
        # An audit that raised is a failed audit too.
        "serving.spot_check_failures": sum(
            after["spot_checks"][key] - before["spot_checks"][key] for key in ("failed", "worker_errors")
        ),
        "http.non200": sum(1 for *_, status in result["requests"] if status != 200),
    }


# ----------------------------------------------------------------------
# One workload run.
# ----------------------------------------------------------------------
def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    trace = bool(args.trace)
    workload, tracer = set_up(args.workload, trace, args.seed)
    setup_s = perf_counter() - STARTED
    if args.setup_only:
        if args.workload == "serve-http":
            workload.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        **environment(),
        "params": workload.params(),
    }
    if args.workload == "serve-http":
        import serve_http

        try:
            result = workload.run(args.seed, args.seconds, host_reference_ms)
        finally:
            workload.stop()
        metrics = serve_http.end_to_end(result)
        record["op_p99_tail_samples"] = metrics.pop("op_p99_tail_samples")
        attempted = len(result["requests"])
        record["counters"] = serve_http.counters(result)
        record["run_counters"] = serve_counters(result)
        record["host_ref_ms"] = result["ref_ms"]
        per_layer = serve_layers(result, workload.spans_path) if trace else None
        spans_file = workload.spans_path
    else:
        ref_before = host_reference_ms()
        result = run_batch(workload, tracer, args.seed, args.seconds)
        ref_after = host_reference_ms()
        metrics = batch_end_to_end(result)
        attempted = len(result["op_seconds"])
        record["op_seconds"] = result["op_seconds"]
        record["counters"] = result["op_counters"][0] if result["op_counters"] else {}
        record["op_counters"] = result["op_counters"]
        record["host_ref_ms"] = [ref_before, ref_after]
        per_layer = batch_layers(tracer, result) if trace else None
        spans_file = None
        if trace:
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_file)
    failed = result["failed"]
    record["attempted"] = attempted
    record["failed"] = failed
    record["problems"] = result["problems"][:20]

    setup_samples = [setup_s] + probe_setup(args.workload, SETUP_PROBES)
    metrics["setup_s"] = median(setup_samples)
    record["setup_samples_s"] = setup_samples
    record["end_to_end"] = {name: metrics[name] for name in END_TO_END}
    if per_layer is not None:
        per_layer["host.ref_ms"] = sum(record["host_ref_ms"]) / 2
        record["per_layer"] = per_layer
        record["spans_file"] = str(spans_file.relative_to(ROOT))

    print(f"{args.workload}  seed {args.seed}  {'traced' if trace else 'untraced'}  "
          f"{attempted} ops, {failed} failed")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:>14.4f} {unit}")
    print(f"  {'host.ref_ms':<14} {record['host_ref_ms'][0]:>14.1f} ms before, "
          f"{record['host_ref_ms'][1]:.1f} ms after")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("record " + json.dumps(record))
    chosen = per_layer if trace else metrics
    units = PER_LAYER if trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0, help="op i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.workload is None:
        import report

        return report.run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
