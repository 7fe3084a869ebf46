"""Run every workload in its own process and print one report.

Used by ``run.py`` when no ``--workload`` is given, and by ``aa.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``run.py --workload`` process: ``(final JSON line, record)``."""
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        raise RuntimeError(
            f"{workload} seed {seed} failed ({completed.returncode}): {completed.stderr.strip()[-600:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


def layer_table(workload: str, per_layer: dict) -> list[str]:
    """Self time and share per layer, the remainder, and the largest layer."""
    wall = per_layer["op.wall_s"]
    layers = {
        metric: per_layer[metric]
        for metric in sorted(set(run.SPAN_METRIC.values()))
        if metric != "unattributed_s" and per_layer[metric]
    }
    lines = [f"  {'layer (self time per op)':<28} {'seconds':>12} {'share':>8}"]
    for metric, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"  {metric:<28} {seconds:>12.6f} {seconds / wall:>7.1%}")
    lines.append(f"  {'unattributed_s':<28} {per_layer['unattributed_s']:>12.6f} "
                 f"{per_layer['unattributed_s'] / wall:>7.1%}")
    accounted = sum(layers.values()) + per_layer["unattributed_s"]
    lines.append(f"  {'op.wall_s':<28} {wall:>12.6f}   (layers + unattributed = {accounted / wall:.1%})")
    if workload == "serve-http":
        # Client time outside the service calls: handler, sockets, client.
        layers = {
            "http.overhead": per_layer["http.handler_s"] + per_layer["unattributed_s"],
            **{m: s for m, s in layers.items() if m != "http.handler_s"},
        }
        lines.append(f"  http.overhead (client - service) {layers['http.overhead'] / wall:.1%} of request "
                     f"time, p50 {per_layer['http.overhead_ms']:.3f} ms")
    largest = max(layers, key=layers.get)
    expected = run.EXPECTED_LARGEST[workload]
    verdict = "as expected" if largest == expected else f"MISMATCH: expected {expected}"
    lines.append(f"  largest layer: {largest} ({verdict})")
    return lines


def run_all(args) -> int:
    """All three workloads; with ``--trace 1`` also traced runs and overhead."""
    failed = 0
    for workload in run.WORKLOADS:
        result, record = invoke(workload, args.seed, args.seconds, 0)
        failed += result["failed"]
        print(f"{workload}: {result['attempted']} ops, {result['failed']} failed "
              f"(host.ref_ms {record['host_ref_ms'][0]:.1f} / {record['host_ref_ms'][1]:.1f})")
        for name, metric in result["metrics"].items():
            print(f"  {name:<14} {metric['value']:>14.4f} {metric['unit']}")
        for problem in record["problems"]:
            print(f"  FAILED {problem}")
        print(f"  counters: {json.dumps(record['counters'], sort_keys=True)}")
        if not args.trace:
            continue
        traced, traced_record = invoke(workload, args.seed, args.seconds, 1)
        failed += traced["failed"]
        print(f"  traced run: {traced['attempted']} ops, {traced['failed']} failed, "
              f"spans in {traced_record['spans_file']}")
        print("  tracing overhead (traced / untraced - 1):")
        for name in run.END_TO_END:
            base = record["end_to_end"][name]
            print(f"    {name:<14} {traced_record['end_to_end'][name] / base - 1:+7.1%}")
        print("\n".join(layer_table(workload, traced_record["per_layer"])))
    print(f"total failed ops: {failed}")
    return 0
