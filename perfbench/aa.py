"""A/A check: how much each end-to-end metric moves between runs of one commit.

Runs every workload once per seed, then prints, for each end-to-end metric,
the median and the quartile spread ``(Q3 - Q1) / median`` of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json`` and to the spread of ``host.ref_ms`` (the benchmark's own
reference loop), so host drift can be told apart from the program's::

    python3 perfbench/aa.py --runs 10 --save perfbench/out/aa-1.json
    python3 perfbench/aa.py --runs 10 --save perfbench/out/aa-2.json \\
        --compare perfbench/out/aa-1.json

``--compare`` also checks that each median is not worse than the earlier
set's by more than the bound, and that the deterministic counters of each
seed repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import report
import run


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(runs: dict, bounds: dict) -> list[str]:
    lines = []
    for workload, by_seed in runs.items():
        records = list(by_seed.values())
        failed = sum(record["failed"] for record in records)
        refs = [sum(record["host_ref_ms"]) / 2 for record in records]
        lines.append(
            f"{workload}: {len(records)} runs, {failed} failed ops; host.ref_ms median "
            f"{statistics.median(refs):.1f} ms, spread {spread(refs):.1%}"
        )
        for name, metric in bounds.items():
            values = [record["end_to_end"][name] for record in records]
            ratio = spread(values) / metric["bound"]
            lines.append(
                f"  {name:<14} median {statistics.median(values):>12.4f} {metric['unit']:<5} "
                f"spread {spread(values):>6.1%}  bound {metric['bound']:.0%}  "
                f"spread/bound {ratio:.2f}{'  OVER' if ratio > 1 else ''}"
            )
    return lines


def compare(runs: dict, earlier: dict, bounds: dict) -> list[str]:
    lines = []
    for workload, by_seed in runs.items():
        if workload not in earlier:
            continue
        for name, metric in bounds.items():
            now = statistics.median(r["end_to_end"][name] for r in by_seed.values())
            then = statistics.median(r["end_to_end"][name] for r in earlier[workload].values())
            worse = (now - then) / then if metric["better"] == "lower" else (then - now) / then
            lines.append(
                f"{workload:<13} {name:<14} {then:>12.4f} -> {now:>12.4f}  worse by {worse:+6.1%}"
                f"{'  OVER BOUND' if worse > metric['bound'] else ''}"
            )
        for seed, record in by_seed.items():
            if seed in earlier[workload] and earlier[workload][seed]["counters"] != record["counters"]:
                lines.append(f"{workload} seed {seed}: counters differ between the sets")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--save", help="write every run record to this JSON file")
    parser.add_argument("--compare", help="an earlier --save file to compare medians with")
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]

    runs: dict = {}
    for workload in args.workloads:
        runs[workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            _, record = report.invoke(workload, seed, seconds, 0)
            runs[workload][str(seed)] = record
            print(
                f"{workload} seed {seed}: "
                + " ".join(f"{k}={v:.4g}" for k, v in record["end_to_end"].items())
                + f" ref={sum(record['host_ref_ms']) / 2:.1f}",
                flush=True,
            )
        if args.save:
            with open(args.save, "w") as handle:
                json.dump(runs, handle)
    print("\n".join(summarise(runs, bounds)))
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)
        print("\n".join(compare(runs, earlier, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
