"""Command-line interface for the PBS reproduction.

Usage (installed as ``pbs-repro``)::

    pbs-repro list                      # list available experiments
    pbs-repro run figure6               # run one experiment and print its table
    pbs-repro run table4 --trials 50000 --seed 7
    pbs-repro run all --trials 20000    # run every experiment
    pbs-repro run table4 --workers 4 --probe-resolution-ms 1
                                        # sharded sweep + adaptive probe grid
    pbs-repro run scenario --name partition --trials 2000
                                        # hostile-conditions divergence report
    pbs-repro run scenarios --trials 2000
                                        # the full scenario matrix
    pbs-repro predict --fit LNKD-DISK --n 3 --r 1 --w 1
                                        # one-off prediction for a configuration
    pbs-repro serve --port 8080         # JSON/HTTP prediction service

``predict`` mirrors the interactive demo the paper links to: given a latency
environment and an (N, R, W) choice, print consistency-at-commit, t-visibility
targets, k-staleness, and operation latency percentiles.  ``serve`` keeps a
:class:`repro.serving.PredictorService` running behind a JSON/HTTP endpoint:
tenants stream latency observations in and query predictions/SLA
recommendations against continuously refit models.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.predictor import PBSPredictor
from repro.core.quorum import ReplicaConfig
from repro.exceptions import PBSError
from repro.experiments.registry import list_experiments, run_experiment
from repro.latency.production import PRODUCTION_FIT_NAMES, production_fit

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="pbs-repro",
        description="Probabilistically Bounded Staleness (PBS) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id from 'pbs-repro list', or 'all'")
    run_parser.add_argument(
        "--trials", type=int, default=50_000, help="Monte Carlo trials / workload size"
    )
    run_parser.add_argument("--seed", type=int, default=0, help="random seed")
    run_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="sweep-engine chunk size (trials accumulated between convergence checks)",
    )
    run_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "stop sweeps early once every Wilson half-width is at most this tight; "
            "experiments reporting 99.9%% tail quantiles never stop before ~100k "
            "trials (tail-support floor), so the flag only takes effect above that"
        ),
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard seeded Monte Carlo sweeps — and the validation "
            "experiment's simulated write blocks — across this many worker "
            "processes (default: serial); results are identical for any "
            "worker count"
        ),
    )
    run_parser.add_argument(
        "--draw-batch-size",
        type=int,
        default=None,
        help=(
            "cluster-simulator network draw-buffer size (validation "
            "experiment; default 4096): latencies are drawn from numpy in "
            "batches this large instead of one call per message; 1 "
            "reproduces the legacy per-message sampling stream"
        ),
    )
    run_parser.add_argument(
        "--probe-resolution-ms",
        type=float,
        default=None,
        help=(
            "enable adaptive probe-grid refinement: sweep a coarse probe grid "
            "and bisect around each t-visibility crossing until it is bracketed "
            "to this many milliseconds (experiments without a probe grid "
            "ignore the flag)"
        ),
    )
    run_parser.add_argument(
        "--name",
        default=None,
        help=(
            "hostile-conditions scenario name for the 'scenario' experiment "
            "(see repro.scenarios; e.g. baseline, partition, zipfian-skew); "
            "experiments without scenarios ignore the flag"
        ),
    )
    run_parser.add_argument(
        "--precision", type=int, default=3, help="decimal places in printed tables"
    )
    run_parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write <experiment>.csv and <experiment>.json files to this directory",
    )

    predict_parser = subparsers.add_parser(
        "predict", help="predict staleness and latency for one configuration"
    )
    predict_parser.add_argument(
        "--fit",
        default="LNKD-DISK",
        choices=list(PRODUCTION_FIT_NAMES),
        help="production latency environment",
    )
    predict_parser.add_argument("--n", type=int, default=3, help="replication factor N")
    predict_parser.add_argument("--r", type=int, default=1, help="read quorum size R")
    predict_parser.add_argument("--w", type=int, default=1, help="write quorum size W")
    predict_parser.add_argument("--trials", type=int, default=100_000)
    predict_parser.add_argument("--seed", type=int, default=0)
    predict_parser.add_argument(
        "--mode",
        default="montecarlo",
        choices=("montecarlo", "analytic", "hybrid"),
        help=(
            "prediction mode: 'montecarlo' samples through the sweep engine, "
            "'analytic' answers by numerical convolution (no sampling; "
            "requires i.i.d. replicas, so not available for --fit WAN), "
            "'hybrid' answers analytically and spot-checks with a small "
            "Monte Carlo sweep"
        ),
    )
    predict_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="sweep-engine chunk size (trials accumulated between convergence checks)",
    )
    predict_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "stop the prediction sweep early at this Wilson half-width; the report's "
            "99.9%% tail quantiles impose a ~100k-trial floor, so this only takes "
            "effect when --trials exceeds it"
        ),
    )
    predict_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard the prediction sweep across this many worker processes "
            "(default: serial); results are identical for any worker count"
        ),
    )
    predict_parser.add_argument(
        "--probe-resolution-ms",
        type=float,
        default=None,
        help=(
            "enable adaptive probe-grid refinement: bracket the report's 99%% "
            "and 99.9%% t-visibility crossings toward this many milliseconds "
            "using exact probe counts instead of the histogram sketch (budget "
            "permitting — a shortfall is reported)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the JSON/HTTP prediction service"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--fit",
        default="LNKD-SSD",
        choices=[name for name in PRODUCTION_FIT_NAMES if name != "WAN"],
        help=(
            "latency environment for the pre-registered 'default' tenant "
            "(the service answers analytically, so the per-replica WAN model "
            "is not servable)"
        ),
    )
    serve_parser.add_argument(
        "--refit-every",
        type=int,
        default=None,
        help="auto-refit a tenant after this many ingested observations",
    )
    serve_parser.add_argument(
        "--refit-method",
        default="empirical",
        choices=("empirical", "mixture"),
        help=(
            "how reservoirs become distributions on refit: 'empirical' "
            "(resample the reservoir directly) or 'mixture' (the paper's "
            "Pareto+exponential fit)"
        ),
    )
    serve_parser.add_argument(
        "--no-spot-checks",
        action="store_true",
        help="disable the background Monte Carlo audit thread",
    )
    serve_parser.add_argument(
        "--request-limit",
        type=int,
        default=None,
        help="exit after this many responses (scripted runs and tests)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    return parser


def _command_list() -> int:
    for experiment_id, description in list_experiments():
        print(f"{experiment_id:24s} {description}")
    return 0


def _command_run(
    experiment: str,
    trials: int,
    seed: int,
    precision: int,
    export_dir: str | None,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int | None = None,
    probe_resolution_ms: float | None = None,
    draw_batch_size: int | None = None,
    name: str | None = None,
) -> int:
    if experiment == "all":
        experiment_ids = [experiment_id for experiment_id, _ in list_experiments()]
    else:
        experiment_ids = [experiment]
    sweep_kwargs: dict[str, object] = {}
    if chunk_size is not None:
        sweep_kwargs["chunk_size"] = chunk_size
    if tolerance is not None:
        sweep_kwargs["tolerance"] = tolerance
    if workers is not None:
        sweep_kwargs["workers"] = workers
    if probe_resolution_ms is not None:
        sweep_kwargs["probe_resolution_ms"] = probe_resolution_ms
    if draw_batch_size is not None:
        sweep_kwargs["draw_batch_size"] = draw_batch_size
    if name is not None:
        sweep_kwargs["name"] = name
    for experiment_id in experiment_ids:
        result = run_experiment(experiment_id, trials=trials, rng=seed, **sweep_kwargs)
        print(result.to_text(precision=precision))
        if export_dir is not None:
            from repro.analysis.export import export_result

            for path in export_result(result, export_dir):
                print(f"exported: {path}")
        print()
    return 0


def _command_predict(
    fit: str,
    n: int,
    r: int,
    w: int,
    trials: int,
    seed: int,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int | None = None,
    probe_resolution_ms: float | None = None,
    mode: str = "montecarlo",
) -> int:
    config = ReplicaConfig(n=n, r=r, w=w)
    kwargs = {"replica_count": n} if fit.upper() == "WAN" else {}
    predictor = PBSPredictor(production_fit(fit, **kwargs), config)
    report = predictor.report(
        trials=trials,
        rng=seed,
        chunk_size=chunk_size,
        tolerance=tolerance,
        workers=workers if workers is not None else 1,
        probe_resolution_ms=probe_resolution_ms,
        mode=mode,
    )
    print(f"latency environment: {fit}")
    if mode == "montecarlo" and report.trials < trials:
        print(f"converged early after {report.trials} of {trials} trials")
    for line in report.summary_lines():
        print(line)
    if probe_resolution_ms is not None and report.t_visibility_brackets:
        # The resolution is a goal, not a guarantee: a fixed trial budget can
        # end the run mid-refinement.  Say what was actually achieved.
        for target, bracket in sorted(report.t_visibility_brackets.items()):
            label = f"{target * 100:g}%"
            if bracket is None:
                print(
                    f"note: the {label} crossing lies beyond the probe grid; "
                    "its t-visibility is a histogram estimate"
                )
                continue
            width = bracket[1] - bracket[0]
            if width > probe_resolution_ms:
                print(
                    f"note: the {label} crossing was bracketed to {width:.3g} ms, "
                    f"short of the requested {probe_resolution_ms:g} ms "
                    "(raise --trials, or lower --chunk-size so more "
                    "refinement rounds fit in the budget)"
                )
    return 0


def _command_serve(
    host: str,
    port: int,
    fit: str,
    refit_every: int | None,
    refit_method: str,
    spot_checks: bool,
    request_limit: int | None,
    verbose: bool,
) -> int:
    # Imported lazily so the CLI stays importable without the serving stack.
    from repro.serving import PredictorService, make_server, serve_forever

    service = PredictorService(refit_every=refit_every, refit_method=refit_method)
    service.register_tenant("default", fit)
    if spot_checks:
        service.start_spot_check_worker()
    server = make_server(service, host=host, port=port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"pbs-repro serving on http://{bound_host}:{bound_port}", flush=True)
    print(f"default tenant registered with the {fit} fit", flush=True)
    try:
        handled = serve_forever(server, request_limit=request_limit)
    finally:
        service.stop_spot_check_worker()
    print(f"served {handled} responses", flush=True)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(
                args.experiment,
                args.trials,
                args.seed,
                args.precision,
                args.export,
                args.chunk_size,
                args.tolerance,
                args.workers,
                args.probe_resolution_ms,
                args.draw_batch_size,
                args.name,
            )
        if args.command == "predict":
            return _command_predict(
                args.fit,
                args.n,
                args.r,
                args.w,
                args.trials,
                args.seed,
                args.chunk_size,
                args.tolerance,
                args.workers,
                args.probe_resolution_ms,
                args.mode,
            )
        if args.command == "serve":
            return _command_serve(
                args.host,
                args.port,
                args.fit,
                args.refit_every,
                args.refit_method,
                not args.no_spot_checks,
                args.request_limit,
                args.verbose,
            )
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
        return 2  # pragma: no cover
    except PBSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
