"""Hostile-conditions scenario experiments.

Three registered experiments expose the scenario matrix
(:mod:`repro.scenarios`) and the fault-injection closed loop
(:mod:`repro.faults`) through the experiment registry and the CLI:

``scenario``
    One scenario's divergence report (``pbs-repro run scenario --name
    partition``); defaults to the benign baseline.
``scenarios``
    The full matrix — one row per registered scenario — which is also the
    shape exported to ``BENCH_sweep.json`` by ``tools/bench_to_json.py``.
``recovery``
    The adaptive-recovery closed loop (``pbs-repro run recovery --name
    gray-failure``): harvest a hostile run's per-leg observations, stream
    them into a serving tenant in timed windows, refit, and report the
    divergence-vs-window recovery curve.

``trials`` is the number of simulated *writes* per scenario (the paper-scale
figure is 50,000; the default keeps ``pbs-repro run all`` affordable).
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.registry import ExperimentResult, register
from repro.faults.recovery import run_adaptive_recovery
from repro.scenarios.divergence import ScenarioDivergence, run_scenario, run_scenario_matrix
from repro.scenarios.registry import scenario_names

__all__ = [
    "run_recovery_experiment",
    "run_scenario_experiment",
    "run_scenario_matrix_experiment",
]


def _divergence_row(divergence: ScenarioDivergence) -> dict[str, object]:
    """Flatten one divergence report into a table row."""
    shift_p99 = divergence.t_visibility_shift_ms.get(0.99)
    return {
        "scenario": divergence.scenario,
        "hostile": divergence.hostile,
        "writes": divergence.writes,
        "observations": divergence.observations,
        "dropped": divergence.dropped_messages,
        "consistency_rmse_pct": divergence.consistency_rmse * 100.0,
        "max_abs_delta_p_pct": divergence.max_abs_delta_p * 100.0,
        "analytic_rmse_pct": (
            float("nan") if divergence.analytic_rmse is None else divergence.analytic_rmse * 100.0
        ),
        "t_vis_shift_p99_ms": (
            float("nan")
            if shift_p99 is None or not math.isfinite(shift_p99)
            else shift_p99
        ),
        "read_latency_nrmse_pct": divergence.read_latency_nrmse * 100.0,
    }


@register(
    "scenario",
    "Hostile-conditions divergence for one scenario (--name; default: baseline)",
)
def run_scenario_experiment(
    trials: int = 2_000,
    rng: np.random.Generator | int | None = 0,
    name: str = "baseline",
    prediction_trials: int = 100_000,
    workers: int = 1,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Run one registered scenario and report its model-vs-sim divergence."""
    kwargs: dict = {}
    if draw_batch_size is not None:
        kwargs["draw_batch_size"] = draw_batch_size
    divergence = run_scenario(
        name,
        writes=trials,
        prediction_trials=prediction_trials,
        rng=rng,
        workers=workers,
        **kwargs,
    )
    return ExperimentResult(
        experiment_id="scenario",
        title=f"Scenario divergence: {divergence.scenario}",
        paper_artifact="Section 5.2 (extended)",
        rows=[_divergence_row(divergence)],
        notes=tuple(divergence.summary_lines()),
    )


@register(
    "scenarios",
    "Full hostile-conditions scenario matrix: divergence per registered scenario",
)
def run_scenario_matrix_experiment(
    trials: int = 2_000,
    rng: np.random.Generator | int | None = 0,
    prediction_trials: int = 100_000,
    workers: int = 1,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Run every registered scenario and tabulate divergence side by side."""
    kwargs: dict = {}
    if draw_batch_size is not None:
        kwargs["draw_batch_size"] = draw_batch_size
    matrix = run_scenario_matrix(
        writes=trials,
        prediction_trials=prediction_trials,
        rng=rng,
        workers=workers,
        **kwargs,
    )
    rows = [_divergence_row(matrix[name]) for name in scenario_names()]
    hostile = [row for row in rows if row["hostile"]]
    return ExperimentResult(
        experiment_id="scenarios",
        title="Hostile-conditions scenario matrix",
        paper_artifact="Section 5.2 (extended)",
        rows=rows,
        notes=(
            f"{len(hostile)} hostile scenarios + baseline; predictors keep the benign "
            "WARS assumptions while the simulated cluster deviates",
            "the baseline row's RMSE is the §5.2 validation error; hostile rows measure "
            "what each violated assumption costs the model",
        ),
    )


@register(
    "recovery",
    "Adaptive-recovery closed loop: hostile trace -> windowed refits -> convergence",
)
def run_recovery_experiment(
    trials: int = 2_000,
    rng: np.random.Generator | int | None = 0,
    name: str = "gray-failure",
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Run the closed loop on one scenario; one row per ingest→refit window."""
    kwargs: dict = {}
    if draw_batch_size is not None:
        kwargs["draw_batch_size"] = draw_batch_size
    trajectory = run_adaptive_recovery(name, writes=trials, rng=rng, **kwargs)
    rows = [
        {
            "window": window.index,
            "start_ms": window.start_ms,
            "end_ms": window.end_ms,
            "samples": sum(window.samples.values()),
            "mean_abs_delta_p_pct": window.mean_abs_delta_p * 100.0,
            "recovered_pct": window.recovered_fraction * 100.0,
        }
        for window in trajectory.windows
    ]
    return ExperimentResult(
        experiment_id="recovery",
        title=f"Adaptive recovery: {trajectory.scenario}",
        paper_artifact="Section 6 (extended)",
        rows=rows,
        notes=tuple(trajectory.summary_lines()),
    )
