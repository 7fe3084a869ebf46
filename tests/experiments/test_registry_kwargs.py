"""Registry-wide audit of optional sweep-kwarg threading.

``run_experiment`` forwards only the optional kwargs a runner's signature
declares (``_OPTIONAL_SWEEP_KWARGS`` filtering).  That makes it easy for a
new runner to *silently* lose ``--workers`` or ``--draw-batch-size``: the CLI
accepts the flag and the registry drops it.  This suite pins, per registered
experiment, exactly which optional kwargs the runner accepts — registering a
new experiment (or changing a signature) without updating the expectation
map fails loudly here.
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.registry import (
    _OPTIONAL_SWEEP_KWARGS,
    get_experiment,
    list_experiments,
    run_experiment,
)

#: Exactly which optional sweep kwargs each registered runner declares.
#: A runner absent from this map, or accepting a different set, is a test
#: failure: decide explicitly whether each flag should reach it or be
#: filtered, then pin the outcome here.
EXPECTED_OPTIONAL_KWARGS: dict[str, set[str]] = {
    # Closed-form / table reproductions: no sweep machinery at all.
    "section3-kstaleness": set(),
    "section3-monotonic": set(),
    "section3-load": set(),
    "table1-2-3": set(),
    "table3-refit": set(),
    # Monte Carlo sweep experiments: full sweep-engine surface.
    "figure4": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "figure5": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "figure6": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "figure7": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "table4": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "sla": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    "section5.3-variance": {"chunk_size", "tolerance", "workers", "probe_resolution_ms"},
    # Cluster-simulator experiments: sharded blocks + batched network draws.
    "validation": {"workers", "draw_batch_size"},
    "scenario": {"workers", "draw_batch_size", "name"},
    "scenarios": {"workers", "draw_batch_size"},
    # The adaptive-recovery loop is serial by design (trace logs are
    # harvested block by block), so it threads only the draw knob.
    "recovery": {"draw_batch_size", "name"},
    "ablation-read-repair": {"workers", "draw_batch_size", "probe_resolution_ms"},
    "ablation-read-fanout": {"workers", "draw_batch_size", "probe_resolution_ms"},
    "ablation-failures": {"workers", "draw_batch_size", "probe_resolution_ms"},
    # Analytic oracle comparison: sharded measurement only.
    "analytic-validation": {"workers"},
}

#: Runners that drive the cluster simulator MUST thread both sharding knobs.
CLUSTER_RUNNERS = (
    "validation",
    "scenario",
    "scenarios",
    "ablation-read-repair",
    "ablation-read-fanout",
    "ablation-failures",
)


def _declared_optional_kwargs(experiment_id: str) -> set[str]:
    parameters = inspect.signature(get_experiment(experiment_id)).parameters
    assert not any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters.values()
    ), f"{experiment_id} hides its kwarg surface behind **kwargs; declare them explicitly"
    return {name for name in parameters if name in _OPTIONAL_SWEEP_KWARGS}


class TestKwargThreadingAudit:
    def test_expectation_map_covers_every_registered_experiment(self):
        registered = {experiment_id for experiment_id, _ in list_experiments()}
        assert registered == set(EXPECTED_OPTIONAL_KWARGS), (
            "experiment registry and EXPECTED_OPTIONAL_KWARGS disagree; "
            "pin the new/removed runner's optional-kwarg surface here"
        )

    @pytest.mark.parametrize("experiment_id", sorted(EXPECTED_OPTIONAL_KWARGS))
    def test_runner_signature_matches_pinned_kwargs(self, experiment_id):
        assert _declared_optional_kwargs(experiment_id) == EXPECTED_OPTIONAL_KWARGS[experiment_id]

    @pytest.mark.parametrize("experiment_id", CLUSTER_RUNNERS)
    def test_cluster_runners_thread_both_sharding_knobs(self, experiment_id):
        declared = _declared_optional_kwargs(experiment_id)
        assert {"workers", "draw_batch_size"} <= declared, (
            f"{experiment_id} drives the cluster simulator but silently drops "
            "--workers or --draw-batch-size"
        )


class TestKwargsActuallyReachTheCluster:
    def test_draw_batch_size_changes_ablation_sampling_stream(self):
        """``draw_batch_size=1`` reproduces the legacy per-message stream,
        which differs from the batched default — so identical outputs would
        mean the kwarg was filtered out before reaching the cluster."""
        batched = run_experiment("ablation-read-repair", trials=60, rng=0)
        legacy = run_experiment("ablation-read-repair", trials=60, rng=0, draw_batch_size=1)
        assert batched.rows != legacy.rows

    def test_scenario_workers_are_threaded_not_filtered(self):
        # 2k writes = 2 blocks, so workers=2 actually engages the pool; the
        # blocked discipline then guarantees identical rows.
        serial = run_experiment(
            "scenario", trials=2_000, rng=0, name="baseline", prediction_trials=2_000
        )
        sharded = run_experiment(
            "scenario", trials=2_000, rng=0, name="baseline", prediction_trials=2_000, workers=2
        )
        assert serial.rows == sharded.rows
