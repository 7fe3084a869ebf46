"""Reduced-scale conformance tests for the hostile-conditions scenario matrix.

Every registered scenario runs at 2k writes and must:

* produce bit-for-bit identical divergence reports serially and sharded
  (the blocked discipline inherited from the validation experiment);
* emit a schema-valid, JSON-serialisable report with finite divergence
  metrics;
* reproduce its pinned digest of the trace-derived report fields;
* be reachable through the experiment registry and the CLI
  (``pbs-repro run scenario --name ...``).
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ScenarioError
from repro.scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_names,
    validate_divergence,
)
from repro.scenarios.definitions import benign_distributions

#: Scenario names pinned by this suite: removing or renaming a scenario is a
#: breaking change to the BENCH trajectory lines and must update this list.
PINNED_SCENARIOS = (
    "baseline",
    "zipfian-skew",
    "partition",
    "message-loss",
    "wan-topology",
    "anti-entropy",
    "membership-churn",
    "crash-recovery",
    "gray-failure",
    "correlated-bursts",
)

#: Conformance-scale settings: multiple blocks at 2k writes, modest
#: prediction fidelity to keep tier-1 fast.
CONFORMANCE_KWARGS = dict(
    writes=2_000,
    block_writes=500,
    prediction_trials=20_000,
    rng=0,
)


@functools.lru_cache(maxsize=None)
def _conformance_run(name):
    """One serial conformance run per scenario, shared across the suite."""
    return run_scenario(name, workers=1, **CONFORMANCE_KWARGS)


def _trace_digest(divergence) -> str:
    """sha256 of the report fields derived from the simulated trace."""
    payload = {
        "observations": divergence.observations,
        "dropped_messages": divergence.dropped_messages,
        "bin_centers_ms": list(divergence.bin_centers_ms),
        "measured_consistency": list(divergence.measured_consistency),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: :func:`_trace_digest` of each pinned scenario's conformance run.  Any
#: change to what the simulator records, or to how staleness is measured
#: from it, moves these.
TRACE_DIGESTS = {
    "baseline": "43023806b804ee07a0ff5926f2b4ed83e4f536573b65ac6386f76464a8c3f655",
    "zipfian-skew": "afc71c394be2d3d7d34e35eabfeb5d9c6d951e12e6c314f4ea93eb5fe80f5ace",
    "partition": "a30d7524d49361aa448ffcff5162c3ab26b5bd741e1f95a6e427b67b872725e3",
    "message-loss": "3c474a2be1f1c29a3b98667bc28ea599af4c7d783819bea4ebafd0e21446355f",
    "wan-topology": "c58b3d3ad72e04f042f4f9f952902a699b291d4d45a9aab667fa52cb479d69df",
    "anti-entropy": "40a4a17335a8df2a2eec3cabfc6544defbbd69e585283a82196b9cedc50dcd11",
    "membership-churn": "6c46198b63d2a3bc7306861d9b0aa3814f1a985950495e166eb80af227c63895",
    "crash-recovery": "6d7add6173a552dbffa901699c33586acc00b14c887ab5b6f2c875ace3a76034",
    "gray-failure": "e97583d4e7f439afde4c7e314599e69970358c1f939603da609fcf49f051d624",
    "correlated-bursts": "da2b9ced42b43a023fc17d0d385d9649078d381f8d43e78d9b9de8f0b28a665c",
}


class TestRegistry:
    def test_all_pinned_scenarios_registered(self):
        assert tuple(scenario_names()) == PINNED_SCENARIOS

    def test_at_least_six_hostile_scenarios(self):
        hostile = [s for s in list_scenarios() if s.hostile]
        assert len(hostile) >= 6

    def test_baseline_is_the_only_benign_scenario(self):
        benign = [s.name for s in list_scenarios() if not s.hostile]
        assert benign == ["baseline"]

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(ScenarioError, match="baseline"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        from repro.scenarios import register_scenario

        with pytest.raises(ScenarioError):
            register_scenario(
                Scenario(
                    name="baseline",
                    description="duplicate",
                    base_distributions=benign_distributions,
                )
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "has space"},
            {"name": "ok", "write_interval_ms": 0.0},
            {"name": "ok", "read_offsets_ms": ()},
            {"name": "ok", "read_offsets_ms": (-1.0,)},
        ],
    )
    def test_invalid_scenario_definitions_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            Scenario(
                description="bad",
                base_distributions=benign_distributions,
                **kwargs,
            )

    def test_scenario_descriptions_are_nonempty(self):
        for scenario in list_scenarios():
            assert scenario.description.strip()


class TestRunScenarioValidation:
    def test_too_few_writes_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("baseline", writes=5)

    def test_bad_workers_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("baseline", writes=100, workers=0)

    def test_bad_block_writes_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("baseline", writes=100, block_writes=5)


@pytest.mark.parametrize("name", PINNED_SCENARIOS)
class TestConformance:
    """The per-scenario 2k-write pinned conformance contract."""

    def test_serial_matches_sharded_bit_for_bit(self, name, workers):
        serial = _conformance_run(name)
        sharded = run_scenario(name, workers=workers, **CONFORMANCE_KWARGS)
        assert serial.to_dict() == sharded.to_dict()

    def test_trace_fields_match_golden_digest(self, name):
        assert _trace_digest(_conformance_run(name)) == TRACE_DIGESTS[name]

    def test_report_is_schema_valid_and_json_safe(self, name):
        divergence = _conformance_run(name)
        payload = divergence.to_dict()
        validate_divergence(payload)
        # Round-trips through JSON without NaN/Infinity leakage.
        rehydrated = json.loads(json.dumps(payload, allow_nan=False))
        validate_divergence(rehydrated)
        assert rehydrated["scenario"] == name

    def test_divergence_metrics_finite_and_bounded(self, name):
        divergence = _conformance_run(name)
        assert np.isfinite(divergence.consistency_rmse)
        assert 0.0 <= divergence.consistency_rmse <= 1.0
        assert 0.0 <= divergence.max_abs_delta_p <= 1.0
        assert divergence.mean_abs_delta_p <= divergence.max_abs_delta_p
        assert np.isfinite(divergence.read_latency_nrmse)
        assert np.isfinite(divergence.write_latency_nrmse)
        assert divergence.observations > 0
        assert divergence.writes == CONFORMANCE_KWARGS["writes"]
        # The i.i.d. benign base is analytically tractable for every
        # built-in scenario, so the analytic comparison must be present.
        assert divergence.analytic_rmse is not None
        assert np.isfinite(divergence.analytic_rmse)


class TestScenarioSemantics:
    """Spot-checks that the hostile mutations actually engage."""

    def test_baseline_reproduces_validation_cell(self):
        divergence = _conformance_run("baseline")
        assert not divergence.hostile
        assert divergence.dropped_messages == 0
        # 2k writes: within a few percent of the Monte Carlo prediction
        # (50k writes in the slow suite tightens this to the paper's <= 1%).
        assert divergence.consistency_rmse < 0.05

    def test_partition_and_loss_drop_messages(self):
        for name in ("partition", "message-loss"):
            divergence = _conformance_run(name)
            assert divergence.dropped_messages > 0, name

    def test_zipfian_skew_uses_multiple_keys(self):
        divergence = _conformance_run("zipfian-skew")
        # Reads racing another key's write are not observations against
        # their own key's history; the multi-key observation count differs
        # from the single-key scenarios' (writes * offsets) shape.
        baseline = _conformance_run("baseline")
        assert divergence.observations != baseline.observations

    def test_wan_topology_inflates_latency_divergence(self):
        wan = _conformance_run("wan-topology")
        baseline = _conformance_run("baseline")
        # The cluster pays WAN hops the predictor does not model.
        assert wan.read_latency_nrmse > baseline.read_latency_nrmse

    def test_rng_generator_draws_are_reproducible(self):
        first = run_scenario(
            "baseline",
            writes=100,
            block_writes=50,
            prediction_trials=2_000,
            rng=np.random.default_rng(3),
        )
        second = run_scenario(
            "baseline",
            writes=100,
            block_writes=50,
            prediction_trials=2_000,
            rng=np.random.default_rng(3),
        )
        assert first.to_dict() == second.to_dict()

    def test_custom_config_is_honoured(self):
        divergence = run_scenario(
            "baseline",
            writes=100,
            block_writes=50,
            prediction_trials=2_000,
            rng=0,
            config=ReplicaConfig(n=3, r=2, w=2),
        )
        assert divergence.config == ReplicaConfig(n=3, r=2, w=2)
        assert divergence.to_dict()["config"] == {"n": 3, "r": 2, "w": 2}


class TestExperimentAndCLI:
    @pytest.mark.parametrize("name", PINNED_SCENARIOS)
    def test_cli_scenario_path(self, name, capsys):
        assert (
            main(["run", "scenario", "--name", name, "--trials", "50", "--seed", "1"])
            == 0
        )
        output = capsys.readouterr().out
        assert f"Scenario divergence: {name}" in output
        assert "consistency_rmse_pct" in output

    def test_cli_unknown_scenario_errors(self, capsys):
        assert main(["run", "scenario", "--name", "nope", "--trials", "50"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_cli_name_flag_ignored_by_other_experiments(self, capsys):
        assert main(["run", "section3-kstaleness", "--trials", "100", "--name", "partition"]) == 0
        assert "k-staleness" in capsys.readouterr().out

    def test_scenarios_matrix_experiment_rows_cover_registry(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            "scenarios", trials=50, rng=0, prediction_trials=2_000
        )
        assert [row["scenario"] for row in result.rows] == list(PINNED_SCENARIOS)
        hostile_rows = [row for row in result.rows if row["hostile"]]
        assert len(hostile_rows) >= 6
