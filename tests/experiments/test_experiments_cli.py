"""Tests for the experiment registry, the individual experiments (fast settings), and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ExperimentError
from repro.experiments.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)

#: Paper artifacts that must all be covered by registered experiments.
EXPECTED_EXPERIMENTS = {
    "section3-kstaleness",
    "section3-monotonic",
    "section3-load",
    "figure4",
    "section5.3-variance",
    "figure5",
    "figure6",
    "figure7",
    "table1-2-3",
    "table3-refit",
    "table4",
    "validation",
    "sla",
}


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        registered = {experiment_id for experiment_id, _ in list_experiments()}
        assert EXPECTED_EXPERIMENTS <= registered

    def test_get_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):

            @register("section3-kstaleness", "duplicate")
            def runner(**kwargs):  # pragma: no cover - never called
                raise AssertionError

    def test_result_to_text_includes_title_and_notes(self):
        result = ExperimentResult(
            experiment_id="x",
            title="A title",
            paper_artifact="Table 9",
            rows=[{"a": 1.0}],
            notes=("something",),
        )
        text = result.to_text()
        assert "A title" in text and "Table 9" in text and "note: something" in text


class TestClosedFormExperiments:
    def test_kstaleness_rows_match_closed_form(self):
        result = run_experiment("section3-kstaleness")
        row = next(r for r in result.rows if r["config"] == "N=3 R=1 W=1")
        assert row["p_within_3"] == pytest.approx(0.7037, abs=1e-3)
        assert row["p_within_10"] > 0.98

    def test_monotonic_rows_bounded(self):
        result = run_experiment("section3-monotonic")
        assert all(0.0 <= row["p_monotonic"] <= 1.0 for row in result.rows)

    def test_load_rows_have_expected_columns(self):
        result = run_experiment("section3-load")
        assert {"n", "p_inconsistency", "load_k=1", "load_k=10"} <= result.rows[0].keys()


class TestMonteCarloExperiments:
    """Each experiment runs at reduced fidelity to keep the suite fast."""

    def test_figure4_shapes(self):
        result = run_experiment("figure4", trials=20_000, rng=0)
        by_ratio = {row["w_to_ars_ratio"]: row for row in result.rows}
        # Fast writes: very high consistency immediately; slow writes: low.
        assert by_ratio["1:4"]["p@t=0ms"] > 0.9
        assert by_ratio["1:0.10"]["p@t=0ms"] < 0.6
        # Everything converges by 100 ms except possibly the slowest ratio.
        assert by_ratio["1:1"]["p@t=100ms"] > 0.999

    def test_variance_sweep_orders_by_variance(self):
        result = run_experiment("section5.3-variance", trials=20_000, rng=0)
        rows = {row["write_distribution"]: row for row in result.rows}
        assert (
            rows["normal sd=5"]["p_consistent_at_commit"]
            <= rows["normal sd=0.5"]["p_consistent_at_commit"]
        )

    def test_figure5_read_latency_grows_with_quorum_size(self):
        result = run_experiment("figure5", trials=20_000, rng=0)
        ymmr_reads = {
            row["quorum_size"]: row
            for row in result.rows
            if row["environment"] == "YMMR" and row["operation"] == "read"
        }
        assert ymmr_reads[1]["p99.9_ms"] <= ymmr_reads[3]["p99.9_ms"]

    def test_figure6_expected_shapes(self):
        result = run_experiment("figure6", trials=30_000, rng=0)
        rows = {(row["environment"], row["config"]): row for row in result.rows}
        assert rows[("LNKD-SSD", "N=3 R=1 W=1")]["p_at_commit"] > 0.95
        assert rows[("LNKD-DISK", "N=3 R=1 W=1")]["p_at_commit"] < 0.6
        assert rows[("YMMR", "N=3 R=1 W=1")]["t_visibility_99.9_ms"] > 500.0
        assert rows[("WAN", "N=3 R=1 W=1")]["p_at_commit"] < 0.6

    def test_figure7_commit_consistency_decreases_with_n(self):
        result = run_experiment("figure7", trials=20_000, rng=0)
        disk = {
            row["n"]: row["p_at_commit"]
            for row in result.rows
            if row["environment"] == "LNKD-DISK"
        }
        assert disk[2] > disk[10]

    def test_table4_strict_quorums_report_zero_window(self):
        result = run_experiment("table4", trials=20_000, rng=0)
        for row in result.rows:
            if row["strict_quorum"]:
                assert row["t_visibility_99.9_ms"] == 0.0
            assert row["combined_p99.9_ms"] == pytest.approx(
                row["read_p99.9_ms"] + row["write_p99.9_ms"]
            )

    def test_table1_2_3_rows_reference_published_summaries(self):
        result = run_experiment("table1-2-3", trials=50_000, rng=0)
        assert any(row["source"].startswith("Table 1") for row in result.rows)
        assert any(row["source"].startswith("Table 2") for row in result.rows)

    def test_sla_experiment_reports_best_configs(self):
        result = run_experiment("sla", trials=5_000, rng=0)
        assert all("best_config" in row for row in result.rows)


class TestValidationExperiment:
    def test_small_grid_runs_and_reports_error(self):
        from repro.core.quorum import ReplicaConfig

        result = run_experiment(
            "validation",
            trials=60,
            rng=0,
            prediction_trials=20_000,
            configs=(ReplicaConfig(3, 1, 1),),
        )
        assert len(result.rows) == 9
        for row in result.rows:
            assert (row["n"], row["r"], row["w"]) == (3, 1, 1)
            assert row["consistency_rmse_pct"] < 25.0
            assert row["observations"] > 0

    def test_full_grid_sweeps_every_configuration(self):
        from repro.experiments.validation import VALIDATION_CONFIGS

        result = run_experiment("validation", trials=60, rng=0, prediction_trials=5_000)
        # configs × W means × A=R=S means.
        assert len(result.rows) == len(VALIDATION_CONFIGS) * 9
        seen_configs = {(row["n"], row["r"], row["w"]) for row in result.rows}
        assert seen_configs == {(c.n, c.r, c.w) for c in VALIDATION_CONFIGS}

    def test_config_and_configs_are_mutually_exclusive(self):
        from repro.core.quorum import ReplicaConfig

        with pytest.raises(ExperimentError):
            run_experiment(
                "validation",
                trials=60,
                config=ReplicaConfig(3, 1, 1),
                configs=(ReplicaConfig(3, 1, 1),),
            )


def _registered_experiment_ids() -> list[str]:
    return [experiment_id for experiment_id, _ in list_experiments()]


class TestRegistrySmoke:
    """Every registered experiment must run end-to-end through the CLI.

    Tiny trial counts keep this fast; the assertions only check that each
    experiment produces a well-formed table (non-empty rows with a consistent
    schema) and renders through the CLI without error.
    """

    #: Small but valid everywhere (the SLA search requires >= 100 trials).
    _SMOKE_TRIALS = 120

    @pytest.mark.parametrize("experiment_id", _registered_experiment_ids())
    def test_cli_smoke_run_produces_well_formed_rows(self, experiment_id, capsys, tmp_path):
        # --workers rides along so this doubles as the registry-wide smoke
        # test that every runner either accepts the knob or has it filtered
        # by the registry (closed-form/cluster runners).  At smoke trial
        # counts a sweep fits in one chunk, so no pool is spawned and the
        # runs stay serial-fast.
        assert (
            main(
                [
                    "run",
                    experiment_id,
                    "--trials",
                    str(self._SMOKE_TRIALS),
                    "--seed",
                    "1",
                    "--workers",
                    "2",
                    "--export",
                    str(tmp_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.startswith("== ")
        # Header line, separator, and at least one data row.
        assert len([line for line in output.splitlines() if line.strip()]) >= 3

        # The exported artifact carries the rows the CLI rendered; assert
        # they are well-formed without re-running the experiment.
        payload = json.loads((tmp_path / f"{experiment_id}.json").read_text())
        rows = payload["rows"]
        assert len(rows) > 0
        # Rows must be non-empty and share a common key core (some
        # experiments legitimately add columns per row, e.g. table1-2-3's
        # published percentile sets).
        common_keys = set(rows[0].keys())
        for row in rows:
            assert len(row) > 0
            common_keys &= set(row.keys())
        assert common_keys

    @pytest.mark.parametrize("experiment_id", _registered_experiment_ids())
    def test_every_runner_accepts_or_filters_workers(self, experiment_id):
        """Registry-level contract behind ``run all --workers``: each runner
        either declares the ``workers`` kwarg or the registry filters it out,
        so the call the CLI would make never raises ``TypeError``.  (The
        end-to-end CLI pass with ``--workers`` is the smoke test above.)"""
        import inspect

        from repro.experiments.registry import _OPTIONAL_SWEEP_KWARGS, get_experiment

        assert "workers" in _OPTIONAL_SWEEP_KWARGS
        parameters = inspect.signature(get_experiment(experiment_id)).parameters
        accepts = "workers" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        # Either outcome is fine; the registry must only filter when the
        # runner would reject the kwarg.
        if not accepts:
            assert experiment_id in {
                "section3-kstaleness",
                "section3-monotonic",
                "section3-load",
                "table1-2-3",
                "table3-refit",
                # The adaptive-recovery loop harvests trace logs block by
                # block in commit order, so it is serial by design.
                "recovery",
            }, f"{experiment_id} silently loses --workers; add the kwarg to its runner"

    def test_cli_workers_match_serial_results(self, capsys, workers):
        """A sweep large enough to engage the process pool produces the same
        table the serial run prints."""
        argv = [
            "run",
            "figure4",
            "--trials",
            "20000",
            "--seed",
            "3",
            "--chunk-size",
            "8192",
        ]
        assert main(argv) == 0
        serial_output = capsys.readouterr().out
        assert main(argv + ["--workers", str(workers)]) == 0
        assert capsys.readouterr().out == serial_output

    def test_cli_validation_accepts_workers_trials_and_draw_batch_size(
        self, capsys, workers
    ):
        """The §5.2 validation experiment takes --workers/--trials/--draw-batch-size
        through the registry filter (PR 2-style smoke test for the sharded
        cluster runs): sharded and serial-blocked results must render the
        same table for any worker count."""
        argv = [
            "run",
            "validation",
            "--trials",
            "60",
            "--seed",
            "5",
            "--draw-batch-size",
            "256",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert serial_output.startswith("== ")
        assert main(argv + ["--workers", str(workers)]) == 0
        assert capsys.readouterr().out == serial_output

    def test_cli_validation_draw_batch_size_one_runs_legacy_stream(self, capsys):
        assert (
            main(
                [
                    "run",
                    "validation",
                    "--trials",
                    "40",
                    "--draw-batch-size",
                    "1",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("== ")

    def test_cli_predict_accepts_workers(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "--fit",
                    "LNKD-SSD",
                    "--trials",
                    "5000",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert "P(consistent read immediately after commit)" in capsys.readouterr().out

    def test_registry_drops_workers_for_closed_form_runners(self, capsys):
        assert main(["run", "section3-kstaleness", "--workers", "4"]) == 0
        assert "k-staleness" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment_id", _registered_experiment_ids())
    def test_every_runner_accepts_or_filters_probe_resolution(self, experiment_id):
        """Registry-level contract behind ``run all --probe-resolution-ms``:
        every Monte Carlo sweep runner declares the kwarg; closed-form and
        cluster runners have it filtered by the registry."""
        import inspect

        from repro.experiments.registry import _OPTIONAL_SWEEP_KWARGS, get_experiment

        assert "probe_resolution_ms" in _OPTIONAL_SWEEP_KWARGS
        parameters = inspect.signature(get_experiment(experiment_id)).parameters
        accepts = "probe_resolution_ms" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        if not accepts:
            assert experiment_id in {
                "section3-kstaleness",
                "section3-monotonic",
                "section3-load",
                "table1-2-3",
                "table3-refit",
                "validation",
                # analytic-validation compares analytic vs Monte Carlo on a
                # *fixed* probe grid by construction; adaptive fine probes
                # would change the oracle's grid, not the comparison.
                "analytic-validation",
                # Scenario divergence bins measured staleness directly; there
                # is no probe grid to refine.
                "scenario",
                "scenarios",
                "recovery",
            }, (
                f"{experiment_id} silently loses --probe-resolution-ms; "
                "add the kwarg to its runner"
            )

    def test_cli_probe_resolution_refines_t_visibility(self, capsys):
        """table4 accepts the flag end-to-end, and the adaptive grid actually
        changes (sharpens) the t-visibility column relative to the sketch.

        The fine probes are placed on the first block of trials and count
        every trial after it, so any budget resolves the crossings.
        """
        argv = ["run", "table4", "--trials", "60000", "--chunk-size", "8192"]
        assert main(argv) == 0
        sketch_output = capsys.readouterr().out
        assert main(argv + ["--probe-resolution-ms", "1"]) == 0
        adaptive_output = capsys.readouterr().out
        assert "t_visibility_99.9_ms" in adaptive_output
        # Same trials, same seeds: latency columns are untouched, but the
        # adaptive run inverts exact probe brackets instead of the histogram.
        assert adaptive_output != sketch_output

    def test_cli_predict_probe_resolution_refines_the_report(self, capsys):
        """predict accepts the flag end-to-end, the adaptive report differs
        from the sketch-based one, and a crossing inside its pilot window
        needs no note."""
        argv = [
            "predict",
            "--fit",
            "LNKD-DISK",
            "--trials",
            "60000",
            "--chunk-size",
            "8192",
        ]
        assert main(argv) == 0
        sketch_output = capsys.readouterr().out
        assert main(argv + ["--probe-resolution-ms", "0.5"]) == 0
        adaptive_output = capsys.readouterr().out
        assert "t-visibility for 99.9%" in adaptive_output
        # Same seed and trials: only the t-visibility inversion changes
        # (exact probe brackets instead of the threshold histogram).
        assert adaptive_output != sketch_output
        # Both crossings lie inside their pilot windows, so both are
        # resolved to 0.5 ms and the CLI has nothing to warn about.
        assert "note:" not in adaptive_output

    def test_cli_probe_resolution_ignored_by_closed_form_runners(self, capsys):
        assert main(["run", "section3-kstaleness", "--probe-resolution-ms", "1"]) == 0
        assert "k-staleness" in capsys.readouterr().out

    def test_cli_forwards_sweep_knobs_to_supporting_runners(self, capsys):
        assert (
            main(
                [
                    "run",
                    "table4",
                    "--trials",
                    "20000",
                    "--chunk-size",
                    "8192",
                    "--tolerance",
                    "0.05",
                ]
            )
            == 0
        )
        assert "t_visibility_99.9_ms" in capsys.readouterr().out

    def test_cli_sweep_knobs_ignored_by_closed_form_runners(self, capsys):
        # Closed-form experiments have no sweep to tune; the registry drops
        # the knobs instead of crashing `run all`-style invocations.
        assert main(["run", "section3-kstaleness", "--tolerance", "0.01"]) == 0
        assert "k-staleness" in capsys.readouterr().out

    def test_registry_still_rejects_unknown_kwargs(self):
        with pytest.raises(TypeError):
            run_experiment("section3-kstaleness", bogus_kwarg=1)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "figure6", "--trials", "1000"])
        assert args.command == "run" and args.trials == 1000

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure6" in output and "table4" in output

    def test_run_command_prints_table(self, capsys):
        assert main(["run", "section3-kstaleness"]) == 0
        output = capsys.readouterr().out
        assert "Closed-form PBS k-staleness" in output

    def test_run_unknown_experiment_errors(self, capsys):
        assert main(["run", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_predict_command(self, capsys):
        assert main(
            ["predict", "--fit", "LNKD-SSD", "--n", "3", "--r", "1", "--w", "1", "--trials", "5000"]
        ) == 0
        output = capsys.readouterr().out
        assert "P(consistent read immediately after commit)" in output

    def test_predict_invalid_config_errors(self, capsys):
        assert main(["predict", "--n", "3", "--r", "4", "--w", "1", "--trials", "5000"]) == 1
        assert "error:" in capsys.readouterr().err
