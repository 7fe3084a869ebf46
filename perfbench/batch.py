"""The two in-process batch workloads: ``sim-cell`` and ``answer-paths``.

Each workload object has the same small surface, used by ``run.py``:

* ``params()`` — the op parameters recorded with every run;
* ``warm_up()`` — a scaled-down op that loads lazy imports and process-wide
  caches during set-up;
* ``op(seed)`` — one timed op, building every object it uses afresh;
* ``check(answer)`` — the reasons the answer is wrong (empty when right);
* ``counters(answer)`` — deterministic counts read from the answer.

Program entry points are looked up through their modules at call time, so
the wrappers ``layers.install`` puts there are seen.
"""

from __future__ import annotations

import repro.analysis.validation as validation
import repro.montecarlo.tvisibility as tvisibility
from repro.analytic.predictor import AnalyticPredictor
from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLAOptimizer, SLATarget
from repro.experiments.table4 import TABLE4_CONFIGS
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions, lnkd_disk, lnkd_ssd, wan, ymmr

#: Seed of every warm-up op; constant so set-up does the same work each run.
WARM_SEED = 987_654_321


class SimCell:
    """One §5.2 validation cell: the cluster simulator against the WARS model."""

    name = "sim-cell"
    config = ReplicaConfig(n=3, r=1, w=1)
    w_mean_ms = 20.0
    ars_mean_ms = 10.0
    write_interval_ms = 200.0
    read_offsets_ms = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)
    #: Largest consistency-curve RMSE a correct cell may show at 5,000 writes
    #: (seeds 0-9 measured 0.48-0.98%).
    max_rmse = 0.04

    def __init__(
        self,
        writes: int = validation.VALIDATION_BLOCK_WRITES,
        prediction_trials: int = 100_000,
    ) -> None:
        self.writes = writes
        self.prediction_trials = prediction_trials

    def params(self) -> dict:
        return {
            "config": self.config.label(),
            "w_mean_ms": self.w_mean_ms,
            "ars_mean_ms": self.ars_mean_ms,
            "writes": self.writes,
            "write_interval_ms": self.write_interval_ms,
            "read_offsets_ms": list(self.read_offsets_ms),
            "prediction_trials": self.prediction_trials,
            "workers": 1,
        }

    def _run(self, writes: int, prediction_trials: int, seed: int):
        distributions = WARSDistributions.write_specialised(
            write=ExponentialLatency.from_mean(self.w_mean_ms),
            other=ExponentialLatency.from_mean(self.ars_mean_ms),
            name=f"exp W={self.w_mean_ms}ms ARS={self.ars_mean_ms}ms",
        )
        return validation.run_validation(
            distributions=distributions,
            config=self.config,
            writes=writes,
            write_interval_ms=self.write_interval_ms,
            read_offsets_ms=self.read_offsets_ms,
            prediction_trials=prediction_trials,
            rng=seed,
            workers=1,
        )

    def warm_up(self) -> None:
        self._run(writes=200, prediction_trials=2_000, seed=WARM_SEED)

    def op(self, seed: int):
        return self._run(self.writes, self.prediction_trials, seed)

    def check(self, result) -> list[str]:
        problems = []
        # Every read races one write; at most 2.5% may start before the
        # first commit or go unobserved (39,000 of 40,000 at 5,000 writes).
        minimum = int(0.975 * self.writes * len(self.read_offsets_ms))
        if result.observations < minimum:
            problems.append(f"{result.observations} observations < {minimum}")
        if not result.consistency_rmse < self.max_rmse:
            problems.append(f"consistency RMSE {result.consistency_rmse:.4f} >= {self.max_rmse}")
        return problems

    def counters(self, result) -> dict:
        return {"analysis.observations": result.observations}


def _sla_scenarios():
    """The LNKD-DISK and YMMR targets of ``repro.experiments.sla``."""
    return (
        (
            "LNKD-DISK latency+staleness",
            lnkd_disk(),
            SLATarget(
                read_latency_ms=25.0,
                write_latency_ms=25.0,
                t_visibility_ms=50.0,
                min_write_quorum=1,
                min_replication=3,
            ),
        ),
        (
            "YMMR latency+staleness",
            ymmr(),
            SLATarget(
                read_latency_ms=60.0,
                write_latency_ms=60.0,
                t_visibility_ms=250.0,
                min_write_quorum=1,
                min_replication=3,
            ),
        ),
        (
            "YMMR durability-first",
            ymmr(),
            SLATarget(t_visibility_ms=100.0, min_write_quorum=2, min_replication=3),
        ),
    )


class AnswerPaths:
    """Table 4 by Monte Carlo, the same rows analytically, and SLA searches."""

    name = "answer-paths"
    iid_fits = ("LNKD-SSD", "LNKD-DISK", "YMMR")
    target = 0.999
    #: Largest |analytic P(consistent) - 0.999| at a Monte Carlo t-visibility
    #: (seeds 0-3 measured <= 0.0011).
    agreement = 0.005

    def __init__(self, trials: int = 100_000, probe_resolution_ms: float = 1.0) -> None:
        self.trials = trials
        self.probe_resolution_ms = probe_resolution_ms

    def params(self) -> dict:
        return {
            "environments": ["LNKD-SSD", "LNKD-DISK", "YMMR", "WAN"],
            "configs": [config.label() for config in TABLE4_CONFIGS],
            "trials": self.trials,
            "probe_resolution_ms": self.probe_resolution_ms,
            "analytic_fits": list(self.iid_fits),
            "sla_scenarios": [label for label, _, _ in _sla_scenarios()],
            "sla_replication_factors": [1, 2, 3, 4, 5],
            "workers": 1,
        }

    def _run(self, trials: int, seed: int, configs=TABLE4_CONFIGS, replication_factors=(1, 2, 3, 4, 5)):
        environments = {"LNKD-SSD": lnkd_ssd(), "LNKD-DISK": lnkd_disk(), "YMMR": ymmr(), "WAN": wan()}
        table = tvisibility.t_visibility_table(
            environments,
            configs,
            target_probability=self.target,
            latency_percentile=99.9,
            trials=trials,
            rng=seed,
            probe_resolution_ms=self.probe_resolution_ms,
        )
        analytic = {}
        for fit in self.iid_fits:
            predictor = AnalyticPredictor(distributions=environments[fit])
            rows = predictor.sweep(configs, target_probability=(self.target,), percentiles=(99.9,))
            analytic[fit] = (predictor, rows)
        sla = {
            label: SLAOptimizer(
                distributions, replication_factors=replication_factors, mode="analytic"
            ).best(target)
            for label, distributions, target in _sla_scenarios()
        }
        return {"table": table, "analytic": analytic, "sla": sla}

    def warm_up(self) -> None:
        self._run(trials=2_000, seed=WARM_SEED, configs=TABLE4_CONFIGS[:2], replication_factors=(3,))

    def op(self, seed: int):
        return self._run(self.trials, seed)

    def check(self, answer) -> list[str]:
        problems = []
        for row in answer["table"]:
            config, t_ms = row["config"], row["t_visibility_ms"]
            label = f"{row['environment']} {config.label()}"
            if config.is_strict:
                if t_ms != 0.0:
                    problems.append(f"{label}: strict quorum reports t = {t_ms}")
                continue
            if row["environment"] not in answer["analytic"]:
                continue
            predictor, _ = answer["analytic"][row["environment"]]
            probability = predictor.consistency_probability(config, t_ms)
            if not abs(probability - self.target) <= self.agreement:
                problems.append(
                    f"{label}: analytic P(consistent) {probability:.4f} at the Monte Carlo "
                    f"t-visibility {t_ms:.3f} ms is not within {self.agreement} of {self.target}"
                )
        for fit, (_, rows) in answer["analytic"].items():
            for result in rows:
                if result.config.is_strict and result.t_visibility_ms[self.target] != 0.0:
                    problems.append(f"{fit} {result.config.label()}: analytic strict t != 0")
        for label, best in answer["sla"].items():
            if best is None:
                problems.append(f"SLA search {label!r} returned no configuration")
        return problems

    def counters(self, answer) -> dict:
        # trials_run and probes come from the SweepEngine.run hook.
        return {}
