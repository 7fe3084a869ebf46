"""Golden Monte Carlo digests: seeded sampling and sweeps must reproduce bit for bit.

Three digest families pin the WARS Monte Carlo path end to end:

* ``BATCH_DIGESTS`` — every array of a seeded
  :func:`~repro.core.wars.sample_wars_batch` (the raw write arrivals and the
  three pre-reduced order-statistic matrices), for an i.i.d. environment and
  for the per-replica WAN environment, whose columns are permuted per trial;
* ``SWEEP_DIGESTS`` — the reported numbers of a seeded fixed-grid
  :meth:`~repro.montecarlo.engine.SweepEngine.run` over the nine N=3
  configurations: exact consistency counts, non-positive thresholds,
  t-visibility at 0.99 and 0.999, and read/write latency percentiles;
* ``ADAPTIVE_DIGESTS`` — the same numbers for an adaptive
  ``probe_resolution_ms=1.0`` run, plus its refined probe grid.

Both sweep families are checked serially and sharded across two worker
processes: the merge contract promises the same bits for any worker count.

A digest changes when anything about the sampled trials or their reduction
changes: the order random numbers are drawn in, which column a delay lands
in, a sort kind, or a histogram layout.  A change that is meant to be
behaviour-preserving must leave every digest as it is.  The digests also
depend on NumPy's generator streams: if a NumPy upgrade moves them, confirm
that the unchanged parent commit moves identically before regenerating.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.quorum import iter_configs
from repro.core.wars import sample_wars_batch
from repro.latency.production import lnkd_disk, lnkd_ssd, production_fit
from repro.montecarlo.engine import SAMPLE_BLOCK, SweepEngine

#: batch name -> (environment factory, seed).
BATCHES = {
    "LNKD-SSD": (lnkd_ssd, 11),
    "WAN": (lambda: production_fit("WAN", replica_count=3), 12),
}
BATCH_TRIALS = 4_096

BATCH_DIGESTS = {
    "LNKD-SSD": "4737b4ce0721fa370980adc812bc58d0a817abaa0f73d1faab7f714d15e07e72",
    "WAN": "81bd008edebb803355500f835465ae4b7b95740ab9186cd3e16fe5a7dcab64ae",
}

CONFIGS = tuple(iter_configs(3))
FIXED_TIMES_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
#: Five chunks of one sampling block, the last one partial, so a sharded run
#: farms four chunks to its workers.
SWEEP_TRIALS = 4 * SAMPLE_BLOCK + 1_000
PERCENTILES = (50.0, 99.0, 99.9)

SWEEP_DIGESTS = {
    "LNKD-DISK": "de78e398dd6a1a9d995b6d90ed39755145d04e08f5407dba8202994c0bcdc58a",
}

ADAPTIVE_DIGESTS = {
    "LNKD-DISK": "66372a83d3ad5fcfb04f0cf08e376e3572b60bb87a8ef7338ef2aedc63fb0349",
}


def sha256_json(payload) -> str:
    """sha256 of a canonical JSON text (floats serialise exactly via repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def batch_digest(batch) -> str:
    """sha256 over the shape, dtype and bytes of all four batch arrays."""
    sha = hashlib.sha256()
    for array in (
        batch.write_arrivals_ms,
        batch.commit_latency_by_w_ms,
        batch.read_latency_by_r_ms,
        batch.freshness_margin_by_r_ms,
    ):
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def sweep_dump(sweep, probe_grid: bool = False) -> dict:
    """The numbers a sweep reports, per configuration."""
    rows = []
    for result in sweep:
        row = {
            "config": result.config.label(),
            "trials": result.trials,
            "times": list(result.times_ms),
            "consistent": list(result.consistent_counts),
            "nonpositive": result.nonpositive_thresholds,
            "t_vis": [result.t_visibility(0.99), result.t_visibility(0.999)],
            "read": [result.read_latency_percentile(p) for p in PERCENTILES],
            "write": [result.write_latency_percentile(p) for p in PERCENTILES],
        }
        if probe_grid:
            row["probe_grid"] = [list(point) for point in result.probe_grid()]
        rows.append(row)
    return {"trials_run": sweep.trials_run, "configs": rows}


def fixed_sweep(workers: int):
    return SweepEngine(
        lnkd_disk(),
        CONFIGS,
        times_ms=FIXED_TIMES_MS,
        chunk_size=SAMPLE_BLOCK,
        workers=workers,
    ).run(SWEEP_TRIALS, 2024)


def adaptive_sweep(workers: int):
    return SweepEngine(
        lnkd_disk(),
        CONFIGS,
        chunk_size=SAMPLE_BLOCK,
        workers=workers,
        target_probability=(0.99, 0.999),
        probe_resolution_ms=1.0,
    ).run(SWEEP_TRIALS, 2025)


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batch_golden_digest(name):
    factory, seed = BATCHES[name]
    batch = sample_wars_batch(factory(), BATCH_TRIALS, 3, np.random.default_rng(seed))
    assert batch_digest(batch) == BATCH_DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_grid_sweep_golden_digest(workers):
    assert sha256_json(sweep_dump(fixed_sweep(workers))) == SWEEP_DIGESTS["LNKD-DISK"]


@pytest.mark.parametrize("workers", [1, 2])
def test_adaptive_sweep_golden_digest(workers):
    sweep = adaptive_sweep(workers)
    assert any(result.refined_times_ms for result in sweep)
    assert sha256_json(sweep_dump(sweep, probe_grid=True)) == ADAPTIVE_DIGESTS["LNKD-DISK"]
