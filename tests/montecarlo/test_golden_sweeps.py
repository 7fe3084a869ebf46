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
* the adaptive pins — an adaptive ``probe_resolution_ms=1.0`` run over the
  same configurations, in a form that holds on any host:
  ``ADAPTIVE_EXACT_DIGEST`` covers what IEEE arithmetic makes exact
  (``trials_run``, each frozen probe grid, its counts, the non-positive
  counts, and t-visibility, which interpolates counts inside the pilot
  windows), and ``ADAPTIVE_LATENCY_MS`` stores the latency percentiles as
  literals compared with ``LATENCY_RTOL``, because they pass through
  ``np.power`` draws and ``np.geomspace`` histogram edges.

Both sweep families are checked serially and sharded across two worker
processes: the merge contract promises the same bits for any worker count.
The adaptive pins run again in a subprocess with NumPy's AVX-512 loops
switched off, wherever NumPy reports AVX-512; the batch and fixed-grid
digests still pin this host's dispatch.

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
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.quorum import iter_configs
from repro.core.wars import sample_wars_batch
from repro.latency.production import lnkd_disk, lnkd_ssd, production_fit
from repro.montecarlo.engine import SAMPLE_BLOCK, SweepEngine

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as _CPU_FEATURES

#: The switch that turns NumPy's AVX-512 loops off for one process.
_AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"

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

ADAPTIVE_TARGETS = (0.99, 0.999)
ADAPTIVE_EXACT_DIGEST = "95bf24aab40c5a7b4c46aadca07cb2e669db412c2ea69016a4b1bd4eb6cbb249"
#: config -> ((read p50, p99, p99.9), (write p50, p99, p99.9)) in ms.
ADAPTIVE_LATENCY_MS = {
    "N=3 R=1 W=1": ((0.48903625332410683, 0.5641792803347582, 0.6432400538896462), (1.5015764903626214, 6.525077686440919, 10.889638956406316)),
    "N=3 R=1 W=2": ((0.48903625332410683, 0.5641792803347582, 0.6432400538896462), (2.781082559207363, 13.979098833069623, 21.049733058621097)),
    "N=3 R=1 W=3": ((0.48903625332410683, 0.5641792803347582, 0.6432400538896462), (6.965817181916449, 32.88536344818686, 115.31970324361757)),
    "N=3 R=2 W=1": ((0.5145774643891429, 0.8832918802191895, 1.603688290309737), (1.5015764903626214, 6.525077686440919, 10.889638956406316)),
    "N=3 R=2 W=2": ((0.5145774643891429, 0.8832918802191895, 1.603688290309737), (2.781082559207363, 13.979098833069623, 21.049733058621097)),
    "N=3 R=2 W=3": ((0.5145774643891429, 0.8832918802191895, 1.603688290309737), (6.965817181916449, 32.88536344818686, 115.31970324361757)),
    "N=3 R=3 W=1": ((0.5663794677935476, 2.6939351508083, 4.241575505482013), (1.5015764903626214, 6.525077686440919, 10.889638956406316)),
    "N=3 R=3 W=2": ((0.5663794677935476, 2.6939351508083, 4.241575505482013), (2.781082559207363, 13.979098833069623, 21.049733058621097)),
    "N=3 R=3 W=3": ((0.5663794677935476, 2.6939351508083, 4.241575505482013), (6.965817181916449, 32.88536344818686, 115.31970324361757)),
}
LATENCY_RTOL = 1e-12


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


def sweep_dump(sweep) -> dict:
    """The numbers a sweep reports, per configuration."""
    rows = []
    for result in sweep:
        rows.append(
            {
                "config": result.config.label(),
                "trials": result.trials,
                "times": list(result.times_ms),
                "consistent": list(result.consistent_counts),
                "nonpositive": result.nonpositive_thresholds,
                "t_vis": [result.t_visibility(0.99), result.t_visibility(0.999)],
                "read": [result.read_latency_percentile(p) for p in PERCENTILES],
                "write": [result.write_latency_percentile(p) for p in PERCENTILES],
            }
        )
    return {"trials_run": sweep.trials_run, "configs": rows}


def exact_dump(sweep) -> dict:
    """What a sweep reports that IEEE arithmetic makes exact on any host."""
    rows = []
    for result in sweep:
        rows.append(
            {
                "config": result.config.label(),
                "times": list(result.times_ms),
                "consistent": list(result.consistent_counts),
                "nonpositive": result.nonpositive_thresholds,
                "t_vis": [result.t_visibility(target) for target in ADAPTIVE_TARGETS],
            }
        )
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
        target_probability=ADAPTIVE_TARGETS,
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
def test_adaptive_sweep_golden(workers):
    sweep = adaptive_sweep(workers)
    for result in sweep:
        for target in ADAPTIVE_TARGETS:
            # Every crossing lies in its pilot window, so t-visibility is
            # count arithmetic rather than a histogram estimate.
            low, high = result.t_visibility_bracket(target)
            assert high - low <= 1.0
        read, write = ADAPTIVE_LATENCY_MS[result.config.label()]
        assert [result.read_latency_percentile(p) for p in PERCENTILES] == pytest.approx(
            read, rel=LATENCY_RTOL, abs=0.0
        )
        assert [result.write_latency_percentile(p) for p in PERCENTILES] == pytest.approx(
            write, rel=LATENCY_RTOL, abs=0.0
        )
    assert any(len(result.times_ms) > 100 for result in sweep)
    assert sha256_json(exact_dump(sweep)) == ADAPTIVE_EXACT_DIGEST


@pytest.mark.skipif(
    not _CPU_FEATURES.get("AVX512F") or "NPY_DISABLE_CPU_FEATURES" in os.environ,
    reason="NumPy reports no AVX-512 here, or this is the rerun",
)
def test_adaptive_pins_pass_with_avx512_loops_off():
    root = Path(__file__).resolve().parents[2]
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(Path(__file__)), "-k", "test_adaptive_sweep_golden",
        ],
        cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": _AVX512_OFF},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]
    assert "2 passed" in completed.stdout
