"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 -m pytest perfbench/smoke.py -q

It checks that every workload prints every metric of ``BENCHMARK.json`` by
name and unit, that a deliberately corrupted answer counts as a failed op,
that the deterministic counters repeat for one seed, and that spans opened
from several threads at once stay well formed.  The file is not
named ``test_*.py`` so the repository's own test run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import serve_http  # noqa: E402

#: Timed phase of a smoke run: a batch run always finishes its first op;
#: serve-http needs time to reach its counter checkpoint (two refits, each
#: followed by cold answers), which took up to 4 s on a slow 2-vCPU VM.
TINY_SECONDS = {"sim-cell": 0.1, "answer-paths": 0.1, "serve-http": 8.0}


def _benchmark() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _tiny(workload: str, trace: int, seed: int = 3):
    return report.invoke(workload, seed, TINY_SECONDS[workload], trace)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_printed_and_counters_repeat(workload):
    benchmark = _benchmark()
    first, first_record = _tiny(workload, 0)
    second, second_record = _tiny(workload, 0)
    traced, traced_record = _tiny(workload, 1)
    for result, metrics in ((first, "end_to_end"), (traced, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in benchmark[metrics]}
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == expected
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        if workload == "serve-http":
            assert result["attempted"] >= serve_http.CHECKPOINT_REQUESTS
    assert all(first["metrics"][name]["value"] > 0 for name in first["metrics"])
    counters = first_record["counters"]
    assert counters, "the run record carries no counters"
    assert second_record["counters"] == counters
    # Traced runs count more; the counters both modes share must agree.
    assert {key: traced_record["counters"][key] for key in counters} == counters


def _corrupt_batch(workload, corrupt):
    tracer = layers.Tracer(timing=False)
    original = workload.op
    workload.op = lambda seed: corrupt(original(seed))
    return run.run_batch(workload, tracer, seed=0, seconds=0.0)


def test_corrupted_batch_answers_fail():
    run.load_program()
    import batch

    cell = _corrupt_batch(
        batch.SimCell(writes=1_000, prediction_trials=20_000),
        lambda result: dataclasses.replace(result, consistency_rmse=0.5),
    )
    assert cell["failed"] == 1 and "RMSE" in cell["problems"][0]

    def strict_row_not_zero(answer):
        row = next(row for row in answer["table"] if row["config"].is_strict)
        row["t_visibility_ms"] = 3.0
        return answer

    paths = _corrupt_batch(batch.AnswerPaths(trials=20_000), strict_row_not_zero)
    assert paths["failed"] == 1 and "strict quorum" in paths["problems"][0]


def test_corrupted_http_answer_fails(monkeypatch):
    run.OUT.mkdir(exist_ok=True)
    workload = serve_http.ServeHttp(run.ROOT, run.OUT)
    workload.set_up()
    call = serve_http.Server.call

    def corrupting_call(self, method, path, body=None, request_id=None):
        status, raw, seconds = call(self, method, path, body, request_id)
        if request_id == 7:
            payload = json.loads(raw)
            payload.pop("fingerprint")
            raw = json.dumps(payload).encode()
        return status, raw, seconds

    monkeypatch.setattr(serve_http.Server, "call", corrupting_call)
    try:
        result = workload.run(seed=0, seconds=1.0, ref_loop=lambda: 0.0)
    finally:
        workload.stop()
    assert len(result["requests"]) > 7
    assert result["failed"] == 1
    assert result["problems"] == ["request 7: predict response lacks ['fingerprint']"]
    assert serve_http.ServeHttp.check("predict", 503, b"{}", ["fp"], 0) == ["predict returned HTTP 503"]


def test_failed_raised_or_missing_audits_fail():
    def stats(misses, run, failed=0, raised=0):
        return {"cache": {"misses": misses}, "spot_checks": {"run": run, "failed": failed, "worker_errors": raised}}

    check = serve_http.ServeHttp.check_audits
    before = stats(misses=8, run=8)
    assert check(before, stats(misses=12, run=12)) == (0, [])
    assert check(before, stats(misses=12, run=12, failed=2))[0] == 2
    assert check(before, stats(misses=12, run=11, raised=1)) == (1, ["0 spot checks failed, 1 raised"])
    assert check(before, stats(misses=12, run=8)) == (
        1,
        ["answers were computed in the timed phase but no spot check ran"],
    )
    # No answer computed in the timed phase: no audit is owed.
    assert check(before, before) == (0, [])


def test_spans_from_concurrent_threads():
    # Switch threads as often as possible, so a span index taken apart from
    # its append would be handed out twice.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracer = layers.Tracer(timing=True)

    def work():
        for _ in range(5_000):
            outer = tracer.open("outer")
            tracer.close(tracer.open("inner"))
            tracer.count("inner")
            tracer.close(outer)

    threads = [threading.Thread(target=work) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous)
    spans = tracer.spans
    assert len(spans) == 4 * 2 * 5_000
    assert tracer.counts["inner"] == 4 * 5_000
    assert all(span[2] >= span[1] for span in spans)
    for span in spans:
        if span[0] == "inner":
            parent = spans[span[3]]
            assert parent[0] == "outer" and parent[5] == span[5]
            assert parent[1] <= span[1] <= span[2] <= parent[2]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
