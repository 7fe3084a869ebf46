"""The ``serve-http`` workload: a closed-loop client against ``repro.cli serve``.

The server runs in its own process exactly as deployed
(``pbs-repro serve --port 0 --refit-every 4096``, spot checks on).  One
client thread sends one request at a time on a fresh connection and sends
the next only after reading the previous response, so the server sets the
rate.  Each request carries an ``X-Request-Id`` header; a traced server
(``traced_serve.py``) tags its spans with it so client and server times can
be joined per request.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, sleep

import numpy as np

#: The seven N=3 configurations of ``benchmarks/test_bench_serving.py``.
CONFIGS = ((3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 1, 3), (3, 3, 3))
OBSERVATIONS_PER_POST = 64
OBSERVATION_MEAN_MS = 5.0
REFIT_EVERY = 4096
RECOMMEND_PATH = "/tenants/default/recommend?read_latency_ms=10&t_visibility_ms=20"
#: Timed requests after which ``GET /stats`` is read (untimed) for the
#: deterministic counters: 32 cycles, so exactly two refits.
CHECKPOINT_REQUESTS = 640

ROUTE_KEYS = {
    "predict": {
        "tenant",
        "config",
        "fingerprint",
        "consistency_at_commit",
        "t_visibility_ms",
        "read_latency_ms",
        "write_latency_ms",
        "degraded",
    },
    "observations": {"tenant", "ingested"},
    "recommend": {"tenant", "fingerprint", "best", "evaluations"},
}


def request_cycle() -> list[tuple[str, object]]:
    """The 20-request cycle: 14 predicts, 4 observation posts, 2 recommends."""
    predicts = iter(CONFIGS * 2)
    legs = iter("WARS")
    cycle: list[tuple[str, object]] = []
    for position in range(20):
        if position in (3, 8, 13, 18):
            cycle.append(("observations", next(legs)))
        elif position in (5, 15):
            cycle.append(("recommend", None))
        else:
            cycle.append(("predict", next(predicts)))
    return cycle


def _predict_path(config) -> str:
    n, r, w = config
    return f"/tenants/default/predict?n={n}&r={r}&w={w}"


class Server:
    """A ``repro.cli serve`` process; traced servers dump spans to ``spans_path``."""

    def __init__(self, root: Path, out: Path, spans_path: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        serve = ["serve", "--port", "0", "--refit-every", str(REFIT_EVERY)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(root / "perfbench" / "traced_serve.py"), str(spans_path), *serve]
        self._log = open(out / "server.log", "w")
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        banner = self.process.stdout.readline()
        if "serving on http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start (see {out / 'server.log'}): {banner!r}")
        host_port = banner.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def call(self, method: str, path: str, body: dict | None = None, request_id: int | None = None):
        """One request on a fresh connection: ``(status, raw body, seconds)``."""
        headers = {}
        data = None
        if request_id is not None:
            headers["X-Request-Id"] = str(request_id)
        if body is not None:
            data = json.dumps(body)
            headers["Content-Type"] = "application/json"
        started = perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        return response.status, raw, perf_counter() - started

    def stats(self) -> dict:
        status, raw, _ = self.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats returned {status}")
        return json.loads(raw)

    def drain_spot_checks(self, timeout_s: float = 60.0) -> dict:
        """Wait until the auditor has no queued or running check."""
        deadline = perf_counter() + timeout_s
        stats = self.stats()
        while perf_counter() < deadline:
            sleep(0.25)
            again = self.stats()
            if again["spot_checks"]["pending"] == 0 and again["spot_checks"]["run"] == stats["spot_checks"]["run"]:
                return again
            stats = again
        raise RuntimeError("spot checks did not drain")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server and wait for it (and its span dump) to finish."""
        if self._log.closed:
            return
        if self.process.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background may
            # inherit an ignored SIGINT.  traced_serve.py turns SIGTERM into
            # a clean shutdown that writes the spans.
            self.process.terminate()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()


class ServeHttp:
    """Drives one server through warm-up and a timed closed loop."""

    name = "serve-http"

    def __init__(self, root: Path, out: Path, spans_path: Path | None = None) -> None:
        self.root = root
        self.out = out
        self.spans_path = spans_path
        self.server: Server | None = None

    def params(self) -> dict:
        return {
            "server": f"repro.cli serve --port 0 --refit-every {REFIT_EVERY} (spot checks on)",
            "cycle": "14 predict over 7 N=3 configs, 4 POST observations (W,A,R,S), 2 recommend",
            "observations_per_post": OBSERVATIONS_PER_POST,
            "observation_mean_ms": OBSERVATION_MEAN_MS,
            "recommend": RECOMMEND_PATH.split("?", 1)[1],
            "client": "one closed-loop thread, one connection per request, no pacing",
        }

    def set_up(self) -> None:
        """Start the server and warm the tenant's analytic tables and cache."""
        if self.spans_path is not None and self.spans_path.exists():
            self.spans_path.unlink()
        self.server = Server(self.root, self.out, self.spans_path)
        for index, config in enumerate(CONFIGS):
            status, _, _ = self.server.call("GET", _predict_path(config), request_id=-1 - index)
            if status != 200:
                raise RuntimeError(f"warm-up predict returned {status}")
        status, _, _ = self.server.call("GET", RECOMMEND_PATH, request_id=-100)
        if status != 200:
            raise RuntimeError(f"warm-up recommend returned {status}")

    def run(self, seed: int, seconds: float, ref_loop) -> dict:
        """Timed closed loop; returns end-to-end numbers, checks and counters."""
        server = self.server
        server.drain_spot_checks()
        ref_before = ref_loop()
        before = server.stats()
        fingerprints = [before["tenants"][0]["fingerprint"]]
        cycle = request_cycle()
        requests: list[tuple[int, str, float, int]] = []
        problems: list[str] = []
        failed = 0
        observations_posted = 0
        checkpoint = None
        paused = 0.0
        started = perf_counter()
        index = 0
        while perf_counter() - started - paused < seconds:
            kind, argument = cycle[index % len(cycle)]
            if kind == "predict":
                status, raw, elapsed = server.call("GET", _predict_path(argument), request_id=index)
            elif kind == "recommend":
                status, raw, elapsed = server.call("GET", RECOMMEND_PATH, request_id=index)
            else:
                values = np.random.default_rng(seed + index).exponential(
                    OBSERVATION_MEAN_MS, OBSERVATIONS_PER_POST
                )
                status, raw, elapsed = server.call(
                    "POST",
                    "/tenants/default/observations",
                    {"leg": argument, "values": values.tolist()},
                    request_id=index,
                )
            requests.append((index, kind, elapsed, status))
            wrong = self.check(kind, status, raw, fingerprints, observations_posted)
            if wrong:
                failed += 1
                problems.extend(f"request {index}: {reason}" for reason in wrong)
            elif kind == "observations":
                observations_posted += OBSERVATIONS_PER_POST
            index += 1
            if index == CHECKPOINT_REQUESTS:
                pause_started = perf_counter()
                checkpoint = server.stats()
                paused += perf_counter() - pause_started
        elapsed_s = perf_counter() - started - paused
        window = (started, perf_counter())
        after = server.drain_spot_checks()
        ref_after = ref_loop()
        audit_failures, audit_problems = self.check_audits(before, after)
        failed += audit_failures
        problems.extend(audit_problems)
        peak_rss = server.peak_rss_mb()
        server.stop()
        return {
            "requests": requests,
            "elapsed_s": elapsed_s,
            "window": window,
            "failed": failed,
            "problems": problems,
            "before": before,
            "after": after,
            "checkpoint": checkpoint,
            "ref_ms": [ref_before, ref_after],
            "peak_rss_mb": peak_rss,
        }

    @staticmethod
    def check(kind: str, status: int, raw: bytes, fingerprints: list, observations_posted: int) -> list[str]:
        """Why a response is wrong; ``fingerprints`` grows with each refit seen."""
        if status != 200:
            return [f"{kind} returned HTTP {status}"]
        try:
            payload = json.loads(raw)
        except ValueError:
            return [f"{kind} body is not JSON"]
        if not isinstance(payload, dict):
            return [f"{kind} body is not a JSON object"]
        missing = ROUTE_KEYS[kind] - set(payload)
        if missing:
            return [f"{kind} response lacks {sorted(missing)}"]
        if kind == "observations":
            if payload["ingested"] != OBSERVATIONS_PER_POST:
                return [f"ingested {payload['ingested']} of {OBSERVATIONS_PER_POST}"]
            return []
        if payload.get("degraded"):
            return [f"{kind} answer flagged degraded"]
        fingerprint = payload["fingerprint"]
        if fingerprint not in fingerprints:
            fingerprints.append(fingerprint)
        # Refits run synchronously inside the POST that crosses the
        # threshold, and each must change the fingerprint.
        refits = observations_posted // REFIT_EVERY
        if fingerprints.index(fingerprint) != refits or len(fingerprints) != refits + 1:
            return [
                f"{kind} served fingerprint #{fingerprints.index(fingerprint)} of "
                f"{len(fingerprints)} after {refits} refits"
            ]
        return []

    @staticmethod
    def check_audits(before: dict, after: dict) -> tuple[int, list[str]]:
        """Failed spot checks of a run and why, from ``GET /stats`` around it.

        The server is fresh, so its totals cover every audit of the run.  An
        audit that raised is lost from the queue and counts as failed.  Every
        answer the service computes (a cache miss) queues an audit, so misses
        in the timed phase with no audit run fail too.
        """
        audits = after["spot_checks"]
        failed = audits["failed"] + audits["worker_errors"]
        problems = [f"{audits['failed']} spot checks failed, {audits['worker_errors']} raised"] if failed else []
        if after["cache"]["misses"] > before["cache"]["misses"] and audits["run"] == before["spot_checks"]["run"]:
            failed += 1
            problems.append("answers were computed in the timed phase but no spot check ran")
        return failed, problems

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()


def end_to_end(result: dict) -> dict:
    """End-to-end numbers of one timed loop (times in ms)."""
    times = sorted(elapsed * 1e3 for _, _, elapsed, _ in result["requests"])
    writes = [elapsed * 1e3 for _, kind, elapsed, _ in result["requests"] if kind == "observations"]
    count = len(times)
    return {
        "ops_per_s": count / result["elapsed_s"],
        "op_p50_ms": median(times),
        # Nearest-rank p99; the run is long enough for >= 10 samples beyond it.
        "op_p99_ms": times[min(count - 1, int(0.99 * count))],
        "op_p99_tail_samples": count - 1 - min(count - 1, int(0.99 * count)),
        "write_p50_ms": median(writes),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def counters(result: dict) -> dict:
    """Deterministic counters at the checkpoint (``None`` before it)."""
    checkpoint = result["checkpoint"]
    if checkpoint is None:
        return {}
    return {
        "serving.refits": checkpoint["tenants"][0]["refits"],
        "serving.cache_hits": checkpoint["cache"]["hits"],
        "serving.cache_misses": checkpoint["cache"]["misses"],
        "serving.predictions_served": checkpoint["predictions_served"],
        "serving.recommendations_served": checkpoint["recommendations_served"],
    }
