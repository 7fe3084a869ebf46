"""Wrappers that time and count the program's public calls, layer by layer.

The benchmark never edits the program: :class:`Tracer` replaces selected
public functions and methods of ``repro`` with wrappers that record a span
(name, start, end, parent span, op id, thread) around each call, plus
counters read from the call's arguments and results.  Spans live in memory
and are written out at exit.  A layer's self time is the total duration of
its spans minus the time their child spans cover.

Two levels exist because end-to-end numbers must come from runs without
tracing:

* ``timing=False`` (untraced runs) installs only the few hooks that read the
  deterministic counters the run record needs (``WorkloadRunner.run`` and
  ``SweepEngine.run``, called a handful of times per multi-second op).
* ``timing=True`` (traced runs) wraps every layer boundary listed in
  ``NOTE.md`` and records spans.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Thread name of the service's asynchronous Monte Carlo auditor.
SPOT_CHECK_THREAD = "pbs-spot-checks"


class Tracer:
    """Span and counter store shared by every installed wrapper."""

    def __init__(self, timing: bool) -> None:
        self.timing = timing
        #: Spans as ``[name, start, end, parent, op, thread, tag]`` lists;
        #: ``parent`` is an index into this list or -1.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        # The server's request threads and its spot-check thread share one
        # tracer, so appending a span (and taking its index) and bumping a
        # counter must each be one step.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Per-thread context.
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.paused = False
            local.thread = threading.current_thread().name
        return local

    def set_op(self, op) -> None:
        """Tag the calling thread's subsequent spans with an op/request id."""
        self._state().op = op

    def pause(self, paused: bool) -> None:
        """Stop (or resume) recording spans on the calling thread."""
        self._state().paused = paused

    def open(self, name: str) -> int:
        state = self._state()
        parent = state.stack[-1] if state.stack else -1
        span = [name, perf_counter(), 0.0, parent, state.op, state.thread, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        state.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._state().stack.pop()

    def tag_current(self, tag: str) -> None:
        """Tag the innermost open span of the calling thread (e.g. cache hit)."""
        stack = self._state().stack
        if stack:
            self.spans[stack[-1]][6] = tag

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def current_thread_name(self) -> str:
        return self._state().thread

    # ------------------------------------------------------------------
    # Installing wrappers.
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper.

        ``name`` is the span name (``None`` records no span); ``after`` is
        called as ``after(tracer, result, args)`` for counters, in both
        timing modes.  Class methods, plain methods and module functions are
        all supported.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if name is None or not tracer.timing or state.paused:
                result = function(*args, **kwargs)
            else:
                index = tracer.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(index)
            if after is not None and not state.paused:
                after(tracer, result, args)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        with self._lock:
            payload = {
                "fields": ["name", "start", "end", "parent", "op", "thread", "tag"],
                "spans": list(self.spans),
                "counts": dict(self.counts),
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Counter hooks.
# ----------------------------------------------------------------------
def _count_cluster(tracer: Tracer, _result, args) -> None:
    cluster = args[0].cluster
    network = cluster.network
    tracer.count("cluster.events", cluster.simulator.processed_events)
    tracer.count("cluster.draws", network.draws_consumed)
    tracer.count("cluster.draw_refills", network.draw_refills)
    tracer.count("cluster.draws_refilled", network.draw_refills * network.draw_batch_size)
    tracer.count("cluster.trace_rows", cluster.trace_log.write_count + cluster.trace_log.read_count)


def _count_sweep(tracer: Tracer, result, _args) -> None:
    prefix = (
        "montecarlo.spot_check_"
        if tracer.current_thread_name() == SPOT_CHECK_THREAD
        else "montecarlo."
    )
    tracer.count(prefix + "trials_run", result.trials_run)
    tracer.count(prefix + "probes", sum(len(r.probe_grid()) for r in result.results))


def _count(key: str, amount=lambda result, args: 1):
    def hook(tracer: Tracer, result, args) -> None:
        tracer.count(key, amount(result, args))

    return hook


def _tag_cache(tracer: Tracer, result, _args) -> None:
    hit = result is not None
    tracer.count("serving.cache_hits" if hit else "serving.cache_misses")
    tracer.tag_current("hit" if hit else "miss")


def install(tracer: Tracer) -> None:
    """Install the hooks for ``tracer``'s timing mode into the loaded program."""
    import repro.analysis.validation as validation
    from repro.cluster.client import WorkloadRunner
    from repro.montecarlo.engine import SweepEngine

    tracer.wrap(WorkloadRunner, "run", "cluster.run", after=_count_cluster)
    tracer.wrap(SweepEngine, "run", "montecarlo.sweep", after=_count_sweep)
    if not tracer.timing:
        return

    from repro.analytic.predictor import (
        AnalyticConfigResult,
        AnalyticEnvironment,
        AnalyticPredictor,
    )
    from repro.cluster.store import DynamoCluster
    from repro.core.sla import SLAOptimizer
    from repro.core.wars import WARSModel
    from repro.kernels import resolve_backend
    from repro.latency.empirical import EmpiricalDistribution
    from repro.serving.cache import LRUCache
    from repro.serving.service import PredictorService

    # run_validation, validation_workload, observe_staleness and
    # operation_latencies are looked up in the validation module's namespace
    # at call time, so they are wrapped there.
    tracer.wrap(validation, "run_validation", "analysis.compare")
    tracer.wrap(validation, "validation_workload", "workloads.generate")
    tracer.wrap(
        validation,
        "observe_staleness",
        "analysis.observe",
        after=_count("analysis.observations", lambda result, args: len(result)),
    )
    tracer.wrap(validation, "operation_latencies", "analysis.latencies")
    tracer.wrap(DynamoCluster, "__init__", "cluster.build")
    tracer.wrap(
        WARSModel,
        "sample",
        "core.wars_sample",
        after=_count("core.wars_trials", lambda result, args: int(args[1])),
    )
    tracer.wrap(
        type(resolve_backend(None)),
        "reduce_batch",
        "kernels.reduce",
        after=_count("kernels.calls"),
    )
    tracer.wrap(
        AnalyticEnvironment, "__init__", "analytic.env_build", after=_count("analytic.env_builds")
    )
    for method in ("quorum_freshness", "operation_latency_table"):
        tracer.wrap(AnalyticEnvironment, method, "analytic.tables")
    tracer.wrap(AnalyticPredictor, "sweep", "analytic.query")
    for method in (
        "consistency_probability",
        "t_visibility",
        "probability_never_stale",
        "read_latency_percentile",
        "write_latency_percentile",
    ):
        tracer.wrap(AnalyticConfigResult, method, "analytic.query")
    tracer.wrap(
        SLAOptimizer,
        "evaluate_all",
        "core.sla",
        after=_count("core.sla_configs", lambda result, args: len(result)),
    )
    tracer.wrap(EmpiricalDistribution, "from_samples", "latency.empirical_fit")
    tracer.wrap(PredictorService, "predict", "serving.predict")
    tracer.wrap(PredictorService, "recommend", "serving.recommend")
    tracer.wrap(PredictorService, "ingest", "serving.ingest")
    tracer.wrap(LRUCache, "get", None, after=_tag_cache)


def install_http(tracer: Tracer) -> None:
    """Wrap the HTTP handler so server spans carry the client's request id."""
    from repro.serving import http

    handler = http._Handler
    for method in ("do_GET", "do_POST"):
        original = handler.__dict__[method]

        def wrapper(self, _original=original):
            raw = self.headers.get("X-Request-Id")
            tracer.set_op(int(raw) if raw is not None else None)
            index = tracer.open("http.handler")
            try:
                _original(self)
            finally:
                tracer.close(index)
                tracer.set_op(None)

        setattr(handler, method, wrapper)


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[index] for index, span in enumerate(spans)]


def self_time_by_layer(spans: list[list], keep=lambda span: True) -> dict[str, float]:
    """Total self time (s) per span name over the spans ``keep`` accepts."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if keep(span):
            totals[span[0]] += own
    return dict(totals)
