"""Outside-in tracing: the benchmark's own wrappers around ``repro``.

:func:`install` replaces each public function named in :func:`_targets`
with a timing wrapper -- on its class, or, for a module-level function,
in every ``repro`` module that imported it by name.  The program is not
edited and ``repro.obs.Telemetry`` is not used: attaching telemetry
forces the reference tick loop, so a traced fast-backend run would
execute different code from the run it explains.

Every wrapped call pushes a frame on a per-thread stack.  On exit its
duration is added to its parent's child time, and its self time is its
duration minus that child time.  Per request, every wrapped name keeps a
``[count, total_s, self_s]`` aggregate -- hot per-tick functions are
only aggregated -- and coarse functions also keep one span record
``{req, id, parent, name, start, end}``.  Spans stay in memory and are
written out once, by :meth:`Recorder.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Aggregate slot indices.
COUNT, TOTAL, SELF = 0, 1, 2

class Recorder:
    """Per-request aggregates, coarse spans and simulation-run records."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: One ``(request id, name) -> [count, total_s, self_s]`` map per
        #: thread, so the hot path takes no lock.
        self._thread_aggregates: List[Dict[Tuple[Any, str], list]] = []
        self.spans: List[dict] = []
        #: One row per ClusterSimulation.run: request, policy, path, ...
        self.runs: List[dict] = []

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.aggregates = {}
        if not hasattr(local, "request"):
            local.request = None
        with self._lock:
            self._thread_aggregates.append(local.aggregates)
        return local.stack, local.aggregates

    @property
    def request(self):
        """The request id spans on this thread are filed under."""
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a coarse span named ``name``."""
        return self.wrap(fn, name, keep_span=True)(*args, **kwargs)

    def wrap(self, fn: Callable, name: str, *, keep_span: bool,
             label: Optional[Callable] = None,
             request_from: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn``.

        ``label(args, result)`` refines the recorded name on exit (e.g.
        per policy); ``request_from(args)`` files the call, and every
        call under it on the same thread, under a request id.
        """
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            try:
                stack = local.stack
                aggregates = local.aggregates
            except AttributeError:
                stack, aggregates = recorder._thread_state()
            outer_request = local.request
            if request_from is not None:
                local.request = request_from(args)
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids) if keep_span else None
            parent_span = (None if parent is None
                           else parent[1] if parent[1] is not None
                           else parent[2])
            frame = [0.0, span_id, parent_span]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                full = name if label is None else label(args, result)
                key = (local.request, full)
                slot = aggregates.get(key)
                if slot is None:
                    aggregates[key] = [1, duration, duration - frame[0]]
                else:
                    slot[COUNT] += 1
                    slot[TOTAL] += duration
                    slot[SELF] += duration - frame[0]
                if keep_span:
                    with recorder._lock:
                        recorder.spans.append({
                            "req": local.request, "id": span_id,
                            "parent": parent_span, "name": full,
                            "start": start, "end": end})
                local.request = outer_request

        return wrapper

    def add_run(self, row: dict) -> None:
        """Record one finished simulation run."""
        with self._lock:
            self.runs.append(dict(row, req=self.request))

    def aggregates(self) -> Dict[Tuple[Any, str], List[float]]:
        """``(request, name) -> [count, total, self]`` over all threads."""
        merged: Dict[Tuple[Any, str], List[float]] = {}
        with self._lock:
            for per_thread in self._thread_aggregates:
                for key, (count, total, own) in list(per_thread.items()):
                    slot = merged.setdefault(key, [0, 0.0, 0.0])
                    slot[COUNT] += count
                    slot[TOTAL] += total
                    slot[SELF] += own
        return merged

    def for_request(self, request) -> Dict[str, List[float]]:
        """``name -> [count, total, self]`` for one request id."""
        return {name: slot for (req, name), slot
                in self.aggregates().items() if req == request}

    def dump(self, path: str) -> None:
        """Write spans, aggregates and run rows as JSON lines."""
        aggregates = self.aggregates()
        with self._lock, open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(span, kind="span")) + "\n")
            for (req, name), (count, total, own) in aggregates.items():
                handle.write(json.dumps(
                    {"kind": "aggregate", "req": req, "name": name,
                     "count": count, "total_s": total, "self_s": own})
                    + "\n")
            for row in self.runs:
                handle.write(json.dumps(dict(row, kind="run")) + "\n")


# -- what gets wrapped ----------------------------------------------------


def _policy_of_name(scheduler_name: str) -> str:
    """``"vmt-ta(gv=22)"`` -> ``"vmt-ta"``."""
    return scheduler_name.split("(")[0]


def _scheduler_classes() -> Dict[type, str]:
    """Concrete scheduler class -> policy key, via the public factory."""
    from repro.config import paper_cluster_config
    from repro.core.policies import SCHEDULER_NAMES, make_scheduler
    config = paper_cluster_config(num_servers=10)
    return {type(make_scheduler(name, config)): name
            for name in SCHEDULER_NAMES}


def _targets() -> List[tuple]:
    """``(owner, attribute, name, keep_span, label, request_from)``."""
    from repro import api
    from repro.analysis import sweep
    from repro.cluster.metrics import MetricsCollector, SimulationResult
    from repro.cluster.simulation import ClusterSimulation
    from repro.core import scheduler
    from repro.kernel import planned, stepped
    from repro.obs.registry import MetricRegistry
    from repro.obs.telemetry import Telemetry
    from repro.obs.tracer import Tracer
    from repro.perf import runner
    from repro.perf.cache import TraceCache
    from repro.serve.jobs import JobManager, JobRecord
    from repro.serve import registry
    from repro.thermal.pcm import PCMBank
    from repro.thermal.server_thermal import ServerAirModel
    from repro.thermal.wax_estimator import WaxStateEstimator
    from repro.workloads.trace import TwoDayTrace

    policies = _scheduler_classes()

    def place_label(args, result):
        return "core.place." + policies.get(type(args[0]), "other")

    def run_label(args, result):
        policy = ("failed" if result is None
                  else _policy_of_name(result.scheduler_name))
        return "cluster.run." + policy

    span, hot = True, False
    return [
        (api, "compare", "api.compare", span, None, None),
        (api, "sweep", "api.sweep", span, None, None),
        (TwoDayTrace, "generate", "workloads.trace_generate", span,
         None, None),
        (TraceCache, "get", "perf.trace_cache_get", span, None, None),
        (runner.ExperimentRunner, "run", "perf.runner", span, None, None),
        (runner, "execute_spec", "perf.execute_spec", span, None, None),
        (scheduler.Scheduler, "place", "core.place", hot, place_label,
         None),
        (scheduler, "deal_types", "core.deal_types", hot, None, None),
        (scheduler, "waterfill_quotas", "core.waterfill_quotas", hot,
         None, None),
        (ServerAirModel, "step", "thermal.air_step", hot, None, None),
        (PCMBank, "step", "thermal.pcm_step", hot, None, None),
        (WaxStateEstimator, "update", "thermal.estimator_update", hot,
         None, None),
        (WaxStateEstimator, "correct", "thermal.estimator_correct", hot,
         None, None),
        (ClusterSimulation, "run", "cluster.run", span, run_label, None),
        (MetricsCollector, "record", "cluster.metrics_record", hot,
         None, None),
        (MetricsCollector, "finish", "cluster.finish", span, None, None),
        (planned, "try_run", "kernel.planned", span, None, None),
        (stepped, "run", "kernel.stepped", span, None, None),
        (sweep, "gv_sweep", "analysis.gv_sweep", span, None, None),
        (JobManager, "_execute", "serve.job", span, None,
         lambda args: args[1]),
        (registry, "registry_key", "serve.registry_key", span, None, None),
        (registry.RunRegistry, "lookup", "serve.registry_lookup", span,
         None, None),
        (registry.RunRegistry, "load", "serve.registry_load", span, None,
         None),
        (registry.RunRegistry, "store", "serve.registry_store", span,
         None, None),
        (SimulationResult, "to_json", "serve.result_to_json", span, None,
         None),
        (JobRecord, "to_json", "serve.record_to_json", hot, None, None),
        (MetricRegistry, "snapshot_tick", "obs.registry_snapshot", hot,
         None, None),
        (Tracer, "span", "obs.tracer_span", hot, None, None),
        (Tracer, "event", "obs.tracer_event", hot, None, None),
        (Tracer, "flush", "obs.tracer_flush", hot, None, None),
        (Telemetry, "finish", "obs.telemetry_finish", span, None, None),
    ]


def _repro_modules() -> list:
    import sys
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro"
                                       or name.startswith("repro."))]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals.

    A missing target is an error, not a silent gap: a renamed function
    must be renamed here too, or the traced run would under-report.
    """
    import importlib
    for module in ("repro.api", "repro.serve", "repro.kernel.planned",
                   "repro.kernel.stepped"):
        importlib.import_module(module)
    modules = _repro_modules()
    undo: List[Tuple[object, str, object]] = []
    for owner, attr, name, keep_span, label, request_from in _targets():
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            raise RuntimeError(f"trace target {owner.__name__}.{attr} "
                               f"is missing")
        wrapped = recorder.wrap(original, name, keep_span=keep_span,
                                label=label, request_from=request_from)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        # A module-level function: patch it wherever it was imported.
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
    return restore


def install_run_probe(recorder: Recorder) -> Callable[[], None]:
    """Record path, fingerprint, size and wall time of each simulation.

    This is the only instrumentation the untraced runs carry: two
    wrapper calls per simulation (5 per comparison, 13 per sweep), so
    the traced and untraced runs can be held to the same fingerprints
    and kernel paths, and each run is timed with its trace-cache
    outcome.
    """
    from repro.cluster.simulation import ClusterSimulation
    from repro.perf import runner
    from repro.perf.cache import shared_cache
    original_run = ClusterSimulation.__dict__["run"]
    original_spec = runner.execute_spec
    clock = time.perf_counter

    @functools.wraps(original_run)
    def run(sim):
        result = original_run(sim)
        recorder.add_run({
            "policy": _policy_of_name(result.scheduler_name),
            "kernel_path": sim.kernel_path,
            "fingerprint": result.fingerprint(),
            "server_ticks": len(result.times_s) * sim.cluster.num_servers,
        })
        return result

    @functools.wraps(original_spec)
    def execute_spec(spec):
        misses = shared_cache().misses
        start = clock()
        result = original_spec(spec)
        elapsed = clock() - start
        with recorder._lock:
            recorder.runs[-1].update(
                spec_s=elapsed, trace_miss=shared_cache().misses > misses)
        return result

    ClusterSimulation.run = run
    runner.execute_spec = execute_spec

    def restore() -> None:
        ClusterSimulation.run = original_run
        runner.execute_spec = original_spec
    return restore
