"""Metric tables and the fold from traced aggregates to per-layer numbers.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares; every workload prints all of them (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  A per-layer value that a
workload cannot move (no server on policy-run, no sweep on serve-mixed)
reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from .stats import median

POLICIES = ("coolest-first", "round-robin", "vmt-preserve", "vmt-ta",
            "vmt-wa")
KERNEL_PATHS = ("planned", "stepped", "reference")

END_TO_END = (
    ("setup_s", "s"),
    ("server_ticks_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("paper_error_pp", "pp"),
    ("completed_frac", "ratio"),
)

PER_LAYER = (
    ("workloads.trace_generate_s", "s"),
    ("perf.trace_cache_hit_ratio", "ratio"),
    ("perf.execute_spec_calls", "count"),
    ("perf.runner_self_s", "s"),
    ("perf.execute_spec_self_s", "s"),
    *((f"core.place_s.{p}", "s") for p in POLICIES),
    ("core.place_calls", "count"),
    ("core.place_us_per_call", "us"),
    ("core.deal_types_calls", "count"),
    ("core.waterfill_quotas_calls", "count"),
    ("thermal.air_step_s", "s"),
    ("thermal.pcm_step_s", "s"),
    ("thermal.estimator_s", "s"),
    *((f"cluster.run_s.{p}", "s") for p in POLICIES),
    ("cluster.run_self_s", "s"),
    ("cluster.metrics_record_s", "s"),
    ("cluster.finish_s", "s"),
    ("kernel.planned_s", "s"),
    ("kernel.stepped_s", "s"),
    *((f"kernel.runs.{path}", "count") for path in KERNEL_PATHS),
    ("analysis.sweep_self_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_ms.hit", "ms"),
    ("serve.job_ms.fresh", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.registry_lookup_ms", "ms"),
    ("serve.registry_load_ms", "ms"),
    ("serve.registry_store_ms", "ms"),
    ("serve.result_to_json_ms", "ms"),
    ("serve.record_to_json_ms", "ms"),
    ("serve.registry_hit_ratio", "ratio"),
    ("serve.rss_growth_kb_per_request", "KB"),
    ("serve.bytes_written_per_request", "bytes"),
    ("obs.registry_snapshot_s", "s"),
    ("obs.tracer_s", "s"),
    ("obs.finish_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
)

#: Wrapped names that belong to no layer: the benchmark's request root
#: and the ``repro.api`` facade.
UNLAYERED = ("request", "api.")


def merge(per_request: Iterable[Mapping[str, Sequence[float]]]
          ) -> Dict[str, List[float]]:
    """Sum ``name -> [count, total, self]`` maps over requests."""
    merged: Dict[str, List[float]] = {}
    for aggregates in per_request:
        for name, (count, total, own) in aggregates.items():
            slot = merged.setdefault(name, [0, 0.0, 0.0])
            slot[0] += count
            slot[1] += total
            slot[2] += own
    return merged


def _get(merged, name: str, field: int) -> float:
    return merged.get(name, (0, 0.0, 0.0))[field]


def layer_values(merged: Mapping[str, Sequence[float]],
                 runs: Sequence[Mapping], requests: int) -> Dict[str, float]:
    """Per-request layer numbers from merged aggregates and run rows.

    ``_s`` values are seconds per request (self time unless the name is
    a whole-call total such as ``core.place_s.<policy>``); counts are
    per request.  Serve and trace values are filled in by the caller.
    """
    per = 1.0 / max(requests, 1)
    COUNT, TOTAL, SELF = 0, 1, 2
    gets = _get(merged, "perf.trace_cache_get", COUNT)
    generates = _get(merged, "workloads.trace_generate", COUNT)
    place_calls = sum(_get(merged, f"core.place.{p}", COUNT)
                      for p in POLICIES)
    place_total = sum(_get(merged, f"core.place.{p}", TOTAL)
                      for p in POLICIES)
    values = {
        "workloads.trace_generate_s":
            _get(merged, "workloads.trace_generate", TOTAL) * per,
        "perf.trace_cache_hit_ratio":
            (gets - generates) / gets if gets else 0.0,
        "perf.execute_spec_calls":
            _get(merged, "perf.execute_spec", COUNT) * per,
        "perf.runner_self_s": _get(merged, "perf.runner", SELF) * per,
        "perf.execute_spec_self_s":
            _get(merged, "perf.execute_spec", SELF) * per,
        "core.place_calls": place_calls * per,
        "core.place_us_per_call":
            place_total / place_calls * 1e6 if place_calls else 0.0,
        "core.deal_types_calls":
            _get(merged, "core.deal_types", COUNT) * per,
        "core.waterfill_quotas_calls":
            _get(merged, "core.waterfill_quotas", COUNT) * per,
        "thermal.air_step_s": _get(merged, "thermal.air_step", SELF) * per,
        "thermal.pcm_step_s": _get(merged, "thermal.pcm_step", SELF) * per,
        "thermal.estimator_s":
            (_get(merged, "thermal.estimator_update", SELF)
             + _get(merged, "thermal.estimator_correct", SELF)) * per,
        "cluster.run_self_s": sum(
            _get(merged, f"cluster.run.{p}", SELF) for p in POLICIES) * per,
        "cluster.metrics_record_s":
            _get(merged, "cluster.metrics_record", SELF) * per,
        "cluster.finish_s": _get(merged, "cluster.finish", SELF) * per,
        "kernel.planned_s": _get(merged, "kernel.planned", SELF) * per,
        "kernel.stepped_s": _get(merged, "kernel.stepped", SELF) * per,
        "analysis.sweep_self_s":
            _get(merged, "analysis.gv_sweep", SELF) * per,
        "obs.registry_snapshot_s":
            _get(merged, "obs.registry_snapshot", SELF) * per,
        "obs.tracer_s": sum(_get(merged, f"obs.tracer_{kind}", SELF)
                            for kind in ("span", "event", "flush")) * per,
        "obs.finish_s": _get(merged, "obs.telemetry_finish", SELF) * per,
    }
    for policy in POLICIES:
        values[f"core.place_s.{policy}"] = (
            _get(merged, f"core.place.{policy}", TOTAL) * per)
        values[f"cluster.run_s.{policy}"] = (
            _get(merged, f"cluster.run.{policy}", TOTAL) * per)
    for path in KERNEL_PATHS:
        values[f"kernel.runs.{path}"] = sum(
            1 for row in runs if row.get("kernel_path") == path) * per
    return values


def layered_self_s(merged: Mapping[str, Sequence[float]]) -> float:
    """Self time spent inside named layers (facade and root excluded)."""
    return sum(slot[2] for name, slot in merged.items()
               if not name.startswith(UNLAYERED))


def zero_serve_values() -> Dict[str, float]:
    """Serve-layer values for a workload that runs no server."""
    return {name: 0.0 for name, _ in PER_LAYER
            if name.startswith("serve.")}


def median_ms(durations_s: Sequence[float]) -> float:
    """Median of durations in seconds, as milliseconds (0 when empty)."""
    return median(durations_s) * 1000.0 if durations_s else 0.0
