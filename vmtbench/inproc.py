"""The in-process workloads: ``policy-run`` and ``gv-sweep``.

Both are closed loops with one caller in this process.  Request ``i``
uses seed ``seed + i``; every request of a workload has the same
composition, so each costs the same and a run that ends after a
different number of requests cannot shift the medians.  Before each
request, off the clock, the process-wide trace cache is emptied and the
garbage collector run, so every request starts from the same state and
memory does not grow with run length.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from typing import Callable, Dict, List

from . import env, layers, tracing
from .checks import Tally, require
from .stats import median, percentile, ratio_of_sums

GRID = tuple(float(gv) for gv in range(10, 33, 2))
PAPER_GV = 22.0
PAPER_SEED = 7
PAPER_REDUCTION_PCT = 12.8
#: Share of a traced request's wall time the layers' self times must
#: cover; the rest is the ``repro.api`` facade and the harness.
MIN_ATTRIBUTED = 0.95

CHECKS = {
    "policy-run": (
        "seed-7 comparison matches the golden fingerprints of all 5 "
        "policies",
        "every request runs 5 reference-engine simulations of 2880 ticks "
        "with finite reductions",
    ),
    "gv-sweep": (
        "seed-7 GV-22 point equals the VMT-TA reduction of a seed-7 "
        "reference comparison",
        "GV-22 point and baseline re-run on the reference backend give "
        "the fast runs' fingerprints, which equal the goldens",
        "every request runs 13 simulations on the planned or stepped "
        "kernel with 12 finite reductions",
    ),
    "traced": (
        "traced requests keep the untraced fingerprints and kernel_path",
        "the layers' self times cover at least 95% of each traced "
        "request's wall time",
    ),
}


class InProcess:
    """One in-process workload: its request, checks and gate."""

    def __init__(self, name: str) -> None:
        from repro import api
        from repro.checks.golden import load_manifest
        from repro.core.policies import SCHEDULER_NAMES
        from repro.perf.cache import clear_shared_cache
        self.name = name
        self.api = api
        self.policies = tuple(SCHEDULER_NAMES)
        self.goldens = load_manifest()["fingerprints"]
        self._clear_cache = clear_shared_cache
        self.recorder = tracing.Recorder()
        self.probe_undo = tracing.install_run_probe(self.recorder)
        self.tally = Tally()
        self.tally.checks.extend(CHECKS[name])

    # -- requests ----------------------------------------------------------

    def request(self, seed: int):
        """The workload's request: one comparison or one sweep."""
        if self.name == "policy-run":
            return self.api.compare(policies=self.policies, seed=seed)
        return self.api.sweep(grouping_values=GRID, policies=("vmt-ta",),
                              backend="fast", max_workers=1, seed=seed)

    def timed(self, req_id, seed: int, traced: bool = False):
        """Run one request on the clock; returns (result, seconds, runs)."""
        self._clear_cache()
        gc.collect()
        self.recorder.request = req_id
        call = self.request
        if traced:
            def call(s):
                return self.recorder.call("request", self.request, s)
        start = time.perf_counter()
        result = call(seed)
        elapsed = time.perf_counter() - start
        self.recorder.request = None
        runs = [row for row in self.recorder.runs if row["req"] == req_id]
        return result, elapsed, runs

    def check_request(self, result, runs: List[dict]) -> None:
        """Checks every timed request must pass."""
        if self.name == "policy-run":
            require(len(runs) == len(self.policies),
                    f"{len(runs)} runs, expected {len(self.policies)}")
            require(all(row["kernel_path"] == "reference" for row in runs),
                    "policy-run left the reference engine")
            for policy in self.policies:
                ticks = len(result[policy].times_s)
                require(ticks == 2880, f"{policy} recorded {ticks} ticks")
                require(math.isfinite(result.peak_reduction(policy)),
                        f"{policy} reduction is not finite")
        else:
            series = result.reductions["vmt-ta"]
            require(len(runs) == len(GRID) + 1,
                    f"{len(runs)} runs, expected {len(GRID) + 1}")
            require(all(row["kernel_path"] in ("planned", "stepped")
                        for row in runs),
                    "a fast-backend sweep point fell back to the "
                    "reference engine")
            require(len(series) == len(GRID)
                    and all(math.isfinite(v) for v in series),
                    "sweep reductions are missing or not finite")

    # -- the seed-7 gate ---------------------------------------------------

    def gate(self) -> float:
        """Seed-7 correctness gate, off the clock; returns paper_error_pp."""
        result, _, runs = self.timed("gate", PAPER_SEED)
        self.check_request(result, runs)
        if self.name == "policy-run":
            for policy in self.policies:
                got = result[policy].fingerprint()
                require(got == self.goldens[policy],
                        f"{policy} fingerprint {got} != golden "
                        f"{self.goldens[policy]}")
            reduction = result.peak_reduction("vmt-ta")
        else:
            point = GRID.index(PAPER_GV)
            reduction = float(result.reductions["vmt-ta"][point])
            reference = self.api.compare(
                policies=("vmt-ta", "round-robin"), seed=PAPER_SEED,
                backend="reference")
            expected = reference.peak_reduction("vmt-ta")
            require(reduction == expected,
                    f"GV-22 sweep point {reduction!r} != policy-run "
                    f"reduction {expected!r}")
            fast_point = runs[1 + point]
            for policy, fast_fp in (("vmt-ta", fast_point["fingerprint"]),
                                    ("round-robin",
                                     runs[0]["fingerprint"])):
                ref_fp = reference[policy].fingerprint()
                require(fast_fp == ref_fp == self.goldens[policy],
                        f"{policy}: fast {fast_fp}, reference {ref_fp}, "
                        f"golden {self.goldens[policy]}")
        return abs(reduction * 100.0 - PAPER_REDUCTION_PCT)


def _loop(seconds: float, body: Callable[[int], None], fit: bool) -> None:
    """Call ``body(i)`` in a closed loop for ``seconds``.

    With ``fit`` a new iteration starts only if one as long as the last
    would still end in time (the long traced pairs); otherwise
    iterations start until the time is up.  At least one always runs.
    """
    clock = time.perf_counter
    start = clock()
    done = 0
    last = 0.0
    while True:
        elapsed = clock() - start
        if done and (elapsed >= seconds
                     or (fit and elapsed + last > seconds)):
            return
        began = clock()
        body(done)
        last = clock() - began
        done += 1


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_s: float) -> dict:
    """Run an in-process workload; returns the result dict for run.py."""
    bench = InProcess(workload)
    tally = bench.tally
    attempt = tally.attempt
    if trace:
        tally.checks.extend(CHECKS["traced"])
    paper_error = attempt(bench.gate)
    latencies: List[float] = []
    ticks: List[int] = []
    # Per request: the median and p90 of its cache-hit runs and the time
    # of its one fresh run.  Every request holds the same runs, so these
    # never straddle two policies the way a median over pooled runs can.
    hit_p50: List[float] = []
    hit_p90: List[float] = []
    hit_runs: List[int] = []
    fresh_s: List[float] = []
    traced_ids: List[str] = []
    untraced_wall: List[float] = []
    traced_wall: List[float] = []

    def untraced(i: int) -> None:
        result, elapsed, runs = bench.timed(f"r{i}", seed + i)
        bench.check_request(result, runs)
        latencies.append(elapsed)
        ticks.append(sum(row["server_ticks"] for row in runs))
        hits = [row["spec_s"] for row in runs if not row["trace_miss"]]
        hit_runs.append(len(hits))
        hit_p50.append(median(hits))
        hit_p90.append(percentile(hits, 90))
        fresh_s.extend(row["spec_s"] for row in runs if row["trace_miss"])

    def pair(i: int) -> None:
        _, plain_s, plain = bench.timed(f"u{i}", seed + i)
        undo = tracing.install(bench.recorder)
        try:
            result, traced_s, runs = bench.timed(f"t{i}", seed + i,
                                                 traced=True)
        finally:
            undo()
        bench.check_request(result, runs)
        key = [(r["policy"], r["kernel_path"], r["fingerprint"])
               for r in plain]
        require(key == [(r["policy"], r["kernel_path"], r["fingerprint"])
                        for r in runs],
                "traced run changed a fingerprint or kernel_path")
        covered = layers.layered_self_s(bench.recorder.for_request(f"t{i}"))
        require(covered >= MIN_ATTRIBUTED * traced_s,
                f"layers cover {covered:.3f} s of a {traced_s:.3f} s "
                f"traced request")
        traced_ids.append(f"t{i}")
        untraced_wall.append(plain_s)
        traced_wall.append(traced_s)

    body = pair if trace else untraced
    _loop(seconds, lambda i: attempt(lambda: body(i)), fit=trace)
    bench.probe_undo()

    out: Dict[str, object] = tally.summary()
    if trace:
        out["per_layer"] = _per_layer(bench.recorder, traced_ids,
                                      untraced_wall, traced_wall)
        trace_file = os.path.join(env.OUT,
                                  f"trace-{workload}-seed{seed}.jsonl")
        bench.recorder.dump(trace_file)
        out["samples"] = {"traced_requests": len(traced_ids),
                          "trace_file": trace_file}
        return out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup_s,
        "server_ticks_per_s": ratio_of_sums(ticks, latencies)
        if latencies else None,
        "call_p50_ms": median(latencies) * 1000 if latencies else None,
        "hit_p50_ms": median(hit_p50) * 1000 if hit_p50 else None,
        "hit_p90_ms": median(hit_p90) * 1000 if hit_p90 else None,
        "fresh_p50_ms": median(fresh_s) * 1000 if fresh_s else None,
        "requests_per_s": ratio_of_sums([1] * len(latencies), latencies)
        if latencies else None,
        "peak_rss_mb": peak_rss_mb,
        "paper_error_pp": paper_error,
        "completed_frac": tally.completed_frac,
    }
    out["metrics"] = metrics
    out["samples"] = {"call_p50_ms": latencies, "hit_p50_ms": hit_p50,
                      "hit_p90_ms": hit_p90, "fresh_p50_ms": fresh_s,
                      "server_ticks_per_s": latencies,
                      "requests_per_s": latencies}
    if hit_runs:
        per = (f"median over {len(hit_runs)} requests of each request's "
               f"{{}} of its {hit_runs[0]} cache-hit runs")
        out["notes"] = {"hit_p50_ms": per.format("median"),
                        "hit_p90_ms": per.format("p90")}
    return out


def _per_layer(recorder: tracing.Recorder, traced_ids: List[str],
               untraced_wall: List[float], traced_wall: List[float]
               ) -> Dict[str, float]:
    merged = layers.merge(recorder.for_request(req) for req in traced_ids)
    runs = [row for row in recorder.runs if row["req"] in traced_ids]
    values = layers.layer_values(merged, runs, len(traced_ids))
    values.update(layers.zero_serve_values())
    if traced_wall:
        wall = sum(traced_wall)
        values["trace.overhead_frac"] = wall / sum(untraced_wall) - 1.0
        values["trace.attributed_frac"] = layers.layered_self_s(merged) / wall
    return values
