"""Benchmark entry point: one workload per process.

    python3 vmtbench/run.py --workload policy-run --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``policy-run``, ``gv-sweep``, ``serve-mixed`` (see
``vmtbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` is the separate traced run that reports
the per-layer metrics.  The report lines name every metric with its
unit, its sample count and the outcome of every check; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 when the checkout cannot be benchmarked
(nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from vmtbench import env  # noqa: E402 -- pins the environment first

WORKLOADS = ("policy-run", "gv-sweep", "serve-mixed")
#: Cold spawns per run behind the median ``setup_s``.
SETUP_SPAWNS = 5


def cold_start_s() -> float:
    """Median time from spawning an interpreter to ``ready``."""
    from vmtbench.stats import median
    script = os.path.join(env.ROOT, "vmtbench", "cold_start.py")
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.Popen(env.python_cmd(script), env=env.child_env(),
                                cwd=env.ROOT, stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
            raise env.CheckoutError("cold start probe failed")
        times.append(elapsed)
    return median(times)


def _sample_note(name: str, raw) -> str:
    """``(n=…)`` for a metric, with its tail for a latency."""
    from vmtbench.stats import (TAIL_MIN_BEYOND, samples_beyond,
                                tail_percentile)
    if isinstance(raw, int):
        return f"  (at request {raw})"
    if not isinstance(raw, list):
        return ""
    note = f"  (n={len(raw)}"
    if name == "hit_p90_ms" and raw:
        note += f", {samples_beyond(len(raw), 90)} beyond the p90"
    elif name.endswith("_ms") and raw:
        tail = tail_percentile(raw)
        note += (f", tail p{tail[0]:.1f} = {tail[1] * 1000:.6g} ms"
                 if tail else
                 f", too few for a tail with {TAIL_MIN_BEYOND} beyond")
    return note + ")"


def _report(workload: str, out: dict, trace: bool) -> dict:
    """Print the human-readable report; return the final metrics map."""
    from vmtbench import layers
    table = layers.PER_LAYER if trace else layers.END_TO_END
    values = out["per_layer"] if trace else out["metrics"]
    samples = out.get("samples", {})
    metrics = {}
    print(f"workload {workload} ({'traced' if trace else 'untraced'})")
    for name, unit in table:
        value = values.get(name)
        if value is None:
            value = 0.0
            out["failed"] = max(out["failed"], 1)
            out["errors"].append(f"metric {name} has no samples")
        metrics[name] = {"value": value, "unit": unit}
        note = out.get("notes", {}).get(name)
        note = (f"  ({note})" if note
                else _sample_note(name, samples.get(name)))
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    verdict = "FAILED, see errors" if out["failed"] else "passed"
    for check in out["checks"]:
        print(f"  check: {check}")
    print(f"  checks {verdict}: {out['attempted'] - out['failed']} of "
          f"{out['attempted']} requests completed and passed")
    for error in out["errors"]:
        print(f"  error: {error}")
    if "trace_file" in samples:
        print(f"  spans written to {samples['trace_file']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # Unwind on SIGTERM too, so server subprocesses are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        env.import_repro()
    except env.CheckoutError as exc:
        print(f"vmtbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(env.OUT, exist_ok=True)
    if args.workload == "serve-mixed":
        from vmtbench import serve_mixed
        out = serve_mixed.run(args.seed, args.seconds, trace,
                              1 if trace else SETUP_SPAWNS)
    else:
        from vmtbench import inproc
        setup_s = None if trace else cold_start_s()
        out = inproc.run(args.workload, args.seed, args.seconds, trace,
                         setup_s)
    metrics = _report(args.workload, out, trace)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "samples": {name: len(raw) if isinstance(raw, list) else raw
                          for name, raw in out.get("samples", {}).items()},
              "checks": out["checks"],
              "errors": out["errors"], "provenance": env.provenance()}
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
