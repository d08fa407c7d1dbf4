"""Engine-bypass stepped driver: the reference tick loop, hoisted.

The event engine earns its keep when events arrive at arbitrary times --
fault injection, telemetry flushes.  A plain simulation run is just one
periodic process, so the heap push/pop, ``Event`` construction, and
dispatch accounting per tick are pure overhead.  This driver hands
``ClusterSimulation._tick`` to :meth:`~repro.sim.engine.Engine.drive`,
which fires it at the same simulated times the
:class:`~repro.sim.process.PeriodicProcess` would have and keeps the
engine's clock and dispatch counter, so checkpoints, snapshots, and
post-run state are indistinguishable from a reference run.  The
arithmetic is the reference path itself, so bit-identity is by
construction for *every* policy, with checkpoints, sanitizer levels,
observers, and restored runs all supported.
"""

from __future__ import annotations

import time


def eligible(sim) -> bool:
    """Whether the run can bypass the event heap.

    Fault injectors and telemetry bundles schedule their own engine
    events, so those runs keep the reference engine loop.
    """
    return sim._injector is None and sim._telemetry is None


def run(sim):
    """Drive the simulation to completion without the event heap."""
    engine = sim._engine
    trace = sim._trace
    step_s = trace.step_seconds
    total = trace.num_steps
    if not sim._restored:
        sim._scheduler.reset()
    # The reference periodic process fires at start_at + k * step_s,
    # accumulating in float; reproduce the identical event times.
    start = (sim._step_index * step_s if sim._restored
             else engine.now)
    ticks = total - sim._step_index
    end = total * step_s - 1e-9
    prof = sim._profiler
    if prof is None:
        engine.drive(sim._tick, start, step_s, ticks, end)
    else:
        clock = time.perf_counter
        in_tick = 0.0

        def timed_tick(now: float) -> None:
            nonlocal in_tick
            mark = clock()
            sim._tick(now)
            in_tick += clock() - mark

        loop_start = clock()
        engine.drive(timed_tick, start, step_s, ticks, end)
        prof.add("dispatch", clock() - loop_start - in_tick)
    profile = prof.snapshot() if prof is not None else None
    return sim._metrics.finish(sim._config, sim._scheduler.name,
                               profile=profile)
