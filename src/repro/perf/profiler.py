"""Per-subsystem wall-clock profiling of the simulation tick.

A :class:`TickProfiler` is a passive accumulator: the simulation loop
(and the cluster physics) call :meth:`TickProfiler.add` with the elapsed
wall-clock time of each subsystem section when a profiler is attached,
and skip a single ``is not None`` check per section when one is not.
Profiling therefore never changes simulated behavior -- it only observes
-- and with the profiler detached the hot path pays (almost) nothing.

The timed sections, in tick order:

``placement``
    The scheduler's :meth:`~repro.core.scheduler.Scheduler.place` call,
    including demand validation and conservation checks.
``air_model``
    The first-order air-node update (:class:`~repro.thermal.server_thermal.ServerAirModel.step`).
``pcm``
    The wax enthalpy integration (:class:`~repro.thermal.pcm.PCMBank.step`).
``estimator``
    The on-server wax-state estimator update and its anchoring
    corrections.
``metrics``
    Recording the tick's series into the
    :class:`~repro.cluster.metrics.MetricsCollector`.
``checks``
    The invariant sanitizer's per-tick audits
    (:class:`~repro.checks.sanitizer.SimulationSanitizer`), present only
    when a run enables ``checks="cheap"`` or ``"full"``.

Fast-backend runs (``backend="fast"``) report kernel-stage sections
instead of (or alongside) the per-tick ones:

``kernel_plan``
    The planned kernel's placement replay: per-tick dealing and the
    allocation -> dynamic-power matmul.
``kernel_fused_step``
    The physics: the power model and one block call per thermal model
    (air, PCM, estimator) over the whole run.
``kernel_metrics_write``
    Computing the recorded series as whole columns and block-writing
    them into the :class:`~repro.cluster.metrics.MetricsCollector`.
``dispatch``
    Driver overhead outside the kernels proper: eligibility checks,
    buffer setup, and the last-tick readings (planned), or the tick-loop
    bookkeeping of ``Engine.drive`` (stepped).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

#: Sections the reference per-tick loop reports ("checks" only when a
#: sanitizer is attached).
REFERENCE_SECTIONS: Tuple[str, ...] = (
    "placement", "air_model", "pcm", "estimator", "metrics", "checks")

#: Sections the fast-backend kernels report instead.
KERNEL_SECTIONS: Tuple[str, ...] = (
    "kernel_plan", "kernel_fused_step", "kernel_metrics_write",
    "dispatch")

#: Canonical section names in tick order (for stable report layout).
SECTIONS: Tuple[str, ...] = REFERENCE_SECTIONS + KERNEL_SECTIONS


@dataclass(frozen=True)
class SubsystemTiming:
    """Aggregate timing of one tick subsystem."""

    name: str
    calls: int
    total_s: float

    @property
    def mean_us(self) -> float:
        """Mean wall-clock time per call, in microseconds."""
        if self.calls == 0:
            return 0.0
        return self.total_s / self.calls * 1e6

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (picklable, JSON-friendly)."""
        return {"calls": self.calls, "total_s": self.total_s}


class TickProfiler:
    """Accumulates per-subsystem timings across a run.

    The profiler is deliberately minimal: callers time their own
    sections with :func:`time.perf_counter` and report the elapsed
    seconds via :meth:`add`, so the instrumented code controls exactly
    what each section covers and the profiler adds no call-stack
    overhead of its own.
    """

    __slots__ = ("_totals", "_counts", "_ticks")

    #: Re-exported so instrumented code can grab the clock without an
    #: extra import (`profiler.clock()` inside the hot loop).
    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._ticks = 0

    def add(self, section: str, elapsed_s: float) -> None:
        """Accumulate ``elapsed_s`` seconds against ``section``."""
        self._totals[section] = self._totals.get(section, 0.0) + elapsed_s
        self._counts[section] = self._counts.get(section, 0) + 1

    def count_tick(self) -> None:
        """Count one completed simulation tick."""
        self._ticks += 1

    def count_ticks(self, n: int) -> None:
        """Count ``n`` completed ticks at once (batched kernels)."""
        self._ticks += int(n)

    @property
    def ticks(self) -> int:
        """Completed ticks observed so far."""
        return self._ticks

    def timings(self) -> Dict[str, SubsystemTiming]:
        """Aggregate timings, canonical sections first."""
        ordered = [name for name in SECTIONS if name in self._totals]
        ordered += sorted(set(self._totals) - set(SECTIONS))
        return {name: SubsystemTiming(name=name,
                                      calls=self._counts[name],
                                      total_s=self._totals[name])
                for name in ordered}

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict timings for embedding in a result (picklable)."""
        return {name: timing.to_dict()
                for name, timing in self.timings().items()}

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self._totals.clear()
        self._counts.clear()
        self._ticks = 0
