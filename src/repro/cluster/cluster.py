"""Vectorized cluster state: N servers as numpy rows.

This is the performance-critical core of the scale-out study.  All
per-server state -- core allocations, IT power, air temperature at the
wax, wax enthalpy -- lives in numpy arrays so a 1,000-server, two-day,
one-minute-resolution run (2,880 ticks) completes in well under a second
of numpy work per subsystem.

The physical pipeline per tick mirrors the paper's DCsim model:

1. the scheduler's allocation matrix determines per-server dynamic power;
2. the linear power model adds the idle floor and caps at peak;
3. the air node relaxes toward ``inlet + R_air * P`` (first-order lag);
4. the wax exchanges ``hA * (T_air - T_wax)`` with the air (enthalpy
   method, temperature pinned through the melt);
5. the cooling load for the tick is ``sum(P) - sum(q_wax)``;
6. the on-server estimator integrates its lookup table from *sensed*
   temperatures, once per minute, and reports to the scheduler.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..config import SimulationConfig
from ..errors import CapacityError, SimulationError
from ..sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.state import FaultState
    from ..perf.profiler import TickProfiler


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A zero-copy read-only view of ``arr``."""
    view = arr.view()
    view.flags.writeable = False
    return view
from ..server.power import LinearPowerModel
from ..server.sensors import TemperatureSensor
from ..thermal.inlet import draw_inlet_temperatures
from ..thermal.pcm import PCMBank
from ..thermal.server_thermal import ServerAirModel
from ..thermal.throttling import CPUThermalModel
from ..thermal.wax_estimator import WaxStateEstimator
from ..workloads.workload import WORKLOAD_LIST
from .state import ClusterView


class Cluster:
    """The vectorized physical cluster (no scheduling policy inside).

    ``fault_state`` (a :class:`~repro.faults.state.FaultState`) plugs the
    fault-injection subsystem into the physics: failed servers draw no
    power and accept no jobs, sensor faults corrupt the readings handed
    to the scheduler and the wax estimator, and a cooling derate warms
    every inlet.  Without one, every code path is identical to the
    fault-free build.
    """

    def __init__(self, config: SimulationConfig,
                 rng_streams: Optional[RngStreams] = None, *,
                 fault_state: Optional["FaultState"] = None,
                 profiler: Optional["TickProfiler"] = None) -> None:
        config.validate()
        self._config = config
        self._n = config.num_servers
        self._faults = fault_state
        self._profiler = profiler
        streams = rng_streams if rng_streams is not None \
            else RngStreams(config.seed)

        self._per_core_power = np.array(
            [w.per_core_power_w(config.server.cores_per_socket)
             for w in WORKLOAD_LIST])
        self._power_model = LinearPowerModel(config.server)

        inlet = draw_inlet_temperatures(config.thermal, self._n,
                                        streams.stream("inlet"))
        self._air = ServerAirModel(config.thermal, self._n, inlet)
        self._air.reset(config.server.idle_power_w)
        self._pcm = PCMBank(config.wax, self._n,
                            initial_temp_c=float(np.mean(inlet)))
        self._estimator = WaxStateEstimator(
            config.wax, config.thermal, self._n,
            sensor_noise_c=config.thermal.wax_sensor_noise_c,
            rng=streams.stream("wax-estimator"))
        self._sensor = TemperatureSensor(
            noise_stdev_c=config.thermal.air_sensor_noise_c,
            rng=streams.stream("temp-sensor"))

        self._cpu_model = CPUThermalModel()
        self._ambient = config.ambient if config.ambient.is_active else None
        self._power_w = np.full(self._n, config.server.idle_power_w)
        self._dynamic_w = np.zeros(self._n)
        self._last_q_wax = np.zeros(self._n)
        self._last_melt_fraction = self._pcm.melt_fraction
        self._time_s = 0.0

    # -- static facts -----------------------------------------------------

    @property
    def config(self) -> SimulationConfig:
        """The configuration this cluster was built from."""
        return self._config

    @property
    def num_servers(self) -> int:
        """Server count."""
        return self._n

    @property
    def cores_per_server(self) -> int:
        """Cores per server."""
        return self._config.server.cores

    @property
    def per_core_power_w(self) -> np.ndarray:
        """Per-core dynamic power of each workload (WORKLOAD_LIST order)."""
        return self._per_core_power.copy()

    # -- ground-truth state ------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulation time of the last completed step."""
        return self._time_s

    @property
    def power_w(self) -> np.ndarray:
        """Per-server IT power from the last step."""
        return self._power_w.copy()

    @property
    def air_temp_c(self) -> np.ndarray:
        """True per-server air temperature at the wax."""
        return self._air.temperature_c.copy()

    @property
    def wax_melt_fraction(self) -> np.ndarray:
        """True per-server wax melt fraction."""
        return self._pcm.melt_fraction

    @property
    def wax_absorption_w(self) -> np.ndarray:
        """Per-server heat flow into the wax from the last step."""
        return self._last_q_wax.copy()

    @property
    def inlet_temp_c(self) -> np.ndarray:
        """Per-server inlet temperatures (fixed for a run)."""
        return self._air.inlet_temp_c.copy()

    # -- zero-copy state views ----------------------------------------------
    #
    # The public properties above defensively copy so external callers
    # can never corrupt the physics.  The per-tick metrics path reads
    # four of those arrays every minute of simulated time; these views
    # expose the same values without allocation.  They are read-only and
    # only valid until the next :meth:`step`.

    @property
    def air_temp_c_view(self) -> np.ndarray:
        """Read-only view of the per-server air temperatures."""
        return _readonly(self._air.temperature_c)

    @property
    def power_w_view(self) -> np.ndarray:
        """Read-only view of the per-server IT power from the last step."""
        return _readonly(self._power_w)

    @property
    def wax_absorption_w_view(self) -> np.ndarray:
        """Read-only view of the last step's heat flow into the wax."""
        return _readonly(self._last_q_wax)

    @property
    def wax_melt_fraction_view(self) -> np.ndarray:
        """Read-only view of the melt fractions after the last step.

        Unlike :attr:`wax_melt_fraction` this does not recompute the
        enthalpy-to-fraction mapping: :meth:`step` already needs the
        fractions for estimator anchoring and caches them.
        """
        return _readonly(self._last_melt_fraction)

    @property
    def wax_enthalpy_j(self) -> np.ndarray:
        """Per-server total wax enthalpy (J) after the last step.

        The conserved quantity the :mod:`repro.checks` energy-balance
        invariant audits against :attr:`wax_absorption_w`.
        """
        return self._pcm.enthalpy_j

    @property
    def wax_latent_capacity_j(self) -> float:
        """Latent storage capacity per server (J)."""
        return self._pcm.latent_capacity_j

    @property
    def wax_estimate_view(self) -> np.ndarray:
        """Read-only view of the estimator's melt-fraction estimate."""
        return _readonly(self._estimator.estimate)

    @property
    def cpu_junction_temp_c(self) -> np.ndarray:
        """Hottest CPU junction per server, from the last step."""
        return self._cpu_model.junction_temp_c(
            self._air.inlet_temp_c, self._dynamic_w, self._config.server)

    @property
    def throttled_servers(self) -> np.ndarray:
        """Mask of servers whose CPUs would thermally throttle."""
        return self._cpu_model.throttled(
            self._air.inlet_temp_c, self._dynamic_w, self._config.server)

    # -- fault interface ----------------------------------------------------

    @property
    def fault_state(self) -> Optional["FaultState"]:
        """The attached fault state, or ``None`` on a fault-free build."""
        return self._faults

    @property
    def active_mask(self) -> np.ndarray:
        """Mask of servers currently alive (all-true without faults)."""
        if self._faults is None:
            return np.ones(self._n, dtype=bool)
        return self._faults.active.copy()

    # -- observability -----------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Publish cluster gauges and delegate to the thermal subsystems.

        Everything registered here is a callback-backed read of ground
        truth -- never the sensed path -- so sampling cannot consume RNG
        or perturb the physics.
        """
        registry.gauge("cluster.total_power_w",
                       lambda: float(self._power_w.sum()))
        registry.gauge("cluster.mean_air_temp_c",
                       lambda: float(self._air.temperature_c.mean()))
        registry.gauge("cluster.max_air_temp_c",
                       lambda: float(self._air.temperature_c.max()))
        registry.gauge("cluster.wax_absorption_w",
                       lambda: float(self._last_q_wax.sum()))
        self._pcm.register_metrics(registry)
        self._estimator.register_metrics(registry)

    # -- scheduler interface ----------------------------------------------

    def view(self) -> ClusterView:
        """Snapshot the *scheduler-visible* state (sensed, estimated)."""
        sensed = self._sensor.read(self._air.temperature_c)
        active = None
        if self._faults is not None:
            sensed = self._faults.corrupt_air(sensed, self._time_s)
            active = self._faults.active.copy()
        return ClusterView(
            time_s=self._time_s,
            num_servers=self._n,
            cores_per_server=self.cores_per_server,
            air_temp_c=sensed,
            wax_melt_estimate=self._estimator.estimate.copy(),
            melt_temp_c=self._pcm.melt_temp_c,
            active_mask=active,
        )

    # -- snapshot protocol ---------------------------------------------------

    def state_dict(self) -> Dict:
        """All mutable physical state, delegating to the thermal models.

        RNG positions are *not* here: the sensor and estimator draw from
        the shared :class:`RngStreams` registry, which the simulation
        snapshots in one place.  Fault state belongs to the injector.
        """
        return {
            "time_s": self._time_s,
            "power_w": self._power_w.copy(),
            "dynamic_w": self._dynamic_w.copy(),
            "last_q_wax": self._last_q_wax.copy(),
            "last_melt_fraction":
                np.asarray(self._last_melt_fraction).copy(),
            "air": self._air.state_dict(),
            "pcm": self._pcm.state_dict(),
            "estimator": self._estimator.state_dict(),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._time_s = float(state["time_s"])
        self._power_w = np.asarray(state["power_w"],
                                   dtype=np.float64).copy()
        self._dynamic_w = np.asarray(state["dynamic_w"],
                                     dtype=np.float64).copy()
        self._last_q_wax = np.asarray(state["last_q_wax"],
                                      dtype=np.float64).copy()
        self._last_melt_fraction = np.asarray(
            state["last_melt_fraction"], dtype=np.float64).copy()
        self._air.load_state_dict(state["air"])
        self._pcm.load_state_dict(state["pcm"])
        self._estimator.load_state_dict(state["estimator"])

    # -- dynamics -----------------------------------------------------------

    def _check_allocation(self, allocation: np.ndarray) -> np.ndarray:
        allocation = np.asarray(allocation)
        expected = (self._n, len(WORKLOAD_LIST))
        if allocation.shape != expected:
            raise SimulationError(
                f"allocation must be {expected}, got {allocation.shape}")
        if np.any(allocation < 0):
            raise SimulationError("allocation counts must be >= 0")
        per_server = allocation.sum(axis=1)
        if np.any(per_server > self.cores_per_server):
            worst = int(np.argmax(per_server))
            raise CapacityError(
                f"server {worst} allocated {int(per_server[worst])} cores "
                f"(capacity {self.cores_per_server})")
        return allocation

    def step(self, allocation: np.ndarray, dt_s: float) -> Dict[str, float]:
        """Advance the cluster one tick under a core allocation.

        Returns a summary dict with the tick's cluster totals:
        ``power_w`` (IT power), ``wax_absorption_w`` (heat into wax) and
        ``cooling_load_w`` (their difference).
        """
        if dt_s <= 0:
            raise SimulationError("dt must be positive")
        allocation = self._check_allocation(allocation)
        faults = self._faults
        if faults is not None:
            dead_load = ~faults.active & (allocation.sum(axis=1) > 0)
            if np.any(dead_load):
                raise SimulationError(
                    "allocation places jobs on failed server "
                    f"{int(np.flatnonzero(dead_load)[0])}")
        if faults is not None or self._ambient is not None:
            # One uniform offset feeds the air model: scripted weather
            # (ambient profile) plus any cooling-derate rise.  Both are
            # deterministic functions of clock/config, so this needs no
            # snapshot state beyond the air model's own offset field.
            offset = faults.inlet_offset_c if faults is not None else 0.0
            if self._ambient is not None:
                offset += self._ambient.offset_c_at(self._time_s)
            self._air.set_inlet_offset(offset)

        dynamic = allocation.astype(np.float64) @ self._per_core_power
        self._dynamic_w = dynamic
        self._power_w = self._power_model.server_power(dynamic)
        if faults is not None:
            # Dead servers draw nothing -- not even the idle floor.
            self._power_w = np.where(faults.active, self._power_w, 0.0)
            self._dynamic_w = np.where(faults.active, dynamic, 0.0)

        prof = self._profiler
        mark = time.perf_counter() if prof is not None else 0.0
        t_air = self._air.step(self._power_w, dt_s)
        if prof is not None:
            now = time.perf_counter()
            prof.add("air_model", now - mark)
            mark = now
        self._last_q_wax = self._pcm.step(
            t_air, self._config.thermal.ha_w_per_k, dt_s)
        if prof is not None:
            now = time.perf_counter()
            prof.add("pcm", now - mark)
            mark = now
        estimator_input = t_air
        if faults is not None:
            # The container-exterior sensor is what the estimator reads;
            # its faults corrupt the estimate, not the physics.
            estimator_input = faults.corrupt_wax(t_air, self._time_s)
        self._estimator.update(estimator_input, dt_s)
        # Re-anchor the estimate at the unambiguous sensor events: the
        # container-exterior sensor pins full-solid / full-liquid states.
        # A faulted wax sensor cannot signal those events, so its servers
        # are excluded from anchoring.
        truth = self._pcm.melt_fraction
        anchored = (truth <= 0.0) | (truth >= 1.0)
        if faults is not None:
            anchored = anchored & ~faults.wax_sensor_faulty
        if np.any(anchored):
            self._estimator.correct(truth, mask=anchored)
        if prof is not None:
            prof.add("estimator", time.perf_counter() - mark)
        self._last_melt_fraction = truth
        self._time_s += dt_s

        total_power = float(self._power_w.sum())
        total_absorbed = float(self._last_q_wax.sum())
        return {
            "power_w": total_power,
            "wax_absorption_w": total_absorbed,
            "cooling_load_w": total_power - total_absorbed,
        }
