"""Backend equivalence: ``backend="fast"`` is bit-identical, and engages.

The fast tick engine's contract is exact: same RNG stream consumption,
same IEEE-754 operation order per element, same recorded series as the
reference event-engine loop.  ``SimulationResult.fingerprint()`` (the
golden-trace hash) is the oracle throughout, so any single-bit drift in
any recorded series fails these tests.

The suite also pins *dispatch*: clean VMT-TA runs must take the planned
whole-run kernel, other clean runs the stepped driver, and fault/
telemetry runs must fall back to the reference engine -- otherwise a
silently-ineligible fast path would pass equivalence while delivering
no speedup.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.analysis.sweep import gv_sweep
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.config import (CoolingFaultSpec, FaultConfig, SensorFaultSpec,
                          ServerFaultSpec, TraceConfig,
                          paper_cluster_config)
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.kernel import resolve_backend
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.state.checkpoint import (latest_checkpoint, restore_simulation,
                                    verify_roundtrip)

NUM_SERVERS = 24
HOURS = 6.0
SEED = 7

#: A mid-trace mix exercising displacement, repair, derating, and a
#: stuck wax sensor -- enough to perturb every scheduler's decisions.
FAULTS = FaultConfig(
    enabled=True,
    server_faults=(ServerFaultSpec(time_s=3600.0, server_id=3,
                                   repair_after_s=7200.0),),
    cooling_faults=(CoolingFaultSpec(time_s=2 * 3600.0,
                                     capacity_factor=0.7,
                                     restore_after_s=3600.0),),
    sensor_faults=(SensorFaultSpec(time_s=3600.0, server_id=5,
                                   sensor="wax", mode="stuck"),),
)


def small_config(faults: bool = False):
    config = paper_cluster_config(num_servers=NUM_SERVERS, seed=SEED)
    config = config.replace(trace=TraceConfig(duration_hours=HOURS))
    if faults:
        config = dataclasses.replace(config, faults=FAULTS)
    return config


def run_backend(config, policy: str, backend: str):
    """One run; returns (result, simulation) so tests can read state."""
    sim = ClusterSimulation(config, make_scheduler(policy, config),
                            record_heatmaps=False, backend=backend)
    return sim.run(), sim


def assert_state_trees_equal(expected, got, path="state"):
    """Bit-exact recursive comparison of two snapshot state trees."""
    if isinstance(expected, np.ndarray):
        got = np.asarray(got)
        assert expected.dtype == got.dtype, path
        equal_nan = np.issubdtype(expected.dtype, np.floating)
        assert np.array_equal(expected, got, equal_nan=equal_nan), path
    elif isinstance(expected, dict):
        assert set(expected) == set(got), path
        for key in expected:
            assert_state_trees_equal(expected[key], got[key],
                                     f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(expected) == len(got), path
        for i, (a, b) in enumerate(zip(expected, got)):
            assert_state_trees_equal(a, b, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert expected == got or (np.isnan(expected)
                                   and np.isnan(got)), path
    else:
        assert expected == got, path


class TestBitIdentity:
    @pytest.mark.parametrize("faults", (False, True),
                             ids=("clean", "faults"))
    @pytest.mark.parametrize("policy", SCHEDULER_NAMES)
    def test_fast_matches_reference(self, policy, faults):
        config = small_config(faults)
        ref, _ = run_backend(config, policy, "reference")
        fast, _ = run_backend(config, policy, "fast")
        assert ref.fingerprint() == fast.fingerprint()

    @pytest.mark.parametrize("name", ("heat-wave", "sensor-fault-storm"))
    def test_library_scenarios_match(self, name):
        spec = get_scenario(name).with_overrides(
            num_servers=NUM_SERVERS, duration_hours=HOURS, seed=SEED)
        config = spec.compile()
        ref, _ = run_backend(config, "vmt-wa", "reference")
        fast, _ = run_backend(config, "vmt-wa", "fast")
        assert ref.fingerprint() == fast.fingerprint()

    def test_post_run_state_parity(self):
        """Beyond the recorded series: the live simulation state (wax
        enthalpy, air temps, estimator, RNG positions) must also agree,
        or a later resume from the fast run would diverge."""
        config = small_config()
        _, ref_sim = run_backend(config, "vmt-ta", "reference")
        _, fast_sim = run_backend(config, "vmt-ta", "fast")
        assert ref_sim.kernel_path == "reference"
        assert fast_sim.kernel_path == "planned"
        ref_snap = ref_sim.snapshot()
        fast_snap = fast_sim.snapshot()
        assert ref_snap.tick == fast_snap.tick
        assert_state_trees_equal(ref_snap.state, fast_snap.state)


class TestPlannedKernelBranches:
    """VMT-TA runs that reach the wax model's rarer branches."""

    @staticmethod
    def branch_config(**thermal):
        config = small_config().replace(
            trace=TraceConfig(duration_hours=12.0))
        return dataclasses.replace(
            config, thermal=dataclasses.replace(config.thermal, **thermal))

    def assert_planned_matches_reference(self, config):
        ref, _ = run_backend(config, "vmt-ta", "reference")
        fast, sim = run_backend(config, "vmt-ta", "fast")
        assert sim.kernel_path == "planned"
        assert ref.fingerprint() == fast.fingerprint()
        return sim

    @pytest.mark.parametrize("wax_kg, n_sub", ((0.3, 6), (0.01, 160)))
    def test_substepped_wax(self, wax_kg, n_sub):
        config = self.branch_config()
        config = dataclasses.replace(config, wax=dataclasses.replace(
            config.wax, volume_liters=wax_kg / 0.88))
        tau_s = (config.wax.mass_kg
                 * config.wax.specific_heat_solid_j_per_kg_k
                 / config.thermal.ha_w_per_k)
        assert math.ceil(60.0 / (0.25 * tau_s)) == n_sub
        self.assert_planned_matches_reference(config)

    def test_fully_molten_wax(self):
        sim = self.assert_planned_matches_reference(
            self.branch_config(inlet_temp_c=35.0))
        wax = sim.cluster.config.wax
        h_liquidus = (wax.specific_heat_solid_j_per_kg_k * wax.melt_temp_c
                      + wax.latent_heat_j_per_kg)
        assert sim.cluster.wax_enthalpy_j.max() > h_liquidus * wax.mass_kg


class TestDispatch:
    def test_clean_vmt_ta_takes_the_planned_kernel(self):
        _, sim = run_backend(small_config(), "vmt-ta", "fast")
        assert sim.kernel_path == "planned"

    @pytest.mark.parametrize("policy", ("round-robin", "coolest-first",
                                        "vmt-preserve", "vmt-wa"))
    def test_other_clean_policies_take_the_stepped_driver(self, policy):
        _, sim = run_backend(small_config(), policy, "fast")
        assert sim.kernel_path == "stepped"

    def test_fault_runs_fall_back_to_the_engine(self):
        _, sim = run_backend(small_config(faults=True), "vmt-ta", "fast")
        assert sim.kernel_path == "reference"

    def test_reference_backend_never_dispatches_kernels(self):
        _, sim = run_backend(small_config(), "vmt-ta", "reference")
        assert sim.kernel_path == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("vectorized")

    def test_env_variable_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend(None) == "fast"
        assert resolve_backend("reference") == "reference"


class TestCheckpointRoundtrip:
    def test_roundtrip_through_the_fast_backend(self, tmp_path):
        """Checkpoint mid-run under the fast backend, resume under the
        fast backend, and compare against a straight reference run --
        the PR 5 oracle, now crossing both engines."""
        config = small_config()
        straight = run_simulation(config,
                                  make_scheduler("vmt-ta", config),
                                  record_heatmaps=False,
                                  backend="reference")
        partial = ClusterSimulation(config,
                                    make_scheduler("vmt-ta", config),
                                    record_heatmaps=False, backend="fast",
                                    checkpoint_every=100,
                                    checkpoint_dir=str(tmp_path))
        partial.run()
        path = latest_checkpoint(str(tmp_path))
        assert path is not None
        resumed_sim = restore_simulation(path, backend="fast")
        resumed = resumed_sim.run()
        verify_roundtrip(straight, resumed)

    def test_cross_backend_checkpoint_resume(self, tmp_path):
        """A run checkpointed under reference resumes bit-identically
        under fast (and the restored run engages a kernel)."""
        config = small_config()
        straight = run_simulation(config,
                                  make_scheduler("vmt-ta", config),
                                  record_heatmaps=False,
                                  backend="fast")
        ClusterSimulation(config, make_scheduler("vmt-ta", config),
                          record_heatmaps=False, backend="reference",
                          checkpoint_every=150,
                          checkpoint_dir=str(tmp_path)).run()
        resumed_sim = restore_simulation(
            latest_checkpoint(str(tmp_path)), backend="fast")
        resumed = resumed_sim.run()
        assert resumed_sim.kernel_path == "stepped"
        verify_roundtrip(straight, resumed)


class TestParallelModes:
    def test_thread_mode_fast_sweep_matches_serial_reference(self):
        gvs = (18.0, 22.0)
        serial = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                          max_workers=1, backend="reference")
        threaded = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                            max_workers=2, workers_mode="thread",
                            backend="fast")
        for policy in serial.reductions:
            assert (serial.reductions[policy] ==
                    threaded.reductions[policy]).all()
