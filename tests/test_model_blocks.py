"""Block methods vs one-tick calls: the thermal physics has one spelling.

Each thermal model advances a whole ``(T, n)`` block of ticks in one
``advance`` call (the planned kernel's spelling), and its one-tick
``step``/``update`` methods (the reference tick loop's spelling) are
that same method with ``T = 1``.  These properties pin the two together
bit for bit on random blocks -- including the estimator's noise
generator, which must end in the same state -- and check that a model
keeps its own state rather than a view into the block it returned.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ThermalConfig, WaxConfig
from repro.thermal.pcm import PCMBank
from repro.thermal.server_thermal import ServerAirModel
from repro.thermal.wax_estimator import WaxStateEstimator

THERMAL = ThermalConfig()

#: Wax masses (kg) reaching one sub-step (the paper's 3.52 kg), 6 and
#: 160 sub-steps per minute, and the no-wax branch.
WAX_KG = (3.52, 0.3, 0.01, 0.0)

blocks = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "ticks": st.integers(min_value=1, max_value=24),
    "servers": st.integers(min_value=1, max_value=7),
    "dt": st.sampled_from((60.0, 15.0, 600.0)),
})


def wax_of(mass_kg: float) -> WaxConfig:
    return WaxConfig(volume_liters=mass_kg / 0.88)


@given(blocks)
@settings(max_examples=40, deadline=None)
def test_air_block_equals_steps(case):
    rng = np.random.default_rng(case["seed"])
    n, ticks = case["servers"], case["ticks"]
    inlet = rng.uniform(15.0, 30.0, n)
    power = rng.uniform(0.0, 400.0, (ticks, n))
    block_model = ServerAirModel(THERMAL, n, inlet)
    step_model = ServerAirModel(THERMAL, n, inlet)
    temps = block_model.advance(power, case["dt"])
    for t in range(ticks):
        assert np.array_equal(step_model.step(power[t], case["dt"]),
                              temps[t])
    assert np.array_equal(block_model.temperature_c,
                          step_model.temperature_c)
    assert not np.shares_memory(block_model.temperature_c, temps)


@given(blocks, st.sampled_from(WAX_KG),
       st.floats(min_value=15.0, max_value=45.0))
@settings(max_examples=60, deadline=None)
def test_pcm_block_equals_steps(case, mass_kg, initial_c):
    rng = np.random.default_rng(case["seed"])
    n, ticks = case["servers"], case["ticks"]
    # Air from well below the solidus to well above the liquidus, so
    # solid, melting and fully molten wax all occur.
    t_air = rng.uniform(15.0, 70.0, (ticks, n))
    wax = wax_of(mass_kg)
    block_bank = PCMBank(wax, n, initial_temp_c=initial_c)
    step_bank = PCMBank(wax, n, initial_temp_c=initial_c)
    heat, melt = block_bank.advance(t_air, THERMAL.ha_w_per_k, case["dt"])
    for t in range(ticks):
        q = step_bank.step(t_air[t], THERMAL.ha_w_per_k, case["dt"])
        assert np.array_equal(q, heat[t])
        assert np.array_equal(step_bank.melt_fraction, melt[t])
    assert np.array_equal(
        block_bank.state_dict()["specific_enthalpy_j_per_kg"],
        step_bank.state_dict()["specific_enthalpy_j_per_kg"])


@given(blocks, st.sampled_from((0.2, 0.0)))
@settings(max_examples=60, deadline=None)
def test_estimator_block_equals_update_and_correct(case, noise_c):
    rng = np.random.default_rng(case["seed"])
    n, ticks, dt = case["servers"], case["ticks"], case["dt"]
    wax = WaxConfig()
    t_air = rng.uniform(25.0, 50.0, (ticks, n))
    # Truth past both ends of [0, 1] exercises the anchor's clip.
    truth = rng.choice([-0.1, 0.0, 0.4, 1.0, 1.2], (ticks, n))
    anchored = rng.random((ticks, n)) < 0.3
    block_rng = np.random.default_rng(case["seed"])
    step_rng = np.random.default_rng(case["seed"])
    block_est = WaxStateEstimator(wax, THERMAL, n, sensor_noise_c=noise_c,
                                  rng=block_rng)
    step_est = WaxStateEstimator(wax, THERMAL, n, sensor_noise_c=noise_c,
                                 rng=step_rng)
    estimates = block_est.advance(t_air, dt, truth, anchored)
    for t in range(ticks):
        step_est.update(t_air[t], dt)
        if anchored[t].any():
            step_est.correct(truth[t], mask=anchored[t])
        assert np.array_equal(step_est.estimate, estimates[t])
    assert np.array_equal(block_est.estimate, step_est.estimate)
    assert not np.shares_memory(block_est.estimate, estimates)
    assert block_rng.bit_generator.state == step_rng.bit_generator.state
