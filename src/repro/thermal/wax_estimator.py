"""Sensor-driven lookup-table estimator of the wax melt state.

VMT-WA needs to know how melted each server's wax is, but production
servers cannot see inside the wax containers.  The paper (Section III-B,
'Tracking Wax State', and ref. [24]) runs a lightweight per-server model:
a container-exterior temperature sensor detects when the wax is in
transition, and a lookup table maps the sensed air temperature (and CPU
power) to a melt/freeze rate that is integrated once per minute.

This module reproduces that estimator.  The lookup table is precomputed
from the same physics as the ground-truth model (``hA * dT / E_latent``)
but quantized into coarse temperature bins and fed *noisy* sensor
readings, so the estimate genuinely diverges from the truth the way a
deployed estimator would; tests bound that divergence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import ThermalConfig, WaxConfig
from ..errors import ThermalModelError
from .pcm import clip


class WaxStateEstimator:
    """Integrates a quantized melt-rate lookup table from sensor readings."""

    def __init__(self, wax: WaxConfig, thermal: ThermalConfig, n: int, *,
                 bin_width_c: float = 0.5, table_span_c: float = 25.0,
                 sensor_noise_c: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n <= 0:
            raise ThermalModelError("estimator needs at least one server")
        if bin_width_c <= 0 or table_span_c <= 0:
            raise ThermalModelError("lookup table bins must be positive")
        wax.validate()
        self._n = int(n)
        self._t_melt = wax.melt_temp_c
        self._sensor_noise = float(sensor_noise_c)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._estimate = np.zeros(self._n)

        latent_j = wax.latent_capacity_j
        if latent_j <= 0:
            # No latent storage to track; the estimate stays at zero.
            self._rate_table = np.zeros(1)
            self._bin_edges = np.array([-table_span_c, table_span_c])
            return

        # Lookup table: melt-rate (fraction per second) per temperature
        # delta bin, Delta T = T_air - T_melt, spanning +-table_span_c.
        edges = np.arange(-table_span_c, table_span_c + bin_width_c,
                          bin_width_c)
        centers = (edges[:-1] + edges[1:]) / 2.0
        self._bin_edges = edges
        self._rate_table = thermal.ha_w_per_k * centers / latent_j

    @property
    def n(self) -> int:
        """Number of servers being tracked."""
        return self._n

    @property
    def estimate(self) -> np.ndarray:
        """Current estimated melt fractions in [0, 1]."""
        return self._estimate

    @property
    def table_size(self) -> int:
        """Number of lookup-table entries."""
        return len(self._rate_table)

    def register_metrics(self, registry) -> None:
        """Publish estimator gauges on a :class:`~repro.obs.registry.MetricRegistry`."""
        registry.gauge("estimator.mean_estimate",
                       lambda: float(self._estimate.mean()))
        registry.gauge("estimator.max_estimate",
                       lambda: float(self._estimate.max()))

    def advance(self, t_air_c: np.ndarray, dt_s: float,
                truth: Optional[np.ndarray] = None,
                anchored: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance the estimate through a ``(T, n)`` block of readings.

        Row ``t`` of ``t_air_c`` is what the container-exterior sensor
        sees during tick ``t``.  Each tick adds sensor noise, looks the
        reading up in the rate table, integrates the rate over ``dt_s``
        and clips to [0, 1]; where ``anchored[t]`` is set, the estimate
        then re-anchors to ``truth[t]`` (see :meth:`correct`).  The noise
        is one ``(T, n)`` draw -- the same values, and the same generator
        state afterwards, as ``T`` draws of ``n`` -- and the lookup is
        batched; only the clipped integration steps tick by tick.

        Returns the ``(T, n)`` block of estimates after each tick.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        sensed = np.asarray(t_air_c, dtype=np.float64)
        if sensed.ndim != 2:
            raise ThermalModelError("advance takes a (T, n) reading block")
        if sensed.shape[1] != self._n:
            sensed = np.broadcast_to(sensed, (sensed.shape[0], self._n))
        if self._sensor_noise != 0.0:
            sensed = sensed + self._rng.normal(0.0, self._sensor_noise,
                                               size=sensed.shape)
        bins = np.clip(
            np.digitize(sensed - self._t_melt, self._bin_edges) - 1,
            0, len(self._rate_table) - 1)
        estimates = self._rate_table[bins]  # rates, integrated in place
        estimates *= dt_s
        if anchored is None:
            anchor_rows = [False] * len(estimates)
        else:
            truth = np.broadcast_to(clip(np.asarray(
                truth, dtype=np.float64), 0.0, 1.0), estimates.shape)
            anchored = np.broadcast_to(anchored, estimates.shape)
            anchor_rows = anchored.any(axis=1).tolist()
        estimate = self._estimate
        for t, row in enumerate(estimates):
            np.add(estimate, row, out=row)
            clip(row, 0.0, 1.0, row)
            if anchor_rows[t]:
                np.copyto(row, truth[t], where=anchored[t])
            estimate = row
        self._estimate = estimate.copy()
        return estimates

    def update(self, t_air_c: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance the estimate by ``dt_s`` using a sensed air temperature.

        One tick of :meth:`advance`; returns the updated per-server melt
        fraction estimates.
        """
        t_air = np.asarray(t_air_c, dtype=np.float64).reshape(1, -1)
        return self.advance(t_air, dt_s)[0]

    def correct(self, true_fraction: np.ndarray,
                mask: Optional[np.ndarray] = None) -> None:
        """Re-anchor the estimate to ground truth.

        The container-exterior sensor unambiguously signals the *end* of a
        transition (temperature leaves the melt plateau), which deployed
        estimators use to resynchronize at 0% and 100%.  Tests and the
        simulator call this at phase boundaries.  The same masked copy
        :meth:`advance` applies per tick, without advancing time.
        """
        truth = clip(np.asarray(true_fraction, dtype=np.float64), 0.0, 1.0)
        estimate = self._estimate.copy()
        np.copyto(estimate, truth,
                  where=True if mask is None else np.asarray(mask, bool))
        self._estimate = estimate

    def error_vs(self, true_fraction: np.ndarray) -> float:
        """Mean absolute estimation error against ground truth."""
        truth = np.broadcast_to(
            np.asarray(true_fraction, dtype=np.float64), (self._n,))
        return float(np.mean(np.abs(self._estimate - truth)))

    def reset(self) -> None:
        """Zero the estimate (fresh, fully frozen wax)."""
        self._estimate = np.zeros(self._n)

    def state_dict(self) -> dict:
        """The integrated estimate (the RNG belongs to its stream owner)."""
        return {"estimate": self._estimate.copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._estimate = np.asarray(state["estimate"],
                                    dtype=np.float64).copy()
