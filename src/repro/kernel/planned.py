"""Whole-run batched kernel for clean VMT-TA simulations.

VMT-TA is the paper's open-loop policy: the hot/cold split is fixed by
the grouping value (Eqs. 1-2) and placement depends only on the demand
trace and the scheduler's private RNG -- never on temperatures, wax
state, or faults.  That makes the entire run *plannable*: every tick's
allocation can be computed up front, and the remaining physics chain is
either elementwise (batchable across all ticks at once) or a cheap
recurrence.

The kernel preserves bit-identity with the reference path by
construction:

* **RNG**: each consumer draws from its own named stream, so streams can
  be consumed in any relative order.  Batched ``normal(0, s, (T, n))``
  draws the exact same values (and leaves the same generator state) as
  ``T`` sequential ``(n,)`` draws.  The scheduler's shuffle sequence is
  replayed tick by tick in reference order.
* **Placement**: ``waterfill_quotas`` over a fault-free uniform-capacity
  group has a closed form (level = total // m, remainder rotated by the
  tick index), and ``deal_types``'s round-robin slot order becomes a
  precomputed key array; ``bincount`` then reproduces the reference
  allocation integer-for-integer.  Ticks that spill across groups are
  replayed through the scheduler's own 4-pass spill placement (same RNG
  draws, same tie offsets), so only overflowing ticks pay python cost.
* **Physics**: the kernel makes one call per thermal model on the whole
  run (``ServerAirModel.advance``, ``PCMBank.advance``,
  ``WaxStateEstimator.advance``) -- the same methods the reference
  tick's ``step``/``update`` call with one tick.  The models batch their
  elementwise work across ticks and step only their state recurrences,
  with the same IEEE-754 operation order per element either way.
* **Metrics**: per-row reductions (``row.mean()``) and axis reductions
  over C-contiguous rows (``block.mean(axis=1)``) use the same pairwise
  summation, so recorded series match bitwise;
  :meth:`MetricsCollector.fill_block` writes them into the same buffers
  ``record`` would have filled.

What stays python: the planning loop (one shuffle + bincount per
populated group per tick) and the models' state recurrences.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..workloads.workload import COLD_INDICES, HOT_INDICES, WORKLOAD_LIST

_K = len(WORKLOAD_LIST)


def try_run(sim) -> Optional["SimulationResult"]:
    """Run ``sim`` through the planned kernel, or return ``None``.

    Eligibility mirrors exactly the situations where planning ahead is
    provably equivalent: a fresh, clean VMT-TA run -- no faults, no
    sanitizer, no telemetry/observers/checkpoints, no ambient profile,
    no mid-run restore.
    """
    from ..core.vmt_ta import VMTThermalAwareScheduler

    sched = sim._scheduler
    if type(sched) is not VMTThermalAwareScheduler:
        return None
    cluster = sim._cluster
    if (sim._injector is not None
            or sim._sanitizer is not None
            or sim._telemetry is not None
            or sim._observers
            or sim._checkpoint_every is not None
            or sim._restored
            or sim._step_index != 0
            or sim._metrics.size != 0
            or sim._engine.events_dispatched != 0
            or cluster._ambient is not None):
        return None
    config = sim._config
    wax = config.wax
    if (wax.mass_kg <= 0 or wax.latent_heat_j_per_kg <= 0
            or config.thermal.ha_w_per_k == 0):
        # Degenerate PCM (no wax, no latent band, or no air coupling)
        # is left to the stepped driver.
        return None
    num_servers = config.num_servers
    hot_size = sched.sizer.hot_size
    if not 0 < hot_size < num_servers:
        return None
    counts = sim._trace._counts
    if counts.shape[0] == 0:
        return None
    cores = config.server.cores
    hot_tot = counts[:, list(HOT_INDICES)].sum(axis=1)
    cold_tot = counts[:, list(COLD_INDICES)].sum(axis=1)
    # Ticks whose demand overflows a group engage the scheduler's
    # cross-group spill passes; the plan loop replays those ticks
    # through the scheduler's own ``_place_group`` (same RNG draws,
    # same tie offsets) and keeps the closed form for the rest.
    spill = ((hot_tot > hot_size * cores)
             | (cold_tot > (num_servers - hot_size) * cores))
    return _run(sim, hot_tot, cold_tot, spill)


def _run(sim, hot_tot: np.ndarray, cold_tot: np.ndarray,
         spill: np.ndarray):
    prof = sim._profiler
    clock = time.perf_counter
    setup_start = clock()
    # The planned kernel bypasses ClusterSimulation._tick (where the
    # cooperative deadline is normally polled), so it checks the budget
    # itself: every 256 plan-loop ticks and once after the physics.
    deadline = sim._deadline
    if deadline is not None:
        deadline.check()

    config = sim._config
    cluster = sim._cluster
    sched = sim._scheduler
    n = config.num_servers
    counts = sim._trace._counts
    T = counts.shape[0]
    dt = sim._trace.step_seconds
    cores = config.server.cores
    hs = sched.sizer.hot_size

    # A fresh reference run resets the scheduler before the first tick.
    sched.reset()

    # ---- plan: replay the dealer for every tick --------------------------
    plan_start = clock()
    ar5 = np.arange(_K)
    # Per-group constants: the tick rows of the group's job types, the
    # bincount key of each server (its offset into the flat (n, K)
    # allocation row) and the full-rounds dealing-order keys (all
    # servers ascending, one pass per level).
    groups = []
    for base, m, totals, cols in ((0, hs, hot_tot, list(HOT_INDICES)),
                                  (hs, n - hs, cold_tot,
                                   list(COLD_INDICES))):
        rows = np.zeros((T, _K), dtype=np.int64)
        rows[:, cols] = counts[:, cols]
        key_of_server = (base + np.arange(m, dtype=np.int64)) * _K
        level, rem = np.divmod(totals, m)
        groups.append((totals.tolist(), (level * m).tolist(),
                       rem.tolist(), m, list(rows),
                       np.tile(key_of_server, cores), key_of_server))
    hot_rows, cold_rows = groups[0][4], groups[1][4]
    # All ticks' allocations in one float block so the dynamic-power
    # matmul runs once, batched (bitwise identical to per-tick matmuls).
    alloc_block = np.zeros((T, n * _K))
    alloc_rows = list(alloc_block)
    key_buf = np.empty(n * cores, dtype=np.int64)
    add = np.add
    bincount = np.bincount
    copyto = np.copyto
    shuffle = sched._rng.shuffle
    repeat = np.repeat
    width = n * _K
    # Spill-tick scratch: the reference scheduler's own 4-pass spill
    # placement runs against these, with ``sched._tick`` pinned to the
    # tick so tie offsets and RNG draws match the reference loop.
    spill_list = spill.tolist()
    hot_ids = np.flatnonzero(sched.sizer.hot_mask())
    cold_ids = np.flatnonzero(~sched.sizer.hot_mask())
    free_buf = np.empty(n, dtype=np.int64)
    alloc2d = np.zeros((n, _K), dtype=np.int64)
    alloc2d_flat = alloc2d.reshape(-1)
    place_group = sched._place_group
    # Per-tick scratch stays a few KB, i.e. cache-resident: building
    # each tick's type list fresh beats materializing tick blocks up
    # front, which would stream tens of MB through memory instead.
    # Each group's tick work: the exact unshuffled type list deal_types
    # builds, shuffled in place (same stream consumption and bits as
    # rng.permutation on a fresh copy), dealt against the waterfill
    # closed form -- an even level plus a remainder rotated by the tick
    # index, dealt all-servers-ascending per full round and then the
    # remainder servers in ascending index order.
    for t in range(T):
        if deadline is not None and not (t & 255):
            deadline.check()
        if spill_list[t]:
            sched._tick = t
            free_buf.fill(cores)
            alloc2d.fill(0)
            hot_d = hot_rows[t].copy()
            cold_d = cold_rows[t].copy()
            place_group(hot_d, hot_ids, free_buf, alloc2d)
            place_group(cold_d, cold_ids, free_buf, alloc2d)
            place_group(hot_d, cold_ids, free_buf, alloc2d)
            place_group(cold_d, hot_ids, free_buf, alloc2d)
            alloc_rows[t][:] = alloc2d_flat
            continue
        fill = 0
        for tots, lms, rems, m, rows, base_keys, keys in groups:
            tot = tots[t]
            if not tot:
                continue
            types = repeat(ar5, rows[t])
            shuffle(types)
            seg = key_buf[fill:fill + tot]
            fill += tot
            if rems[t] == 0:
                add(base_keys[:tot], types, out=seg)
                continue
            lm = lms[t]
            seg[:lm] = base_keys[:lm]
            start = t % m
            end = start + rems[t]
            if end <= m:
                seg[lm:] = keys[start:end]
            else:
                low = end - m
                seg[lm:lm + low] = keys[:low]
                seg[lm + low:] = keys[start:]
            add(seg, types, out=seg)
        if fill:
            copyto(alloc_rows[t], bincount(key_buf[:fill],
                                           minlength=width))
    dyn_block = np.matmul(alloc_block.reshape(T * n, _K),
                          cluster._per_core_power).reshape(T, n)
    plan_elapsed = clock() - plan_start

    # ---- physics: each thermal model advances the whole run ---------------
    step_start = clock()
    air = cluster._air
    power_block = cluster._power_model.server_power(dyn_block)
    temp_block = air.advance(power_block, dt)
    q_block, truth_block = cluster._pcm.advance(
        temp_block, config.thermal.ha_w_per_k, dt)
    # view() reads the air sensor every tick; VMT-TA never looks at the
    # sensed values, so only the stream consumption matters.
    cluster._sensor.read(temp_block)
    # Anchoring as in Cluster.step: the container-exterior sensor pins
    # the full-solid and full-liquid states.
    cluster._estimator.advance(temp_block, dt, truth_block,
                               (truth_block <= 0.0) | (truth_block >= 1.0))
    step_elapsed = clock() - step_start
    if deadline is not None:
        deadline.check()

    # ---- metrics ---------------------------------------------------------
    metrics_start = clock()
    times = np.empty(T)
    t_acc = 0.0
    for t in range(T):
        t_acc += dt
        times[t] = t_acc
    it_power = power_block.sum(axis=1)
    wax_abs = q_block.sum(axis=1)
    junction = cluster._cpu_model.junction_temp_c(
        air.inlet_temp_c[None, :], dyn_block, config.server)
    sim._metrics.fill_block(
        times_s=times,
        cooling_load_w=it_power - wax_abs,
        it_power_w=it_power,
        wax_absorption_w=wax_abs,
        mean_temp_c=temp_block.mean(axis=1),
        hot_group_mean_temp_c=temp_block[:, :hs].mean(axis=1),
        cold_group_mean_temp_c=temp_block[:, hs:].mean(axis=1),
        mean_melt_fraction=truth_block.mean(axis=1),
        hot_group_size=hs,
        jobs=counts.sum(axis=1),
        max_cpu_temp_c=junction.max(axis=1),
        temp_map=temp_block,
        melt_map=truth_block,
    )
    metrics_elapsed = clock() - metrics_start

    # ---- the cluster's last-tick readings, as a reference run leaves them
    cluster._dynamic_w = dyn_block[T - 1].copy()
    cluster._power_w = power_block[T - 1].copy()
    cluster._last_q_wax = q_block[T - 1].copy()
    cluster._last_melt_fraction = truth_block[T - 1].copy()
    cluster._time_s = t_acc
    sched._tick = T
    sim._step_index = T
    sim._last_allocation = (alloc_block[T - 1]
                            .reshape(n, _K).astype(np.int64))
    engine = sim._engine
    engine.drive(None, engine.now, dt, T, T * dt - 1e-9)

    if prof is not None:
        prof.add("kernel_plan", plan_elapsed)
        prof.add("kernel_fused_step", step_elapsed)
        prof.add("kernel_metrics_write", metrics_elapsed)
        prof.add("dispatch", clock() - setup_start - plan_elapsed
                 - step_elapsed - metrics_elapsed)
        prof.count_ticks(T)
    profile = prof.snapshot() if prof is not None else None
    return sim._metrics.finish(config, sched.name, profile=profile)
