"""The benchmark's own arithmetic: order statistics, throughput, self time.

Everything here is pure and deterministic so it can be unit-tested
without running a simulation (see ``vmtbench/tests/test_stats.py``).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples a tail percentile needs beyond it before it is reported as
#: resolved (a p90 therefore needs at least 100 samples).
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even n)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q% at or below.

    Nearest rank never interpolates, so the value is always a measured
    sample and the number of samples beyond it is exact.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(values: Sequence[float],
                    min_beyond: int = TAIL_MIN_BEYOND
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``min_beyond`` samples beyond.

    Returns ``(q, value)`` or ``None`` when the run has too few samples
    for any percentile above the median to be resolved that way.
    """
    n = len(values)
    rank = n - min_beyond
    if rank < 1 or rank * 2 <= n:
        return None
    q = 100.0 * rank / n
    return q, float(sorted(values)[rank - 1])


def ratio_of_sums(work: Sequence[float], seconds: Sequence[float],
                  complete: Optional[Sequence[bool]] = None) -> float:
    """Throughput over whole units only: sum(work) / sum(seconds).

    ``complete`` marks which units (requests or request blocks) finished;
    a unit cut off by the time limit contributes neither work nor time,
    so a run that ends mid-unit cannot skew the rate.
    """
    if len(work) != len(seconds):
        raise ValueError("work and seconds differ in length")
    if complete is None:
        complete = [True] * len(work)
    total_work = sum(w for w, ok in zip(work, complete) if ok)
    total_s = sum(s for s, ok in zip(seconds, complete) if ok)
    if total_s <= 0:
        raise ValueError("no complete unit was timed")
    return total_work / total_s


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval, and overlapping children (two
    threads working under one request) are counted once.
    """
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(interval: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its direct children cover."""
    lo, hi = interval
    return (hi - lo) - covered(interval, children)


#: Requests in one serve-mixed block, and how many of them are hits.
BLOCK_SIZE = 10
HITS_PER_BLOCK = 9


def serve_schedule(seed: int, blocks: int, keys: Sequence[str]
                   ) -> List[Tuple[str, Optional[str]]]:
    """The fixed-composition serve-mixed request list for ``blocks``.

    Each block of :data:`BLOCK_SIZE` requests holds exactly
    :data:`HITS_PER_BLOCK` registry hits and one fresh run; the seed
    only decides where in the block the fresh run sits.  Hits cycle
    through ``keys`` in order across the whole run, so every key is hit
    equally often and the mix never depends on how many blocks a run
    completes.  Entries are ``("hit", key)`` or ``("fresh", None)``.
    """
    if not keys:
        raise ValueError("need at least one hit key")
    rng = random.Random(seed)
    schedule: List[Tuple[str, Optional[str]]] = []
    hit_index = 0
    for _ in range(blocks):
        fresh_at = rng.randrange(BLOCK_SIZE)
        for position in range(BLOCK_SIZE):
            if position == fresh_at:
                schedule.append(("fresh", None))
            else:
                schedule.append(("hit", keys[hit_index % len(keys)]))
                hit_index += 1
    return schedule
