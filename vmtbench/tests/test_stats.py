"""Tests for the benchmark's own arithmetic and metric tables.

Run with ``python -m pytest vmtbench/tests -q`` from the checkout root.
"""

import json
import os
import threading
import time
from collections import Counter

import pytest

from vmtbench import layers, tracing
from vmtbench.stats import (BLOCK_SIZE, HITS_PER_BLOCK, covered, median,
                            percentile, ratio_of_sums, samples_beyond,
                            self_time, serve_schedule, tail_percentile)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestMedianAndTail:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_median_rejects_empty(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile_is_a_measured_sample(self):
        values = list(range(1, 101))
        assert percentile(values, 90) == 90
        assert percentile(values, 50) == 50
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    def test_p90_of_100_samples_has_10_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(1, 201)]
        q, value = tail_percentile(values)
        assert value == 190.0
        assert q == pytest.approx(95.0)
        assert sum(v > value for v in values) == 10

    def test_tail_unresolved_with_too_few_samples(self):
        assert tail_percentile([1.0] * 15) is None
        assert tail_percentile([1.0] * 20) is None
        q, _ = tail_percentile([float(v) for v in range(21)])
        assert q > 50.0


class TestSelfTime:
    def test_no_children(self):
        assert self_time((0.0, 5.0), []) == 5.0

    def test_disjoint_children(self):
        assert self_time((0.0, 10.0), [(1.0, 2.0), (4.0, 7.0)]) == 6.0

    def test_overlapping_children_count_once(self):
        # Two threads under one request: [1, 4] and [3, 6] cover [1, 6].
        assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == 5.0
        assert self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == 5.0

    def test_children_clipped_to_parent(self):
        assert self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]) == 2.0
        assert self_time((2.0, 6.0), [(7.0, 8.0)]) == 4.0

    def test_nested_grandchildren_not_subtracted_twice(self):
        recorder = tracing.Recorder()
        leaf = recorder.wrap(lambda: time.sleep(0.02), "core.leaf",
                             keep_span=False)

        def middle():
            leaf()
            time.sleep(0.01)

        middle = recorder.wrap(middle, "cluster.middle", keep_span=True)

        def root():
            middle()
            time.sleep(0.01)

        recorder.request = "r0"
        start = time.perf_counter()
        recorder.call("request", root)
        wall = time.perf_counter() - start
        agg = recorder.for_request("r0")
        count, leaf_total, leaf_self = agg["core.leaf"]
        _, mid_total, mid_self = agg["cluster.middle"]
        _, root_total, root_self = agg["request"]
        assert count == 1 and leaf_self == leaf_total
        assert mid_self == pytest.approx(mid_total - leaf_total)
        # The root loses only its direct child, which already holds the leaf.
        assert root_self == pytest.approx(root_total - mid_total)
        assert leaf_self + mid_self + root_self == pytest.approx(root_total)
        assert root_total <= wall
        assert layers.layered_self_s(agg) == pytest.approx(mid_total)
        spans = {span["name"]: span for span in recorder.spans}
        assert spans["cluster.middle"]["parent"] == spans["request"]["id"]
        assert spans["request"]["parent"] is None

    def test_recorder_threads_keep_separate_stacks(self):
        recorder = tracing.Recorder()
        work = recorder.wrap(lambda job_id: time.sleep(0.01), "serve.job",
                             keep_span=True,
                             request_from=lambda args: args[0])
        threads = [threading.Thread(target=work, args=(f"job-{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        for i in range(4):
            count, total, own = recorder.for_request(f"job-{i}")["serve.job"]
            assert count == 1 and own == pytest.approx(total)


class TestThroughput:
    def test_ratio_of_sums_not_mean_of_ratios(self):
        # 100 ticks in 1 s and 100 ticks in 3 s: 50 ticks/s, not 66.7.
        assert ratio_of_sums([100, 100], [1.0, 3.0]) == 50.0

    def test_incomplete_units_are_dropped(self):
        rate = ratio_of_sums([100, 100, 40], [1.0, 1.0, 5.0],
                             complete=[True, True, False])
        assert rate == 100.0

    def test_no_complete_unit_is_an_error(self):
        with pytest.raises(ValueError):
            ratio_of_sums([1], [1.0], complete=[False])


class TestServeSchedule:
    KEYS = ("coolest-first", "round-robin", "vmt-preserve", "vmt-ta",
            "vmt-wa")

    def test_same_seed_same_schedule(self):
        assert serve_schedule(4, 6, self.KEYS) == serve_schedule(
            4, 6, self.KEYS)
        assert serve_schedule(4, 6, self.KEYS) != serve_schedule(
            5, 6, self.KEYS)

    def test_every_block_has_fixed_composition(self):
        schedule = serve_schedule(11, 20, self.KEYS)
        assert len(schedule) == 20 * BLOCK_SIZE
        for block in range(20):
            kinds = Counter(kind for kind, _ in
                            schedule[block * BLOCK_SIZE:
                                     (block + 1) * BLOCK_SIZE])
            assert kinds == {"hit": HITS_PER_BLOCK, "fresh": 1}

    def test_hits_cycle_evenly_over_keys(self):
        schedule = serve_schedule(2, 5, self.KEYS)
        hits = [key for kind, key in schedule if kind == "hit"]
        assert Counter(hits) == {key: 9 for key in self.KEYS}
        assert hits[:5] == list(self.KEYS)

    def test_prefix_does_not_depend_on_length(self):
        assert serve_schedule(9, 30, self.KEYS)[:50] == serve_schedule(
            9, 5, self.KEYS)


class TestMetricTables:
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
            list(layers.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
            list(layers.PER_LAYER)

    def test_layer_values_cover_every_named_metric(self):
        values = layers.layer_values({}, [], 1)
        values.update(layers.zero_serve_values())
        values["trace.overhead_frac"] = 0.0
        values["trace.attributed_frac"] = 0.0
        assert set(values) == {name for name, _ in layers.PER_LAYER}
