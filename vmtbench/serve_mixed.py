"""The ``serve-mixed`` workload: one HTTP client against ``repro.serve``.

The server runs as a subprocess (:mod:`vmtbench.serve_main`).  One
client sends one request at a time over a fresh connection (the server
closes every connection).  Requests are reduced scale, 10 servers x
24 h, in blocks of 10 with a fixed composition
(:func:`vmtbench.stats.serve_schedule`): 9 registry hits on five keys
pre-warmed before the clock starts (one per policy) and one fresh VMT-WA
run on a new seed, which simulates with telemetry attached and then
stores to the registry.

A request is timed from the POST to the end of the result body: POST
``/v1/runs``, poll ``GET /v1/runs/{id}`` until the job settles, then
``GET /v1/runs/{id}/result``.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import env, layers
from .checks import CheckFailed, Tally, require
from .inproc import PAPER_REDUCTION_PCT, PAPER_SEED
from .stats import (BLOCK_SIZE, median, percentile, ratio_of_sums,
                    self_time, serve_schedule)

NUM_SERVERS = 10
DURATION_HOURS = 24.0
TICKS = 1440
#: Status polls come every this share of the median latency so far of
#: the same request kind: fine enough that polling quantises a latency
#: by at most 1%, coarse enough that polls barely load the server.
POLL_SHARE = 0.01
#: Poll interval before a kind has a median, and the floor, seconds.
POLL_FIRST_S = 0.001
POLL_MIN_S = 0.0005
#: Blocks every untraced run completes, however slow the machine; peak
#: RSS is read after exactly this many, so it cannot depend on run length.
MIN_BLOCKS = 5
#: Blocks per phase in a traced run (untraced server, then traced).
TRACE_MIN_BLOCKS = 3
FRESH_POLICY = "vmt-wa"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _http(port: int, method: str, path: str,
          body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServerProcess:
    """One ``serve_main`` subprocess with its own data dir."""

    def __init__(self, tag: str, trace_out: Optional[str] = None) -> None:
        self.port = _free_port()
        self.data_dir = os.path.join(env.OUT, f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)
        cmd = env.python_cmd(os.path.join(env.ROOT, "vmtbench",
                                          "serve_main.py"),
                             "--data-dir", self.data_dir,
                             "--port", str(self.port))
        if trace_out:
            cmd += ["--trace-out", trace_out]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env.child_env(), cwd=env.ROOT,
                                     stdout=subprocess.DEVNULL)
        try:
            self.ready_s = self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, start: float) -> float:
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" before it was healthy")
            try:
                status, _ = _http(self.port, "GET", "/v1/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - start
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy in 60 s")

    def peak_rss_kb(self) -> int:
        """The server's peak RSS so far (it writes it on SIGUSR1)."""
        path = os.path.join(self.data_dir, "rss.json")
        if os.path.exists(path):
            os.remove(path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    return int(json.load(handle)["maxrss_kb"])
            except (FileNotFoundError, json.JSONDecodeError):
                time.sleep(0.001)
        raise RuntimeError("server did not report its RSS")

    def bytes_on_disk(self) -> int:
        total = 0
        for dirpath, _, filenames in os.walk(self.data_dir):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total

    def stop(self) -> None:
        """SIGINT (clean shutdown, trace dump), then remove the data dir."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.data_dir, ignore_errors=True)


class Sample:
    """One timed request and what the server said about it."""

    def __init__(self, kind: str, key: Optional[str], latency_s: float,
                 interval: Tuple[float, float], record: dict,
                 body: bytes) -> None:
        self.kind = kind
        self.key = key
        self.latency_s = latency_s
        self.interval = interval
        self.record = record
        self.body = body


def _payload(policy: str, seed: int) -> bytes:
    return json.dumps({"policy": policy, "num_servers": NUM_SERVERS,
                       "duration_hours": DURATION_HOURS,
                       "seed": seed}).encode()


def request(port: int, kind: str, key: Optional[str], policy: str,
            seed: int, poll_s: float = POLL_FIRST_S) -> Sample:
    """POST one run, poll every ``poll_s`` until it settles, GET it."""
    wall_start = time.time()
    start = time.perf_counter()
    status, raw = _http(port, "POST", "/v1/runs", _payload(policy, seed))
    require(status == 202, f"POST /v1/runs answered {status}")
    job_id = json.loads(raw)["job"]["id"]
    while True:
        status, raw = _http(port, "GET", f"/v1/runs/{job_id}")
        record = json.loads(raw)
        if record["status"] in ("done", "failed"):
            break
        time.sleep(poll_s)
    status, body = _http(port, "GET", f"/v1/runs/{job_id}/result")
    latency = time.perf_counter() - start
    require(status == 200, f"result of {job_id} answered {status}: "
                            f"{body[:200]!r}")
    return Sample(kind, key, latency, (wall_start, time.time()), record,
                  body)


class Checker:
    """Checks each served result against a direct ``api.run``."""

    def __init__(self, seed: int) -> None:
        from repro import api
        from repro.cluster.metrics import SimulationResult
        from repro.config import TraceConfig, paper_cluster_config
        self._api = api
        self._from_json = SimulationResult.from_json
        self._config = lambda s: paper_cluster_config(
            num_servers=NUM_SERVERS, seed=s).replace(
                trace=TraceConfig(duration_hours=DURATION_HOURS))
        self.seed = seed
        self.direct: Dict[str, str] = {}
        self._recomputed = set()

    def direct_runs(self, policies) -> None:
        for policy in policies:
            result = self._api.run(policy=policy,
                                   config=self._config(self.seed))
            self.direct[policy] = result.fingerprint()

    def paper_error_pp(self) -> float:
        """The seed-7 paper comparison, checked against the goldens."""
        from repro.checks.golden import load_manifest
        goldens = load_manifest()["fingerprints"]
        duel = self._api.compare(policies=("vmt-ta", "round-robin"),
                                 seed=PAPER_SEED, backend="reference")
        for policy in duel.policies:
            got = duel[policy].fingerprint()
            require(got == goldens[policy],
                    f"{policy} fingerprint {got} != golden "
                    f"{goldens[policy]}")
        return abs(duel.peak_reduction("vmt-ta") * 100.0
                   - PAPER_REDUCTION_PCT)

    def check(self, sample: Sample) -> None:
        payload = json.loads(sample.body)
        record = sample.record
        require(record["status"] == "done",
                f"job {record['id']} {record['status']}: "
                f"{record.get('error')}")
        if sample.kind == "hit":
            require(payload["cached"] is True, "hit was not cached")
            require(payload["sim_ticks_executed"] == 0,
                    "hit executed simulation ticks")
            require(payload["fingerprint"] == self.direct[sample.key],
                    f"served {payload['fingerprint']} != direct api.run "
                    f"{self.direct[sample.key]} for {sample.key}")
            recompute = sample.key not in self._recomputed
            self._recomputed.add(sample.key)
        else:
            require(payload["cached"] is False, "fresh run was cached")
            require(payload["sim_ticks_executed"] == TICKS,
                    f"fresh run executed {payload['sim_ticks_executed']} "
                    f"ticks, expected {TICKS}")
            recompute = True
        if recompute:
            rebuilt = self._from_json(payload["result"]).fingerprint()
            require(rebuilt == payload["fingerprint"],
                    f"result body hashes to {rebuilt}, record says "
                    f"{payload['fingerprint']}")


class Phase:
    """Timed blocks against one server, each request checked."""

    def __init__(self, server: ServerProcess, checker: Checker,
                 policies, seed: int, tally: Tally) -> None:
        self.server = server
        self.checker = checker
        self.policies = policies
        self.seed = seed
        self.tally = tally
        #: One entry per block: its samples, or None if any request failed.
        self.blocks: List[Optional[List[Sample]]] = []
        self._latencies: Dict[str, List[float]] = {"hit": [], "fresh": []}

    def _poll_s(self, kind: str) -> float:
        seen = self._latencies[kind]
        if not seen:
            return POLL_FIRST_S
        return max(POLL_MIN_S, POLL_SHARE * median(seen))

    def prewarm(self, meanwhile=None) -> None:
        """Store the five hit keys in the registry, off the clock.

        The server computes them on its own core; ``meanwhile`` (the
        client's direct reference runs) uses the other one.  Each stored
        result is checked against the direct run once both are done.
        """
        samples: List[Sample] = []
        failure: List[BaseException] = []

        def warm():
            try:
                for policy in self.policies:
                    samples.append(request(self.server.port, "warm", policy,
                                           policy, self.seed))
            except Exception as exc:  # noqa: BLE001 -- re-raised below
                failure.append(exc)

        worker = threading.Thread(target=warm)
        worker.start()
        try:
            if meanwhile is not None:
                meanwhile()
        finally:
            worker.join()

        def check():
            if failure:
                raise failure[0]
            for sample in samples:
                fingerprint = json.loads(sample.body)["fingerprint"]
                require(fingerprint == self.checker.direct[sample.key],
                        f"pre-warmed {sample.key} served {fingerprint}, "
                        f"api.run gives {self.checker.direct[sample.key]}")
        self.tally.attempt(check)

    def run_blocks(self, schedule, blocks: int) -> None:
        """Run the next ``blocks`` blocks of ``schedule``."""
        for _ in range(blocks):
            block = len(self.blocks)
            samples: List[Sample] = []
            for index in range(block * BLOCK_SIZE, (block + 1) * BLOCK_SIZE):
                kind, key = schedule[index]
                policy = key if kind == "hit" else FRESH_POLICY
                seed = self.seed if kind == "hit" else self.seed + 1 + index

                def body():
                    sample = request(self.server.port, kind, key, policy,
                                     seed, self._poll_s(kind))
                    self._latencies[kind].append(sample.latency_s)
                    self.checker.check(sample)
                    sample.body = b""  # keep client memory flat
                    return sample
                sample = self.tally.attempt(body)
                if sample is not None:
                    samples.append(sample)
            self.blocks.append(samples if len(samples) == BLOCK_SIZE
                               else None)

    @property
    def requests(self) -> int:
        return len(self.blocks) * BLOCK_SIZE

    def samples(self) -> List[Sample]:
        """Samples of the blocks where every request completed."""
        return [sample for block in self.blocks if block is not None
                for sample in block]


def _setup_servers(spawns: int) -> Tuple[float, ServerProcess]:
    """Start ``spawns`` servers to healthy; keep the last one running."""
    times = []
    server = None
    for k in range(spawns):
        if server is not None:
            server.stop()
        server = ServerProcess(f"s{k}")
        times.append(server.ready_s)
    return median(times), server


def run(seed: int, seconds: float, trace: bool, spawns: int) -> dict:
    """Run serve-mixed; returns the result dict for run.py."""
    from repro.core.policies import SCHEDULER_NAMES
    policies = tuple(SCHEDULER_NAMES)
    tally = Tally()
    tally.checks += [
        "seed-7 paper comparison matches the golden fingerprints",
        "the five pre-warmed results equal a direct api.run",
        "every hit reports cached: true and sim_ticks_executed: 0, and "
        "serves the fingerprint of a direct api.run of the request",
        "every fresh run reports cached: false and 1440 executed ticks",
        "result bodies re-hash to their served fingerprint (each fresh "
        "run, the first hit of each key)",
    ]
    setup_s, server = _setup_servers(spawns)
    servers = [server]
    paper_error = None
    try:
        checker = Checker(seed)
        phase = Phase(server, checker, policies, seed, tally)

        def reference_runs():
            nonlocal paper_error
            paper_error = tally.attempt(checker.paper_error_pp)
            tally.attempt(lambda: checker.direct_runs(policies))
        phase.prewarm(meanwhile=reference_runs)
        if len(checker.direct) != len(policies):
            raise CheckFailed("direct api.run reference runs failed")
        schedule = serve_schedule(seed, 10_000, policies)
        if trace:
            traced = _traced(seed, seconds, servers, phase, schedule)
            out = tally.summary()
            out.update(traced)
            return out
        start = time.perf_counter()
        phase.run_blocks(schedule, MIN_BLOCKS)
        peak_rss_kb = server.peak_rss_kb()
        while time.perf_counter() - start < seconds:
            phase.run_blocks(schedule, 1)
    finally:
        for each in servers:
            each.stop()
    whole = phase.samples()
    hits = [s.latency_s for s in whole if s.kind == "hit"]
    fresh = [s.latency_s for s in whole if s.kind == "fresh"]
    every = [s.latency_s for s in whole]
    complete = [block is not None for block in phase.blocks]
    block_s = [sum(s.latency_s for s in block or ()) for block in phase.blocks]
    block_ticks = [TICKS * NUM_SERVERS * sum(s.kind == "fresh"
                                             for s in block or ())
                   for block in phase.blocks]
    block_requests = [len(block or ()) for block in phase.blocks]
    metrics = {
        "setup_s": setup_s,
        "server_ticks_per_s": ratio_of_sums(block_ticks, block_s, complete)
        if any(complete) else None,
        "call_p50_ms": median(every) * 1000 if every else None,
        "hit_p50_ms": median(hits) * 1000 if hits else None,
        "hit_p90_ms": percentile(hits, 90) * 1000 if hits else None,
        "fresh_p50_ms": median(fresh) * 1000 if fresh else None,
        "requests_per_s": ratio_of_sums(block_requests, block_s, complete)
        if any(complete) else None,
        "peak_rss_mb": peak_rss_kb / 1024,
        "paper_error_pp": paper_error,
        "completed_frac": tally.completed_frac,
    }
    out = tally.summary()
    out["metrics"] = metrics
    out["samples"] = {"call_p50_ms": every, "hit_p50_ms": hits,
                      "hit_p90_ms": hits, "fresh_p50_ms": fresh,
                      "server_ticks_per_s": block_s,
                      "requests_per_s": block_s,
                      "peak_rss_mb": MIN_BLOCKS * BLOCK_SIZE + len(policies)}
    return out


def _traced(seed, seconds, servers, plain: Phase, schedule) -> dict:
    """The same schedule on an untraced, then a traced server."""
    server = plain.server
    rss_warm = server.peak_rss_kb()
    bytes_warm = server.bytes_on_disk()
    start = time.perf_counter()
    plain.run_blocks(schedule, TRACE_MIN_BLOCKS)
    while time.perf_counter() - start < seconds / 2:
        plain.run_blocks(schedule, 1)
    rss_growth_kb = (server.peak_rss_kb() - rss_warm) / plain.requests
    bytes_per_request = (server.bytes_on_disk() - bytes_warm) / plain.requests
    server.stop()

    trace_out = os.path.join(env.OUT, f"trace-serve-mixed-seed{seed}.jsonl")
    traced_server = ServerProcess("traced", trace_out=trace_out)
    servers.append(traced_server)
    traced = Phase(traced_server, plain.checker, plain.policies, seed,
                   plain.tally)
    traced.prewarm()
    traced.run_blocks(schedule, len(plain.blocks))
    traced_server.stop()
    dump = _read_dump(trace_out)

    jobs = {s.record["id"] for s in traced.samples()}
    merged = layers.merge(
        {row["name"]: (row["count"], row["total_s"], row["self_s"])}
        for row in dump if row["kind"] == "aggregate" and row["req"] in jobs)
    runs = [row for row in dump if row["kind"] == "run"
            and row["req"] in jobs]
    values = layers.layer_values(merged, runs, len(jobs))
    values.update(_serve_values(plain.samples(), dump, jobs))
    values["serve.rss_growth_kb_per_request"] = rss_growth_kb
    values["serve.bytes_written_per_request"] = bytes_per_request
    plain_s = sum(s.latency_s for s in plain.samples())
    traced_s = sum(s.latency_s for s in traced.samples())
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["trace.attributed_frac"] = layers.layered_self_s(merged) / traced_s
    return {"per_layer": values,
            "samples": {"blocks_per_phase": len(plain.blocks),
                        "trace_file": trace_out}}


def _read_dump(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _serve_values(plain: List[Sample], dump: List[dict],
                  jobs) -> Dict[str, float]:
    """Serve-layer numbers: job timings from records, calls from spans."""
    def job_ms(kind):
        return layers.median_ms([
            s.record["finished_s"] - s.record["started_s"]
            for s in plain if s.kind == kind])

    def span_ms(name):
        return layers.median_ms([
            row["end"] - row["start"] for row in dump
            if row["kind"] == "span" and row["name"] == name
            and row["req"] in jobs])

    to_json = [row for row in dump if row["kind"] == "aggregate"
               and row["name"] == "serve.record_to_json"]
    calls = sum(row["count"] for row in to_json)
    return {
        "serve.queue_wait_ms": layers.median_ms([
            s.record["started_s"] - s.record["created_s"] for s in plain]),
        "serve.job_ms.hit": job_ms("hit"),
        "serve.job_ms.fresh": job_ms("fresh"),
        "serve.http_ms": layers.median_ms([
            self_time(s.interval, [(s.record["created_s"],
                                    s.record["finished_s"])])
            for s in plain]),
        "serve.registry_lookup_ms": span_ms("serve.registry_lookup"),
        "serve.registry_load_ms": span_ms("serve.registry_load"),
        "serve.registry_store_ms": span_ms("serve.registry_store"),
        "serve.result_to_json_ms": span_ms("serve.result_to_json"),
        "serve.record_to_json_ms":
            sum(row["total_s"] for row in to_json) / calls * 1000
            if calls else 0.0,
        "serve.registry_hit_ratio":
            sum(1 for s in plain if s.kind == "hit") / len(plain),
    }
