"""The ``serve-unique`` and ``serve-zipf`` workloads.

Both boot the same cluster — ``nproc`` workers, the frontend in its own
process, micro-batching (16), singleflight coalescing, a 4096-entry
result cache, 4 slots — over a packed segment of the seeded 20k-ad
corpus.  Only the traffic differs, so the traffic decides which layer
does the work:

* ``serve-unique`` draws uniformly from the 60k-query pool, so almost
  every request is a cache miss and the workers do the work;
* ``serve-zipf`` draws Zipf(1.0) ranks over the same pool, so the
  frontend cache answers most requests.

A run is: set-up (index build, ``SegmentBuilder.write``, cluster boot
up to the first pong through the frontend) repeated and timed; a short
open-loop warm-up; an open-loop phase at the workload's fixed rate
(latency, CPU per request); a closed-loop saturation phase
(throughput); then an oracle check of a seeded sample of replies
against ``AdServer`` over a ``WordSetIndex`` of the same corpus.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import multiprocessing
import random
import shutil
import socket
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Any

from repro.core.wordset_index import WordSetIndex
from repro.netserve.cluster import ClusterConfig, ServingCluster
from repro.netserve.wire import HEADER, decode_payload, encode_frame, read_raw_frame
from repro.netserve.wire import recv_frame, send_frame
from repro.segment.builder import SegmentBuilder
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer

import loadgen
import replay
from common import (
    CLOCK_TICKS,
    WORK_DIR,
    Inputs,
    SpanRecorder,
    affinity_cores,
    proc_cpu,
    proc_pss_mib,
)
from stats import (
    cpu_ms_per_request,
    delta_mean,
    due_latencies_ms,
    lateness_ms,
    mean,
    served_by,
    summarize_latencies,
)

#: Timed set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Pipelined requests per connection in the saturation phase.
SATURATION_WINDOW = 8
#: Upper bound on saturation throughput used to pre-draw its frames.
SATURATION_MAX_RPS = 4_000
#: Replies per phase checked against the oracle.
ORACLE_SAMPLE = {"fixed": 300, "saturation": 100}
#: ``serve-unique`` is refused unless workers answer this share.
MIN_WORKER_FRAC = 0.9
#: Runs whose generator wrote its frames later than this are refused.
#: A throttled 2-vCPU guest showed lag p99 up to 17 ms with a healthy
#: generator; well beyond that the generator itself is broken.
MAX_GEN_LAG_P99_MS = 50.0
SLOTS = 4


@dataclass(frozen=True, slots=True)
class ServeSpec:
    rate: float
    zipf: bool


SPECS = {
    "serve-unique": ServeSpec(rate=150.0, zipf=False),
    "serve-zipf": ServeSpec(rate=400.0, zipf=True),
}


class InvalidRun(RuntimeError):
    """The run measured something other than its workload."""


def cluster_config(segment_path: Path, runtime_dir: Path) -> ClusterConfig:
    return ClusterConfig(
        segment_path=str(segment_path),
        runtime_dir=str(runtime_dir),
        num_workers=affinity_cores(),
        frontend_process=True,
        max_batch=16,
        coalesce=True,
        cache_entries=4096,
        slots=SLOTS,
    )


class _Draw:
    """Pool indices, uniform or Zipf(1.0) by rank."""

    def __init__(self, pool_size: int, zipf: bool, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool_size = pool_size
        self.cumulative: list[float] | None = None
        if zipf:
            total = 0.0
            self.cumulative = []
            for rank in range(1, pool_size + 1):
                total += 1.0 / rank
                self.cumulative.append(total)

    def take(self, count: int) -> list[int]:
        if self.cumulative is None:
            return [self.rng.randrange(self.pool_size) for _ in range(count)]
        top = self.cumulative[-1]
        return [
            bisect.bisect_left(self.cumulative, self.rng.random() * top)
            for _ in range(count)
        ]


def _ping(address: tuple[str, int]) -> None:
    with socket.create_connection(address, timeout=10.0) as conn:
        send_frame(conn, {"type": "ping"})
        reply = recv_frame(conn)
    if reply is None or reply.get("type") != "pong":
        raise RuntimeError(f"frontend answered ping with {reply!r}")


def boot(inputs: Inputs, work: Path) -> tuple[ServingCluster, Path, list[float]]:
    """Build, write and boot ``SETUP_REPS`` times; the last cluster is
    returned running."""
    segment = work / "serve.seg"
    runtime = work / "rt"
    times: list[float] = []
    cluster: ServingCluster | None = None
    # The forked frontend and workers inherit this process's heap (the
    # corpus, the query pool, the pre-encoded frames).  Frozen, those
    # objects are never traversed by the children's collector, so it
    # neither copies their pages nor stalls requests walking them.
    gc.freeze()
    for rep in range(SETUP_REPS):
        if cluster is not None:
            cluster.stop()
        # A caller-provided runtime dir outlives the cluster; a stale
        # port file in it would be read as the next frontend's port.
        shutil.rmtree(runtime, ignore_errors=True)
        started = time.perf_counter()
        index = WordSetIndex.from_corpus(inputs.ads)
        SegmentBuilder(index).write(segment)
        del index
        cluster = ServingCluster(cluster_config(segment, runtime))
        cluster.start()
        _ping(cluster.address)
        times.append(time.perf_counter() - started)
    assert cluster is not None
    return cluster, segment, times


async def _stats(address: tuple[str, int]) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(encode_frame({"type": "stats"}))
        await writer.drain()
        raw = await read_raw_frame(reader)
        if raw is None:
            raise RuntimeError("frontend closed the stats connection")
        return decode_payload(raw[HEADER.size:])
    finally:
        writer.close()
        await writer.wait_closed()


def _worker_totals(stats: dict[str, Any]) -> dict[str, Any]:
    workers = [w for w in stats["workers"] if not w.get("unreachable")]
    if len(workers) != len(stats["workers"]):
        raise RuntimeError("a worker did not answer the stats probe")
    serve_n = sum(w["serve_ms"]["count"] for w in workers)
    batch_n = sum(w["batching"]["batch_size"]["count"] for w in workers)
    return {
        "pids": [w["pid"] for w in workers],
        "served": sum(w["served"] for w in workers),
        "serve_ms": (
            serve_n,
            sum(w["serve_ms"]["count"] * w["serve_ms"]["mean"] for w in workers)
            / serve_n if serve_n else 0.0,
        ),
        "batch_size": (
            batch_n,
            sum(
                w["batching"]["batch_size"]["count"]
                * w["batching"]["batch_size"]["mean"]
                for w in workers
            ) / batch_n if batch_n else 0.0,
        ),
        "queue_wait_p50": mean(
            [w["batching"]["queue_wait_ms"]["p50"] for w in workers]
        ),
        "queue_rejects": sum(w["batching"]["queue_rejects"] for w in workers),
    }


def _frontend_pid() -> int:
    for child in multiprocessing.active_children():
        if child.name == "netserve-frontend" and child.pid is not None:
            return child.pid
    raise RuntimeError("no frontend process among this process's children")


async def _drive(
    address: tuple[str, int],
    phases: dict[str, list[bytes]],
    rate: float,
    seconds: dict[str, float],
    keep: dict[str, set[int]],
    frontend_pid: int,
) -> dict[str, Any]:
    conns = affinity_cores()
    out: dict[str, Any] = {"conns": conns}
    out["warm"] = await loadgen.open_loop(address, phases["warm"], rate, conns, set())
    out["stats0"] = await _stats(address)
    pids = [frontend_pid] + _worker_totals(out["stats0"])["pids"]
    out["cpu0"] = proc_cpu(pids)
    out["fixed"] = await loadgen.open_loop(
        address, phases["fixed"], rate, conns, keep["fixed"]
    )
    out["cpu1"] = proc_cpu(pids)
    out["stats1"] = await _stats(address)
    out["saturation"] = await loadgen.closed_loop(
        address,
        phases["saturation"],
        conns,
        SATURATION_WINDOW,
        seconds["saturation"],
        keep["saturation"],
    )
    out["stats2"] = await _stats(address)
    out["mem_mb"] = proc_pss_mib(pids)
    out["pids"] = pids
    return out


def _oracle_mismatches(
    inputs: Inputs,
    requests: dict[str, list[ServeRequest]],
    kept: dict[str, dict[int, dict[str, Any]]],
) -> list[str]:
    """Every field of each sampled reply against the oracle's answer."""
    oracle = AdServer(WordSetIndex.from_corpus(inputs.ads), slots=SLOTS)
    mismatches = []
    for phase, replies in kept.items():
        for index, payload in sorted(replies.items()):
            request = requests[phase][index]
            expected = oracle.serve(request).to_dict()
            if payload.get("result") != expected:
                mismatches.append(
                    f"{phase}#{index} {list(request.query.tokens)}"
                )
    return mismatches


def run(
    name: str,
    inputs: Inputs,
    seed: int,
    seconds: float,
    trace: bool,
    spans: SpanRecorder,
) -> dict[str, Any]:
    spec = SPECS[name]
    work = WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    # The closed-loop phase runs both cores flat out; it is kept short
    # because this host class throttles guests after minutes of
    # sustained full load, which would drift every later run.
    phase_s = {
        "warm": 0.15 * seconds,
        "fixed": 0.75 * seconds,
        "saturation": 0.1 * seconds,
    }

    draw = _Draw(len(inputs.pool), spec.zipf, seed * 7919 + (2 if spec.zipf else 1))
    drawn = {
        "warm": draw.take(int(spec.rate * phase_s["warm"])),
        "fixed": draw.take(int(spec.rate * phase_s["fixed"])),
        "saturation": draw.take(int(SATURATION_MAX_RPS * phase_s["saturation"])),
    }
    requests = {
        phase: [ServeRequest(query=inputs.pool[i]) for i in picks]
        for phase, picks in drawn.items()
    }
    frames = {phase: loadgen.serve_frames(reqs) for phase, reqs in requests.items()}
    sampler = random.Random(seed)
    keep = {
        "fixed": set(sampler.sample(range(len(frames["fixed"])), ORACLE_SAMPLE["fixed"])),
        "saturation": set(range(ORACLE_SAMPLE["saturation"])),
    }

    cluster, segment, setup_times = boot(inputs, work)
    try:
        config = cluster.config
        driven = asyncio.run(
            _drive(
                cluster.address, frames, spec.rate, phase_s, keep, _frontend_pid()
            )
        )
    finally:
        cluster.stop()

    fixed: loadgen.PhaseResult = driven["fixed"]
    sat: loadgen.PhaseResult = driven["saturation"]
    warm: loadgen.PhaseResult = driven["warm"]
    mismatches = _oracle_mismatches(
        inputs,
        requests,
        {"fixed": fixed.kept, "saturation": sat.kept},
    )

    latencies = summarize_latencies(due_latencies_ms(fixed.due, fixed.ok_done()))
    lag = summarize_latencies(lateness_ms(fixed.due, fixed.sent))
    completed_fixed = sum(fixed.ok)
    front0 = driven["stats0"]["frontend"]["counters"]
    front1 = driven["stats1"]["frontend"]["counters"]
    front2 = driven["stats2"]["frontend"]["counters"]
    w0, w1, w2 = (
        _worker_totals(driven[key]) for key in ("stats0", "stats1", "stats2")
    )
    cpu0, cpu1 = driven["cpu0"], driven["cpu1"]
    frontend_pid = driven["pids"][0]
    frontend_cpu = (
        {frontend_pid: cpu0[frontend_pid]},
        {frontend_pid: cpu1[frontend_pid]},
    )
    worker_cpu = (
        {pid: cpu0[pid] for pid in w1["pids"] if pid in cpu0},
        {pid: cpu1[pid] for pid in w1["pids"] if pid in cpu1},
    )
    shares = served_by(front0, front1)
    worker_served = w1["served"] - w0["served"]
    worker_serve_ms = delta_mean(w0["serve_ms"], w1["serve_ms"])

    # First occurrences of a query can only be answered by a worker.
    seen = {pick for pick, sent in zip(drawn["warm"], warm.sent) if sent}
    first_rtt = []
    for i, pick in enumerate(drawn["fixed"]):
        if pick not in seen and fixed.ok[i]:
            first_rtt.append((fixed.done[i] - fixed.sent[i]) * 1e3)
        seen.add(pick)
    measured_picks = drawn["fixed"]
    unique_frac = len(set(measured_picks)) / len(measured_picks)

    attempted = warm.attempted + fixed.attempted + sat.attempted
    failed = warm.failed() + fixed.failed() + sat.failed() + len(mismatches)
    failures = warm.failures + fixed.failures + sat.failures
    sat_duration = sat.window_end - sat.window_start

    e2e = {
        "setup_s": median(setup_times),
        "index_bytes_per_ad": segment.stat().st_size / len(inputs.ads),
        "mem_mb": driven["mem_mb"],
    }
    layers = {
        "program.cpu_ms_per_req": cpu_ms_per_request(
            cpu0, cpu1, completed_fixed, CLOCK_TICKS
        ),
        "client.serve_p50_ms": latencies["p50"],
        "client.serve_p99_ms": latencies["tail"],
        "client.throughput_rps": sum(
            1 for end in sat.ok_done() if end is not None and end <= sat.window_end
        ) / sat_duration,
        "gen.lag_p99_ms": lag["tail"],
        "gen.sent": float(fixed.attempted),
        "gen.conns": float(driven["conns"]),
        "frontend.cpu_ms_per_req": cpu_ms_per_request(
            *frontend_cpu, completed_fixed, CLOCK_TICKS
        ),
        "frontend.served_by_cache_frac": shares["cache_frac"],
        "frontend.served_by_coalesced_frac": shares["coalesced_frac"],
        "frontend.served_by_worker_frac": shares["worker_frac"],
    }
    for counter in ("shed", "worker_errors", "worker_failovers", "unrouted"):
        layers[f"frontend.{counter}"] = float(
            front2.get(f"frontend.{counter}", 0) - front0.get(f"frontend.{counter}", 0)
        )
    layers.update(
        {
            "relay.overhead_ms_mean": mean(first_rtt) - worker_serve_ms,
            "worker.cpu_ms_per_req": cpu_ms_per_request(
                *worker_cpu, max(worker_served, 1), CLOCK_TICKS
            ),
            "worker.served": float(worker_served),
            "worker.serve_ms_mean": worker_serve_ms,
            "worker.batch_size_mean": delta_mean(
                w0["batch_size"], w1["batch_size"]
            ),
            "worker.queue_wait_ms_p50": w1["queue_wait_p50"],
            "worker.queue_rejects": float(w2["queue_rejects"] - w0["queue_rejects"]),
        }
    )

    report: dict[str, Any] = {
        "cluster": {
            "num_workers": config.num_workers,
            "frontend_process": config.frontend_process,
            "max_batch": config.max_batch,
            "coalesce": config.coalesce,
            "cache_entries": config.cache_entries,
            "slots": config.slots,
            "conns_per_worker": config.conns_per_worker,
        },
        "phases_s": phase_s,
        "rate_rps": spec.rate,
        "setup_s_reps": setup_times,
        "latency_ms": latencies,
        "gen_lag_ms": lag,
        "served_by": shares,
        "unique_query_frac": unique_frac,
        "saturation": {
            "completed": sum(sat.ok),
            "seconds": sat_duration,
            "window": SATURATION_WINDOW,
            "served_by": served_by(front1, front2),
        },
        "failures": dict(failures),
        "oracle": {
            "checked": len(fixed.kept) + len(sat.kept),
            "mismatches": mismatches[:20],
        },
    }

    if lag["tail"] > MAX_GEN_LAG_P99_MS:
        raise InvalidRun(
            f"generator ran late: lag p{lag['tail_pct']} = "
            f"{lag['tail']:.2f} ms > {MAX_GEN_LAG_P99_MS} ms"
        )
    if name == "serve-unique" and shares["worker_frac"] < MIN_WORKER_FRAC:
        raise InvalidRun(
            f"workers answered only {shares['worker_frac']:.3f} of "
            f"serve-unique requests (< {MIN_WORKER_FRAC})"
        )

    if trace:
        for tag, phase in (("fixed", fixed), ("saturation", sat)):
            for i, (due, sent, done) in enumerate(
                zip(phase.due, phase.sent, phase.done)
            ):
                if not sent:
                    continue
                rid = f"{tag}-{i}"
                end = done if done is not None else sent
                parent = spans.add("request", due, end, rid)
                spans.add("gen.lateness", due, sent, rid, parent)
                spans.add("in_flight", sent, end, rid, parent)
        replayed = replay.run(segment, requests["fixed"], spans)
        layers.update(replayed["metrics"])
        report["replay"] = replayed["report"]
        mismatches.extend(replayed["mismatches"])
        attempted += replayed["report"]["requests"]
        failed += len(replayed["mismatches"])
    layers["fail_frac"] = failed / attempted

    return {
        "e2e": e2e,
        "layers": layers,
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
