"""The ``ingest-churn`` workload: writes beside reads on the index layer.

Set-up packs the seeded 20k-ad corpus into a ``TieredSegmentedIndex``
(default ``TieredConfig``, a ``WorkloadRecorder`` feeding merge-time
re-optimization) and starts a ``BackgroundMerger``.  One writer thread
then applies a seeded stream of ops in a closed loop: 70% inserts (ads
from a held-out tail of the corpus, and re-inserts of deleted ads) and
30% deletes of live ads.  After every 4th op it serves one read through
``AdServer.serve`` over the same index.  Seals happen inline on the
writer, merges (with set-cover re-optimization) on the merger thread.

Correctness: the op stream is replayed afterwards on a mirrored
``WordSetIndex``, and every 10th read's slate must equal the mirror's at
that point; at the end the live-ad multiset must equal the mirror's.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from statistics import median
from pathlib import Path
from typing import Any

from repro.core.ads import Advertisement
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import MetricsRegistry
from repro.obs.workload import WorkloadRecorder
from repro.segment.tiered import BackgroundMerger, TieredConfig, TieredSegmentedIndex
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer

from common import CLOCK_TICKS, WORK_DIR, Inputs, SpanRecorder, proc_cpu, proc_pss_mib
from stats import mean, summarize_latencies

SETUP_REPS = 5
OPS = 20_000
INSERT_FRAC = 0.7
#: Of the inserts, the share that re-inserts a deleted ad (when any).
REINSERT_FRAC = 0.5
READ_EVERY = 4
#: Every this-many-th read is checked against the mirror.
CHECK_EVERY = 10
SLOTS = 4


def plan(inputs: Inputs, seed: int) -> tuple[list[tuple[bool, Advertisement]], list[int], Counter[Advertisement]]:
    """The seeded op stream ``(is_insert, ad)``, the pool index of each
    read, and the live multiset the stream ends with."""
    rng = random.Random(seed * 104729 + 3)
    live = list(inputs.ads)
    deleted: list[Advertisement] = []
    fresh = iter(inputs.held_out)
    ops: list[tuple[bool, Advertisement]] = []
    for _ in range(OPS):
        if rng.random() < INSERT_FRAC:
            ad = None
            if not deleted or rng.random() >= REINSERT_FRAC:
                ad = next(fresh, None)
            if ad is None and deleted:
                j = rng.randrange(len(deleted))
                deleted[j], deleted[-1] = deleted[-1], deleted[j]
                ad = deleted.pop()
            if ad is not None:
                live.append(ad)
                ops.append((True, ad))
                continue
        j = rng.randrange(len(live))
        live[j], live[-1] = live[-1], live[j]
        ad = live.pop()
        deleted.append(ad)
        ops.append((False, ad))
    reads = [rng.randrange(len(inputs.pool)) for _ in range(OPS // READ_EVERY)]
    return ops, reads, Counter(live)


def _open(inputs: Inputs, directory: Path) -> tuple[TieredSegmentedIndex, BackgroundMerger, MetricsRegistry]:
    registry = MetricsRegistry()
    index = TieredSegmentedIndex.pack_corpus(
        inputs.ads,
        directory,
        config=TieredConfig(),
        obs=registry,
        recorder=WorkloadRecorder(registry),
    )
    merger = BackgroundMerger(index)
    merger.start()
    return index, merger, registry


def _mirror_mismatches(
    inputs: Inputs,
    ops: list[tuple[bool, Advertisement]],
    applied: int,
    checked: dict[int, tuple[ServeRequest, dict[str, Any]]],
) -> list[str]:
    """Replay the first ``applied`` ops on a ``WordSetIndex`` and compare
    each checked read with the mirror's answer at the same point."""
    mirror = WordSetIndex.from_corpus(inputs.ads)
    oracle = AdServer(mirror, slots=SLOTS)
    mismatches = []
    for k, (is_insert, ad) in enumerate(ops[:applied]):
        if is_insert:
            mirror.insert(ad)
        elif not mirror.delete(ad):
            mismatches.append(f"op {k}: mirror could not delete {ad}")
        if k in checked:
            request, got = checked[k]
            if oracle.serve(request).to_dict() != got:
                mismatches.append(f"read after op {k}: {list(request.query.tokens)}")
    return mismatches


def run(
    name: str,
    inputs: Inputs,
    seed: int,
    seconds: float,
    trace: bool,
    spans: SpanRecorder,
) -> dict[str, Any]:
    ops, read_picks, final_live = plan(inputs, seed)
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)

    setup_times = []
    index = merger = registry = None
    for rep in range(SETUP_REPS):
        if index is not None:
            merger.stop()
            index.close()
            shutil.rmtree(index.directory)
        started = time.perf_counter()
        index, merger, registry = _open(inputs, work / f"rep{rep}")
        setup_times.append(time.perf_counter() - started)
    assert index is not None and merger is not None and registry is not None

    server = AdServer(index, slots=SLOTS)
    seals = registry.counter("tiered.seals")
    seen_segments = {record.name for record in index.manifest.segments}
    sealed_bytes = merged_bytes = 0
    last_generation = index.generation
    insert_s: list[float] = []
    delete_s: list[float] = []
    seal_s: list[float] = []
    read_ms: list[float] = []
    read_amp: list[int] = []
    checked: dict[int, tuple[ServeRequest, dict[str, Any]]] = {}
    failed = 0
    acked_writes = 0
    reads = 0
    merges0 = registry.value("tiered.merges")
    optimized0 = registry.value("tiered.optimized_merges")
    seals0 = seals.value

    cpu0 = proc_cpu([os.getpid()])
    deadline = time.perf_counter() + seconds
    loop_start = time.perf_counter()
    applied = 0
    for k, (is_insert, ad) in enumerate(ops):
        sealed_before = seals.value
        t0 = time.perf_counter()
        if is_insert:
            index.insert(ad)
            acked = True
        else:
            acked = index.delete(ad)
        t1 = time.perf_counter()
        applied = k + 1
        if acked:
            acked_writes += 1
        else:
            failed += 1
        if is_insert:
            insert_s.append(t1 - t0)
            if seals.value != sealed_before:
                seal_s.append(t1 - t0)
        else:
            delete_s.append(t1 - t0)
        if trace:
            spans.add("insert" if is_insert else "delete", t0, t1, f"op-{k}")
        manifest = index.manifest
        if manifest.generation != last_generation:
            last_generation = manifest.generation
            for record in manifest.segments:
                if record.name not in seen_segments:
                    seen_segments.add(record.name)
                    try:
                        size = (index.directory / record.name).stat().st_size
                    except FileNotFoundError:
                        continue
                    if record.level == 0:
                        sealed_bytes += size
                    else:
                        merged_bytes += size
        if k % READ_EVERY == READ_EVERY - 1:
            request = ServeRequest(query=inputs.pool[read_picks[reads]])
            r0 = time.perf_counter()
            result = server.serve(request)
            r1 = time.perf_counter()
            read_ms.append((r1 - r0) * 1e3)
            if trace:
                spans.add("read", r0, r1, f"op-{k}")
                read_amp.append(index.read_amplification())
            if reads % CHECK_EVERY == 0:
                checked[k] = (request, result.to_dict())
            reads += 1
        if t1 > deadline:
            break
    elapsed = time.perf_counter() - loop_start
    cpu1 = proc_cpu([os.getpid()])

    index.seal()
    merger.drain()
    live = Counter(index.live_ads())
    bytes_per_ad = index.segment_bytes() / len(index)
    mem = proc_pss_mib([os.getpid()])
    merges = registry.value("tiered.merges") - merges0
    optimized = registry.value("tiered.optimized_merges") - optimized0
    merger_errors = list(merger.errors)
    index.close()

    mismatches = _mirror_mismatches(inputs, ops, applied, checked)
    if applied == len(ops) and live != final_live:
        mismatches.append(
            f"live multiset differs from the mirror: "
            f"{sum((live - final_live).values())} extra, "
            f"{sum((final_live - live).values())} missing"
        )
    mismatches.extend(f"merger: {error}" for error in merger_errors)
    failed += len(mismatches)
    attempted = applied + reads

    latencies = summarize_latencies(read_ms)
    pid = os.getpid()
    cpu_ms = (
        (cpu1[pid][0] - cpu0[pid][0] + cpu1[pid][1] - cpu0[pid][1])
        / CLOCK_TICKS * 1e3
    )
    e2e = {
        "setup_s": median(setup_times),
        "index_bytes_per_ad": bytes_per_ad,
        "mem_mb": mem,
    }
    layers = {
        "fail_frac": failed / attempted,
        "program.cpu_ms_per_req": cpu_ms / attempted,
        "client.serve_p50_ms": latencies["p50"],
        "client.serve_p99_ms": latencies["tail"],
        "client.throughput_rps": attempted / elapsed,
        "tiered.ingest_ops_s": acked_writes / elapsed,
        "tiered.insert_us_p50": median(insert_s) * 1e6,
        "tiered.delete_us_p50": median(delete_s) * 1e6,
        "tiered.seals": float(seals.value - seals0),
        "tiered.seal_ms_mean": mean(seal_s) * 1e3,
        "tiered.write_stall_ms_max": max(insert_s + delete_s) * 1e3,
        "tiered.merges": float(merges),
        "tiered.optimized_merges": float(optimized),
        "tiered.read_amplification_mean": mean(read_amp),
        "tiered.bytes_written_per_byte_ingested": (
            (sealed_bytes + merged_bytes) / sealed_bytes if sealed_bytes else 0.0
        ),
    }
    report = {
        "tiered_config": "TieredConfig() defaults",
        "ops_planned": len(ops),
        "ops_applied": applied,
        "reads": reads,
        "loop_seconds": elapsed,
        "setup_s_reps": setup_times,
        "latency_ms": latencies,
        "live_ads": sum(live.values()),
        "oracle": {"checked": len(checked), "mismatches": mismatches[:20]},
    }
    return {
        "e2e": e2e,
        "layers": layers,
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
    }
