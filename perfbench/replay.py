"""In-process replay of a serve stream, one layer call at a time.

Each request goes through the same public functions a worker's serve
path uses, timed one by one from here:

``decode``   ``wire.decode_payload`` + ``ServeRequest.from_dict`` of the
             pre-encoded client frame;
``retrieve`` ``PackedSegmentIndex.query``;
``filter``   the ``passes_exclusions`` sweep over the candidates;
``auction``  ``run_gsp_auction``;
``encode``   ``ServeResult.to_dict`` + ``wire.encode_frame`` of the
             result frame,

each recorded as a span under one ``request`` span.  The staged result
must equal ``AdServer.serve`` of the same request, field for field.
Whole-pipeline costs come from timing ``AdServer.serve`` and
``AdServer.serve_batch`` (batches of 16) over the same stream, and the
index's own ``segment.*`` counters (``bind_obs``) give the retrieval
work per query.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.core.matching import passes_exclusions
from repro.netserve.wire import HEADER, decode_payload, encode_frame
from repro.obs.registry import MetricsRegistry
from repro.segment.packed import PackedSegmentIndex
from repro.serving.auction import run_gsp_auction
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer, ServeResult

from common import SpanRecorder

#: Requests replayed (a prefix of the fixed-rate stream).
REPLAY_REQUESTS = 1_500
BATCH = 16
SLOTS = 4
RESERVE_MICROS = 1
STAGES = ("decode", "retrieve", "filter", "auction", "encode")


def _counts(index: PackedSegmentIndex, requests: list[ServeRequest]) -> dict[str, float]:
    """Retrieval work per query from the index's own counters, on a
    freshly opened segment (cold node cache, as a new worker sees it)."""
    registry = MetricsRegistry()
    index.bind_obs(registry)
    try:
        for request in requests:
            index.query(request.query)
    finally:
        index.bind_obs(None)
    counters = {
        metric.name: metric.value
        for metric in registry.collect()
        if metric.kind == "counter"
    }
    queries = counters["segment.queries"]
    scans = counters["segment.node_scans"]
    return {
        "retrieve.probes_per_query": counters["segment.probes"] / queries,
        "retrieve.node_scans_per_query": scans / queries,
        "retrieve.entries_scanned_per_query": (
            counters["segment.entries_scanned"] / queries
        ),
        "retrieve.candidates_per_query": counters["segment.results"] / queries,
        "retrieve.node_cache_hit_frac": (
            counters["segment.cache_hits"] / scans if scans else 0.0
        ),
    }


def run(
    segment: Path, stream: list[ServeRequest], spans: SpanRecorder
) -> dict[str, Any]:
    requests = stream[:REPLAY_REQUESTS]
    frames = []
    for i, request in enumerate(requests):
        payload = request.to_dict()
        payload["request_id"] = f"replay-{i}"
        frames.append(encode_frame({"type": "serve", "request": payload}))

    index = PackedSegmentIndex(segment)
    try:
        metrics = _counts(index, requests)
        server = AdServer(index, slots=SLOTS, reserve_micros=RESERVE_MICROS)
        stage_total = dict.fromkeys(STAGES, 0.0)
        mismatches = []
        for frame in frames:
            t0 = time.perf_counter()
            request = ServeRequest.from_dict(
                decode_payload(frame[HEADER.size:])["request"]
            )
            t1 = time.perf_counter()
            candidates = index.query(request.query)
            t2 = time.perf_counter()
            eligible = [
                ad for ad in candidates if passes_exclusions(ad, request.query)
            ]
            t3 = time.perf_counter()
            outcome = run_gsp_auction(
                eligible, slots=SLOTS, reserve_micros=RESERVE_MICROS
            )
            t4 = time.perf_counter()
            result = ServeResult(query=request.query, outcome=outcome).to_dict()
            encode_frame(
                {"type": "result", "result": result, "request_id": request.request_id}
            )
            t5 = time.perf_counter()
            marks = (t0, t1, t2, t3, t4, t5)
            parent = spans.add("request", t0, t5, request.request_id or "")
            for stage, start, end in zip(STAGES, marks, marks[1:]):
                stage_total[stage] += end - start
                spans.add(stage, start, end, request.request_id or "", parent)
            if server.serve(request).to_dict() != result:
                mismatches.append(f"replay {request.request_id}")

        started = time.perf_counter()
        for request in requests:
            server.serve(request)
        serve_s = time.perf_counter() - started
        started = time.perf_counter()
        for at in range(0, len(requests), BATCH):
            server.serve_batch(requests[at:at + BATCH])
        batch_s = time.perf_counter() - started
    finally:
        index.close()

    n = len(requests)
    for stage in STAGES:
        metrics[f"{stage}.us_per_req"] = stage_total[stage] / n * 1e6
    metrics["serve.us_per_req"] = serve_s / n * 1e6
    metrics["serve_batch.us_per_req"] = batch_s / n * 1e6
    staged = sum(metrics[f"{s}.us_per_req"] for s in ("retrieve", "filter", "auction"))
    return {
        "metrics": metrics,
        "mismatches": mismatches,
        "report": {
            "requests": n,
            "retrieve_filter_auction_share_of_serve": staged / metrics["serve.us_per_req"],
        },
    }
