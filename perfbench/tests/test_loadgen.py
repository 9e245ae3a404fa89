"""The generator against a fake frontend that answers out of order."""

import asyncio
import math

from repro.netserve.wire import HEADER, decode_payload, encode_frame, read_raw_frame
from repro.serving.request import ServeRequest

import loadgen
from stats import due_latencies_ms


def _result(request_id, degraded="none"):
    return {
        "type": "result",
        "request_id": request_id,
        "result": {"query": [], "degraded_reason": degraded, "outcome": {}},
    }


async def _serve_reversed_pairs(reader, writer):
    """Answer frames two at a time, the second first; id 5 is shed."""
    pending = []
    while True:
        raw = await read_raw_frame(reader)
        if raw is None:
            break
        request_id = decode_payload(raw[HEADER.size:])["request"]["request_id"]
        pending.append(request_id)
        if len(pending) == 2:
            for rid in reversed(pending):
                degraded = "shed_overload" if rid == "5" else "none"
                writer.write(encode_frame(_result(rid, degraded)))
            pending.clear()
            await writer.drain()
    writer.close()


def _frames(count):
    return loadgen.serve_frames(
        [ServeRequest.from_text(f"q{i}") for i in range(count)]
    )


def test_open_loop_matches_out_of_order_replies_by_request_id():
    async def main():
        server = await asyncio.start_server(_serve_reversed_pairs, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await loadgen.open_loop(
                ("127.0.0.1", port), _frames(10), rate=500.0, conns=1, keep={0, 1}
            )

    phase = asyncio.run(main())
    assert phase.attempted == 10
    assert phase.failed() == 1
    assert phase.failures["degraded:shed_overload"] == 1
    assert [i for i, ok in enumerate(phase.ok) if not ok] == [5]
    # Request 2k is answered only after 2k+1 was sent, one interval later.
    for even in range(0, 10, 2):
        assert phase.done[even] >= phase.sent[even + 1]
    assert set(phase.kept) == {0, 1}
    assert phase.kept[0]["request_id"] == "0"
    # Due times follow the fixed schedule regardless of replies.
    gaps = [b - a for a, b in zip(phase.due, phase.due[1:])]
    assert all(math.isclose(gap, 0.002) for gap in gaps)
    latencies = due_latencies_ms(phase.due, phase.ok_done())
    assert latencies[5] == math.inf
    assert all(math.isfinite(v) for i, v in enumerate(latencies) if i != 5)


def test_unanswered_requests_time_out_as_failures(monkeypatch):
    monkeypatch.setattr(loadgen, "REPLY_GRACE_S", 0.2)

    async def swallow(reader, writer):
        while await read_raw_frame(reader) is not None:
            pass
        writer.close()

    async def main():
        server = await asyncio.start_server(swallow, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await loadgen.open_loop(
                ("127.0.0.1", port), _frames(3), rate=100.0, conns=2, keep=set()
            )

    phase = asyncio.run(main())
    assert phase.failed() == 3
    assert phase.failures["timeout"] == 3


def test_closed_loop_keeps_a_window_in_flight():
    async def echo(reader, writer):
        while (raw := await read_raw_frame(reader)) is not None:
            rid = decode_payload(raw[HEADER.size:])["request"]["request_id"]
            writer.write(encode_frame(_result(rid)))
        writer.close()

    async def main():
        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await loadgen.closed_loop(
                ("127.0.0.1", port), _frames(50_000), conns=2, window=4,
                duration_s=0.2, keep=set(),
            )

    phase = asyncio.run(main())
    assert sum(phase.ok) > 8
    assert phase.failed() == 0
    # A frame is released only while the window is open; its timestamp
    # is taken just after the write.
    assert all(sent < phase.window_end + 0.01 for sent in phase.sent if sent)
