"""The benchmark's own load generator: one asyncio thread, few sockets.

Two phases drive the serving cluster's frontend over TCP:

* :func:`open_loop` — frames go out on a fixed schedule (request ``i``
  is due at ``t0 + i / rate``), round-robin over at most ``nproc``
  connections, *without* waiting for replies.  Latency is measured
  from the due time, so a stall is charged to every request queued
  behind it; how late the generator itself wrote each frame is kept
  too, so a late generator can invalidate a run.
* :func:`closed_loop` — each connection keeps a fixed window of
  pipelined requests; every reply releases the next frame.  Completed
  replies inside the window give saturation throughput.

Replies are matched by ``request_id`` (the frame index as a string),
never by arrival order, so an out-of-order frontend is measured
correctly.  A reply that is an error frame, a shed or degraded result,
or that never arrives, is a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.netserve.wire import (
    HEADER,
    WireError,
    decode_payload,
    encode_frame,
    read_raw_frame,
)
from repro.serving.request import ServeRequest

#: Seconds to wait for outstanding replies after the last send.
REPLY_GRACE_S = 10.0
#: Buffered bytes per socket above which the writer yields to drain.
DRAIN_ABOVE = 1 << 16


def serve_frames(requests: list[ServeRequest]) -> list[bytes]:
    """Pre-encoded ``serve`` frames; request ``i`` carries id ``"i"``."""
    frames = []
    for i, request in enumerate(requests):
        payload = request.to_dict()
        payload["request_id"] = str(i)
        frames.append(encode_frame({"type": "serve", "request": payload}))
    return frames


@dataclass(slots=True)
class PhaseResult:
    """Per-request timestamps (``perf_counter`` seconds) of one phase."""

    due: list[float]
    sent: list[float]
    done: list[float | None]
    ok: list[bool]
    kept: dict[int, dict[str, Any]] = field(default_factory=dict)
    failures: Counter[str] = field(default_factory=Counter)
    window_start: float = 0.0
    window_end: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(1 for sent in self.sent if sent > 0.0)

    def ok_done(self) -> list[float | None]:
        """Completion times with failures blanked (they count as +inf)."""
        return [end if ok else None for end, ok in zip(self.done, self.ok)]

    def failed(self) -> int:
        return sum(
            1 for sent, ok in zip(self.sent, self.ok) if sent > 0.0 and not ok
        )


def _classify(payload: dict[str, Any]) -> str | None:
    """``None`` for a full answer, else the failure kind."""
    if payload.get("type") != "result":
        return f"frame:{payload.get('type')}"
    result = payload.get("result")
    if not isinstance(result, dict):
        return "frame:no-result"
    reason = result.get("degraded_reason", "none")
    return None if reason == "none" else f"degraded:{reason}"


class _Session:
    """Connections plus the reply bookkeeping of one phase."""

    def __init__(self, phase: PhaseResult, keep: set[int]) -> None:
        self.phase = phase
        self.keep = keep
        self.outstanding = 0
        self.all_answered = asyncio.Event()
        self.on_reply: Any = None

    def settle(self, index: int, at: float, payload: dict[str, Any]) -> None:
        phase = self.phase
        if phase.done[index] is not None:
            return
        phase.done[index] = at
        kind = _classify(payload)
        if kind is None:
            phase.ok[index] = True
        else:
            phase.failures[kind] += 1
        if index in self.keep:
            phase.kept[index] = payload
        self.outstanding -= 1
        if self.outstanding == 0:
            self.all_answered.set()

    async def receive(self, conn: int, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                raw = await read_raw_frame(reader)
                if raw is None:
                    return
                at = time.perf_counter()
                payload = decode_payload(raw[HEADER.size:])
                try:
                    index = int(payload["request_id"])
                except (KeyError, TypeError, ValueError):
                    self.phase.failures["unmatched"] += 1
                    continue
                self.settle(index, at, payload)
                if self.on_reply is not None:
                    self.on_reply(conn)
        except (OSError, WireError, asyncio.IncompleteReadError):
            self.phase.failures["connection"] += 1


async def _connect(
    address: tuple[str, int], conns: int
) -> list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
    return [await asyncio.open_connection(*address) for _ in range(conns)]


async def _close(
    streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    tasks: list[asyncio.Task[None]],
) -> None:
    for _, writer in streams:
        writer.close()
    for _, writer in streams:
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def open_loop(
    address: tuple[str, int],
    frames: list[bytes],
    rate: float,
    conns: int,
    keep: set[int],
) -> PhaseResult:
    """Send ``frames`` at ``rate`` per second regardless of replies."""
    n = len(frames)
    phase = PhaseResult(
        due=[0.0] * n, sent=[0.0] * n, done=[None] * n, ok=[False] * n
    )
    streams = await _connect(address, conns)
    session = _Session(phase, keep)
    session.outstanding = n
    tasks = [
        asyncio.ensure_future(session.receive(i, reader))
        for i, (reader, _) in enumerate(streams)
    ]
    try:
        start = time.perf_counter() + 0.05
        phase.window_start = start
        interval = 1.0 / rate
        for i, frame in enumerate(frames):
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[i % conns][1]
            writer.write(frame)
            phase.due[i] = due
            phase.sent[i] = time.perf_counter()
            if writer.transport.get_write_buffer_size() > DRAIN_ABOVE:
                await writer.drain()
        phase.window_end = start + n * interval
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(session.all_answered.wait(), REPLY_GRACE_S)
    finally:
        await _close(streams, tasks)
    phase.failures["timeout"] += sum(1 for end in phase.done if end is None)
    return phase


async def closed_loop(
    address: tuple[str, int],
    frames: list[bytes],
    conns: int,
    window: int,
    duration_s: float,
    keep: set[int],
) -> PhaseResult:
    """``window`` pipelined requests per connection for ``duration_s``;
    frames stop going out when the window ends."""
    n = len(frames)
    phase = PhaseResult(
        due=[0.0] * n, sent=[0.0] * n, done=[None] * n, ok=[False] * n
    )
    streams = await _connect(address, conns)
    session = _Session(phase, keep)
    next_index = 0
    stop_at = 0.0

    def send(conn: int) -> None:
        nonlocal next_index
        if next_index >= n or time.perf_counter() >= stop_at:
            return
        index = next_index
        next_index += 1
        session.outstanding += 1
        session.all_answered.clear()
        streams[conn][1].write(frames[index])
        phase.sent[index] = phase.due[index] = time.perf_counter()

    session.on_reply = send
    tasks = [
        asyncio.ensure_future(session.receive(i, reader))
        for i, (reader, _) in enumerate(streams)
    ]
    try:
        phase.window_start = time.perf_counter()
        stop_at = phase.window_start + duration_s
        for conn in range(conns):
            for _ in range(window):
                send(conn)
        await asyncio.sleep(duration_s)
        phase.window_end = stop_at
        if session.outstanding:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    session.all_answered.wait(), REPLY_GRACE_S
                )
    finally:
        await _close(streams, tasks)
    if next_index >= n:
        raise RuntimeError(
            f"closed-loop phase ran out of its {n} pre-drawn frames"
        )
    phase.failures["timeout"] += sum(
        1 for sent, end in zip(phase.sent, phase.done) if sent and end is None
    )
    return phase
