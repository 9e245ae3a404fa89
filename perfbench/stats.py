"""Pure arithmetic behind every number the benchmark reports.

Nothing here touches a socket or the program under test, so each rule
is unit-tested in ``perfbench/tests``:

* the percentile rule — a timing is reported as its median and the
  highest percentile (capped at 99) that still has at least ten samples
  beyond it, together with the sample count;
* open-loop latency — measured from each request's *due* time, so a
  stall charges every request queued behind it, with failures as +inf;
* ``served_by`` fractions from frontend counter deltas;
* CPU per request from ``/proc/<pid>/stat`` deltas;
* delta means of the program's cumulative (count, mean) histograms.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(count: int, cap: float = 99.0) -> float:
    """Highest percentile ≤ ``cap`` with ≥ ``MIN_BEYOND`` samples beyond.

    With ``count`` samples, ``count * (1 - p/100)`` lie beyond the p-th
    percentile; requiring at least ten gives ``p ≤ 100 (1 - 10/count)``.
    """
    if count <= MIN_BEYOND:
        raise ValueError(
            f"{count} samples leave none for a tail beyond {MIN_BEYOND}"
        )
    return min(cap, math.floor(1000.0 * (1.0 - MIN_BEYOND / count)) / 10.0)


def summarize_latencies(latencies_ms: Iterable[float]) -> dict[str, float]:
    """Median and rule-chosen tail of a latency sample (inf = failed)."""
    ordered = sorted(latencies_ms)
    pct = tail_percentile(len(ordered))
    return {
        "count": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail_pct": pct,
        "tail": nearest_rank(ordered, pct),
    }


def due_latencies_ms(
    due: Sequence[float], done: Sequence[float | None]
) -> list[float]:
    """Per-request latency from the due time; an unanswered (or failed,
    ``done=None``) request counts as +inf."""
    return [
        math.inf if end is None else (end - start) * 1e3
        for start, end in zip(due, done, strict=True)
    ]


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator wrote each frame (never negative)."""
    return [
        max(0.0, (wrote - start) * 1e3)
        for start, wrote in zip(due, sent, strict=True)
    ]


def counter_delta(
    before: Mapping[str, float], after: Mapping[str, float], name: str
) -> float:
    """Delta of one monotonic counter (absent = never incremented)."""
    return after.get(name, 0) - before.get(name, 0)


def served_by(
    before: Mapping[str, float], after: Mapping[str, float]
) -> dict[str, float]:
    """Which frontend layer answered the requests of one interval.

    Every ``frontend.requests`` increment ends in exactly one of: a
    cache hit, a coalesced follower, a shed, an unrouted (no worker
    answered) reply, or a worker round trip — so the worker share is
    the remainder.  Returns the counts and the fractions.
    """
    requests = counter_delta(before, after, "frontend.requests")
    counts = {
        "cache": counter_delta(before, after, "frontend.cache_hits"),
        "coalesced": counter_delta(before, after, "frontend.coalesced"),
        "shed": counter_delta(before, after, "frontend.shed"),
        "unrouted": counter_delta(before, after, "frontend.unrouted"),
    }
    counts["worker"] = requests - sum(counts.values())
    out: dict[str, float] = {"requests": requests}
    for name, count in counts.items():
        out[name] = count
        out[f"{name}_frac"] = count / requests if requests else 0.0
    return out


def parse_proc_stat(text: str) -> tuple[int, int]:
    """``(utime, stime)`` clock ticks from one ``/proc/<pid>/stat`` line.

    The command name (field 2) is parenthesised and may itself hold
    spaces or parentheses, so fields are counted from the *last* ``)``:
    after it come state (field 3) … utime (14) and stime (15).
    """
    rest = text[text.rindex(")") + 2:].split()
    return int(rest[11]), int(rest[12])


def cpu_ms_per_request(
    before: Mapping[int, tuple[int, int]],
    after: Mapping[int, tuple[int, int]],
    requests: float,
    ticks_per_s: float,
) -> float:
    """User + system CPU burnt between two ``/proc`` snapshots, in ms
    per request.  Only pids present in both snapshots count."""
    if requests <= 0:
        raise ValueError("no requests completed in the interval")
    ticks = sum(
        (after[pid][0] - before[pid][0]) + (after[pid][1] - before[pid][1])
        for pid in before
        if pid in after
    )
    return ticks / ticks_per_s * 1e3 / requests


def delta_mean(
    before: tuple[float, float], after: tuple[float, float]
) -> float:
    """Mean of the samples added between two cumulative
    ``(count, mean)`` histogram readings (0 when none were added)."""
    count = after[0] - before[0]
    if count <= 0:
        return 0.0
    return (after[0] * after[1] - before[0] * before[1]) / count


def mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)
