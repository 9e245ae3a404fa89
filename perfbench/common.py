"""Inputs, environment envelope, ``/proc`` sampling and spans.

Everything the workloads share: the seeded corpus and query pool (the
program only ever receives these generated ads and queries), the
report envelope every run records, readers for per-process CPU and
memory, and the in-memory span recorder of the traced run.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.ads import Advertisement
from repro.core.queries import Query
from repro.datagen import CorpusConfig, QueryConfig, generate_corpus, generate_workload
from repro.kernels import active_backend

from stats import parse_proc_stat

#: Ads served by every workload; the ingest workload inserts from a
#: held-out tail generated with them.
CORPUS_ADS = 20_000
HELD_OUT_ADS = 4_000
#: Distinct queries in the pool every workload draws from.
POOL_QUERIES = 60_000
#: The corpus and pool are one fixed dataset; ``--seed`` draws the
#: traffic and the ingest op stream from it.  (A per-seed corpus moves
#: the mean candidate count per query by ±25% through which Zipf head
#: words it happens to pick, which would swamp any program change.)
DATASET_SEED = 20_090_401

#: Scratch space inside the checkout (segments, sockets, reports).
WORK_DIR = Path(".perfbench-work")

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True, slots=True)
class Inputs:
    ads: list[Advertisement]
    held_out: list[Advertisement]
    pool: list[Query]


def make_inputs() -> Inputs:
    """The corpus (+ held-out tail) and the distinct-query pool.

    Queries are web-short: a short bid word-set plus up to two noise
    words, about 3.7 words on average.
    """
    generated = generate_corpus(
        CorpusConfig(num_ads=CORPUS_ADS + HELD_OUT_ADS, seed=DATASET_SEED)
    )
    workload = generate_workload(
        generated,
        QueryConfig(
            num_distinct=POOL_QUERIES,
            total_frequency=10 * POOL_QUERIES,
            seed=DATASET_SEED + 1,
        ),
    )
    ads = list(generated.corpus)
    return Inputs(
        ads=ads[:CORPUS_ADS],
        held_out=ads[CORPUS_ADS:],
        pool=[query for query, _ in workload],
    )


def affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def git_revision(root: Path) -> str:
    """HEAD of ``root`` read from ``.git`` directly (no subprocess);
    ``unknown`` when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_loop_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran
    the interpreter when the run started (shared hosts drift)."""
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - started)
    return sorted(times)[reps // 2] * 1e3


def envelope(root: Path, workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """Host, toolchain and revision facts every report records."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover — numpy is optional
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cores": affinity_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels_backend": active_backend(),
        "git_revision": git_revision(root),
        "host_loop_ms": host_loop_ms(),
    }


# ------------------------------------------------------------------ #
# /proc sampling


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8])


def proc_cpu(pids: list[int]) -> dict[int, tuple[int, int]]:
    """``(utime, stime)`` ticks for each pid still alive."""
    out: dict[int, tuple[int, int]] = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                out[pid] = parse_proc_stat(fh.read())
        except (OSError, ValueError):
            continue
    return out


def proc_pss_mib(pids: list[int]) -> float:
    """Summed proportional set size of ``pids`` in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


# ------------------------------------------------------------------ #
# Spans


class SpanRecorder:
    """Spans kept in memory and written out once, at the end.

    A span is ``(id, name, start, end, parent, request_id)`` with times
    in seconds on the ``perf_counter`` clock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request_id: str,
        parent: int | None = None,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, name, start, end, parent, request_id))
        return span_id

    def self_time_us(self) -> dict[str, float]:
        """Mean self time per span name: duration minus the part its
        direct children cover (children never overlap here)."""
        child_total: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] = child_total.get(parent, 0.0) + end - start
        totals: dict[str, list[float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            own = end - start - child_total.get(span_id, 0.0)
            totals.setdefault(name, []).append(own)
        return {
            name: sum(values) / len(values) * 1e6
            for name, values in totals.items()
        }

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
