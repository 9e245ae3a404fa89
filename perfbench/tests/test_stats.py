"""The arithmetic rules every reported number rests on."""

import math
import os

import pytest

from common import SpanRecorder, proc_cpu
from stats import (
    cpu_ms_per_request,
    delta_mean,
    due_latencies_ms,
    lateness_ms,
    nearest_rank,
    parse_proc_stat,
    served_by,
    summarize_latencies,
    tail_percentile,
)


# -------------------------------------------------------------- percentiles


def test_tail_is_p99_once_a_thousand_samples_leave_ten_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(50_000) == 99.0


def test_tail_drops_below_p99_for_small_samples():
    assert tail_percentile(500) == 98.0
    assert tail_percentile(101) == 90.0


@pytest.mark.parametrize("count", range(11, 2500, 7))
def test_tail_always_leaves_at_least_ten_samples_beyond(count):
    pct = tail_percentile(count)
    rank = math.ceil(pct / 100.0 * count)
    assert count - rank >= 10
    # …and is the highest such percentile on the 0.1 grid (or the cap).
    higher = round(pct + 0.1, 1)
    if pct < 99.0:
        assert count - math.ceil(higher / 100.0 * count) < 10


def test_tail_refuses_samples_with_no_room_beyond():
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_summary_reports_count_and_which_percentile():
    summary = summarize_latencies([float(v) for v in range(1, 201)])
    assert summary["count"] == 200
    assert summary["tail_pct"] == 95.0
    assert summary["p50"] == 100.0
    assert summary["tail"] == 190.0


def test_failures_count_as_infinite_latency():
    values = [1.0] * 980 + [math.inf] * 20
    summary = summarize_latencies(values)
    assert summary["p50"] == 1.0
    assert summary["tail"] == math.inf


def test_nearest_rank():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
    assert nearest_rank([7.0], 1.0) == 7.0


# -------------------------------------------------- due-time latency, lateness


def test_latency_is_measured_from_the_due_time():
    due = [10.0, 10.1, 10.2]
    done = [10.005, None, 10.35]
    assert due_latencies_ms(due, done) == pytest.approx([5.0, math.inf, 150.0])


def test_a_stall_charges_every_request_queued_behind_it():
    # Frames due every 10 ms; the system stalls until t=0.1 s and then
    # answers everything at once.  Timed from the send, the later
    # requests would look fast; timed from the due time they do not.
    due = [i * 0.01 for i in range(10)]
    done = [0.1] * 10
    latencies = due_latencies_ms(due, done)
    assert latencies == pytest.approx([100.0 - 10.0 * i for i in range(10)])


def test_lateness_is_how_late_the_generator_wrote():
    due = [1.0, 2.0, 3.0]
    sent = [1.002, 2.0, 2.9999]
    assert lateness_ms(due, sent) == pytest.approx([2.0, 0.0, 0.0])


def test_latency_inputs_must_line_up():
    with pytest.raises(ValueError):
        due_latencies_ms([1.0, 2.0], [1.5])


# ----------------------------------------------------------- served_by deltas


def test_served_by_splits_the_interval_by_answering_layer():
    before = {
        "frontend.requests": 100,
        "frontend.cache_hits": 40,
        "frontend.coalesced": 5,
    }
    after = {
        "frontend.requests": 300,
        "frontend.cache_hits": 140,
        "frontend.coalesced": 15,
        "frontend.shed": 2,
    }
    shares = served_by(before, after)
    assert shares["requests"] == 200
    assert shares["cache"] == 100
    assert shares["coalesced"] == 10
    assert shares["shed"] == 2
    assert shares["unrouted"] == 0
    assert shares["worker"] == 88
    assert shares["cache_frac"] == pytest.approx(0.5)
    assert shares["worker_frac"] == pytest.approx(0.44)
    fractions = [shares[f"{k}_frac"] for k in ("cache", "coalesced", "shed", "unrouted", "worker")]
    assert sum(fractions) == pytest.approx(1.0)


def test_served_by_of_an_idle_interval_is_all_zero():
    shares = served_by({"frontend.requests": 7}, {"frontend.requests": 7})
    assert shares["worker_frac"] == 0.0


# ------------------------------------------------------- CPU from /proc deltas


def test_parse_proc_stat_counts_fields_after_the_last_paren():
    line = (
        "4242 (a (weird) name) S 1 4242 4242 0 -1 4194304 120 0 0 0 "
        "731 96 0 0 20 0 3 0 5000 100000 200 18446744073709551615"
    )
    assert parse_proc_stat(line) == (731, 96)


def test_parse_proc_stat_reads_this_process():
    utime, stime = proc_cpu([os.getpid()])[os.getpid()]
    assert utime >= 0 and stime >= 0


def test_cpu_per_request_sums_user_and_system_over_pids():
    before = {1: (100, 20), 2: (50, 5)}
    after = {1: (130, 30), 2: (70, 5)}
    # 40 + 20 ticks at 100 ticks/s = 600 ms over 100 requests.
    assert cpu_ms_per_request(before, after, 100, 100) == pytest.approx(6.0)


def test_cpu_per_request_skips_pids_that_vanished():
    before = {1: (100, 20), 2: (50, 5)}
    after = {1: (110, 20)}
    assert cpu_ms_per_request(before, after, 10, 100) == pytest.approx(10.0)


def test_cpu_per_request_needs_completed_requests():
    with pytest.raises(ValueError):
        cpu_ms_per_request({1: (0, 0)}, {1: (5, 5)}, 0, 100)


def test_delta_mean_of_cumulative_histograms():
    assert delta_mean((10, 2.0), (20, 3.0)) == pytest.approx(4.0)
    assert delta_mean((10, 2.0), (10, 2.0)) == 0.0


# --------------------------------------------------------------------- spans


def test_self_time_subtracts_children():
    spans = SpanRecorder()
    parent = spans.add("request", 0.0, 0.010, "r1")
    spans.add("retrieve", 0.001, 0.004, "r1", parent)
    spans.add("auction", 0.004, 0.009, "r1", parent)
    self_us = spans.self_time_us()
    assert self_us["request"] == pytest.approx(2000.0)
    assert self_us["retrieve"] == pytest.approx(3000.0)
    assert self_us["auction"] == pytest.approx(5000.0)

