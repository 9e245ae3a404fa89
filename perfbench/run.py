"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-unique --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve-unique`` / ``serve-zipf`` — the serving cluster over TCP
  (:mod:`serve`), unique-heavy and Zipf traffic;
* ``ingest-churn`` — inserts and deletes beside reads on the tiered
  index, in process (:mod:`ingest`).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that reports the per-layer metrics, dumps its spans, and
records the tracing overhead against the last untraced run of the same
workload.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the human-readable report.  Any wrong reply exits non-zero (after
printing the result with ``"correct": false``); a run that measured
something other than its workload exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

EXIT_MISMATCH = 1
EXIT_INVALID = 3
EXIT_NO_PROGRAM = 4


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(spec_entries: list[dict], values: dict[str, float]) -> dict:
    names = [entry["name"] for entry in spec_entries]
    missing = set(names) - set(values)
    extra = set(values) - set(names)
    if missing or extra:
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    out = {}
    for entry in spec_entries:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"{entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _absent_layers(spec: dict, measured: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics read 0 for layers this workload never calls
    (a layer it does call must report every one of its metrics)."""
    called = {_layer(name) for name in measured}
    return {
        entry["name"]: 0.0
        for entry in spec["per_layer"]
        if _layer(entry["name"]) not in called
    }


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    import common
    import ingest
    import serve

    trace = bool(args.trace)
    common.WORK_DIR.mkdir(exist_ok=True)
    env = common.envelope(ROOT, args.workload, args.seed, trace)
    inputs = common.make_inputs()
    spans = common.SpanRecorder()
    module = ingest if args.workload == "ingest-churn" else serve
    steal0 = common.steal_ticks()
    try:
        outcome = module.run(
            args.workload, inputs, args.seed, args.seconds, trace, spans
        )
    except serve.InvalidRun as exc:
        print(f"error: invalid run, not reported: {exc}", file=sys.stderr)
        return EXIT_INVALID
    env["steal_s"] = (common.steal_ticks() - steal0) / common.CLOCK_TICKS

    stem = common.WORK_DIR / args.workload
    untraced_path = stem.with_name(stem.name + "-untraced.json")
    report = {
        "env": env,
        **outcome["report"],
        "end_to_end": outcome["e2e"],
    }
    if trace:
        layers = dict(outcome["layers"])
        layers.update(_absent_layers(spec, layers))
        report["per_layer"] = layers
        report["span_self_time_us"] = spans.self_time_us()
        spans_path = stem.with_name(stem.name + "-spans.jsonl")
        spans.dump(spans_path)
        report["spans"] = {"path": str(spans_path), "count": len(spans.spans)}
        if untraced_path.exists():
            untraced = json.loads(untraced_path.read_text())["end_to_end"]
            report["trace_overhead"] = {
                name: value - untraced[name]
                for name, value in outcome["e2e"].items()
            }
        metrics = _metrics(spec["per_layer"], layers)
    else:
        metrics = _metrics(spec["end_to_end"], outcome["e2e"])
    report_path = stem.with_name(
        stem.name + ("-traced.json" if trace else "-untraced.json")
    )
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps(report, indent=1, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    correct = not outcome["mismatches"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
