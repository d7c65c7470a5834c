"""Run one benchmark workload, or all of them, and print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city_match --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, tracing off
    python3 perfbench/run.py --workload all --trace 1   # the layer ledger

With ``--trace 0`` the workload is set up ``SETUPS`` times (the median
is ``setup_s``), the last instance runs the timed phase for
``--seconds``, and the end-to-end metrics are reported.  With
``--trace 1`` a fresh instance runs half the time untraced, then the
probes in :mod:`perfbench.probes` are installed, another fresh instance
is set up and runs the other half traced, and the per-layer ledger is
reported; spans are written under ``perfbench/out/``.

Either way every delivery is checked against the workload's oracle
outside the timed region.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a run that
printed it exits 0 and carries its verdict in ``correct``, while
``--workload all`` exits 1 unless every workload was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import OUT_DIR, probes  # noqa: E402  (needs the path above)
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import NAMES, load, percentile  # noqa: E402

SETUPS = 3
SAMPLES_PREFIX = "samples: "
# Per-layer counters that record a maximum, not a sum.
PEAKS = ("kernel.max_pending", "transport.gen_late_ms")

END_TO_END = [("setup_s", "s"), ("events_per_s", "1/s"), ("ops_per_s", "1/s"),
              ("p50_ms", "ms"), ("peak_rss_mb", "MB")]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_untraced(workload_cls, seed: int, seconds: float) -> dict:
    workload = workload_cls(seed)
    setup_times = []
    instance = None
    for _ in range(getattr(workload, "setups", SETUPS)):
        if instance is not None:
            instance.close()
            instance = None
        gc.collect()
        start = time.perf_counter()
        instance = workload.setup()
        setup_times.append(time.perf_counter() - start)
    # Memory is taken at the end of set-up: during the timed phase it
    # grows with every delivery the clients keep, so a faster program
    # would read as a fatter one.
    peak_rss_mb = _peak_rss_mb()
    try:
        gc.collect()
        phase = instance.run(seconds)
        attempted, failed = instance.check()
    finally:
        instance.close()
    samples = {
        "setup_s": len(setup_times),
        "events_per_s": phase.events,
        "ops_per_s": phase.ops,
        "p50_ms": len(phase.latencies_ms),
        "peak_rss_mb": 1 + (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0),
    }
    values = {
        "setup_s": statistics.median(setup_times),
        "events_per_s": phase.events / phase.elapsed_s,
        "ops_per_s": phase.ops / phase.elapsed_s,
        "p50_ms": percentile(phase.latencies_ms, 50),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "samples": samples}


def run_traced(workload_cls, name: str, seed: int, seconds: float) -> dict:
    workload = workload_cls(seed)
    half = seconds / 2.0

    baseline = workload.setup()
    try:
        gc.collect()
        untraced = baseline.run(half)
        attempted, failed = baseline.check()
    finally:
        baseline.close()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder()
    probes.install(recorder)
    try:
        instance = workload.setup(traced=True)
        setup_end = len(recorder.spans)
        setup_counters, recorder.counters = recorder.counters, {}
        try:
            gc.collect()
            timed_start = len(recorder.spans)  # the collection above is neither phase
            traced = instance.run(half)
            probes_off_at = len(recorder.spans)
            more_attempted, more_failed = instance.check()
        finally:
            instance.close()
    finally:
        recorder.restore()
    attempted += more_attempted
    failed += more_failed

    spans = recorder.spans
    timed = spans[timed_start:probes_off_at]
    rebased = [[n, s, e, p - timed_start if p >= 0 else -1, pid] for n, s, e, p, pid in timed]
    worker_spans = traced.extra.get("worker_spans")
    counters = dict(recorder.counters)
    for key, value in traced.extra.get("counters", {}).items():
        counters[key] = max(counters.get(key, 0), value) if key in PEAKS else counters.get(key, 0) + value
    hub_spans_self = sum(probes.layer_self(rebased).values())
    untraced_cpu = max(0.0, traced.cpu_s - hub_spans_self) if worker_spans is not None else 0.0
    wall = traced.extra.get("phase_wall_s", traced.elapsed_s)
    metrics = probes.ledger(rebased, counters, wall, worker_spans, untraced_cpu)
    metrics.update(probes.setup_ledger(spans[:setup_end]))
    untraced_rate = untraced.events / untraced.elapsed_s
    traced_rate = traced.events / traced.elapsed_s
    metrics["trace.overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    # The tail latency repeats too loosely run to run to gate on (see
    # README), so it is reported here, from the untraced half.
    metrics["latency.p99_ms"] = percentile(untraced.latencies_ms, 99)
    metrics["latency.samples"] = len(untraced.latencies_ms)

    stem = OUT_DIR / f"{name}-seed{seed}"
    recorder.dump(str(stem) + "-spans.jsonl", {"setup_spans": setup_end,
                                                "setup_counters": setup_counters})
    with open(str(stem) + "-ledger.json", "w") as out:
        json.dump(metrics, out, indent=1, sort_keys=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": _unit(key)} for key, value in metrics.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us_per_frame"):
        return "us"
    if metric.endswith("bytes_per_event"):
        return "B"
    if metric.endswith("network.bytes"):
        return "B"
    if metric.endswith((".share", "_ratio", "_yield", ".overhead", "_per_query",
                        "_per_event", "_per_pub")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    status = 0
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"\n{name}: no result (exit {completed.returncode})")
            status = 1
            continue
        samples = {}
        for line in lines[:-1]:
            if line.startswith(SAMPLES_PREFIX):
                samples = json.loads(line[len(SAMPLES_PREFIX):])
        verdict = "correct" if result["correct"] else "WRONG"
        print(f"\n{name}: {verdict}, {result['attempted']} deliveries checked, "
              f"{result['failed']} failed")
        for metric, entry in result["metrics"].items():
            count = f"  n={samples[metric]}" if metric in samples else ""
            print(f"  {metric:32s} {entry['value']:14.4f} {entry['unit']:6s}{count}")
        if completed.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload_cls = load(args.workload)
    if args.trace:
        result = run_traced(workload_cls, args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(workload_cls, args.seed, args.seconds)
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    if "samples" in result:
        print(SAMPLES_PREFIX + json.dumps(result["samples"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
