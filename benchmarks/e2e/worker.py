"""One workload, one run, in this (fresh) interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src/``; not
meant to be run by hand.  Prints the metrics as readable lines, one
``REPORT {json}`` line (sample counts, digest, failure notes), and — as
the last line of standard output — the result object the benchmark
contract asks for.  The exit status is non-zero when any output was
wrong.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

from layers import end_to_end, install, per_layer
from spans import SpanTable, Tracer
from workloads import WORKLOADS, Samples, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def _open_sockets() -> int:
    """Socket descriptors this process holds (0 where /proc is absent)."""
    count = 0
    try:
        for fd in os.listdir("/proc/self/fd"):
            try:
                if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                    count += 1
            except OSError:
                continue
    except OSError:
        return 0
    return count


def _leak_check(samples: Samples, sockets_before: int) -> None:
    """No server thread, pool thread or socket may outlive the run."""
    deadline = time.monotonic() + 3.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.02)
    samples.attempted += 1
    stray = [t.name for t in threading.enumerate()][1:]
    sockets = _open_sockets() - sockets_before
    if stray or sockets > 0:
        samples.fail(f"leaked threads {stray}, sockets {sockets}")


def run_plain(
    cls: type[Workload], seed: int, seconds: float, quick: bool
) -> tuple[Samples, dict[str, float]]:
    """The untraced run behind the end-to-end metrics.  Set-up is
    repeated and its median reported; the last set-up is measured."""
    setups: list[float] = []
    repeats = 1 if quick else 3
    workload = None
    for k in range(repeats):
        gc.collect()
        workload = cls(seed, OUT_DIR, quick)
        workload.calibrator.sample(5)
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        workload.calibrator.sample(5)
        setups.append((t1 - t0) / workload.calibrator.slowdown(t0, t1))
        if k < repeats - 1:
            workload.close()
    gc.collect()
    gc.freeze()
    try:
        samples = workload.measure(seconds, None)
        workload.verify(samples)
    finally:
        workload.close()
    return samples, end_to_end(samples, statistics.median(setups))


def run_traced(
    cls: type[Workload], seed: int, seconds: float, quick: bool
) -> tuple[Samples, dict[str, float]]:
    """The traced run behind the per-layer metrics: the same fixed
    operation sequence twice, untraced then traced."""
    workload = cls(seed, OUT_DIR, quick)
    n_ops = workload.trace_ops(seconds)
    workload.setup()
    gc.collect()
    gc.freeze()
    try:
        plain = workload.measure(seconds, n_ops)
    finally:
        workload.close()
    gc.unfreeze()
    tracer = Tracer()
    bytes_seen = install(tracer)
    workload = cls(seed, OUT_DIR, quick, tracer)
    workload.setup()
    gc.collect()
    gc.freeze()
    try:
        traced = workload.measure(seconds, n_ops)
        n_window = len(tracer.spans)
        window_bytes = copy.copy(bytes_seen)
        workload.verify(traced)
    finally:
        workload.close()
    window = SpanTable(tracer.spans[:n_window])
    drills = SpanTable(tracer.spans[n_window:])
    tracer.write_jsonl(
        OUT_DIR / f"trace_{cls.name}.jsonl",
        {**window.selfs, **drills.selfs},
    )
    traced.failed += plain.failed
    traced.attempted += plain.attempted
    traced.notes.extend(plain.notes)
    metrics = per_layer(
        workload, plain, traced, window, drills, window_bytes
    )
    return traced, metrics


def main(argv: list[str] | None = None) -> int:
    """Run one workload; print its metrics and the result object."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    listed = declared["per_layer" if args.trace else "end_to_end"]
    cls = WORKLOADS[args.workload]
    sockets_before = _open_sockets()
    runner = run_traced if args.trace else run_plain
    samples, values = runner(cls, args.seed, args.seconds, args.quick)
    _leak_check(samples, sockets_before)

    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise SystemExit(
            "BENCHMARK.json and the harness disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}"
        )
    n = {
        "latency_ms": len(samples.latency),
        "service": len(samples.service),
        "late_ms": len(samples.late_ms),
        **{f"run_{k}": samples.kinds.count(k) for k in set(samples.kinds)},
    }
    print(
        f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}  samples: "
        + " ".join(f"{k}={v}" for k, v in n.items())
    )
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:32s} {value:>16.6f} {m['unit']}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": n,
        "units": samples.units,
        "wall_s": samples.wall_s,
        "digest": samples.digest.hexdigest(),
        "machine_slowdown": samples.slowdown,
        "mismatches": samples.mismatches,
        "notes": samples.notes,
    }
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": samples.mismatches == 0,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if samples.mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
