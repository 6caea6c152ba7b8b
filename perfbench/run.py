"""bjcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the bjcalc sources in ./src (next to this
directory) from a single client in a closed loop, checks every output
through a second route, and prints a human-readable report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run records spans
around every call into a bjcalc module, adds the fixed probe pass, and the
metrics are the per-layer ones.  Names, units and reasons are in
BENCHMARK.json and perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench-out"

WORKLOADS = {
    "exact_mix": "exact_mix",
    "grid_oneshot": "grid",
    "grid_batch": "grid",
    "cli_cold": "cli_cold",
}
SETUP_CHILDREN = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up once, print its seconds, and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _setup(args):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    t0 = perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed, args.workload)
    return workload, perf_counter() - t0


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bjcalc" / "__init__.py").is_file():
        print(f"error: bjcalc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    harness.cap_threads()
    if args.setup_only:
        _, seconds = _setup(args)
        print(repr(seconds))
        return 0

    spec = importlib.util.find_spec("bjcalc")  # locates without importing
    if Path(spec.origin).resolve().parent != (SRC / "bjcalc").resolve():
        print(f"error: bjcalc resolves to {spec.origin}, not {SRC}", file=sys.stderr)
        return 2
    workload, parent_setup = _setup(args)
    setups = [parent_setup] + [_child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    tracer = harness.Tracer() if args.trace else None
    loop = harness.closed_loop(workload.blocks(), workload.execute, workload.check,
                               workload.key, args.seconds, tracer)
    final_failures, final_checks, final_s, final_items = workload.final_checks()
    loop.checks += final_checks
    loop.check_s += final_s
    loop.attempted += final_items
    loop.check_failed += len(final_failures)
    for failure in final_failures:
        loop.note(failure)

    if args.trace:
        import probes

        fixed = probes.fixed_pass(tracer)
        loop.checks += fixed.checks
        loop.check_s += fixed.check_s
        loop.attempted += fixed.attempted
        loop.check_failed += fixed.failed
        loop.errors += fixed.errors

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": harness.environment(),
        "calibration_ms": harness.calibration_ms(),
        "setup_runs_s": setups,
        "requests": loop.attempted,
        "raised": loop.raised,
        "check_failed": loop.check_failed,
        "error_rate": loop.failed / loop.attempted if loop.attempted else 1.0,
        "checks_run": loop.checks,
        "repeat_fraction": loop.repeats / max(1, len(loop.latencies)),
        "latency_samples": len(loop.latencies),
        "whole_blocks": len(loop.block_rates),
        "timed_s": loop.timed_s,
        "wait_time": "none: one closed-loop client in one thread; no layer queues or waits",
        "errors": loop.errors,
    }
    if args.trace:
        metrics = probes.per_layer_metrics(tracer, loop, fixed)
        report["layer_shares"] = harness.layer_shares(
            harness.span_totals(tracer.spans, keep=lambda rid: isinstance(rid, int)))
        report["self_time_s"] = {
            name: round(v["self_s"], 6)
            for name, v in harness.span_totals(tracer.spans).items()
        }
        _write_trace(args, tracer, report)
    else:
        lat_ms = [t * 1e3 for t in loop.latencies]
        # Median over whole blocks, which all hold the same mix: robust to a
        # burst of load from outside that slows one block.
        rates = loop.block_rates or [(len(lat_ms) - loop.raised) / loop.timed_s]
        metrics = {
            "throughput_rps": (statistics.median(rates), "requests/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_p90_ms": (harness.percentile(lat_ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }
        report["mean_rate_rps"] = (len(lat_ms) - loop.raised) / loop.timed_s
        report["p90_tail_samples"] = sum(1 for t in lat_ms if t > metrics["latency_p90_ms"][0])

    for key, value in report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _write_trace(args, tracer, report) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump({"report": report, "counts": tracer.counts,
                   "spans": ["name start end parent request"] + tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
