"""Shared machinery of the benchmark: spans, the closed-loop client, summary
statistics and the environment record.

Nothing here imports bjcalc or NumPy, so that importing this module costs
nothing that the set-up time of a workload should include.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    def span(self, name: str):
        return _NULL

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Records spans in memory: [name, start, end, parent index, request id].

    Spans are opened by the benchmark around each call it makes into a
    public function of a bjcalc module, so nesting is at most
    request -> layer call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._rid = None

    def count(self, name: str, value: int) -> None:
        """Add to a counter recorded at the same boundary as the spans."""
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, self._rid])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, rid, kind: str):
        outer, self._rid = self._rid, rid
        try:
            with self.span("request." + kind):
                yield
        finally:
            self._rid = outer


def span_totals(spans, keep=lambda rid: True) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds (busy minus the
    part covered by child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, rid in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, rid) in enumerate(spans):
        if not keep(rid):
            continue
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def layer_shares(totals: dict[str, dict]) -> dict[str, float]:
    """Share of request busy time spent in each layer's calls."""
    request_busy = sum(v["busy_s"] for k, v in totals.items() if k.startswith("request."))
    shares: dict[str, float] = {}
    for name, v in totals.items():
        if name.startswith("request."):
            continue
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + v["busy_s"]
    if request_busy > 0:
        shares = {k: round(v / request_busy, 4) for k, v in sorted(shares.items())}
        shares["benchmark_glue"] = round(1.0 - sum(shares.values()), 4)
    return shares


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    check_failed: int = 0
    checks: int = 0
    check_s: float = 0.0
    timed_s: float = 0.0
    repeats: int = 0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    block_rates: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.raised + self.check_failed

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def run_checked(result: LoopResult, req, out, check) -> bool:
    """Run the output check of one request outside the timed region."""
    c0 = perf_counter()
    try:
        failures, count = check(req, out)
    except Exception as exc:  # a check that cannot run counts as failed
        failures, count = [f"check raised {type(exc).__name__}: {exc}"], 1
    result.check_s += perf_counter() - c0
    result.checks += count
    if failures:
        result.check_failed += 1
        result.note(f"{describe(req)}: {'; '.join(failures)}")
        return False
    return True


def describe(req) -> str:
    text = repr(req)
    return text if len(text) < 160 else text[:157] + "..."


def closed_loop(blocks, execute, check, key, seconds: float, tracer=None) -> LoopResult:
    """One client, one thread: send the next request when the last returns.

    Runs whole blocks of requests until `seconds` of request time have
    passed (at most three times that, mid-block, as a safety stop), and
    records the request rate of each whole block.  Output
    checks run between requests and are excluded from the timed region.
    With a tracer, each request runs twice, traced and untraced in
    alternating order, and only the traced run records spans; the pair
    gives the tracing overhead.
    """
    result = LoopResult()
    seen: set = set()
    null = NullTracer()
    rid = 0
    for block in blocks:
        block_start = result.timed_s
        for req in block:
            if result.timed_s >= 3 * seconds:
                return result
            k = key(req)
            if k in seen:
                result.repeats += 1
            seen.add(k)
            result.attempted += 1
            rid += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = execute(req, null)
                    dt = perf_counter() - t0
                else:
                    out, dt = _paired(execute, req, tracer, null, rid, result)
            except Exception as exc:
                dt = perf_counter() - t0
                result.raised += 1
                result.note(f"{describe(req)}: raised {type(exc).__name__}: {exc}")
                result.latencies.append(dt)
                result.timed_s += dt
                continue
            result.latencies.append(dt)
            result.timed_s += dt
            run_checked(result, req, out, check)
        result.block_rates.append(len(block) / (result.timed_s - block_start))
        if result.timed_s >= seconds:
            break
    return result


def _paired(execute, req, tracer, null, rid, result):
    def traced():
        t0 = perf_counter()
        with tracer.request(rid, getattr(req, "kind", "call")):
            out = execute(req, tracer)
        return out, perf_counter() - t0

    def untraced():
        t0 = perf_counter()
        out = execute(req, null)
        return out, perf_counter() - t0

    if rid % 2:
        out, dt_t = traced()
        _, dt_u = untraced()
    else:
        _, dt_u = untraced()
        out, dt_t = traced()
    result.traced_s += dt_t
    result.untraced_s += dt_u
    return out, dt_t + dt_u


class WorkloadBase:
    """Defaults shared by the workloads."""

    def key(self, req):
        """What makes two requests the same, for the repeat fraction."""
        return req

    def final_checks(self) -> tuple[list[str], int, float, int]:
        """Checks made after the timed loop: (failures, checks, seconds,
        extra items attempted); each failure is one failed item."""
        return [], 0, 0.0, 0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


def load_expected() -> dict:
    import json

    with open(HERE / "expected.json") as handle:
        return json.load(handle)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap the BLAS/OpenMP pools at nproc; must run before NumPy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))
    return int(os.environ[THREAD_VARS[0]])


def calibration_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine is
    running right now, reported next to the metrics to expose drift."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    """Machine and toolchain record; imports NumPy, so call it after the
    timed loop."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record = {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "thread_cap": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    import numpy

    record["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy has no dict mode
        record["blas"] = "unknown"
    return record
