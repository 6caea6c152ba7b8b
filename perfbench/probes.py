"""The fixed pass of a traced run, and the per-layer metrics.

Every traced run, whatever its workload, ends with the same seed-independent
pass, so that every per-layer metric is defined on every workload:

* the probe calls of the seed-baseline table, each timed once
  (probe.* metrics, comparable with the single-run table they reproduce);
* coverage requests that call every measured function of the exact and
  numeric layers at least once, through the workloads' own executors and
  checks (output sizes are counted here, so those counts repeat exactly);
* bare interpreter and `import bjcalc.cli` processes, and one of each CLI
  command run in this process through `bjcalc.cli.main`.

A per-layer `<module>.<function>_s` metric is the mean seconds per call of
that span over the traced run: the workload's requests plus this pass.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import harness

import bjcalc as b
from bjcalc import cli

# name -> span name; value is mean seconds per call
CALL_METRICS = {
    "symlang.parse_s": "symlang.parse",
    "symlang.format_s": "symlang.format",
    "quantize.weyl_s": "quantize.weyl",
    "quantize.tau_s": "quantize.tau",
    "quantize.bj_s": "quantize.bj",
    "operators.product_s": "operators.product",
    "transforms.weyl_to_bj_s": "transforms.weyl_to_bj",
    "transforms.bj_to_weyl_s": "transforms.bj_to_weyl",
    "transforms.bj_to_tau_s": "transforms.bj_to_tau",
    "transforms.tau_shift_s": "transforms.tau_shift",
    "numeric.apply_poly_s": "numeric.apply_poly",
    "numeric.apply_sampled_weyl_s": "numeric.apply_sampled_weyl",
    "numeric.apply_sampled_tau_s": "numeric.apply_sampled_tau",
    "numeric.apply_sampled_bjquad_s": "numeric.apply_sampled_bjquad",
    "numeric.apply_sampled_bjsinc_s": "numeric.apply_sampled_bjsinc",
    "numeric.symplectic_ft_s": "numeric.symplectic_ft",
    "numeric.bj_weyl_symbol_numeric_s": "numeric.bj_weyl_symbol_numeric",
    "numeric.antiwick_s": "numeric.antiwick",
    "numeric.grossmann_royer_s": "numeric.grossmann_royer",
    "numeric.sample_symbol_s": "numeric.sample_symbol",
    "numeric.state_s": "numeric.state",
}
CLI_REPEATS = 3


def _windowed_symbol(n: int):
    """Fixed sampled symbol for the apply probes."""
    import numpy as np

    grid = b.UniformGrid(n, 20.0)
    a = b.sample_symbol(b.parse("1/2*x^2 - 1/3*x*p + 2/5*p^2 + 3/4*x - p + 1"), grid)
    x, p = grid.x_values(), grid.p_values(1.0)
    return a.with_values(a.values * np.exp(-np.add.outer(x**2, p**2) / 2)), b.gaussian_state(grid)


def _probe_calls():
    """(metric name, timed call) for the seed-baseline table; inputs are
    built here, outside the timing."""
    xp14 = b.parse("(x+p)^14")
    deg4 = b.parse("(x1+x2+x3+p1+p2+p3)^4", dim=3)  # 126 terms
    calls = [
        ("probe.bj_xp14_s", lambda: b.quantize_symbol(b.BornJordan(), xp14)),
        ("probe.weyl_to_bj_xp14_s", lambda: b.weyl_to_bj(xp14)),
        ("probe.bj_3d_deg4_s", lambda: b.quantize_symbol(b.BornJordan(), deg4)),
        ("probe.parse_xp200_s", lambda: b.parse("(x+p)^200")),
    ]
    for n in (512, 1024):
        a, psi = _windowed_symbol(n)
        for tag, scheme in (("weyl", b.WeylScheme()), ("bjquad", b.BJQuadrature(16)),
                            ("bjsinc", b.BJSinc())):
            calls.append((f"probe.apply_{tag}_{n}_s",
                          lambda a=a, psi=psi, scheme=scheme: b.apply_operator(a, psi, scheme)))
    return calls


@dataclass
class FixedPass:
    probe_s: dict = field(default_factory=dict)
    output_terms: dict = field(default_factory=lambda: {"quantize": 0, "transforms": 0})
    coeff_bits: int = 0
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    check_s: float = 0.0
    errors: list = field(default_factory=list)


def fixed_pass(tracer: harness.Tracer) -> FixedPass:
    import cli_cold
    import exact_mix
    import grid

    grid.fail_on_boundary_warnings()
    out = FixedPass()
    for name, call in _probe_calls():
        with tracer.request("probe", "probe"):
            t0 = perf_counter()
            with tracer.span(name[:-2]):
                call()
            out.probe_s[name] = perf_counter() - t0

    def run(requests, execute, check):
        loop = harness.LoopResult()
        for req in requests:
            loop.attempted += 1
            try:
                with tracer.request("coverage", getattr(req, "kind", "call")):
                    result = execute(req, tracer)
            except Exception as exc:
                loop.raised += 1
                loop.note(f"coverage {harness.describe(req)}: raised {exc!r}")
                continue
            harness.run_checked(loop, req, result, check)
            yield req, result
        out.attempted += loop.attempted
        out.failed += loop.failed
        out.checks += loop.checks
        out.check_s += loop.check_s
        out.errors += loop.errors

    for req, (_, result, _) in run(exact_mix.coverage_requests(), exact_mix.execute,
                                   exact_mix.check):
        terms, bits = exact_mix.output_size(result)
        out.coeff_bits += bits
        if req.kind == "quantize":
            out.output_terms["quantize"] += terms
        elif req.kind == "convert":
            out.output_terms["transforms"] += terms

    coverage = [r for r in next(grid.oneshot_blocks("coverage")) if r.n == 256 or r.kind != "apply"]
    list(run(coverage, grid.execute_oneshot, grid.Checker(reuse=False)))

    for _ in range(CLI_REPEATS):
        with tracer.request("coverage", "cli"):
            with tracer.span("cli.interpreter"):
                cli_cold.run_python(("-c", "pass"), harness.SRC)
            with tracer.span("cli.import"):
                cli_cold.run_python(("-c", "import bjcalc.cli"), harness.SRC)

    def cli_main(req, tr):
        """One command in this process: the work of the command without the
        interpreter start and the import."""
        with contextlib.redirect_stdout(io.StringIO()) as text:
            with tr.span("cli.main"):
                code = cli.main(list(req.argv))
        return code, text.getvalue(), 0.0, 0

    list(run(next(cli_cold.blocks("coverage")), cli_main, cli_cold.check))
    return out


def per_layer_metrics(tracer: harness.Tracer, loop: harness.LoopResult, fixed: FixedPass) -> dict:
    totals = harness.span_totals(tracer.spans)
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)

    metrics = {}
    for name, span in CALL_METRICS.items():
        t = totals[span]
        metrics[name] = (t["busy_s"] / t["calls"], "s")
    metrics["quantize.output_terms"] = (fixed.output_terms["quantize"], "count")
    metrics["transforms.output_terms"] = (fixed.output_terms["transforms"], "count")
    metrics["exact.output_coeff_bits"] = (fixed.coeff_bits, "count")

    applies = [v for k, v in totals.items() if k.startswith("numeric.apply_")]
    calls = sum(v["calls"] for v in applies)
    metrics["numeric.per_state_ms"] = (1e3 * sum(v["busy_s"] for v in applies) / calls, "ms")
    metrics["numeric.apply_calls"] = (tracer.counts["numeric.apply_calls"], "count")
    metrics["numeric.symbol_samples"] = (tracer.counts["numeric.symbol_samples"], "count")

    floor = statistics.median(durations["cli.interpreter"])
    imported = statistics.median(durations["cli.import"])
    metrics["cli.interpreter_ms"] = (1e3 * floor, "ms")
    metrics["cli.import_ms"] = (1e3 * (imported - floor), "ms")
    metrics["cli.command_ms"] = (1e3 * statistics.fmean(durations["cli.main"]), "ms")

    metrics["bench.check_s"] = (loop.check_s, "s")
    metrics["trace.overhead_ratio"] = (loop.traced_s / loop.untraced_s, "ratio")
    for name, seconds in fixed.probe_s.items():
        metrics[name] = (seconds, "s")
    return metrics
