"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench

They check that the seed alone fixes the request stream, that a wrong
result is counted as an error, that the printed metric names are the ones
in BENCHMARK.json, and that the command fails cleanly without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cli_cold  # noqa: E402
import exact_mix  # noqa: E402
import grid  # noqa: E402
import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

STREAMS = {
    "exact_mix": lambda seed, stream="timed": exact_mix.blocks(seed, stream),
    "grid_oneshot": lambda seed, stream="timed": grid.oneshot_blocks(seed, stream),
    "grid_batch": lambda seed, stream="timed": grid.batch_blocks(seed, Fraction(1, 3), stream),
    "cli_cold": lambda seed, stream="timed": cli_cold.blocks(seed, stream),
}


def _take(blocks, count: int) -> list:
    return [next(blocks) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_seed_fixes_the_request_stream(name):
    make = STREAMS[name]
    first = _take(make(3), 2)
    assert first == _take(make(3), 2)
    assert first != _take(make(4), 2)
    assert first != _take(make(3, "warmup"), 2)


def test_workloads_in_benchmark_json_exist():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(STREAMS)


def _perturb_first(execute, perturb):
    done = []

    def wrapped(req, tr):
        out = execute(req, tr)
        if not done:
            done.append(True)
            out = perturb(out)
        return out

    return wrapped


def _run_once(requests, execute, check, key=lambda r: r):
    return harness.closed_loop([requests], execute, check, key, seconds=1e9)


def _bump_coefficient(result):
    inputs, op, text = result
    terms = op.terms
    key = next(iter(terms))
    terms[key] = terms[key] + terms[key]
    return inputs, type(op)(op.dim, terms), text


def _bump_text(result):
    inputs, op, text = result
    return inputs, op, text.replace("1", "2", 1) if "1" in text else text + " + 1"


@pytest.mark.parametrize("perturb", [_bump_coefficient, _bump_text])
@pytest.mark.parametrize("kind", ["quantize", "convert", "compose"])
def test_wrong_exact_result_is_an_error(kind, perturb):
    requests = [r for r in next(exact_mix.blocks(5)) if r.kind == kind and r.dim == 1][:2]
    clean = _run_once(requests, exact_mix.execute, exact_mix.check)
    assert clean.failed == 0 and clean.checks > 0
    loop = _run_once(requests, _perturb_first(exact_mix.execute, perturb), exact_mix.check)
    assert loop.attempted == 2 and loop.failed == 1


def _bump_peak_sample(result):
    symbol, psi, out = result
    values = out.values.copy()
    peak = np.argmax(np.abs(values))
    values.flat[peak] *= 1 + 1e-4
    return symbol, psi, out.with_values(values)


@pytest.mark.parametrize("index", range(12))
def test_wrong_grid_sample_is_an_error(index):
    small = [r for r in next(grid.oneshot_blocks(5)) if r.n == 256 or r.kind != "apply"]
    request = small[index]
    checker = grid.Checker(reuse=False)
    clean = _run_once([request], grid.execute_oneshot, checker)
    assert clean.failed == 0
    loop = _run_once([request], _perturb_first(grid.execute_oneshot, _bump_peak_sample), checker)
    assert loop.failed == 1, request


def test_wrong_batch_sample_is_an_error():
    workload = grid.Workload(5, "grid_batch")
    block = next(workload.blocks())
    clean = _run_once(block, workload.execute, workload.check)
    assert clean.failed == 0
    for i in range(len(block)):
        loop = _run_once(block[i:i + 1], _perturb_first(workload.execute, _bump_peak_sample),
                         workload.check)
        assert loop.failed == 1, block[i]


def _corrupt(kind: str, output: str) -> str:
    if kind == "verify":
        return output.replace("PASS", "FAIL", 1)
    if kind == "apply":
        return output.replace("norm=", "norm=1", 1)
    i = next(i for i, ch in enumerate(output) if ch.isdigit())
    return output[:i] + str((int(output[i]) + 1) % 10) + output[i + 1:]


def test_wrong_cli_output_is_an_error():
    for request in next(cli_cold.blocks(5)):
        result = cli_cold.run_command(request, harness.NullTracer())
        assert cli_cold.check(request, result)[0] == [], request
        code, output, seconds, rss = result
        bad = (code, _corrupt(request.kind, output), seconds, rss)
        assert cli_cold.check(request, bad)[0], request


def test_cli_workload_checks_outputs_after_the_loop():
    workload = cli_cold.Workload(5)
    block = next(workload.blocks())
    first = _perturb_first(workload.execute, lambda r: (r[0], _corrupt(block[0].kind, r[1]), *r[2:]))
    loop = _run_once(block, first, workload.check)
    assert loop.failed == 0 and len(workload.pending) == len(block)
    failures, checks, _, extra = workload.final_checks()
    assert len(failures) == 1 and checks == len(block) and extra == 0


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace,section", [
    ("cli_cold", "0", "end_to_end"),
    ("grid_batch", "1", "per_layer"),
])
def test_printed_metrics_are_the_declared_ones(workload, trace, section):
    done = _run_benchmark(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.5",
                          "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_predictions_cover_every_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    named = [m for p in predictions for m in p["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    workloads = set(STREAMS)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for p in predictions:
        for workload, metric in p["should_move"]:
            assert workload in workloads and metric in e2e


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run_benchmark(tmp_path, "--workload", "exact_mix", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
