"""Workload `cli_cold`: what a command-line user waits for.

Each request is a fresh `python -m bjcalc.cli ...` process with
PYTHONPATH=src, run one after another.  A block holds one each of
quantize, convert, coeffs, apply (default grid, N = 512, L = 20) and
verify, in seeded order with seeded arguments.  Outputs are checked in
this process through a second route.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from harness import SRC, WorkloadBase
from symbols import symbol_text

COMMANDS = ("quantize", "convert", "coeffs", "apply", "verify")
RULES = ("weyl", "bj", "tau:1/3")
# CLI direction -> (exact_mix direction, parameters)
CONVERSIONS = {
    "weyl-to-bj": ("weyl_to_bj", ()),
    "bj-to-weyl": ("bj_to_weyl", ()),
    "bj-to-tau:1/3": ("bj_to_tau", (Fraction(1, 3),)),
    "tau-shift:1/4:3/4": ("tau_shift", (Fraction(1, 4), Fraction(3, 4))),
}
APPLY_SCHEMES = ("weyl", "tau:1/3", "bj-quadrature", "bj-sinc")
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple


def _request(rng: random.Random, command: str) -> Request:
    if command == "quantize":
        argv = ("quantize", rng.choice(RULES), symbol_text(rng, 1, rng.randint(2, 4)))
    elif command == "convert":
        argv = ("convert", rng.choice(tuple(CONVERSIONS)), symbol_text(rng, 1, rng.randint(3, 6)))
    elif command == "coeffs":
        argv = ("coeffs", "--max", str(rng.randint(6, 16)))
    elif command == "apply":
        argv = ("apply", "harmonic", f"hermite:{rng.randint(0, 12)}",
                "--scheme", rng.choice(APPLY_SCHEMES))
    else:
        argv = ("verify",)
    return Request(command, argv)


def blocks(seed, stream: str = "timed"):
    rng = random.Random(f"cli_cold:{seed}:{stream}")
    while True:
        block = [_request(rng, command) for command in COMMANDS]
        rng.shuffle(block)
        yield block


def run_python(args, src) -> tuple[int, str, float, int]:
    """Run `python args` with PYTHONPATH=src; (exit code, output, seconds, max RSS KiB).

    The child is reaped with wait4 so its own peak resident memory is known.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output.decode(errors="replace"), seconds, usage.ru_maxrss


def _bernoulli(limit: int) -> list[Fraction]:
    """B_0..B_limit (B_1 = -1/2) by the Akiyama-Tanigawa algorithm."""
    out, row = [], []
    for m in range(limit + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    out[1] = -out[1]  # the algorithm yields B_1 = +1/2
    return out


def check_output(kind: str, argv, output: str) -> list[str]:
    """Second-route check of one successful command's output."""
    import bjcalc as b

    from exact_mix import convert_inverse, quantize_reference

    lines = output.strip().splitlines()
    failures: list[str] = []
    if kind == "quantize":
        ref, route = quantize_reference(argv[1], b.parse(argv[2]))
        if lines != [b.format_operator(ref)]:
            failures.append(f"quantize output != {route}")
    elif kind == "convert":
        direction, params = CONVERSIONS[argv[1]]
        out = b.parse(lines[0]) if len(lines) == 1 else None
        if convert_inverse(direction, params, out) != b.parse(argv[2]):
            failures.append(f"{argv[1]} output does not round-trip")
    elif kind == "coeffs":
        limit = int(argv[2])
        bern = _bernoulli(limit)
        want = [f"{k:<6d} {str((2 - 2**k) * bern[k]):<17s} {bern[k]}"
                for k in range(0, limit + 1, 2)]
        if [line.rstrip() for line in lines[1:]] != [w.rstrip() for w in want]:
            failures.append("coefficient table != (2 - 2^k) B_k")
    elif kind == "apply":
        k = int(argv[2].split(":")[1])
        norm = float(lines[1].split("=")[1])
        if not abs(norm - (k + 0.5)) <= 1e-8 * (k + 0.5):
            failures.append(f"harmonic on hermite:{k}: norm {norm} != k + 1/2")
    elif not lines[-1].startswith("ok: ") or any(not ln.startswith("PASS") for ln in lines[:-1]):
        failures.append("verify did not pass all checks")
    return failures


def check(req: Request, result) -> tuple[list[str], int]:
    """In-process check of one command result (exit code, output, ...)."""
    code, output = result[0], result[1]
    if code != 0:
        return [f"exit code {code}: {output.strip()[-200:]}"], 1
    return check_output(req.kind, req.argv, output), 1


def run_command(req: Request, tr):
    with tr.span("cli." + req.kind):
        return run_python(("-m", "bjcalc.cli", *req.argv), SRC)


class Workload(WorkloadBase):
    """Keeps this process free of NumPy and bjcalc while commands run: the
    kernel folds the parent's resident size into a spawned child's peak, so
    a large parent would hide the CLI's own memory.  Outputs are therefore
    checked after the timed loop, in one checker process."""

    def __init__(self, seed, name="cli_cold"):
        self.seed, self.name = seed, name
        self.max_rss_kib = 0
        self.pending: list = []
        # Warm-up: one command from the warm-up stream (also writes .pyc files).
        run_python(("-m", "bjcalc.cli", *next(blocks(seed, "warmup"))[0].argv), SRC)

    def key(self, req):
        return req.argv

    def blocks(self):
        return blocks(self.seed)

    def execute(self, req: Request, tr):
        result = run_command(req, tr)
        self.max_rss_kib = max(self.max_rss_kib, result[3])
        return result

    def check(self, req: Request, result) -> tuple[list[str], int]:
        code, output = result[0], result[1]
        if code != 0:
            return [f"exit code {code}: {output.strip()[-200:]}"], 1
        self.pending.append((req.kind, list(req.argv), output))
        return [], 0

    def final_checks(self):
        """Check the collected outputs in one process: one failure string per
        failed request."""
        t0 = perf_counter()
        done = subprocess.run([sys.executable, __file__], input=json.dumps(self.pending),
                              capture_output=True, text=True, timeout=170,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        if done.returncode != 0:
            failures = [f"output checker failed: {done.stderr.strip()[-300:]}"] * max(
                1, len(self.pending))
        else:
            failures = json.loads(done.stdout)
        return failures, len(self.pending), perf_counter() - t0, 0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the CLI processes, not of the benchmark process."""
        return self.max_rss_kib / 1024.0


def _check_main() -> int:
    """Checker process: JSON [[kind, argv, output], ...] on stdin, JSON list
    of failure strings on stdout."""
    failures = []
    for kind, argv, output in json.load(sys.stdin):
        try:
            problems = check_output(kind, argv, output)
        except Exception as exc:  # a check that cannot run counts as failed
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{argv}: {'; '.join(problems)}")
    json.dump(failures, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_check_main())
