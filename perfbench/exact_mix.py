"""Workload `exact_mix`: seeded text requests through the exact layer.

Each request is what `bjcalc quantize|convert` does in process: parse the
symbol text, compute, format the result.  A block holds a fixed mix so
that every run measures the same shape of work whatever the seed:
24 quantize (3 rules x 8 dimension/degree slots), 20 convert (4 directions
x 5 slots) and 5 compose (commutator of two Born-Jordan operators).  The
seed picks the coefficients, the conversion parameters and the order
within a block.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from harness import NullTracer, WorkloadBase, load_expected
from symbols import symbol_text

from bjcalc import (
    BornJordan,
    Tau,
    Weyl,
    bj_to_tau,
    bj_to_weyl,
    format_operator,
    format_symbol,
    parse,
    quantize_symbol,
    tau_shift,
    weyl_to_bj,
)

# (dimension, degree) slots of one block, per rule, per direction and for
# compose.  Every block holds all of them, so the seed changes coefficients,
# conversion parameters and order, not the amount of work.  The degrees span
# the ranges 1-D 4-8 / 2-D 2-4 / 3-D 2-3 (quantize) and 1-D 8-14 / 2-D 5 /
# 3-D 3-5 (convert): quantize then takes about half of the busy time and
# the conversions at least a fifth.
QUANTIZE_SLOTS = ((1, 4), (1, 6), (1, 8), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
CONVERT_SLOTS = ((1, 8), (1, 14), (2, 5), (3, 3), (3, 5))
COMPOSE_SLOTS = ((1, 3), (1, 4), (1, 5), (2, 2), (2, 3))

RULES = ("weyl", "bj", "tau:1/3")
DIRECTIONS = ("weyl_to_bj", "bj_to_weyl", "bj_to_tau", "tau_shift")
TAU_VALUES = tuple(Fraction(v) for v in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"))
SCHEMES = {"weyl": Weyl(), "bj": BornJordan(), "tau:1/3": Tau(Fraction(1, 3))}
SPAN_OF_RULE = {"weyl": "quantize.weyl", "bj": "quantize.bj", "tau:1/3": "quantize.tau"}

@dataclass(frozen=True)
class Request:
    kind: str  # "quantize" | "convert" | "compose"
    op: str  # rule or direction
    dim: int
    text: str
    text2: str = ""
    params: tuple = ()


def blocks(seed, stream: str = "timed"):
    """Endless stream of request blocks; warm-up uses stream="warmup"."""
    rng = random.Random(f"exact_mix:{seed}:{stream}")
    while True:
        block = [Request("quantize", rule, dim, symbol_text(rng, dim, degree))
                 for rule in RULES for dim, degree in QUANTIZE_SLOTS]
        for direction in DIRECTIONS:
            for dim, degree in CONVERT_SLOTS:
                if direction == "bj_to_tau":
                    params = (rng.choice(TAU_VALUES),)
                elif direction == "tau_shift":
                    params = tuple(rng.sample(TAU_VALUES, 2))
                else:
                    params = ()
                block.append(Request("convert", direction, dim,
                                     symbol_text(rng, dim, degree), params=params))
        for dim, degree in COMPOSE_SLOTS:
            block.append(Request("compose", "commutator", dim, symbol_text(rng, dim, degree),
                                 symbol_text(rng, dim, degree)))
        rng.shuffle(block)
        yield block


def first_requests(seed, count: int, stream: str = "timed") -> list[Request]:
    out: list[Request] = []
    for block in blocks(seed, stream):
        out.extend(block)
        if len(out) >= count:
            return out[:count]
    raise AssertionError("unreachable")


def _convert(a, req: Request):
    if req.op == "weyl_to_bj":
        return weyl_to_bj(a)
    if req.op == "bj_to_weyl":
        return bj_to_weyl(a)
    if req.op == "bj_to_tau":
        return bj_to_tau(a, req.params[0])
    return tau_shift(a, req.params[0], req.params[1])


def execute(req: Request, tr):
    """Text in, text out; returns (inputs, result object, result text)."""
    with tr.span("symlang.parse"):
        a = parse(req.text, req.dim)
    if req.kind == "quantize":
        with tr.span(SPAN_OF_RULE[req.op]):
            out = quantize_symbol(SCHEMES[req.op], a)
        with tr.span("symlang.format"):
            text = format_operator(out)
        return (a,), out, text
    if req.kind == "convert":
        with tr.span("transforms." + req.op):
            out = _convert(a, req)
        with tr.span("symlang.format"):
            text = format_symbol(out)
        return (a,), out, text
    with tr.span("symlang.parse"):
        b = parse(req.text2, req.dim)
    with tr.span("quantize.bj"):
        qa = quantize_symbol(BornJordan(), a)
    with tr.span("quantize.bj"):
        qb = quantize_symbol(BornJordan(), b)
    with tr.span("operators.product"):
        out = qa.commutator(qb)
    with tr.span("symlang.format"):
        text = format_operator(out)
    return (a, b, qa, qb), out, text


_HALF = Fraction(1, 2)


def quantize_reference(rule: str, a):
    """The quantization of `a` by a second route: (operator, route)."""
    if rule == "bj":
        return quantize_symbol(Weyl(), bj_to_weyl(a)), "Weyl(bj_to_weyl(a))"
    if rule == "tau:1/3":
        return (quantize_symbol(Weyl(), tau_shift(a, Fraction(1, 3), _HALF)),
                "Weyl(tau_shift(a, 1/3, 1/2))")
    return (quantize_symbol(Tau(Fraction(0)), tau_shift(a, _HALF, Fraction(0))),
            "Tau(0)(tau_shift(a, 1/2, 0))")


def convert_inverse(direction: str, params: tuple, out):
    """The input of a conversion, recovered from its output by the inverse."""
    if direction == "weyl_to_bj":
        return bj_to_weyl(out)
    if direction == "bj_to_weyl":
        return weyl_to_bj(out)
    if direction == "bj_to_tau":
        return weyl_to_bj(tau_shift(out, params[0], _HALF))
    return tau_shift(out, params[1], params[0])


def check(req: Request, result) -> tuple[list[str], int]:
    """Exact second-route checks; returns (failures, number of checks)."""
    inputs, out, text = result
    failures: list[str] = []
    count = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal count
        count += 1
        if not ok:
            failures.append(what)

    for sym in inputs[:2] if req.kind == "compose" else inputs:
        expect(parse(format_symbol(sym), req.dim) == sym, "parse(format_symbol(a)) != a")
    a = inputs[0]
    if req.kind == "quantize":
        ref, route = quantize_reference(req.op, a)
        expect(out == ref, f"{req.op}(a) != {route}")
        expect(text == format_operator(ref), f"output text != format({route})")
    elif req.kind == "convert":
        expect(text == format_symbol(out), "output text != format_symbol(output)")
        expect(convert_inverse(req.op, req.params, out) == a,
               f"{req.op} does not round-trip through its inverse")
    else:
        qa, qb = inputs[2], inputs[3]
        expect(text == format_operator(out), "output text differs from its operator")
        expect(out.adjoint() == qb.adjoint().commutator(qa.adjoint()),
               "[A,B]^dagger != [B^dagger, A^dagger]")
    return failures, count


def digest(results) -> str:
    h = hashlib.sha256()
    for _, _, text in results:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def output_size(out) -> tuple[int, int]:
    """(terms, total bit length of numerators and denominators)."""
    bits = 0
    for coeff in out.terms.values():
        for re, im in coeff.terms.values():
            for q in (re, im):
                bits += q.numerator.bit_length() + q.denominator.bit_length()
    return len(out.terms), bits


def coverage_requests() -> list[Request]:
    """Fixed requests that touch every exact-layer call the benchmark times."""
    rng = random.Random("exact_mix:coverage")
    reqs = [Request("quantize", rule, 1, symbol_text(rng, 1, 6)) for rule in RULES]
    reqs += [Request("quantize", rule, 2, symbol_text(rng, 2, 3)) for rule in RULES]
    third, three_q = Fraction(1, 3), Fraction(3, 4)
    for direction, params in (("weyl_to_bj", ()), ("bj_to_weyl", ()),
                              ("bj_to_tau", (third,)), ("tau_shift", (third, three_q))):
        reqs.append(Request("convert", direction, 1, symbol_text(rng, 1, 10), params=params))
        reqs.append(Request("convert", direction, 3, symbol_text(rng, 3, 4), params=params))
    reqs.append(Request("compose", "commutator", 1, symbol_text(rng, 1, 4), symbol_text(rng, 1, 4)))
    return reqs


class Workload(WorkloadBase):
    execute = staticmethod(execute)
    check = staticmethod(check)

    def __init__(self, seed, name="exact_mix"):
        self.seed, self.name = seed, name
        # Warm-up: one 1-D request per operation, from the warm-up stream.
        warm = {}
        for req in next(blocks(seed, "warmup")):
            if req.dim == 1:
                warm.setdefault(req.op, req)
        null = NullTracer()
        for req in warm.values():
            execute(req, null)

    def blocks(self):
        return blocks(self.seed)

    def final_checks(self):
        """The canonical outputs of the default seed must match the stored digest."""
        t0 = perf_counter()
        expected = load_expected()["exact_mix_digest"]
        null = NullTracer()
        reqs = first_requests(expected["seed"], expected["requests"])
        got = digest(execute(req, null) for req in reqs)
        failures = [] if got == expected["sha256"] else [
            f"default-seed output digest {got} != stored {expected['sha256']}"]
        return failures, 1, perf_counter() - t0, 1
