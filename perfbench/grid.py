"""Workloads `grid_oneshot` and `grid_batch`: the numeric layer.

grid_oneshot: every request builds fresh inputs on a grid of N = 256 or
512 points (L = 20) and uses them once.  A block holds 17 applies (sampled
and polynomial symbols under the four schemes at both sizes) and 4
diagnostics (symplectic_ft, bj_weyl_symbol_numeric, antiwick_apply,
weyl_via_grossmann_royer), so every run measures the same shape of work.

grid_batch: one sampled symbol per scheme at N = 512 is built during
set-up; each request applies one of them to a fresh state.

Sampled symbols are a random quadratic polynomial times a Gaussian window
of width 0.75-0.9 in x and p, so they are smooth and decay well inside the
box.  The reflection route needs that: its measured distance from the Weyl
route is below 1e-7 for states up to Hermite index 2, against a tolerance
of 1e-6.  States are the Gaussian or Hermite functions with k <= 20;
states checked against the reflection route use k <= 2, and states under
polynomial symbols use k <= 12, where the L = 20 box truncates the Hermite
function by less than 1e-10 (at k = 20 the truncation alone moves the
harmonic eigenvalue check to 1e-6 and the cross-route checks past it).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from harness import NullTracer, WorkloadBase, load_expected

from bjcalc import (
    BJQuadrature,
    BJSinc,
    BoundaryDecayWarning,
    SymbolPoly,
    TauScheme,
    UniformGrid,
    WeylScheme,
    antiwick_apply,
    apply_operator,
    bj_to_tau,
    bj_weyl_symbol_numeric,
    gaussian_state,
    hermite_state,
    parse,
    sample_symbol,
    symplectic_ft,
    tau_shift,
    weyl_via_grossmann_royer,
)

BOX = 20.0
ONESHOT_SIZES = (256, 512)
BATCH_SIZE = 512
SCHEMES = ("weyl", "tau", "bjquad", "bjsinc")
DIAGNOSTICS = ("symplectic_ft", "bj_weyl_symbol_numeric", "antiwick", "grossmann_royer")
TAU_VALUES = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))
MAX_HERMITE = 20
MAX_HERMITE_REFLECTION = 2
MAX_HERMITE_POLY = 12

TOL = load_expected()["tolerances"]


@dataclass(frozen=True)
class Request:
    kind: str  # "apply" | a diagnostic name
    scheme: str  # "weyl" | "tau" | "bjquad" | "bjsinc" | ""
    n: int
    symbol: tuple  # ("sampled", text, SymbolPoly, width) | ("poly", text, SymbolPoly)
    state: tuple  # ("hermite", k) | ("mix", k1, k2, c1, c2)
    tau: Fraction = Fraction(1, 2)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))


def _poly_text(rng: random.Random, monomials) -> str:
    return " + ".join(f"({_rational(rng)})*{m}" for m in monomials)


_QUADRATIC = ("1", "x", "p", "x^2", "x*p", "p^2")
_POLY_BASIS = ("1", "x", "p", "x^2", "x*p", "p^2", "x^3", "x^2*p", "x*p^2", "p^3")
HARMONIC = "1/2*x^2 + 1/2*p^2"


def _sampled_symbol(rng):
    text = _poly_text(rng, _QUADRATIC)
    return ("sampled", text, parse(text), round(rng.uniform(0.75, 0.9), 3))


def _poly_symbol(rng, harmonic: bool):
    text = HARMONIC if harmonic else _poly_text(rng, rng.sample(_POLY_BASIS, 4))
    return ("poly", text, parse(text))


def _state(rng, kmax: int):
    return ("hermite", rng.randint(0, kmax))


# (scheme, N) of the sampled-symbol applies in one grid_oneshot block.  The
# costliest call, BJQuadrature(16), is 3 of 21 requests (one at N = 512, two
# at N = 256), so the 90th latency percentile falls inside the N = 256
# BJQuadrature cluster rather than on the edge between two clusters.
SAMPLED_SLOTS = (("weyl", 256), ("weyl", 512), ("tau", 256), ("tau", 512),
                 ("bjsinc", 256), ("bjsinc", 512),
                 ("bjquad", 256), ("bjquad", 256), ("bjquad", 512))


def oneshot_blocks(seed, stream: str = "timed"):
    """Blocks of 21: 9 sampled applies, 8 polynomial applies (4 schemes x
    2 sizes; a quarter harmonic), 4 diagnostics (2 per size)."""
    rng = random.Random(f"grid_oneshot:{seed}:{stream}")

    def tau_for(scheme):
        return rng.choice(TAU_VALUES) if scheme == "tau" else Fraction(1, 2)

    while True:
        block = []
        for scheme, n in SAMPLED_SLOTS:
            kmax = MAX_HERMITE_REFLECTION if scheme == "weyl" else MAX_HERMITE
            block.append(Request("apply", scheme, n, _sampled_symbol(rng), _state(rng, kmax),
                                 tau_for(scheme)))
        for scheme in SCHEMES:
            for n in ONESHOT_SIZES:
                poly = _poly_symbol(rng, harmonic=rng.random() < 0.25)
                block.append(Request("apply", scheme, n, poly, _state(rng, MAX_HERMITE_POLY),
                                     tau_for(scheme)))
        sizes = list(ONESHOT_SIZES) * 2
        rng.shuffle(sizes)
        for kind, n in zip(DIAGNOSTICS, sizes):
            kmax = MAX_HERMITE_REFLECTION if kind == "grossmann_royer" else MAX_HERMITE
            block.append(Request(kind, "", n, _sampled_symbol(rng), _state(rng, kmax)))
        rng.shuffle(block)
        yield block


# Schemes of one grid_batch block.  BJSinc appears twice so that the median
# latency falls inside the BJSinc cluster and the 90th percentile inside the
# BJQuadrature one, rather than on the edge between two clusters.
BATCH_SLOTS = ("weyl", "tau", "bjsinc", "bjsinc", "bjquad")


def batch_blocks(seed, tau: Fraction, stream: str = "timed"):
    """Fresh states: a random complex mix of two Hermite functions."""
    rng = random.Random(f"grid_batch:{seed}:{stream}")
    while True:
        block = []
        for scheme in BATCH_SLOTS:
            kmax = MAX_HERMITE_REFLECTION if scheme == "weyl" else MAX_HERMITE
            k1, k2 = rng.sample(range(kmax + 1), 2)
            c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            block.append(Request("apply", scheme, BATCH_SIZE, (), ("mix", k1, k2, c1, c2),
                                 tau if scheme == "tau" else Fraction(1, 2)))
        rng.shuffle(block)
        yield block


# -- building inputs --------------------------------------------------------

def grid_of(n: int) -> UniformGrid:
    return UniformGrid(n, BOX)


def build_symbol(spec, n: int, tr):
    """The symbol of a request: a SymbolPoly, or samples on the grid."""
    if spec[0] == "poly":
        return spec[2]
    grid = grid_of(n)
    with tr.span("numeric.sample_symbol"):
        sampled = sample_symbol(spec[2], grid)
    x, p = grid.x_values(), grid.p_values(1.0)
    window = np.exp(-np.add.outer(x**2, p**2) / (2 * spec[3] ** 2))
    return sampled.with_values(sampled.values * window)


def build_state(spec, n: int, tr):
    grid = grid_of(n)
    if spec[0] == "hermite":
        with tr.span("numeric.state"):
            return gaussian_state(grid) if spec[1] == 0 else hermite_state(grid, spec[1])
    _, k1, k2, c1, c2 = spec
    with tr.span("numeric.state"):
        h1, h2 = hermite_state(grid, k1), hermite_state(grid, k2)
    values = c1 * h1.values + c2 * h2.values
    return h1.with_values(values / (h1.norm() * np.linalg.norm([c1, c2])))


def scheme_of(name: str, tau: Fraction = Fraction(1, 2)):
    if name == "weyl":
        return WeylScheme()
    if name == "tau":
        return TauScheme(float(tau))
    if name == "bjquad":
        return BJQuadrature(16)
    return BJSinc()


def apply_traced(symbol, psi, scheme_name: str, tau, tr):
    if isinstance(symbol, SymbolPoly):
        span = "numeric.apply_poly"
    else:
        span = "numeric.apply_sampled_" + scheme_name
        tr.count("numeric.symbol_samples", symbol.values.size)
    tr.count("numeric.apply_calls", 1)
    with tr.span(span):
        return apply_operator(symbol, psi, scheme_of(scheme_name, tau))


def execute_oneshot(req: Request, tr):
    symbol = build_symbol(req.symbol, req.n, tr)
    psi = build_state(req.state, req.n, tr)
    if req.kind == "apply":
        out = apply_traced(symbol, psi, req.scheme, req.tau, tr)
    elif req.kind == "symplectic_ft":
        with tr.span("numeric.symplectic_ft"):
            out = symplectic_ft(symbol)
    elif req.kind == "bj_weyl_symbol_numeric":
        with tr.span("numeric.bj_weyl_symbol_numeric"):
            out = bj_weyl_symbol_numeric(symbol)
    elif req.kind == "antiwick":
        # anti-Wick operators need a non-negative symbol for the positivity check
        symbol = symbol.with_values(np.abs(symbol.values))
        with tr.span("numeric.antiwick"):
            out = antiwick_apply(symbol, psi)
    else:
        with tr.span("numeric.grossmann_royer"):
            out = weyl_via_grossmann_royer(symbol, psi)
    return symbol, psi, out


# -- checks -----------------------------------------------------------------


def _max_abs(v) -> float:
    return float(np.max(np.abs(v)))


class Checker:
    """Second-route checks for grid results.

    With `reuse` (the batch workload, whose symbols are fixed for the whole
    run) the probe-function images of the adjoint identity are cached per
    scheme, so BJSinc is checked through them; otherwise BJSinc is checked
    against the full BJQuadrature(16) result.
    """

    def __init__(self, reuse: bool):
        self.reuse = reuse
        self.images: dict = {}

    def __call__(self, req: Request, result) -> tuple[list[str], int]:
        symbol, psi, out = result
        failures: list[str] = []

        def within(err: float, tol: float, what: str) -> None:
            if not err <= tol:  # also fails on NaN
                failures.append(f"{what}: {err:.2e} > {tol:.0e}")

        if req.kind == "apply" and isinstance(symbol, SymbolPoly):
            self._check_poly(req, symbol, psi, out, within)
            return failures, 1
        if req.kind == "apply":
            self._check_sampled(req, symbol, psi, out, within)
            return failures, 1
        if req.kind == "symplectic_ft":
            err = _max_abs(symplectic_ft(out).values - symbol.values)
            within(err, TOL["symplectic_involution_abs"], "symplectic_ft twice != identity")
        elif req.kind == "bj_weyl_symbol_numeric":
            grid = symbol.grid
            x, p = grid.x_values(), grid.p_values(symbol.hbar)
            # sin(xp/2hbar)/(xp/2hbar), written with NumPy's normalised sinc
            sinc = np.sinc(np.outer(x, p) / (2 * np.pi * symbol.hbar))
            want = symplectic_ft(symbol).values * sinc
            err = _max_abs(symplectic_ft(out).values - want) / _max_abs(want)
            within(err, TOL["sinc_filter_rel"], "F(filtered) != F(a) * sinc")
        elif req.kind == "antiwick":
            form = complex(np.vdot(psi.values, out.values)) * psi.grid.spacing
            scale = _max_abs(symbol.values)
            within(max(-form.real, 0.0) / scale, TOL["antiwick_positivity"],
                   "quadratic form of a non-negative symbol is negative")
            within(abs(form.imag) / scale, TOL["antiwick_positivity"],
                   "quadratic form of a real symbol is not real")
        else:
            weyl = apply_operator(symbol, psi, WeylScheme())
            within(_max_abs(out.values - weyl.values), TOL["weyl_vs_reflection_abs"],
                   "reflection route != Weyl route")
        return failures, 1

    def _check_poly(self, req, a, psi, out, within):
        scale = max(_max_abs(out.values), 1e-300)
        if req.symbol[1] == HARMONIC and req.state[0] == "hermite":
            k = req.state[1]
            within(_max_abs(out.values - (k + 0.5) * psi.values), TOL["harmonic_eigen_abs"],
                   f"harmonic symbol on hermite:{k} != (k+1/2) psi")
            return
        if req.scheme == "weyl":
            ref = apply_operator(tau_shift(a, Fraction(1, 2), 0), psi, TauScheme(0.0))
            route = "Tau(0) route of tau_shift(a, 1/2, 0)"
        elif req.scheme == "tau":
            ref = apply_operator(tau_shift(a, req.tau, Fraction(1, 2)), psi, WeylScheme())
            route = "Weyl route of tau_shift(a, tau, 1/2)"
        else:
            ref = apply_operator(bj_to_tau(a, 0), psi, TauScheme(0.0))
            route = "Tau(0) route of bj_to_tau(a, 0)"
        within(_max_abs(out.values - ref.values) / scale, TOL["poly_cross_route_rel"],
               f"{req.scheme} != {route}")

    def _check_sampled(self, req, a, psi, out, within):
        if req.scheme == "weyl":
            ref = weyl_via_grossmann_royer(a, psi)
            within(_max_abs(out.values - ref.values), TOL["weyl_vs_reflection_abs"],
                   "Weyl route != reflection route")
        elif req.scheme == "bjquad" or (req.scheme == "bjsinc" and not self.reuse):
            other = BJSinc() if req.scheme == "bjquad" else BJQuadrature(16)
            ref = apply_operator(a, psi, other)
            within(_max_abs(out.values - ref.values) / _max_abs(ref.values),
                   TOL["bjquad_vs_bjsinc_rel"], f"{req.scheme} != {type(other).__name__}")
        else:
            # <phi, Op(a) psi> = <Op'(conj a) phi, psi>, with Op' the adjoint rule
            # computed by another route: tau -> 1 - tau, BJSinc -> BJQuadrature(16).
            images = self.images.get(req.scheme) if self.reuse else None
            if images is None:
                conj = a.with_values(np.conj(a.values))
                probes = _probe_states(a.grid)
                if req.scheme == "tau":
                    other = TauScheme(1.0 - float(req.tau))
                else:
                    other = BJQuadrature(16)
                images = (probes, [apply_operator(conj, phi, other) for phi in probes])
                if self.reuse:
                    self.images[req.scheme] = images
            probes, images = images
            for phi, image in zip(probes, images):
                lhs = np.vdot(phi.values, out.values)
                rhs = np.vdot(image.values, psi.values)
                scale = np.linalg.norm(image.values) * np.linalg.norm(psi.values)
                within(abs(lhs - rhs) / scale, TOL["adjoint_identity_rel"],
                       f"{req.scheme}: <phi, Op psi> != <Op' phi, psi>")


def _probe_states(grid):
    """Two fixed probe functions: complex white noise under a flat-topped
    window that is 0.37 at |x| = 6 and below 1e-25 at the box edge, so a
    wrong sample anywhere a state lives (|x| < 7 for k <= 20) moves the
    inner product."""
    x = grid.x_values()
    window = np.exp(-((x / 6.0) ** 8))
    rng = np.random.default_rng(20160311)
    return [
        gaussian_state(grid).with_values(
            window * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)))
        for _ in range(2)
    ]


def fail_on_boundary_warnings() -> None:
    """A sampled input that does not decay at the box edge fails its request."""
    warnings.simplefilter("error", BoundaryDecayWarning)


class Workload(WorkloadBase):
    def __init__(self, seed, name):
        fail_on_boundary_warnings()
        self.seed, self.name = seed, name
        self.check = Checker(reuse=name == "grid_batch")
        null = NullTracer()
        if name == "grid_oneshot":
            self.execute = execute_oneshot
            # Warm-up: one apply per scheme at N = 256 from the warm-up stream.
            warm = {}
            for req in next(oneshot_blocks(seed, "warmup")):
                if req.kind == "apply" and req.n == 256 and req.symbol[0] == "sampled":
                    warm.setdefault(req.scheme, req)
            for req in warm.values():
                execute_oneshot(req, null)
            return
        # grid_batch: the reused symbols are part of set-up.
        rng = random.Random(f"grid_batch:{seed}:symbols")
        self.tau = rng.choice(TAU_VALUES)
        self.symbols = {s: build_symbol(_sampled_symbol(rng), BATCH_SIZE, null) for s in SCHEMES}
        self.execute = self.execute_batch
        for req in next(batch_blocks(seed, self.tau, "warmup")):
            self.execute_batch(req, null)

    def blocks(self):
        if self.name == "grid_oneshot":
            return oneshot_blocks(self.seed)
        return batch_blocks(self.seed, self.tau)

    def execute_batch(self, req: Request, tr):
        """State building is inside the request; the symbol is reused."""
        psi = build_state(req.state, BATCH_SIZE, tr)
        symbol = self.symbols[req.scheme]
        return symbol, psi, apply_traced(symbol, psi, req.scheme, req.tau, tr)
