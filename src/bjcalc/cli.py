"""Command-line front end.

Subcommands: quantize, convert, coeffs, apply, verify.  Exit codes: 0 on
success, 1 on usage errors, 2 on computation errors, 3 when a verification
check fails.  Output is deterministic for a fixed command line.

quantize, convert and coeffs are pure rational algebra and never import
NumPy: only apply and verify, and the helpers that apply alone reaches,
import the numeric layer, where they run.  `verify --output json` reports
each numeric check's residual next to its tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from itertools import takewhile
from math import inf, isfinite
from typing import TYPE_CHECKING

from . import symlang
from .exact import ExactScalar, SymbolPoly
from .operators import MAX_TOTAL_DEGREE, OpPoly
from .quantize import BornJordan, Tau, Weyl, quantize_monomial, quantize_symbol, tau_average
from .transforms import (
    bernoulli,
    bj_to_tau,
    bj_to_weyl,
    c_coeff_1d,
    tau_shift,
    weyl_to_bj,
)

if TYPE_CHECKING:
    from .numeric import BJQuadrature, UniformGrid


# Largest `coeffs --max`: the exact table up to this order builds in about a
# second.
MAX_COEFF_ORDER = 700
# Largest `apply --grid`: the sampled route holds several N-by-N complex
# arrays, 256 MiB each at this N.
MAX_GRID_POINTS = 4096
# Largest `apply --quadrature`: the sampled route's multiplier costs order
# times N^2, and a polynomial symbol within MAX_TOTAL_DEGREE needs order 33.
MAX_QUADRATURE_ORDER = 256
# Most digits in the numerator or denominator of an exact ordering parameter
# such as tau:1e400; 1e10000000 would take seconds to build.
MAX_NUMERAL_DIGITS = 1000
# Largest `--dim`: every exact term carries all 2 dim + 2 exponents, so the
# work grows with the dimension even for a symbol in few variables;
# `quantize bj "(x1+p1+x2+p2)^16"` takes about 2 s at this dimension, and
# 18 s at 1000.
MAX_DIM = 100
# Largest `apply --max-degree`: the polynomial route transforms x^j psi for
# every j up to the degree, and its ordering weights cost the quadrature
# order times the degree squared; monomial:2000:0 at --grid 4096 and
# --quadrature 256 takes about 3.5 s.
MAX_APPLY_DEGREE = 2000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: tuple[str, ...] = ()  # the subcommand names, on the top-level parser

    def error(self, message):  # exit 1 instead of argparse's 2
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # A word with one leading "-", other than -h, is a value: a negative
        # number such as -1e-3 or -inf, or a symbol such as -x^2*p^2.
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _numeral_digits(text: str) -> int:
    """An upper bound on the digits of the numerator and the denominator of
    the value a Fraction numeral names: its length plus its exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    return len(mantissa) + abs(int(exponent or 0))


def _fields(text: str, form: str, kind: type, what: str) -> list:
    """The values of a NAME:VALUES argument, as many as `form` names, read
    with `kind`.  Each is ASCII with no whitespace and no underscore, as in
    the symbol language, a float must be finite, and a Fraction is bounded
    by MAX_NUMERAL_DIGITS before it is built."""
    values = text.split(":")[1:]
    shown = text.partition(":")[2]
    if len(values) != form.count(":"):
        raise UsageError(f"expected {form}")
    try:
        if all(v.isascii() and "_" not in v and not any(map(str.isspace, v))
               for v in values):
            if kind is Fraction and max(map(_numeral_digits, values)) > MAX_NUMERAL_DIGITS:
                raise UsageError(f"{what} {shown!r}: more than {MAX_NUMERAL_DIGITS} digits")
            read = [kind(v) for v in values]
            if kind is not float or all(map(isfinite, read)):
                return read
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"invalid {what} {shown!r}")


def _calc_point(text: str) -> Fraction | None:
    """Map a calculus name to its ordering parameter (None for Born-Jordan)."""
    if text == "bj":
        return None
    if text == "weyl":
        return Weyl.tau
    if text.startswith("tau:"):
        return _fields(text, "tau:VALUE", Fraction, "ordering parameter")[0]
    raise UsageError(f"unknown calculus {text!r} (expected weyl, bj, or tau:VALUE)")


def _parse_scheme(text: str, quadrature: BJQuadrature):
    """The scheme a --scheme value names; bj-quadrature is the given one."""
    if text == "bj-quadrature":
        return quadrature
    if text == "bj-sinc":
        return BornJordan()
    if text != "weyl" and not text.startswith("tau:"):
        raise UsageError(
            f"unknown scheme {text!r} "
            "(expected weyl, tau:VALUE, bj-quadrature, or bj-sinc)"
        )
    try:
        return Tau(float(_calc_point(text)))
    except OverflowError:
        raise UsageError(f"ordering parameter {text[4:]!r} is too large") from None


def _named_state(text: str, grid: UniformGrid, hbar: float):
    from . import numeric

    if text == "gaussian":
        return numeric.gaussian_state(grid, hbar)
    if text.startswith("hermite:"):
        (k,) = _fields(text, "hermite:K", int, "Hermite index")
        if not 0 <= k < grid.n_points:
            raise UsageError(
                f"Hermite index must be between 0 and {grid.n_points - 1} "
                f"on a {grid.n_points}-point grid"
            )
        return numeric.hermite_state(grid, k, hbar)
    if text.endswith(".csv"):
        with open(text) as handle:
            psi = numeric.wavefunction_from_csv(handle.read(), grid.length, hbar)
        if psi.grid != grid:
            raise ValueError(
                f"CSV state has {psi.grid.n_points} samples, grid expects "
                f"{grid.n_points}"
            )
        return psi
    raise UsageError(
        f"unknown state {text!r} (expected gaussian, hermite:K, or a .csv path)"
    )


def _named_symbol(text: str, grid: UniformGrid, hbar: float, max_degree: int):
    """Resolve a 1-D symbol argument: a named generator or a symbol expression.
    A named symbol's degree error names no position: the user typed no text."""
    if text.startswith("sinc-null:"):
        x0, p0 = _fields(text, "sinc-null:X0:P0", float, "null-point coordinates")
        from .numeric import null_symbol

        try:
            return null_symbol(grid, hbar, x0, p0)[0]
        except ValueError as exc:  # the point lies outside the grid
            raise UsageError(str(exc)) from None
    if text == "harmonic":
        named = symlang.parse("1/2*x^2 + 1/2*p^2")
    elif text.startswith("monomial:"):
        r, s = _fields(text, "monomial:R:S", int, "monomial exponents")
        if r < 0 or s < 0:
            raise UsageError("monomial exponents must be non-negative")
        named = SymbolPoly.monomial(1, x=(r,), p=(s,))
    else:
        return symlang.parse(text, max_degree=max_degree)
    degree = named.total_degree()
    if degree > max_degree:
        raise ValueError(f"symbol degree {degree} exceeds --max-degree {max_degree}")
    return named


def _check_printable(a: SymbolPoly, compute) -> None:
    """Raise the print limit's error before computing, where it is certain.

    Every quantization and conversion here is a series in
    D = sum_j d_xj d_pj (the quantizer's normal order included), so the
    result's entries at one monomial X, whatever their power of hbar, come
    from a's entries at X + (g, g) alone, g a multi-index.  X is where D
    takes the entry of a it can act on most often.  When those entries are
    not all of a, they are computed alone: if one of their coefficients at X
    has too many digits to print, so has the full result, whose computation
    at an ordering parameter of many digits can take minutes.
    """
    n = a.dim
    top = max(a._num, key=lambda key: sum(map(min, key[:n], key[n:2 * n])), default=None)
    if top is None:
        return
    g = tuple(map(min, top[:n], top[n:2 * n]))
    head = tuple(e - gj for e, gj in zip(top[:2 * n], g + g))
    part = {key: value for key, value in a._num.items()
            if all(x - x0 == p - p0 >= 0 for x, p, x0, p0
                   in zip(key[:n], key[n:2 * n], head[:n], head[n:]))}
    if len(part) == len(a._num):
        return
    out = compute(SymbolPoly._from_flat(n, part, a._den))
    for key, (re, im) in out._num.items():
        if key[:2 * n] == head:
            symlang._format_rational(re, out._den)
            symlang._format_rational(im, out._den)


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------


def _poly_json(kind: str, poly: SymbolPoly | OpPoly) -> dict:
    """A symbol (kind "symbol") or an operator (kind "oppoly") as JSON."""
    n, den = poly.dim, poly._den
    terms = []
    for key, (re, im) in symlang._sorted_entries(poly):
        if key[2 * n + 1]:
            raise ValueError("cannot serialize a formal ordering parameter")
        coeff = {"re": symlang._format_rational(re, den),
                 "im": symlang._format_rational(im, den),
                 "hbar_pow": key[2 * n]}
        terms.append({"x": list(key[:n]), "p": list(key[n:2 * n]), "coeff": coeff})
    return {"kind": kind, "dimension": n, "terms": terms}


def _table_json(max_order: int) -> dict:
    entries = [
        {"order": k, "c": str(c_coeff_1d(k)), "bernoulli": str(bernoulli(k))}
        for k in range(0, max_order + 1, 2)
    ]
    return {"kind": "table", "max_order": max_order, "entries": entries}


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, indent=2)
    out.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_quantize(args, out) -> int:
    tau = _calc_point(args.rule)
    rule = BornJordan() if tau is None else Tau(tau)
    a = symlang.parse(args.symbol, dim=args.dim, max_degree=args.max_degree)
    if a.total_degree() <= MAX_TOTAL_DEGREE:  # else quantize_symbol rejects it at once
        _check_printable(a, lambda part: quantize_symbol(rule, part))
    op = quantize_symbol(rule, a)
    if args.output == "json":
        _emit_json(_poly_json("oppoly", op), out)
    else:
        out.write(symlang.format_operator(op) + "\n")
    return 0


def _convert_between(a: SymbolPoly, s: Fraction | None, t: Fraction | None) -> SymbolPoly:
    """Convert from ordering parameter s to t, where None is Born-Jordan."""
    if s is None:
        return a if t is None else bj_to_tau(a, t)
    if t is None:
        return weyl_to_bj(tau_shift(a, s, Weyl.tau))
    return tau_shift(a, s, t)


def _cmd_convert(args, out) -> int:
    a = symlang.parse(args.symbol, dim=args.dim, max_degree=args.max_degree)
    d = args.direction
    if d.startswith("tau-shift:"):
        s, t = _fields(d, "tau-shift:FROM:TO", Fraction, "ordering parameters")
    elif "-to-" in d:
        s, t = map(_calc_point, d.split("-to-", 1))
    else:
        raise UsageError(
            f"unknown direction {d!r} (expected FROM-to-TO, each of FROM and TO "
            "weyl, bj, or tau:VALUE, or tau-shift:FROM:TO)"
        )
    _check_printable(a, lambda part: _convert_between(part, s, t))
    result = _convert_between(a, s, t)
    if args.output == "json":
        _emit_json(_poly_json("symbol", result), out)
    else:
        out.write(symlang.format_symbol(result) + "\n")
    return 0


def _cmd_coeffs(args, out) -> int:
    if not 0 <= args.max <= MAX_COEFF_ORDER:
        raise UsageError(f"--max must be between 0 and {MAX_COEFF_ORDER}")
    if args.output == "json":
        _emit_json(_table_json(args.max), out)
    elif args.output == "csv":
        out.write("order,c,bernoulli\n")
        for k in range(0, args.max + 1, 2):
            out.write(f"{k},{c_coeff_1d(k)},{bernoulli(k)}\n")
    else:
        out.write("order  c                 bernoulli\n")
        for k in range(0, args.max + 1, 2):
            out.write(f"{k:<6d} {str(c_coeff_1d(k)):<17s} {bernoulli(k)}\n")
    return 0


def _cmd_apply(args, out) -> int:
    import numpy as np

    from . import numeric
    from .numeric import BJQuadrature, UniformGrid

    if args.dim != 1:
        raise UsageError("apply supports dimension 1 only")
    if not 0 < args.hbar < inf:
        raise UsageError("--hbar must be positive and finite")
    if not isfinite(args.box):
        raise UsageError("--box must be finite")
    if args.grid > MAX_GRID_POINTS:
        raise UsageError(f"--grid must be at most {MAX_GRID_POINTS}")
    if args.quadrature > MAX_QUADRATURE_ORDER:
        raise UsageError(f"--quadrature must be at most {MAX_QUADRATURE_ORDER}")
    if args.max_degree > MAX_APPLY_DEGREE:
        raise UsageError(f"--max-degree must be at most {MAX_APPLY_DEGREE} for apply")
    try:
        grid = UniformGrid(args.grid, args.box)
        quadrature = BJQuadrature(args.quadrature)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    scheme = _parse_scheme(args.scheme, quadrature)
    psi = _named_state(args.state, grid, args.hbar)
    symbol = _named_symbol(args.symbol, grid, args.hbar, args.max_degree)
    result = numeric.apply_operator(symbol, psi, scheme)
    if args.output == "json":
        _emit_json(numeric.wavefunction_to_json(result), out)
    elif args.output == "csv":
        out.write(numeric.wavefunction_to_csv(result))
    else:
        norm = result.norm()
        if not isfinite(norm):
            raise ValueError("the result's norm exceeds the double range")
        out.write(f"N={grid.n_points} L={grid.length:g} hbar={args.hbar:g}\n")
        out.write(f"norm={norm:.12g}\n")
        peak = int(np.argmax(np.abs(result.values)))
        out.write(
            f"peak x={grid.x_values()[peak]:.6g} "
            f"|psi|={abs(result.values[peak]):.12g}\n"
        )
    return 0


def _verify_checks():
    """(name, check) pairs.  An exact check returns a bool; a numeric check
    returns (residual, tolerance) and passes when residual < tolerance."""
    import numpy as np

    from . import numeric
    from .numeric import BJQuadrature, SampledSymbol, UniformGrid

    def commutator_normalization():
        x, p = OpPoly.variable(1, "x"), OpPoly.variable(1, "p")
        expected = OpPoly.constant(1, ExactScalar.i() * ExactScalar.hbar())
        return x.commutator(p) == expected

    def monomial_equal_weight_average():
        bj = quantize_monomial(BornJordan(), 2, 2)
        formal = quantize_monomial(Tau(None), 2, 2)
        return tau_average(formal) == bj and not bj.has_aux()

    def symmetric_midpoint():
        return quantize_monomial(Tau(Fraction(1, 2)), 3, 3) == quantize_monomial(
            Weyl(), 3, 3
        )

    def conversion_roundtrip():
        a = symlang.parse("x^3*p^3 + 2*x*p^2 - 7")
        return weyl_to_bj(bj_to_weyl(a)) == a and bj_to_weyl(weyl_to_bj(a)) == a

    def coefficient_table():
        expected = {
            0: Fraction(1),
            2: Fraction(-1, 3),
            4: Fraction(7, 15),
            6: Fraction(-31, 21),
            8: Fraction(127, 15),
        }
        return {k: c_coeff_1d(k) for k in range(0, 9, 2)} == expected

    def grid_involution():
        grid = UniformGrid(64, 12.0)
        x = grid.x_values()
        p = grid.p_values(1.0)
        values = np.exp(-np.add.outer(x**2, p**2) / 2)
        a = SampledSymbol(grid, values.astype(complex), 1.0)
        twice = numeric.symplectic_ft(numeric.symplectic_ft(a))
        return float(np.max(np.abs(twice.values - a.values))), 1e-10

    def conversion_vs_quantizer():
        a = symlang.parse("x^2*p^2 + 3*x*p")
        return quantize_symbol(Weyl(), bj_to_weyl(a)) == quantize_symbol(
            BornJordan(), a
        )

    def scheme_coherence():
        grid = UniformGrid(256, 20.0)
        psi = numeric.hermite_state(grid, 2)
        a = symlang.parse("x^2*p + x")
        weyl_of_bj = numeric.apply_operator(bj_to_weyl(a), psi, Weyl())
        worst = 0.0
        for scheme, reference in (
            (Tau(0.5), numeric.apply_operator(a, psi, Weyl())),
            (BJQuadrature(12), weyl_of_bj),
            (BornJordan(), weyl_of_bj),
        ):
            got = numeric.apply_operator(a, psi, scheme)
            worst = max(worst, float(np.max(np.abs(got.values - reference.values))))
        return worst, 1e-8

    def harmonic_ground_state():
        grid = UniformGrid(256, 20.0)
        psi = numeric.gaussian_state(grid)
        a = symlang.parse("1/2*x^2 + 1/2*p^2")
        result = numeric.apply_operator(a, psi, Weyl())
        return float(np.max(np.abs(result.values - 0.5 * psi.values))), 1e-8

    return [
        ("commutator-normalization", commutator_normalization),
        ("monomial-equal-weight-average", monomial_equal_weight_average),
        ("symmetric-midpoint", symmetric_midpoint),
        ("conversion-roundtrip", conversion_roundtrip),
        ("conversion-vs-quantizer", conversion_vs_quantizer),
        ("coefficient-table", coefficient_table),
        ("scheme-coherence", scheme_coherence),
        ("grid-involution", grid_involution),
        ("harmonic-ground-state", harmonic_ground_state),
    ]


def _run_check(name: str, check) -> dict:
    outcome = check()
    if isinstance(outcome, tuple):
        residual, tolerance = outcome
        passed = residual < tolerance
    else:
        residual = tolerance = None
        passed = bool(outcome)
    return {"name": name, "passed": passed, "residual": residual, "tolerance": tolerance}


def _cmd_verify(args, out) -> int:
    results = [_run_check(name, check) for name, check in _verify_checks()]
    failures = sum(not r["passed"] for r in results)
    if args.output == "json":
        _emit_json({"kind": "verify", "checks": results}, out)
    else:
        for r in results:
            out.write(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}\n")
        out.write(f"{'ok' if not failures else 'failed'}: "
                  f"{len(results) - failures}/{len(results)} checks\n")
    return 0 if not failures else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    """Attach the shared flags.

    They live on the top-level parser with real defaults, and on every
    subparser with suppressed defaults so they can also appear after the
    subcommand without clobbering values given before it.
    """
    S = argparse.SUPPRESS

    def d(value):
        return value if top else S

    parser.add_argument("--output", choices=("text", "json", "csv"),
                        default=d("text"))
    parser.add_argument("--dim", type=int, default=d(1),
                        help=f"phase-space dimension (at most {MAX_DIM})")
    parser.add_argument("--hbar", type=float, default=d(1.0))
    parser.add_argument("--grid", type=int, default=d(512),
                        help=f"grid points N (at most {MAX_GRID_POINTS})")
    parser.add_argument("--box", type=float, default=d(20.0), help="box length L")
    parser.add_argument("--quadrature", type=int, default=d(16),
                        help="Gauss-Legendre order for the averaged rule "
                        f"(at most {MAX_QUADRATURE_ORDER})")
    parser.add_argument("--max-degree", type=int, default=d(64),
                        help=f"largest symbol degree (at most {MAX_APPLY_DEGREE} for apply)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bjcalc", description=__doc__.splitlines()[0])
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    q = sub.add_parser("quantize", help="quantize a polynomial symbol")
    _add_common(q, top=False)
    q.add_argument("rule", help="weyl, bj, or tau:VALUE")
    q.add_argument("symbol")
    q.set_defaults(func=_cmd_quantize)

    c = sub.add_parser("convert", help="convert between calculi symbols")
    _add_common(c, top=False)
    c.add_argument("direction",
                   help="FROM-to-TO, each of FROM and TO weyl, bj, or tau:VALUE "
                   "(weyl-to-bj, bj-to-tau:1/3, tau:0-to-bj), or tau-shift:FROM:TO")
    c.add_argument("symbol")
    c.set_defaults(func=_cmd_convert)

    t = sub.add_parser("coeffs", help="tabulate the conversion coefficients")
    _add_common(t, top=False)
    t.add_argument("--max", type=int, default=12,
                   help=f"largest order (at most {MAX_COEFF_ORDER})")
    t.set_defaults(func=_cmd_coeffs)

    a = sub.add_parser("apply", help="apply a quantized operator to a state")
    _add_common(a, top=False)
    a.add_argument("symbol",
                   help="expression, harmonic, monomial:R:S, or sinc-null:X0:P0")
    a.add_argument("state", help="gaussian, hermite:K, or a .csv path")
    a.add_argument("--scheme", default="weyl",
                   help="weyl, tau:VALUE, bj-quadrature, or bj-sinc")
    a.set_defaults(func=_cmd_apply)

    v = sub.add_parser("verify", help="run the built-in identity checks")
    _add_common(v, top=False)
    v.set_defaults(func=_cmd_verify)

    parser.commands = tuple(sub.choices)
    return parser


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args, except that an unknown flag before the subcommand
    is named: argparse sets such a flag aside and takes its value for the
    subcommand, so it would name the value."""
    try:
        return parser.parse_args(argv)
    except UsageError:
        top = _Parser(add_help=False)
        _add_common(top, top=True)
        try:
            extras = top.parse_known_args(list(takewhile(
                lambda word: word not in parser.commands, argv)))[1]
        except UsageError:
            extras = []
        if extras[:1] and extras[0].startswith("--"):
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}") from None
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else argv)
        if args.max_degree < 0:
            raise UsageError("--max-degree must be non-negative")
        if args.dim < 1:
            raise UsageError("--dim must be positive")
        if args.dim > MAX_DIM:
            raise UsageError(f"--dim must be at most {MAX_DIM}")
        if args.output == "csv" and args.command not in ("coeffs", "apply"):
            raise UsageError(f"{args.command} has no csv output (use text or json)")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            # each warning is one stderr line, without its source location
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
