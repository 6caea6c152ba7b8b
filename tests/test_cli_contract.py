"""The command line's documented contract, on argvs drawn from the README's
grammar and run through cli.main in process.

For every argv: the exit code is 0 to 3; on exit 1 or 2 stdout is empty and
stderr is exactly one `error:` line; an exit 2 comes from an exception raised
in the package, not in NumPy or the builtins; an exit 0 prints no inf or nan;
and the run ends in bounded time.  Grids stay at 256 points or fewer, while
--quadrature and --max-degree range up to their bounds and one past them.
"""

import io
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bjcalc import cli

PACKAGE = Path(cli.__file__).resolve().parent
SECONDS = 10.0
NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

# ordering parameters: rationals, decimals, values far from 1 and malformed ones
TAU_VALUES = st.sampled_from(
    3 * ["0", "1", "1/2", "1/3", "-1/2", "0.3", "2", "1e-3", "7/5", "1e3"] + ["1/0", "abc", ""]
)
CALCULI = st.one_of(st.sampled_from(["weyl", "bj"]), TAU_VALUES.map("tau:{}".format))
ATOMS = st.sampled_from(["x", "p", "x", "p", "hbar", "i", "1/3", "-2", "0"])


@st.composite
def symbols(draw):
    """A symbol expression in x and p: a sum of products of atoms and powers."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        term = "*".join(draw(st.lists(ATOMS, min_size=1, max_size=3)))
        if draw(st.booleans()):
            term = f"({term} + {draw(ATOMS)})^{draw(st.integers(0, 6))}"
        terms.append(term)
    return draw(st.sampled_from([" + ", " - "])).join(terms)


@st.composite
def quantize_argvs(draw):
    return ["quantize", draw(CALCULI), draw(symbols())]


@st.composite
def convert_argvs(draw):
    direction = draw(st.one_of(
        st.tuples(CALCULI, CALCULI).map("-to-".join),
        st.tuples(TAU_VALUES, TAU_VALUES).map(lambda t: "tau-shift:{}:{}".format(*t)),
        st.sampled_from(["weyl", "wick-to-bj", "tau-shift:1/4"]),
    ))
    return ["convert", direction, draw(symbols())]


@st.composite
def coeffs_argvs(draw):
    order = draw(st.one_of(st.integers(0, 40), st.integers(0, 40),
                           st.sampled_from([-1, cli.MAX_COEFF_ORDER + 1])))
    return ["coeffs", "--max", str(order)]


@st.composite
def apply_argvs(draw):
    symbol = draw(st.one_of(
        symbols(),
        st.just("harmonic"),
        st.tuples(st.integers(-1, cli.MAX_APPLY_DEGREE + 1), st.integers(0, 40)).map(
            lambda rs: "monomial:{}:{}".format(*rs)),
        st.just("sinc-null"),
        st.tuples(st.sampled_from(["0", "1", "-2.5", "6.3", "15", "nan"]),
                  st.sampled_from(["0", "1", "6.28", "-3", "1e308"])).map(
            lambda z: "sinc-null:{}:{}".format(*z)),
    ))
    state = draw(st.one_of(
        st.just("gaussian"),
        st.integers(-1, 255).map("hermite:{}".format),
    ))
    scheme = draw(st.one_of(
        st.sampled_from(["weyl", "bj-quadrature", "bj-sinc", "bj"]),
        TAU_VALUES.map("tau:{}".format),
    ))
    return ["apply", symbol, state, "--scheme", scheme]


def mostly(valid, invalid):
    """A flag value: one of `valid` three times as often as one of `invalid`."""
    return st.sampled_from(3 * valid + invalid)


@st.composite
def shared_flags(draw, command):
    """Shared flags, each drawn or left out; apply gets the numeric ones and
    always a --grid, so that no grid is above 256 points."""
    flags = [
        ("--output", mostly(["text", "json"], ["csv"])),
        ("--dim", mostly(["1", "1", "1"], ["2", "0", str(cli.MAX_DIM + 1)])),
        ("--max-degree", st.one_of(
            mostly(["2", "64"], ["0", "-1"]),
            st.integers(0, cli.MAX_APPLY_DEGREE + 1).map(str))),
    ]
    if command == "apply":
        flags += [
            ("--box", mostly(["20", "8", "2", "40"], ["-4", "0", "inf", "nan"])),
            ("--hbar", mostly(["1", "0.5", "0.01", "1e-4", "1e300"], ["0", "-1", "inf"])),
            ("--quadrature", st.one_of(
                mostly(["2", "16"], ["1"]),
                st.integers(2, cli.MAX_QUADRATURE_ORDER + 1).map(str))),
        ]
    argv = []
    if command == "apply":
        argv += ["--grid", draw(mostly(["16", "32", "64", "128", "256"], ["100", "8"]))]
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["quantize", "convert", "coeffs", "apply", "apply"]))
    body = draw({"quantize": quantize_argvs(), "convert": convert_argvs(),
                 "coeffs": coeffs_argvs(), "apply": apply_argvs()}[command])
    flags = draw(shared_flags(command))
    # the shared flags go before or after the subcommand's words
    return flags + body if draw(st.booleans()) else body + flags


def run(argv):
    """Exit code, stdout, stderr and the file that raised an exit-2 error."""
    raised = []

    def recording(command):
        def wrapped(args, out):
            try:
                return command(args, out)
            except Exception as exc:
                raised.append(traceback.extract_tb(exc.__traceback__)[-1].filename)
                raise
        return wrapped

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        for name in ("_cmd_quantize", "_cmd_convert", "_cmd_coeffs", "_cmd_apply"):
            patch.setattr(cli, name, recording(getattr(cli, name)))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), raised


def check_contract(argv):
    start = time.perf_counter()
    code, out, err, raised = run(argv)
    assert time.perf_counter() - start < SECONDS, argv
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    if code == 2:
        assert Path(raised[-1]).resolve().is_relative_to(PACKAGE), (argv, raised)
    if code == 0:
        assert not NOT_FINITE.search(out), argv


# The conftest's derandomized profile draws the same argvs on every run; the
# two examples put --quadrature and --max-degree at their bounds together.
@settings(max_examples=1000, deadline=None)
@given(argv=argvs())
@example(argv=["--grid", "256", "--quadrature", str(cli.MAX_QUADRATURE_ORDER),
               "--max-degree", str(cli.MAX_APPLY_DEGREE), "apply",
               f"monomial:{cli.MAX_APPLY_DEGREE}:0", "gaussian", "--scheme", "bj-quadrature"])
@example(argv=["--grid", "256", "--box", "2", "--hbar", "0.01", "--quadrature",
               str(cli.MAX_QUADRATURE_ORDER), "--max-degree", str(cli.MAX_APPLY_DEGREE),
               "apply", f"monomial:{cli.MAX_APPLY_DEGREE}:0", "hermite:255",
               "--scheme", "bj-quadrature"])
def test_documented_grammar_keeps_the_contract(argv):
    check_contract(argv)
