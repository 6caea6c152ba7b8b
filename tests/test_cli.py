"""Command-line interface: output formats, exit codes, determinism, and one
table of the error paths of the CLI and the numeric layer."""

import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from bjcalc import numeric, symlang
from bjcalc.exact import SymbolPoly
from bjcalc.numeric import (
    SampledSymbol,
    UniformGrid,
    antiwick_apply,
    gaussian_state,
    hermite_state,
    sample_symbol,
    weyl_via_grossmann_royer,
)
from bjcalc.cli import (
    MAX_APPLY_DEGREE,
    MAX_COEFF_ORDER,
    MAX_DIM,
    MAX_GRID_POINTS,
    MAX_NUMERAL_DIGITS,
    MAX_QUADRATURE_ORDER,
    _poly_json,
    main,
)
from bjcalc.quantize import Tau, quantize_symbol


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestQuantize:
    def test_weyl_xp(self):
        code, out, _ = run(["quantize", "weyl", "x*p"])
        assert code == 0
        assert out == "xhat*phat - (1/2)*i*hbar\n"

    def test_bj_x2p2(self):
        code, out, _ = run(["quantize", "bj", "x^2*p^2"])
        assert code == 0
        assert out == "xhat^2*phat^2 - 2*i*hbar*xhat*phat - (2/3)*hbar^2\n"

    def test_tau_rational(self):
        code, out, _ = run(["quantize", "tau:1", "x*p"])
        assert code == 0
        assert out == "xhat*phat - i*hbar\n"

    def test_json_schema(self):
        code, out, _ = run(["--output", "json", "quantize", "weyl", "x*p"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "oppoly"
        assert payload["dimension"] == 1
        assert payload["terms"][0] == {
            "x": [1], "p": [1], "coeff": {"re": "1", "im": "0", "hbar_pow": 0}
        }
        assert payload["terms"][1]["coeff"] == {
            "re": "0", "im": "-1/2", "hbar_pow": 1
        }

    def test_json_terms_follow_the_text_order(self):
        # two hbar powers on x1*p2 and on the constant, one term per entry
        symbol = "hbar^2 + x1*p2 + 3*hbar*x1*p2 + x2^2 - 2*hbar + hbar*x2^2*p1"
        code, out, _ = run(["--dim", "2", "--output", "json", "convert",
                            "tau-shift:1/3:1/3", symbol])
        assert code == 0
        text = symlang.format_symbol(symlang.parse(symbol, dim=2))
        assert text == ("hbar*x2^2*p1 + x1*p2 + 3*hbar*x1*p2 + x2^2"
                        " - 2*hbar + hbar^2")
        assert [(t["x"], t["p"], t["coeff"]["re"], t["coeff"]["hbar_pow"])
                for t in json.loads(out)["terms"]] == [
            ([0, 2], [1, 0], "1", 1),
            ([1, 0], [0, 1], "1", 0),
            ([1, 0], [0, 1], "3", 1),
            ([0, 2], [0, 0], "1", 0),
            ([0, 0], [0, 0], "-2", 1),
            ([0, 0], [0, 0], "1", 2),
        ]

    def test_json_rejects_a_formal_ordering_parameter(self):
        op = quantize_symbol(Tau(None), symlang.parse("x1*p1*x2*p2 + hbar", dim=2))
        assert op.has_aux()
        with pytest.raises(ValueError, match="cannot serialize a formal ordering parameter"):
            _poly_json("oppoly", op)

    def test_two_dim(self):
        code, out, _ = run(["--dim", "2", "quantize", "weyl", "x1*p2"])
        assert code == 0
        assert out == "xhat1*phat2\n"

    def test_max_degree_enforced(self):
        code, _, err = run(["--max-degree", "3", "quantize", "weyl", "x^2*p^2"])
        assert code == 2
        assert "degree" in err


@pytest.mark.parametrize("command", [
    ["quantize", "tau:1e10000000", "x*p"], ["convert", "bj-to-tau:1e-10000000", "x*p"],
    ["apply", "harmonic", "gaussian", "--scheme", "tau:1e10000000"],
], ids=["quantize", "convert", "apply"])
def test_long_numeral_rejected_before_it_is_built(command):
    start = time.perf_counter()
    code, out, err = run(command)
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == "" and f"more than {MAX_NUMERAL_DIGITS} digits" in err


class TestDegreeBudget:
    @pytest.mark.parametrize("text", ["((x+p)^20)^20", "(x+p+x^2*p^3)^1000"])
    @pytest.mark.parametrize("command", [
        ["quantize", "weyl"], ["convert", "weyl-to-bj"], ["apply", "--scheme", "weyl"],
    ], ids=["quantize", "convert", "apply"])
    def test_rejected_while_parsing(self, command, text):
        argv = ["--max-degree", "64"] + command + [text]
        if command[0] == "apply":
            argv.append("gaussian")
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "degree" in err and "position" in err

    @pytest.mark.parametrize("command", [["quantize", "weyl"], ["convert", "weyl-to-bj"]],
                             ids=["quantize", "convert"])
    def test_term_budget(self, command):
        # degree 0, so only the term budget stops it
        start = time.perf_counter()
        code, out, err = run(command + ["((1+hbar)^100)^40"])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "term products" in err and "position 14" in err

    def test_negative_budget_is_usage_error(self):
        code, out, err = run(["--max-degree", "-1", "quantize", "weyl", "x"])
        assert code == 1 and out == ""
        assert "--max-degree" in err
        assert run(["--max-degree", "0", "quantize", "weyl", "7"])[:2] == (0, "7\n")
        assert run(["--max-degree", "0", "quantize", "weyl", "x"])[0] == 2

    @pytest.mark.parametrize("command", [["quantize", "weyl"], ["convert", "weyl-to-bj"]],
                             ids=["quantize", "convert"])
    def test_lone_variable_checked_by_the_parser(self, command):
        code, out, err = run(["--max-degree", "0"] + command + ["x"])
        assert code == 2 and out == ""
        assert "symbol degree 1 exceeds max degree 0" in err and "position 0" in err


class TestFlagChecks:
    @pytest.mark.parametrize("argv", [
        ["--dim", "0", "quantize", "weyl", "x"],
        ["--dim", "-3", "coeffs"],
        ["--dim", "-3", "verify"],
        ["convert", "weyl-to-bj", "x", "--dim", "0"],
    ], ids=["quantize", "coeffs", "verify", "convert-after"])
    def test_dim_below_one_is_usage_error(self, argv):
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "--dim" in err

    @pytest.mark.parametrize("argv", [
        ["--output", "csv", "quantize", "weyl", "x*p"],
        ["convert", "weyl-to-bj", "x^2*p^2", "--output", "csv"],
        ["--output", "csv", "verify"],
    ], ids=["quantize", "convert", "verify"])
    def test_csv_only_where_there_is_a_table(self, argv):
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "csv" in err


class TestLeadingDash:
    """A word with one leading "-", other than -h, is a value, not a flag."""

    @pytest.mark.parametrize("argv, expected", [
        (["quantize", "weyl", "-x*p"], "-xhat*phat + (1/2)*i*hbar\n"),
        (["quantize", "weyl", "-hbar*x"], "-hbar*xhat\n"),
        (["convert", "weyl-to-bj", "-x^2*p^2"], "-x^2*p^2 - (1/6)*hbar^2\n"),
    ])
    def test_symbols(self, argv, expected):
        assert run(argv) == (0, expected, "")

    def test_canonical_output_reads_back(self):
        _, text, _ = run(["convert", "weyl-to-bj", "-x^2*p^2"])
        assert run(["convert", "bj-to-weyl", text.strip()]) == (0, "-x^2*p^2\n", "")

    @pytest.mark.parametrize("argv, message", [
        (["--hbar", "-1e-3"], "--hbar must be positive and finite"),
        (["--box", "-inf"], "--box must be finite"),
    ])
    def test_negative_values_reach_their_range_checks(self, argv, message):
        code, out, err = run(argv + ["apply", "harmonic", "gaussian"])
        assert (code, out) == (1, "") and message in err

    def test_exact_commands_ignore_hbar(self):
        assert run(["--hbar", "-1e-3", "quantize", "weyl", "x*p"]) == run(
            ["quantize", "weyl", "x*p"]
        )

    def test_help_and_unknown_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0 and "usage: bjcalc" in capsys.readouterr().out
        code, _, err = run(["--bogus", "quantize", "weyl", "x*p"])
        assert code == 1 and "--bogus" in err


class TestConvert:
    def test_weyl_to_bj(self):
        code, out, _ = run(["convert", "weyl-to-bj", "x^2*p^2"])
        assert code == 0
        assert out == "x^2*p^2 + (1/6)*hbar^2\n"

    def test_bj_to_weyl(self):
        code, out, _ = run(["convert", "bj-to-weyl", "x^2*p^2"])
        assert code == 0
        assert out == "x^2*p^2 - (1/6)*hbar^2\n"

    def test_tau_shift(self):
        code, out, _ = run(["convert", "tau-shift:0:1", "x*p"])
        assert code == 0
        assert out == "x*p + i*hbar\n"

    def test_unknown_direction(self):
        code, _, err = run(["convert", "sideways", "x"])
        assert code == 1
        assert "direction" in err


class TestCoeffs:
    def test_text_table(self):
        code, out, _ = run(["coeffs", "--max", "8"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["0", "1", "1"]
        assert lines[2].split() == ["2", "-1/3", "1/6"]
        assert lines[5].split() == ["8", "127/15", "-1/30"]

    def test_json_table(self):
        code, out, _ = run(["--output", "json", "coeffs", "--max", "4"])
        payload = json.loads(out)
        assert payload["kind"] == "table"
        assert payload["entries"] == [
            {"order": 0, "c": "1", "bernoulli": "1"},
            {"order": 2, "c": "-1/3", "bernoulli": "1/6"},
            {"order": 4, "c": "7/15", "bernoulli": "-1/30"},
        ]

    def test_csv_table(self):
        code, out, _ = run(["--output", "csv", "coeffs", "--max", "2"])
        assert out == "order,c,bernoulli\n0,1,1\n2,-1/3,1/6\n"

    def test_order_limit(self):
        assert run(["coeffs", "--max", "0"])[0] == 0
        code, out, _ = run(["--output", "csv", "coeffs", "--max", str(MAX_COEFF_ORDER)])
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 2 + MAX_COEFF_ORDER // 2
        assert rows[-1].startswith(f"{MAX_COEFF_ORDER},")
        for bad in ("-1", str(MAX_COEFF_ORDER + 1)):
            code, out, err = run(["coeffs", "--max", bad])
            assert code == 1 and out == ""
            assert f"between 0 and {MAX_COEFF_ORDER}" in err


# each documented --scheme spelling and the scheme it names
SCHEME_SPELLINGS = {
    "weyl": numeric.WeylScheme(), "tau:1/3": numeric.TauScheme(1 / 3),
    "tau:0.3": numeric.TauScheme(0.3), "bj-quadrature": numeric.BJQuadrature(16),
    "bj-sinc": numeric.BJSinc(),
}


class TestApply:
    def test_harmonic_ground_state_norm(self):
        code, out, _ = run(["apply", "harmonic", "gaussian", "--scheme", "bj-quadrature"])
        assert code == 0
        assert "norm=0.5" in out

    def test_csv_output_parses(self):
        code, out, _ = run(
            ["--output", "csv", "--grid", "64", "apply", "monomial:1:0", "gaussian"]
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,re,im"
        assert len(rows) == 65

    def test_zero_symbol_prints_no_negative_zero(self):
        # the polynomial route's centring signs are folded in by multiplying
        # a factor; negating the result would print an exact zero as -0
        code, out, _ = run(["--grid", "64", "--output", "csv", "apply", "0", "gaussian"])
        assert code == 0
        fields = [f for row in out.strip().splitlines()[1:] for f in row.split(",")[1:]]
        assert len(fields) == 128 and "-0" not in fields

    def test_json_output_shape(self):
        code, out, _ = run(
            ["--output", "json", "--grid", "64", "--box", "16", "apply",
             "harmonic", "hermite:1"]
        )
        payload = json.loads(out)
        assert payload["N"] == 64 and payload["L"] == 16.0
        assert len(payload["values"]) == 64

    def test_unknown_state(self):
        code, _, err = run(["apply", "harmonic", "plane-wave"])
        assert code == 1
        assert "state" in err

    def test_bad_grid_is_usage_error(self):
        code, _, err = run(["--grid", "100", "apply", "harmonic", "gaussian"])
        assert code == 1
        assert "power of two" in err

    def test_bad_box_is_usage_error(self):
        for box in ("0", "-4"):
            code, _, err = run(["--box", box, "apply", "harmonic", "gaussian"])
            assert code == 1
            assert "length" in err

    @pytest.mark.parametrize("flag", ["--box", "--hbar"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_box_and_hbar_are_usage_errors(self, flag, value):
        code, out, err = run([f"{flag}={value}", "apply", "harmonic", "gaussian"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag} must be") and "finite" in err
        assert len(err.splitlines()) == 1

    def test_boundary_warning_is_one_stderr_line(self):
        code, out, err = run(["--grid", "64", "--box", "4", "apply", "harmonic", "gaussian"])
        assert code == 0 and out.startswith("N=64 L=4 hbar=1\n")
        assert err.startswith("warning: wavefunction does not decay below tolerance")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("scheme", ["weyl", "tau:1/3", "bj-quadrature", "bj-sinc"])
    def test_bad_hbar_and_quadrature_are_usage_errors(self, scheme):
        for flag, value, message in (("--hbar", "0", "hbar must be positive"),
                                     ("--quadrature", "1", "at least 2")):
            code, out, err = run([flag, value, "apply", "harmonic", "gaussian",
                                  "--scheme", scheme])
            assert code == 1 and out == ""
            assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["apply", "harmonic", "hermite:-1"],
         "Hermite index must be between 0 and 511 on a 512-point grid"),
        (["--grid", "64", "apply", "harmonic", "hermite:64"], "between 0 and 63"),
        (["--grid", str(MAX_GRID_POINTS + 1), "apply", "harmonic", "gaussian"],
         f"--grid must be at most {MAX_GRID_POINTS}"),
        (["--grid", str(2 * MAX_GRID_POINTS), "apply", "x*p", "hermite:3"],
         f"--grid must be at most {MAX_GRID_POINTS}"),
        (["--quadrature", str(MAX_QUADRATURE_ORDER + 1), "apply", "harmonic", "gaussian",
          "--scheme", "bj-quadrature"], f"--quadrature must be at most {MAX_QUADRATURE_ORDER}"),
    ])
    def test_work_over_a_bound_is_a_usage_error(self, monkeypatch, argv, message):
        def heavy(*args, **kwargs):
            raise AssertionError("heavy work started")

        for name in ("gaussian_state", "hermite_state", "sample_symbol", "apply_operator"):
            monkeypatch.setattr(numeric, name, heavy)
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_work_at_the_bounds_runs(self):
        for argv in (["--grid", "64", "--quadrature", str(MAX_QUADRATURE_ORDER), "apply",
                      "harmonic", "hermite:63", "--scheme", "bj-quadrature"],
                     ["--grid", str(MAX_GRID_POINTS), "apply", "harmonic", "hermite:0"]):
            code, out, _ = run(argv)
            assert code == 0 and out.startswith("N=")

    def test_polynomial_route_holds_one_transform_at_a_time(self):
        # x^1000 on 4096 points transforms x^j psi for j = 0..1000, 64 MB if
        # all are kept; one at a time, the command peaked at 94 MB (157 MB
        # when all were kept).  A middle process runs the command, so that
        # its RUSAGE_CHILDREN peak is the command's alone (ru_maxrss is in
        # kB on Linux).  The samples overflow: exit 2.
        probe = textwrap.dedent("""
            import resource, subprocess, sys
            done = subprocess.run(
                [sys.executable, "-m", "bjcalc.cli", "--max-degree", "1000",
                 "--grid", "4096", "apply", "monomial:1000:0", "gaussian"],
                capture_output=True, text=True)
            print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=120)
        code, peak_kb = map(int, done.stdout.split())
        assert code == 2
        assert peak_kb < 125 * 1024, peak_kb

    @pytest.mark.parametrize("spelling, scheme", SCHEME_SPELLINGS.items(),
                             ids=list(SCHEME_SPELLINGS))
    def test_documented_spellings_print_the_library_norm(self, spelling, scheme):
        grid = UniformGrid(64, 16.0)
        states = {"gaussian": gaussian_state(grid), "hermite:2": hermite_state(grid, 2)}
        symbols = {"harmonic": symlang.parse("1/2*x^2 + 1/2*p^2"),
                   "monomial:1:1": SymbolPoly.monomial(1, x=(1,), p=(1,))}
        for state, psi in states.items():
            for symbol, a in symbols.items():
                code, out, err = run(["--grid", "64", "--box", "16", "apply", symbol, state,
                                      "--scheme", spelling])
                norm = numeric.apply_operator(a, psi, scheme).norm()
                assert (code, err) == (0, "")
                assert out.splitlines()[1] == f"norm={norm:.12g}"

    def test_sinc_null_symbol_runs(self):
        code, out, _ = run(
            ["--grid", "64", "apply", "sinc-null:1:6.3", "gaussian",
             "--scheme", "bj-sinc"]
        )
        assert code == 0


class TestFlagStyle:
    """A rule and a conversion each have one spelling, positional: the rule,
    and FROM-to-TO or tau-shift:FROM:TO.  The flags that spelled them a
    second way are gone, and so is --tolerance."""

    def test_quantize_rule_flag(self):
        # the positional rule alone names it: weyl, bj or tau:VALUE
        for rule in ("weyl", "bj", "tau:1/2"):
            assert run(["quantize", rule, "x*p"]) == (0, "xhat*phat - (1/2)*i*hbar\n", "")

    def test_quantize_rule_missing(self):
        assert run(["quantize", "x*p"]) == (
            1, "", "error: the following arguments are required: symbol\n")

    def test_convert_from_to(self):
        # FROM-to-TO reaches every pair of calculi
        assert run(["convert", "bj-to-tau:1/2", "x^2*p^2"]) == run(
            ["convert", "bj-to-weyl", "x^2*p^2"]
        )
        assert run(["convert", "tau:1/2-to-bj", "x^2*p^2"]) == run(
            ["convert", "weyl-to-bj", "x^2*p^2"]
        )
        assert run(["convert", "tau:0-to-tau:1", "x*p"]) == run(
            ["convert", "tau-shift:0:1", "x*p"]
        )
        assert run(["convert", "weyl-to-tau:-1/2", "x*p"]) == run(
            ["convert", "tau-shift:1/2:-1/2", "x*p"]
        )
        assert run(["convert", "bj-to-bj", "x*p"]) == (0, "x*p\n", "")

    def test_convert_tau_to_bj(self):
        assert run(["convert", "tau:0-to-bj", "x*p"]) == (0, "x*p + (1/2)*i*hbar\n", "")

    def test_convert_unknown_calculus(self):
        assert run(["convert", "wick-to-bj", "x*p"]) == (
            1, "", "error: unknown calculus 'wick' (expected weyl, bj, or tau:VALUE)\n")

    @pytest.mark.parametrize("argv", [
        ["quantize", "--rule", "bj", "x*p"],
        ["convert", "--from", "weyl", "--to", "bj", "x*p"],
        ["convert", "weyl-to-bj", "x*p", "--to", "bj"],
        ["--tolerance", "1e-6", "apply", "harmonic", "gaussian"],
    ], ids=["rule", "from", "to", "tolerance"])
    def test_removed_flags_are_usage_errors(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_csv_state_input(self, tmp_path):
        from bjcalc import UniformGrid, gaussian_state, wavefunction_to_csv

        grid = UniformGrid(128, 20.0)
        path = tmp_path / "state.csv"
        path.write_text(wavefunction_to_csv(gaussian_state(grid)))
        from_file = run(
            ["--grid", "128", "--output", "csv", "apply", "harmonic", str(path)]
        )
        named = run(
            ["--grid", "128", "--output", "csv", "apply", "harmonic", "gaussian"]
        )
        assert from_file[0] == 0
        assert from_file == named

    def test_csv_state_wrong_size(self, tmp_path):
        from bjcalc import UniformGrid, gaussian_state, wavefunction_to_csv

        path = tmp_path / "state.csv"
        path.write_text(wavefunction_to_csv(gaussian_state(UniformGrid(64, 20.0))))
        code, _, err = run(["--grid", "128", "apply", "harmonic", str(path)])
        assert code == 2
        assert "samples" in err

    @pytest.mark.parametrize("text", ["", "x,re,im\n"], ids=["empty", "header-only"])
    def test_csv_state_without_samples(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, out, err = run(["apply", "harmonic", str(path)])
        assert (code, out, err) == (2, "", "error: CSV has no sample rows\n")

    def test_csv_state_wrong_box(self, tmp_path):
        from bjcalc import UniformGrid, gaussian_state, wavefunction_to_csv

        path = tmp_path / "state.csv"
        path.write_text(wavefunction_to_csv(gaussian_state(UniformGrid(128, 40.0))))
        code, _, err = run(["--grid", "128", "apply", "harmonic", str(path)])
        assert code == 2
        assert "x column" in err
        code, _, _ = run(
            ["--grid", "128", "--box", "40", "apply", "harmonic", str(path)]
        )
        assert code == 0

    def test_csv_state_bad_sample(self, tmp_path):
        from bjcalc import UniformGrid, gaussian_state, wavefunction_to_csv

        rows = wavefunction_to_csv(gaussian_state(UniformGrid(128, 20.0))).splitlines()
        x, _, im = rows[5].split(",")
        rows[5] = f"{x},a,{im}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows))
        code, out, err = run(["--grid", "128", "apply", "harmonic", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: CSV row 6: re must be a number, got 'a'\n"

    def test_csv_state_bad_first_row(self, tmp_path):
        from bjcalc import wavefunction_to_csv

        # a headerless file's bad first sample is row 1, not a header
        rows = wavefunction_to_csv(gaussian_state(UniformGrid(128, 20.0))).splitlines()[1:]
        rows[0] = "a," + rows[0].split(",", 1)[1]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows))
        code, out, err = run(["--grid", "128", "apply", "harmonic", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: CSV row 1: x must be a number, got 'a'\n"


VERIFY_CHECKS = (
    "commutator-normalization", "monomial-equal-weight-average", "symmetric-midpoint",
    "conversion-roundtrip", "conversion-vs-quantizer", "coefficient-table",
    "scheme-coherence", "grid-involution", "harmonic-ground-state",
)
NUMERIC_CHECKS = ("scheme-coherence", "grid-involution", "harmonic-ground-state")


class TestVerifyAndErrors:
    def test_verify_passes(self):
        code, out, _ = run(["verify"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 9

    def test_verify_text_lines(self):
        assert run(["verify"])[1] == "".join(f"PASS {name}\n" for name in VERIFY_CHECKS) + (
            "ok: 9/9 checks\n")

    def test_verify_json_margins(self):
        code, out, _ = run(["--output", "json", "verify"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "verify"
        checks = payload["checks"]
        assert [c["name"] for c in checks] == list(VERIFY_CHECKS)
        for check in checks:
            assert set(check) == {"name", "passed", "residual", "tolerance"}
            assert check["passed"] is True
            if check["name"] in NUMERIC_CHECKS:
                assert 0 <= check["residual"] < check["tolerance"]
            else:
                assert check["residual"] is None and check["tolerance"] is None
        tolerances = {c["name"]: c["tolerance"] for c in checks}
        assert tolerances["grid-involution"] == 1e-10
        assert tolerances["scheme-coherence"] == tolerances["harmonic-ground-state"] == 1e-8

    def test_verify_reports_failures(self, monkeypatch):
        from bjcalc import cli

        monkeypatch.setattr(cli, "_verify_checks", lambda: [
            ("exact-ok", lambda: True), ("exact-bad", lambda: False),
            ("inside", lambda: (0.5, 1.0)), ("at-tolerance", lambda: (1.0, 1.0)),
        ])
        code, out, _ = run(["verify"])
        assert code == 3
        assert out == ("PASS exact-ok\nFAIL exact-bad\nPASS inside\n"
                       "FAIL at-tolerance\nfailed: 2/4 checks\n")
        code, out, _ = run(["--output", "json", "verify"])
        assert code == 3
        assert json.loads(out)["checks"] == [
            {"name": "exact-ok", "passed": True, "residual": None, "tolerance": None},
            {"name": "exact-bad", "passed": False, "residual": None, "tolerance": None},
            {"name": "inside", "passed": True, "residual": 0.5, "tolerance": 1.0},
            {"name": "at-tolerance", "passed": False, "residual": 1.0, "tolerance": 1.0},
        ]

    def test_usage_error_exit_1(self):
        code, _, _ = run(["frobnicate"])
        assert code == 1

    def test_parse_error_exit_2(self):
        code, _, err = run(["quantize", "weyl", "x^"])
        assert code == 2
        assert "position" in err

    def test_flags_accepted_after_subcommand(self):
        code, _, err = run(["quantize", "weyl", "x^2*p^2", "--max-degree", "3"])
        assert code == 2
        assert "degree" in err
        code, out, _ = run(["verify", "--max-degree", "4"])
        assert code == 0
        assert "FAIL" not in out

    def test_determinism(self):
        argv = ["--output", "json", "quantize", "bj", "x^3*p^3 - 1/2*x*p"]
        first = run(argv)
        second = run(argv)
        assert first == second and first[0] == 0


def _symbol(n=64, hbar=1.0):
    return SampledSymbol(UniformGrid(n, 16.0), np.zeros((n, n)), hbar)


def _state(n=64, hbar=1.0):
    return gaussian_state(UniformGrid(n, 16.0), hbar)


GRID = UniformGrid(64, 16.0)

# (argv, exit code, fragment of stderr, or of stdout on success) or
# (call, exception, fragment of its message)
ERROR_PATHS = [
    (["quantize", "tau:abc", "x*p"], 1, "invalid ordering parameter 'abc'"),
    (["apply", "harmonic", "gaussian", "--scheme", "bj"], 1, "unknown scheme 'bj'"),
    (["apply", "harmonic", "hermite:x"], 1, "invalid Hermite index"),
    (["apply", "monomial:1", "gaussian"], 1, "expected monomial:R:S"),
    (["apply", "monomial:a:b", "gaussian"], 1, "invalid monomial exponents"),
    (["apply", "sinc-null:1", "gaussian"], 1, "expected sinc-null:X0:P0"),
    (["apply", "sinc-null:a:b", "gaussian"], 1, "invalid null-point coordinates"),
    (["convert", "tau-shift:1/4", "x*p"], 1, "expected tau-shift:FROM:TO"),
    (["convert", "nonsense", "x*p"], 1, "unknown direction 'nonsense' (expected FROM-to-TO"),
    (["--dim", "2", "apply", "harmonic", "gaussian"], 1, "dimension 1 only"),
    (["apply", "monomial:40:40", "gaussian"], 2, "degree 80 exceeds --max-degree 64"),
    (["convert", "bj-to-tau:1/3", "x*p"], 0, "x*p - (1/6)*i*hbar\n"),
    (lambda: SampledSymbol(GRID, np.zeros(64)), ValueError, "shape (64, 64)"),
    (lambda: SampledSymbol(GRID, np.full((64, 64), np.nan)), ValueError, "non-finite"),
    (lambda: _symbol(hbar=0.0), ValueError, "hbar must be positive"),
    (lambda: _symbol(hbar=np.inf), ValueError, "hbar must be positive and finite"),
    (lambda: gaussian_state(GRID, np.inf), ValueError, "hbar must be positive and finite"),
    (lambda: UniformGrid(64, np.inf), ValueError, "length must be positive and finite"),
    (lambda: weyl_via_grossmann_royer(_symbol(128), _state()), ValueError, "grids differ"),
    (lambda: weyl_via_grossmann_royer(_symbol(hbar=2.0), _state()), ValueError,
     "hbar differ"),
    (lambda: antiwick_apply(_symbol(128), _state()), ValueError, "grids differ"),
    (lambda: antiwick_apply(_symbol(), _state(hbar=2.0)), ValueError, "hbar differ"),
    (lambda: hermite_state(GRID, -1), ValueError, "must be non-negative"),
    (lambda: sample_symbol(SymbolPoly.variable(2, "x1"), GRID), ValueError,
     "one-dimensional"),
    (["apply", "sinc-null:nan:1", "gaussian"], 1, "invalid null-point coordinates 'nan:1'"),
    (["apply", "sinc-null:inf:1", "gaussian"], 1, "invalid null-point coordinates 'inf:1'"),
    (["apply", "sinc-null:15:1", "gaussian"], 1, "null point lies outside the grid"),
    (["apply", "sinc-null:1e308:1", "gaussian"], 1, "null point lies outside the grid"),
    (["apply", "harmonic", "gaussian", "--scheme", "tau:1e400"], 1,
     "ordering parameter '1e400' is too large"),
    (["apply", "harmonic", "hermite:1_0"], 1, "invalid Hermite index '1_0'"),
    (["apply", "harmonic", "hermite:\u0663"], 1, "invalid Hermite index '\u0663'"),
    (["apply", "harmonic", "hermite: 3"], 1, "invalid Hermite index ' 3'"),
    (["apply", "monomial:1_0:3", "gaussian"], 1, "invalid monomial exponents '1_0:3'"),
    (["quantize", "tau:1_0", "x*p"], 1, "invalid ordering parameter '1_0'"),
    (["convert", "tau-shift:1_0:3", "x*p"], 1, "invalid ordering parameters '1_0:3'"),
    (["--max-degree", "1", "apply", "harmonic", "gaussian"], 2,
     "symbol degree 2 exceeds --max-degree 1"),
    (["quantize", "tau:1e10000000", "x*p"], 1,
     f"ordering parameter '1e10000000': more than {MAX_NUMERAL_DIGITS} digits"),
    (["quantize", "tau:1e5000", "x*p"], 1,
     f"ordering parameter '1e5000': more than {MAX_NUMERAL_DIGITS} digits"),
    (["convert", "tau-shift:0:1e-5000", "x*p"], 1,
     f"ordering parameters '0:1e-5000': more than {MAX_NUMERAL_DIGITS} digits"),
    (["quantize", "tau:1e200", "x^30*p^30"], 2, "digits, too many to print"),
    (["--output", "json", "quantize", "tau:1e200", "x^30*p^30"], 2,
     "digits, too many to print"),
    (["--max-degree", "1000", "--grid", "64", "apply", "monomial:400:0", "gaussian"], 2,
     "SampledWavefunction contains non-finite values"),
    (["--max-degree", "2000", "--grid", "64", "apply", "monomial:1100:0", "gaussian"], 2,
     "SampledWavefunction contains non-finite values"),
    (["--hbar", "1e300", "--box", "1e300", "--max-degree", "200", "apply", "monomial:0:80",
      "hermite:0"], 2, "the result's norm exceeds the double range"),
    (["quantize", "tau:1e-900", "(x+p)^64"], 2,
     "a coefficient has more than 4300 digits, too many to print"),
    (["quantize", "weyl", "9" * 5000 + "*x"], 2,
     "numeral has more than 4300 digits (at position 0)"),
    (["--dim", str(MAX_DIM + 1), "quantize", "weyl", "x1*p1"], 1,
     f"--dim must be at most {MAX_DIM}"),
    (["--max-degree", str(MAX_APPLY_DEGREE + 1), "--grid", "64", "apply",
      f"monomial:{MAX_APPLY_DEGREE + 1}:0", "gaussian"], 1,
     f"--max-degree must be at most {MAX_APPLY_DEGREE} for apply"),
    (["apply", "monomial:-1:0", "gaussian"], 1, "monomial exponents must be non-negative"),
    # the zero symbol has no term for the print-limit check to start from
    (["quantize", "bj", "0"], 0, "0\n"),
    (["convert", "weyl-to-bj", "0"], 0, "0\n"),
    (["--output", "json", "quantize", "bj", "0"], 0, '"terms": []'),
    (["--output", "json", "convert", "weyl-to-bj", "0"], 0, '"terms": []'),
    # --scheme names schemes, not the calculi of quantize and convert
    *((["apply", "harmonic", "gaussian", "--scheme", name], 1,
       f"unknown scheme '{name}' (expected weyl, tau:VALUE, bj-quadrature, or bj-sinc)")
      for name in ("nonsense", "bj", "born-jordan")),
    # argparse would take the unknown flag's value for the subcommand
    (["--foo", "1", "apply", "harmonic", "gaussian"], 1, "unrecognized arguments: --foo 1"),
    (["--tolerance", "1", "apply", "harmonic", "gaussian"], 1,
     "unrecognized arguments: --tolerance 1"),
    # a bad value before the subcommand is argparse's own message
    (["--dim", "x", "apply", "harmonic", "gaussian"], 1,
     "argument --dim: invalid int value: 'x'"),
]


@pytest.mark.parametrize("argv", [
    ["--max-degree", "1000", "--grid", "64", "apply", "monomial:300:0", "gaussian"],
    ["--hbar", "1e300", "--box", "1e300", "apply", "monomial:0:40", "hermite:0"],
    # C(1100, j) is past double range; the weights themselves are not
    ["--box", "2", "--max-degree", "2000", "--grid", "64", "apply",
     "monomial:1100:0", "gaussian", "--scheme", "bj-quadrature"],
])
def test_apply_prints_a_finite_norm(argv):
    # |psi|^2 overflows where psi does not; a box 2 wide does not hold the
    # Gaussian, which is said in one warning line
    code, out, err = run(argv)
    warning = ("warning: wavefunction does not decay below tolerance at the box boundary "
               "(relative edge magnitude 6.07e-01)\n")
    assert (code, err) == (0, warning if argv[:2] == ["--box", "2"] else "")
    norm = float(out.splitlines()[1].removeprefix("norm="))
    assert 0 < norm < float("inf")


@pytest.mark.parametrize("argv", [
    ["quantize", "tau:1e-900", "(x+p)^64"],
    ["quantize", "tau:1e-200", "(x+p)^64"],
    ["convert", "bj-to-tau:1e-300", "(x+p)^64"],
    ["--output", "json", "convert", "tau-shift:1e-900:1/2", "x*p + (x+p)^64"],
    ["--dim", "2", "quantize", "tau:1e-900", "(x1+p1+x2+p2)^20 + hbar*x1*p2"],
    ["--dim", "3", "convert", "bj-to-tau:1e-900", "(x1+p1+x2+p2+x3+p3)^12"],
])
def test_unprintable_result_is_rejected_before_the_work(argv):
    # the full computation takes seconds to minutes before printing fails
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: a coefficient has more than 4300 digits, too many to print\n"


@pytest.mark.parametrize("argv, text", [
    (["quantize", "tau:1e-900", "x*p"], "xhat*phat - (1/" + "1" + "0" * 900 + ")*i*hbar\n"),
    (["quantize", "tau:1e-200", "(x+p)^2"],
     "xhat^2 + 2*xhat*phat + phat^2 - (1/" + "5" + "0" * 199 + ")*i*hbar\n"),
])
def test_printable_result_with_a_long_parameter(argv, text):
    assert run(argv) == (0, text, "")


@pytest.mark.parametrize("case, expected, fragment", ERROR_PATHS)
def test_error_paths(case, expected, fragment):
    if isinstance(case, list):
        code, out, err = run(case)
        assert code == expected
        assert fragment in (out if code == 0 else err)
        assert code == 0 or (out == "" and err.startswith("error: ") and err.count("\n") == 1)
    else:
        with pytest.raises(expected, match=re.escape(fragment)):
            case()
