"""The numeric layer loads on first use: exact work never imports NumPy.

Each check runs in a fresh interpreter, since this test process has NumPy
loaded already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_runs(code: str) -> str:
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_exact_commands_do_not_import_numpy():
    out = assert_runs("""
        import io, sys
        from contextlib import redirect_stdout

        import bjcalc
        assert "numpy" not in sys.modules, "import bjcalc"
        from bjcalc.cli import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["quantize", "weyl", "x*p"]) == 0
            assert main(["convert", "weyl-to-bj", "x^2*p^2"]) == 0
            assert main(["coeffs", "--max", "8"]) == 0
            assert main(["--output", "json", "quantize", "bj", "x^2*p^2"]) == 0
            assert main(["--output", "json", "convert", "weyl-to-bj", "x*p^2"]) == 0
        assert "numpy" not in sys.modules, "exact commands"

        grid = bjcalc.UniformGrid(64, 16.0)
        assert "numpy" in sys.modules
        with redirect_stdout(buffer):
            assert main(["--grid", "64", "--box", "16", "apply", "harmonic",
                         "gaussian"]) == 0
        print(buffer.getvalue())
    """)
    assert "xhat*phat - (1/2)*i*hbar" in out
    assert "x^2*p^2 + (1/6)*hbar^2" in out
    assert "norm=0.5" in out


def test_every_public_name_resolves_and_is_listed():
    assert_runs("""
        import bjcalc
        for name in bjcalc.__all__:
            assert name in dir(bjcalc), name
            getattr(bjcalc, name)
        assert len(bjcalc.__all__) == len(set(bjcalc.__all__)) == 59
        assert bjcalc.apply_operator is bjcalc.numeric.apply_operator
    """)


def test_star_import_binds_every_name():
    assert_runs("""
        import bjcalc
        namespace = {}
        exec("from bjcalc import *", namespace)
        missing = set(bjcalc.__all__) - set(namespace)
        assert not missing, missing
        assert namespace["UniformGrid"] is bjcalc.numeric.UniformGrid
    """)


def test_unknown_attribute_raises():
    assert_runs("""
        import sys
        import bjcalc
        try:
            bjcalc.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(bjcalc, "uniform_grid")
        assert "numpy" not in sys.modules
    """)


def test_numeric_all_is_the_lazily_resolved_names():
    import bjcalc
    from bjcalc import numeric

    assert len(numeric.__all__) == len(set(numeric.__all__))
    assert set(numeric.__all__) == bjcalc._NUMERIC_NAMES


def test_no_thread_or_logging_at_import_or_in_small_commands():
    # the grid layer's helper thread starts on the first split pass, from
    # N = numeric._SPLIT_MIN_N on; importing it, an exact command and
    # `verify` (whose N x N passes are at N = 64) start none
    assert_runs("""
        import io, sys, threading
        from contextlib import redirect_stdout

        def check(stage):
            assert threading.active_count() == 1, stage
            for name in ("concurrent.futures", "logging"):
                assert name not in sys.modules, (stage, name)

        import bjcalc.numeric
        check("import bjcalc.numeric")
        from bjcalc.cli import main

        with redirect_stdout(io.StringIO()):
            assert main(["quantize", "bj", "x^2*p^2"]) == 0
            check("an exact command")
            assert main(["verify"]) == 0
            check("verify")
    """)
