"""The README's library example and command-line block run, and print
what their comments say."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from bjcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = _library_example()
    lines = code.splitlines()
    # each print(...) is followed by the line it prints, as a "# " comment
    comments = [after for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
    assert comments and all(c.startswith("# ") for c in comments)
    expected = [c[2:] for c in comments]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


# comments in the command-line block that describe a command rather than
# give its output
DESCRIPTIONS = {
    "conversion coefficient table",
    "state loaded from CSV",
    "built-in identity checks",
    "each check's residual and tolerance",
}


def _command_lines() -> list[tuple[list[str], str | None]]:
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "bjcalc", line
        commands.append((argv[1:], comment.strip() or None))
    return commands


def test_command_line_block_runs_and_prints_its_comments(tmp_path, monkeypatch):
    from bjcalc import UniformGrid, gaussian_state, wavefunction_to_csv

    monkeypatch.chdir(tmp_path)
    psi = gaussian_state(UniformGrid(512, 20.0))
    (tmp_path / "state.csv").write_text(wavefunction_to_csv(psi))
    commands = _command_lines()
    assert len(commands) == 9
    checked = 0
    for argv, comment in commands:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0, argv
        if comment is not None and comment not in DESCRIPTIONS:
            assert out.getvalue() == comment + "\n", argv
            checked += 1
    assert checked == 4
