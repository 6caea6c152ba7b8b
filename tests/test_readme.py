"""The README's library example runs, and prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

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
