"""README's library quickstart runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    """The python block under the "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_prints_what_its_comments_say():
    # each print's trailing "# ..." comment is the line it prints; "(...)"
    # stands for the rest of the line
    code = _quickstart()
    want = [line.split("# ", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    got = out.getvalue().splitlines()
    assert len(got) == len(want) == 4
    for line, comment in zip(got, want):
        if comment.endswith("(...)"):
            assert line.startswith(comment[:-len("...)")]), (line, comment)
        else:
            assert line == comment, (line, comment)
