"""The README's Python session prints what its comments say: each run of
`# ` comment lines is the output of the statement above it."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_session_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    promised = [line[2:] for line in blocks[0].splitlines()
                if line.startswith("# ")]
    assert out.getvalue().splitlines() == promised
