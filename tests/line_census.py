"""Line census: the function-body lines of src/sullivan/*.py that no test
runs.

    python tests/line_census.py [pytest arguments]

runs the tier-1 suite (by default `-q -p no:cacheprovider
--continue-on-collection-errors` over tests/) in this process under a
`sys.settrace` line tracer, then prints each function-body line that no
test executed as `file:line  function  source`, and their count.  The
tracer is installed again before each test's setup and call, since a test
may install a tracer of its own (hypothesis does when it explains a
failure).  A function-body line is one with bytecode in a function,
method or lambda, or in a comprehension inside one; the `def` line (or
its first decorator) and module- and class-level code, which runs on
import, are left out.  The
name does not start with `test_`, so pytest does not collect it.  The
traced suite takes a few times as long as the suite alone.
"""

import inspect
import pathlib
import sys
import threading
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sullivan"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", str(ROOT / "tests")]


def body_lines(path):
    """{line: qualified function name} of the function-body lines."""
    lines = {}

    def visit(code, in_function):
        named = not code.co_name.startswith("<")
        is_function = in_function or code.co_name == "<lambda>" or (
            named and code.co_flags & inspect.CO_OPTIMIZED)
        if is_function:
            for _, _, line in code.co_lines():
                if line is not None and not (named
                                             and line == code.co_firstlineno):
                    lines.setdefault(line, code.co_qualname)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                visit(const, is_function)

    visit(compile(path.read_text("utf-8"), str(path), "exec"), False)
    return lines


class LineTracer:
    """A pytest plugin that records the lines run in the files given."""

    def __init__(self, files):
        self.files = set(files)
        self.seen = {f: set() for f in self.files}

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename in self.files:
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def install(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()


def main(argv):
    sys.path.insert(0, str(SRC.parent))  # absolute code file names
    paths = sorted(SRC.glob("*.py"))
    tracer = LineTracer(str(p) for p in paths)
    code = pytest.main(argv or DEFAULT_ARGS, plugins=[tracer])
    sys.settrace(None)
    threading.settrace(None)
    missed = 0
    for path in paths:
        source = path.read_text("utf-8").splitlines()
        body = body_lines(path)
        for line in sorted(set(body) - tracer.seen[str(path)]):
            missed += 1
            print(f"{path.name}:{line}  {body[line]}  "
                  f"{source[line - 1].strip()}")
    print(f"{missed} function-body lines of src/sullivan not executed "
          f"(pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
