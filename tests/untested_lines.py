"""Print every line of ``src/`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer and
then lists, as ``path:line  source``, each executable line of a module
under ``src/`` that no test reached, followed by a count.  A line is
executable when the compiled module maps bytecode to it (``co_lines``
of the module's code objects); a function's docstring maps none.

Not collected by pytest.  Run from the repository root:

    PYTHONPATH=src python tests/untested_lines.py [PYTEST_ARGS ...]

With no arguments it traces tier-1, every test under ``tests/``; any
arguments go to pytest instead, for example one test file.  The suite
runs about six times slower under the tracer.  It exits with
pytest's status.  It writes nothing into the working tree: no bytecode, and no
pytest cache.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` maps
    bytecode to, the module's own code object included."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Records which lines of the files under ``src/`` run.

    ``left`` maps each code object seen to its lines not yet run, an
    empty set for code outside ``src/``.  The call hook hands the line
    hook only to a frame whose code still has a line left, so code that
    is done, and the rest of the suite, cost one dict lookup per call.
    """

    def __init__(self, files: set[str]):
        self.files = files
        self.left: dict = {}

    def call(self, frame, event, arg):
        code = frame.f_code
        left = self.left.get(code)
        if left is None:
            left = self.left[code] = (
                {line for _, _, line in code.co_lines() if line}
                if code.co_filename in self.files
                else set()
            )
        return self.line if left else None

    def line(self, frame, event, arg):
        if event == "line":
            left = self.left[frame.f_code]
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return self.line

    def ran(self, name: str) -> set[int]:
        """The lines of file ``name`` that ran."""
        out: set[int] = set()
        for code, left in self.left.items():
            if code.co_filename == name:
                out.update(line for _, _, line in code.co_lines() if line not in left)
        return out


class _Reinstall:
    """A pytest plugin that installs the tracer again before each test.

    A test that runs into the recursion limit can raise inside the
    tracer, and Python then turns tracing off for the rest of the run.
    """

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer.call)


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    paths = sorted(SRC.rglob("*.py"))
    tracer = LineTracer({str(p) for p in paths})
    import pytest  # the suite's runner; sgties is imported only under the tracer

    sys.settrace(tracer.call)
    try:
        status = pytest.main([*argv, "-q", "-p", "no:cacheprovider"], plugins=[_Reinstall(tracer)])
    finally:
        sys.settrace(None)
    missed = total = 0
    for p in paths:
        lines = executable_lines(p)
        text = p.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - tracer.ran(str(p))):
            print(f"{p.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
            missed += 1
        total += len(lines)
    print(f"{missed} of {total} executable lines of src/ never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
