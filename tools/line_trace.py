"""List the lines of `src/matchcore` that the test suite never runs.

usage: python tools/line_trace.py

Runs `pytest` on `tests/` in this process under a `sys.settrace` line
tracer (threads started by the tests are traced too) and prints every
line that the compiled code of `src/matchcore` holds (`co_lines()` of
each module, function and comprehension) but no test executed, as
`path:line: source`. Exits 1 if any line is listed, else 0, whatever
the tests' own outcomes: tracing slows the suite about threefold, so
timing tests can fail under it. Uses the standard library only.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matchcore"


def _code_lines(code: CodeType, out: set[int]) -> None:
    out.update(line for (_, _, line) in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            _code_lines(const, out)


def shipped_lines() -> dict[str, set[int]]:
    """Every line number the compiled code of each package file holds."""
    lines = {}
    for path in sorted(PACKAGE.glob("*.py")):
        out: set[int] = set()
        _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"), out)
        lines[str(path)] = out
    return lines


def run_traced(files) -> dict[str, set[int]]:
    """Run the suite and return the lines executed in each of `files`."""
    import pytest

    ran: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        # a 'call' event starts every function and module body, and every
        # resumption of a generator; only the package's frames are traced
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:  # the project's pytest settings put src/ on the path
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main() -> int:
    lines = shipped_lines()
    ran = run_traced(lines)
    missed = 0
    for path, wanted in lines.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for line in sorted(wanted - ran[path]):
            print(f"{Path(path).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} line(s) of {PACKAGE.relative_to(ROOT)} never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
