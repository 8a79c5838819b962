"""List the statements inside `tq`'s functions that a pytest run never
executes, to find the checks and raises that no test reaches.

Run from the repository root, with any pytest arguments:

    PYTHONPATH=src python notes/line_coverage.py [pytest arguments]

It runs pytest in this process under a `sys.settrace` line trace that
follows only frames of code in `src/tq`, with pytest's own output sent to
stderr.  It then prints to stdout, sorted by module and line,
`src/tq/<module>.py:<line>: <statement>` for each statement inside a
function or method whose lines never ran.  A statement counts from its
first line to the line before its body, and only when the compiler emits
code for one of those lines, so a docstring or a `global` never shows.
Code that a test runs in a subprocess (`python -m tq.cli`) is not traced.
The count of statements that ran goes to stderr, and the exit code is
pytest's.  Under the trace the tier-1 suite took 90 s on a 2-CPU x86-64
machine, against about 30 s untraced.
"""

import ast
import contextlib
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tq"


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that `code` and the code objects nested in it emit code
    for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def function_statements(path: Path) -> dict[int, range]:
    """The statements inside the functions of the module at `path` that
    compile to code: first line -> the lines that run the statement itself
    (its header, for a compound statement)."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    statements = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if node is fn or not isinstance(node, ast.stmt):
                continue
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            own = range(node.lineno, max(end, node.lineno) + 1)
            if compiled.intersection(own):
                statements[node.lineno] = own
    return statements


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for `args`, and the lines run in each `src/tq`
    file, by resolved path."""
    ran: dict[str, set[int]] = {}
    tracers = {}  # co_filename -> the local trace of its file, or None

    def tracer(lines: set[int]):
        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.realpath(name)
            tracers[name] = (tracer(ran.setdefault(path, set()))
                             if Path(path).parent == SRC else None)
        return tracers[name]

    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_traced(sys.argv[1:])
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        done = ran.get(str(path.resolve()), set())
        for first, own in sorted(function_statements(path).items()):
            total += 1
            if done.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{total - missed} of {total} statements inside functions in src/tq ran",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
