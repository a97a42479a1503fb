"""List the statements in the function bodies of ``concentra`` that the test
suite never runs.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

runs the suite in this process (tier-1 by default; any arguments go to
pytest) with ``sys.settrace`` and ``threading.settrace`` recording the
lines run in the package's own files, so the series pool's threads count
too.  It then prints ``module:line  statement`` for each function-body
statement that never ran, and their number.  Statements that run only in
a subprocess (the demos, the import-time checks) count as never run.

It needs the standard library and pytest only, where no coverage tool is
installed.  Traced, the suite takes about 1.8 times as long (89 s against
51 s on 2 cores).  The script's name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

import concentra

PACKAGE = Path(concentra.__file__).resolve().parent


def _code_lines(code: types.CodeType) -> set:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict:
    """{line: source} of each statement in a function body of ``path`` that
    compiles to code (a docstring does not)."""
    source = path.read_text()
    body = {node.lineno
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in fn.body for node in ast.walk(stmt) if isinstance(node, ast.stmt)}
    text = source.splitlines()
    return {n: text[n - 1].strip()
            for n in sorted(body & _code_lines(compile(source, str(path), "exec")))}


def traced_run(args) -> tuple:
    """(pytest exit code, {file name: lines run}) of the suite run under the
    line tracer."""
    ran = defaultdict(set)
    ours = {}                         # file name -> whether it is in the package

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == PACKAGE
        return lines if ours[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args) -> int:
    code, ran = traced_run(args)
    run = {Path(name).resolve(): lines for name, lines in ran.items()}
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        done = run.get(path, set())
        for n, text in statements(path).items():
            if n not in done:
                missed += 1
                print(f"{path.stem}:{n}  {text}")
    print(f"function-body statements under {PACKAGE.name} never run: {missed} "
          f"(pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
