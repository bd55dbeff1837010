"""Print every function-body line of ``src/radicalroots`` that no test runs.

Run it from the repository root::

    PYTHONPATH=src python -m tests.untested_lines [pytest arguments]

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors
tests``, or the pytest arguments given) in this process under
``sys.settrace``, records the lines that the package's functions execute,
and prints each statement line inside a function body that never ran, as
``file:line: source``.  A statement counts as run when any line event
reports its first line.  The exit status is pytest's.  Tracing makes the
suite a few times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radicalroots"

# statements that compile to no instruction of their own, or none that
# carries their first line: their bodies are checked instead
_SILENT = (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Global, ast.Nonlocal)


def _statement_lines(body, out: set[int]) -> None:
    """First lines of the statements in ``body`` and in the bodies nested in
    them, a leading docstring left out."""
    for k, stmt in enumerate(body):
        if (k == 0 and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        if not isinstance(stmt, _SILENT):
            out.add(stmt.lineno)
        for field in ("body", "orelse", "finalbody"):
            _statement_lines(getattr(stmt, field, []), out)
        for handler in getattr(stmt, "handlers", []):
            _statement_lines(handler.body, out)
        for case in getattr(stmt, "cases", []):
            _statement_lines(case.body, out)


def function_body_lines(path: Path) -> set[int]:
    """First lines of the statements in the bodies of the functions and
    methods of ``path``, nested functions included."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _statement_lines(node.body, lines)
    return lines


def _trace_lines(run) -> tuple[object, dict[str, set[int]]]:
    """``run()``'s result and the lines it executed in each file of the
    package, by file name."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return result, seen


def main(argv: list[str]) -> int:
    args = argv or ["-q", "--continue-on-collection-errors",
                    str(Path(__file__).parent)]
    status, seen = _trace_lines(lambda: pytest.main(args))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(function_body_lines(path)
                        - seen.get(str(path), set()))
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{total} function-body lines of src/radicalroots ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
