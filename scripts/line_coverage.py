"""Statement coverage of the matroidlab package under a pytest run.

Runs pytest in this process on the given paths (default: tests) with a
line tracer installed through sys.settrace and threading.settrace, then
writes one CSV row per library module: its function-body statements, how
many of them ran, the share, and the line numbers of those that did not.
The last row totals them.  Only the standard library is used.

A statement is counted when it lies in a function body (module-level code
runs at import) and is not a docstring.  It ran when any line of its
header ran: a simple statement's own lines, a compound statement's lines
up to its body, a decorated definition's decorators.  Code run in child
processes, such as CLI tests that start a new interpreter, is not seen.

    PYTHONPATH=src python scripts/line_coverage.py [pytest paths...]

The exit code is pytest's.
"""

import argparse
import ast
import os
import sys
import threading

import pytest

import matroidlab


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def statement_headers(source):
    """{first line: header lines} of the function-body statements of a
    module's source, docstrings and global/nonlocal declarations (which
    run no code) left out."""
    out = {}

    def visit(body, in_function, function_body=False):
        for i, stmt in enumerate(body):
            if (in_function and not (function_body and i == 0 and _is_docstring(stmt))
                    and not isinstance(stmt, (ast.Global, ast.Nonlocal))):
                start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                inner = getattr(stmt, "body", None)
                end = inner[0].lineno - 1 if inner else stmt.end_lineno
                out[start] = range(start, max(start, end) + 1)
            function = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, []), in_function or function,
                      function and field == "body")
            for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
                visit(part.body, in_function)

    visit(ast.parse(source).body, False)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["tests"],
                        help="test files or directories for pytest")
    args = parser.parse_args(argv)

    package = os.path.dirname(os.path.abspath(matroidlab.__file__))
    files = sorted(os.path.join(package, name) for name in os.listdir(package)
                   if name.endswith(".py"))
    headers = {}
    for path in files:  # before the run, so that an edit during it cannot shift lines
        with open(path) as fh:
            headers[path] = statement_headers(fh.read())
    ran = {path: set() for path in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args.paths])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("module,statements,run,percent,unreached")
    total = run_total = 0
    for path in files:
        missed = sorted(line for line, span in headers[path].items()
                        if not ran[path].intersection(span))
        n, hit = len(headers[path]), len(headers[path]) - len(missed)
        total, run_total = total + n, run_total + hit
        print(f"{os.path.basename(path)},{n},{hit},{100 * hit / max(n, 1):.1f},"
              f"{' '.join(map(str, missed))}")
    print(f"total,{total},{run_total},{100 * run_total / max(total, 1):.1f},")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
