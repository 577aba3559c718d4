"""List the statements of ``src/indexvar`` that no test under ``tests/`` executes.

    python tools/untested_lines.py

Runs ``pytest -q tests`` in this process under ``sys.settrace`` (and
``threading.settrace``), tracing lines only in frames whose code lies in
``src/indexvar``, which is imported fresh from this checkout. A statement
counts as executed when a line event fires on any of its own lines: for a
compound statement (``if``, ``for``, ``while``, ``with``) the lines of its
header, before its body. Docstrings, ``def`` and ``class`` statements,
imports, ``try`` (whose header holds no code), ``global``, ``nonlocal`` and
bare annotations inside functions are left out. Code that runs only in a
child process (a process pool's workers) is not seen, so it lists as
untested. Prints each module's untested statements, first line only, then
the count per module and in all, and exits with pytest's status.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indexvar"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try, ast.Global, ast.Nonlocal)


def statements(tree: ast.Module):
    """(first line, own lines) of each counted statement of a module, in order."""
    out = []

    def visit(body: list, in_function: bool):
        for node in body:
            inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            if isinstance(node, SKIPPED):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue                               # a docstring, or a bare string
            if isinstance(node, ast.AnnAssign) and node.value is None and in_function:
                continue                               # compiles to no code
            body_start = min((child.lineno for child in getattr(node, "body", [])),
                             default=node.end_lineno + 1)
            out.append((node.lineno, range(node.lineno, min(node.end_lineno + 1, body_start))))

    visit(tree.body, False)
    return sorted(out)


def main() -> int:
    import pytest

    hits = {}                                          # file -> lines a line event fired on
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total, counts = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = hits.get(str(path), set())
        missed = [first for first, own in statements(ast.parse(source)) if seen.isdisjoint(own)]
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        counts.append(f"{path.stem} {len(missed)}")
        total += len(missed)
    print(f"untested statements: {total} ({', '.join(counts)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
