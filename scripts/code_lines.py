#!/usr/bin/env python3
"""Total and code lines of Python modules.

Code lines leave out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function), so a change to comments
does not move the count.

    python3 scripts/code_lines.py src/invforge/*.py
"""

import ast
import sys

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))


if __name__ == "__main__":
    total = code = 0
    for path in sys.argv[1:]:
        with open(path) as f:
            text = f.read()
        t, c = len(text.splitlines()), code_lines(text)
        total, code = total + t, code + c
        print(f"{t:6} {c:6} {path}")
    print(f"{total:6} {code:6} total (lines, code lines)")
