"""Count the code lines of Python modules.

A code line is a line that holds part of a token other than a comment and
is not part of a docstring: blank lines, comment-only lines and the lines
of module, class and function docstrings are left out.  A string that
spans several lines counts each of them, unless it is a docstring.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py`` files; the
default is the package, ``src/statetexture``.  Prints one row per module,
named relative to the working directory (code lines, then all lines), and
a total row.
"""

import ast
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(code lines, all lines) of one module."""
    source = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def main(argv) -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "statetexture"
    paths = [Path(arg) for arg in argv] or [package]
    modules = sorted(p for path in paths for p in (path.rglob("*.py") if path.is_dir() else [path]))
    rows = [(os.path.relpath(p), *count(p)) for p in modules]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module'.ljust(width)}  {'code':>5}  {'lines':>5}")
    for name, code, lines in rows:
        print(f"{name.ljust(width)}  {code:>5}  {lines:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
