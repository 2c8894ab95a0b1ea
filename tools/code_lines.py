"""Count code lines per module: lines that hold a token, less comments,
blank lines and docstrings (the first string statement of a module, class
or function, found with `ast`).

    python3 tools/code_lines.py [FILE_OR_DIR ...]   # default: src/mmdist

Prints one line per module and a total; it gates nothing.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(args):
    paths = []
    for arg in args or ["src/mmdist"]:
        p = Path(arg)
        paths += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
